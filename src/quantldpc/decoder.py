"""Bit-faithful execution of designed decoders on actual frames.

Messages are signed integers in sign-magnitude semantics with no zero; a
check or variable node works by translating message magnitudes through the
iteration's integer tables, combining in a wide adder, and re-quantizing to
w bits.  Scalar node updates (cn_update_comp, cn_update_min, vn_update)
define the semantics one node at a time; decode_batch and the offset-min-sum
baseline omsq_decode_batch run the same arithmetic over all edges and a
batch of frames in one flooding loop.  cn_exact_llr is the high-precision
reference used only by tests.

The loop holds every message array edge-major, as (edges, frames): edges
are stored in check order, and the permutations to variable order and back,
like the syndrome's gather of hard decisions, copy whole rows of frames.  A
node side whose nodes share one degree d views its edges as a (d, nodes,
frames) block reduced over the short leading axis; an irregular side is
node-major and uses ``reduceat`` along the edge axis.  Quantizing is a table
lookup, two per iteration.  A variable-to-check message travels encoded as
v = 2 cn_in(t) + (t < 0): the CN input of its w-bit value t (the translated
magnitude, or |t| for a minimum) with the sign in bit 0.  DecoderState
tabulates per iteration, over the adder range, the signed VN addend by
extrinsic CN value and sign (CN quantizer and VN translation fused, stored
sign-interleaved: entry 2y + 1 - s holds value y with sign bit s) and the
next encoded message by extrinsic VN sum and node type (VN quantizer,
zero-sum tie sign and the next iteration's CN input folded in).

A check node's parity P is the xor-reduce of its v, masked to bit 0, and
v ^ P carries each edge's extrinsic sign in bit 0.  A sum CN then indexes
its table by 2T + 1 - (v ^ P), T the full sum of v >> 1: five full-size
passes (shift, add-reduce, xor-reduce, xor, subtract).  A min CN takes the
minimum m of v over the node's other edges, from running minima forward and
backward on a regular side (the minimum of 2x + s, shifted right by one, is
the minimum of x), and indexes by (m | 1) ^ ((v ^ P) & 1).  Lookup
indices are formed in one intp buffer, so ``np.take`` casts nothing: of
max(checks, variables) entries per frame, as many node rows as fit at a
time (every edge's where a side is irregular).  Each lookup writes into one of two
message buffers (``mode="clip"``: the default buffers ``out``, and the bound
below keeps every index in range).  The DecoderState keeps all three
buffers across decode calls.  A frame is recorded at its
first syndrome success and stays in the working set, decoded but not
recorded again, until a quarter of the set has finished; only then are the
per-frame arrays compacted.  The cost model's VN adder width
(complexity.vn_input_width) and the bound 2 dc (2^(wphi-1) - 1) + 1 on a sum
CN's 2T + 1 bound every value the loop forms, the encoded messages and the
table indices included; it runs in int16 when they fit (14 bits at the paper
point dc=32, dv=6, wphi=8) and in int32 or int64 otherwise.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

import numpy as np

from .complexity import CN_VARIANTS, cn_input_width, omsq_beta, vn_input_width
from .pmf import ValidationError
from .quantizers import QuantizerSpec

__all__ = ["cn_update_comp", "cn_update_min", "vn_update", "cn_exact_llr", "DecoderState",
           "decode", "decode_batch", "omsq_decode", "omsq_decode_batch"]


# ---------------------------------------------------------------------------
# scalar node updates
# ---------------------------------------------------------------------------

def _check_messages(inputs, w):
    limit = 1 << (w - 1)
    for t in inputs:
        if t == 0 or abs(t) > limit:
            raise ValidationError(f"invalid {w}-bit message {t}")


def _quantize_cell(mag, quantizer: QuantizerSpec):
    """Magnitude cell index 1..2^(w-1) of a nonnegative integer."""
    if quantizer.kind == "non_uniform":
        return 1 + bisect_right(quantizer.thresholds, mag)
    cell = (mag + quantizer.offset_kappa) >> quantizer.shift_r
    return 1 + min(cell, quantizer.n_cells - 1)


def cn_update_comp(inputs, table, quantizer: QuantizerSpec):
    """Check node in the translated sum domain, one node.

    Output j carries the sign product and quantized translation sum of all
    inputs but j; both are formed once over the full set and each member is
    removed, which is exactly equivalent to per-output exclusion.
    """
    _check_messages(inputs, quantizer.out_width_w)
    vals = table.values
    trans = [vals[abs(t) - 1] for t in inputs]
    total = sum(trans)
    neg = sum(1 for t in inputs if t < 0)
    out = []
    for t, tr in zip(inputs, trans):
        y = total - tr
        parity = neg - (1 if t < 0 else 0)
        sign = -1 if parity % 2 else 1
        out.append(sign * _quantize_cell(y, quantizer))
    return out

def cn_update_min(inputs):
    """Min-approximation check node: sign product, extrinsic minimum.

    Uses the usual first/second minimum search so each output costs O(1)
    after one pass.
    """
    mags = [abs(t) for t in inputs]
    m1 = min(mags)
    i1 = mags.index(m1)
    m2 = min(mags[:i1] + mags[i1 + 1:])
    neg = sum(1 for t in inputs if t < 0)
    out = []
    for i, t in enumerate(inputs):
        parity = neg - (1 if t < 0 else 0)
        sign = -1 if parity % 2 else 1
        mag = m2 if i == i1 else m1
        out.append(sign * mag)
    return out


def vn_update(ch, inputs, tables, quantizer: QuantizerSpec, vn_type: int):
    """Variable node update, one node.

    Returns (per-edge outputs, app_sum).  All addends are the signed
    translations of the channel and check messages; each output excludes
    its own edge from the full sum.  A zero extrinsic sum quantizes to the
    weakest magnitude with sign +1 for the non-inverting node type and -1
    for the inverting one (the two's-complement negate-and-reinvert
    variants differ only there).  app_sum keeps the channel term and feeds
    the hard decision.
    """
    vals_ch = tables["phi_ch"].values
    vals_c = tables["phi_c"].values
    _check_messages([ch], quantizer.out_width_w)
    _check_messages(inputs, quantizer.out_width_w)
    sgn = lambda t: 1 if t > 0 else -1
    trans = [sgn(t) * vals_c[abs(t) - 1] for t in inputs]
    app_sum = sgn(ch) * vals_ch[abs(ch) - 1] + sum(trans)
    out = []
    for tr in trans:
        ext = app_sum - tr
        if ext > 0:
            sign = 1
        elif ext < 0:
            sign = -1
        else:
            sign = -1 if vn_type else 1
        out.append(sign * _quantize_cell(abs(ext), quantizer))
    return out, app_sum


def cn_exact_llr(llrs):
    """2 atanh(prod tanh(L/2)) in the log domain; test oracle only.

    Inputs are clipped to |L| <= 40 first, which keeps log1p/expm1 exact
    enough while bounding the output.
    """
    sign = 1.0
    acc = 0.0
    for L in llrs:
        L = min(max(float(L), -40.0), 40.0)
        if L == 0.0:
            return 0.0
        if L < 0:
            sign = -sign
            L = -L
        # log tanh(L/2) = log1p(-e^-L) - log1p(e^-L)
        e = math.exp(-L)
        acc += math.log1p(-e) - math.log1p(e)
    # 2 atanh(e^acc) = log((1+e^acc)/(1-e^acc))
    e = math.exp(acc)
    if e >= 1.0:
        return sign * 80.0
    return sign * (math.log1p(e) - math.log1p(-e))


# ---------------------------------------------------------------------------
# batched decoder
# ---------------------------------------------------------------------------

class _Side:
    """Edge order and per-node reductions of one node side (see module doc)."""

    def __init__(self, deg):
        self.n, self.deg = len(deg), int(deg.max())
        self.regular = bool(np.all(deg == self.deg))
        if not self.regular:
            self.ptr = np.concatenate([[0], np.cumsum(deg)[:-1]])
            self.rep = np.repeat(np.arange(self.n), deg)

    def order(self, node_major):
        """This side's order of an edge array given node-major."""
        return node_major.reshape(self.n, self.deg).T.ravel() if self.regular else node_major

    def view(self, x):
        """An (edges, frames) array as this side reduces it."""
        return x.reshape(self.deg, self.n, x.shape[1]) if self.regular else x

    def reduce(self, ufunc, xv):
        """(nodes, frames) reduction of a view over each node's edges."""
        if self.regular:
            return ufunc.reduce(xv, axis=0, dtype=xv.dtype)
        return ufunc.reduceat(xv, self.ptr, axis=0, dtype=xv.dtype)

    def spread(self, y):
        """(nodes, frames) values broadcast against a view."""
        return y[None] if self.regular else np.take(y, self.rep, axis=0)

    def min_others(self, v, a, b):
        """Per edge of a view, the minimum of v over the node's other edges.

        A regular side runs minima from the front into a (row k holds the
        minimum of rows < k) and from the back into b (row k: rows > k),
        then takes their row-wise minimum in a, which it returns.  An
        irregular side reduces: a unique minimum sees the runner-up,
        everything else the minimum.  a and b are scratch views like v.
        """
        if not self.regular:
            lo = self.reduce(np.minimum, v)
            is_lo = v == self.spread(lo)
            unique = self.reduce(np.add, is_lo.astype(v.dtype)) == 1
            second = self.reduce(np.minimum, np.where(is_lo, np.iinfo(v.dtype).max, v))
            return np.where(is_lo & self.spread(unique), self.spread(second), self.spread(lo))
        d = self.deg
        a[1] = v[0]
        for k in range(1, d - 1):
            np.minimum(a[k], v[k], out=a[k + 1])
        b[d - 2] = v[d - 1]
        for k in range(d - 2, 0, -1):
            np.minimum(b[k], v[k], out=b[k - 1])
        np.minimum(a[1:d - 1], b[1:d - 1], out=a[1:d - 1])
        a[0] = b[0]
        return a


def _lookup(table, ufunc, x, y, out, idx):
    """out = table[ufunc(x, y)] on views of one side, x a view or a spread, the
    indices formed in the flat intp buffer idx a slab of as many leading rows
    as it holds at a time (a row of out may be a row of x: it is read first)."""
    rows = idx.size // y[0].size
    slab = idx[:rows * y[0].size].reshape(rows, *y.shape[1:])
    for k in range(0, len(y), rows):
        part = slab[:len(y[k:k + rows])]
        ufunc(x[k:k + rows] if len(x) > 1 else x, y[k:k + rows], out=part)
        np.take(table, part, out=out[k:k + rows], mode="clip")
    return out


class DecoderState:
    """Edge layout and per-iteration lookup tables of one decoder.

    Built once per code and decoder, so repeated decode calls only pay for
    the message arithmetic.  ``tables[i]`` holds iteration i's channel
    addend, signed CN output and VN output tables; the VN output sends the
    encoded message of the module doc with the CN input of iteration
    min(i+1, len(tables)-1), and ``forward`` encodes the channel for
    iteration 1.  vn_type alternates with node index; ``vn_phase=1`` swaps
    the two roles.  The offset-min-sum baseline has no artifact;
    :meth:`offset_min_sum` builds its state.  A state also keeps the
    flooding loop's scratch buffers, so it runs one decode call at a time.
    """

    def __init__(self, code, artifact, *, vn_phase=0):
        cfg = artifact.config
        if not artifact.per_iteration and cfg.iterations > 0:
            raise ValidationError("artifact carries no designed iterations")
        if cfg.cn_variant == "omsq":
            raise ValidationError("the omsq baseline runs through omsq_decode")
        self.cn_variant = cfg.cn_variant
        recs = artifact.per_iteration
        wphi = max([cfg.w] + [t.width_wphi for r in recs
                              for t in (r.cn_tables, *r.vn_tables.values()) if t])
        self._layout(code, cfg.w, wphi, vn_phase)
        self._fold([self._designed(r) for r in recs])

    @classmethod
    def offset_min_sum(cls, code, w, beta):
        """State of the offset-min-sum baseline on w-bit messages."""
        beta = omsq_beta(beta)
        self = cls.__new__(cls)
        self.cn_variant, self.beta = "omsq", beta
        self._layout(code, w, w, 0)      # messages are their own VN addends
        H, S = self.half, self.vn_range
        t = np.arange(-H, H + 1)
        sat = np.clip(np.arange(-S, S + 1), 1 - H, H - 1) + H
        self._fold([(t, np.abs(t), np.maximum(np.arange(H + 1) - beta, 0),
                     np.concatenate([sat, sat]))])
        return self

    def _layout(self, code, w, wphi, vn_phase):
        """The edge layout, in O(E) array passes over E edges."""
        deg_c = np.fromiter(map(len, code.row_adjacency), dtype=np.intp,
                            count=len(code.row_adjacency))
        if np.any(deg_c < 2):
            raise ValidationError("every check node needs degree at least 2")
        E = int(deg_c.sum())
        flat = np.fromiter(itertools.chain.from_iterable(code.row_adjacency), dtype=np.intp,
                           count=E)
        deg_v = np.bincount(flat, minlength=code.n_vars)
        if np.any(deg_v == 0):
            raise ValidationError("every variable node needs at least one edge")
        self.checks, self.vars = _Side(deg_c), _Side(deg_v)
        # intp index entries per frame: a row of the larger side, or every edge's
        self.slab = max(s.n if s.regular else E for s in (self.checks, self.vars))
        self.edge_var = self.checks.order(flat)
        # a stable sort by variable: the keys var * E + edge are distinct
        edges = np.arange(E)
        self.vn_perm = self.vars.order(np.argsort(self.edge_var * E + edges))
        self.vn_inv = np.empty_like(self.vn_perm)
        self.vn_inv[self.vn_perm] = edges
        self._buffers = None
        self.vn_type = (np.arange(code.n_vars) + vn_phase) % 2
        self.w, self.half = w, 1 << (w - 1)
        self.sum_cn = CN_VARIANTS[self.cn_variant] is not None   # a designed CN sums
        # VN sums lie in (-2^(vw-1), 2^(vw-1)); the VN index (sign offset, tie
        # half) takes two bits more.  An encoded message 2 cn_in + 1 is at
        # most 2^wphi + 1 < 2^(vw-1).  The sum CN forms 2T + 1 from the full
        # sum T of dc inputs of at most 2^(wphi-1) - 1, which bounds its
        # index too; at dc = 129, wphi = 8 that is exactly 2^15 - 1.
        dc, dv = self.checks.deg, self.vars.deg
        cw, vw = cn_input_width(dc, wphi), vn_input_width(dv, wphi)
        bits = vw + 2
        if self.sum_cn:
            bits = max(bits, (2 * dc * ((1 << (wphi - 1)) - 1) + 1).bit_length() + 1)
        self.dtype = np.int16 if bits <= 16 else np.int32 if bits <= 32 else np.int64
        self.cn_range, self.vn_range = 1 << cw, 1 << (vw - 1)
        base = self.vn_range + self.vn_type * (2 * self.vn_range + 1)
        self.vn_base = base.astype(self.dtype)[:, None]

    def _designed(self, rec):
        """(ch, cn_in, cn_out, vn_out) tables of one designed iteration."""
        H, S = self.half, self.vn_range
        t = np.arange(-H, H + 1)
        cell = np.maximum(np.abs(t), 1) - 1     # t = 0 is never sent
        vn_c = np.asarray(rec.vn_tables["phi_c"].values)
        ch = np.where(t < 0, -1, 1) * np.asarray(rec.vn_tables["phi_ch"].values)[cell]
        if self.sum_cn:
            cn_in = np.asarray(rec.cn_tables.values)[cell]
            cn_out = vn_c[rec.cn_quantizer.cells(np.arange(self.cn_range)) - 1]
        else:
            cn_in, cn_out = np.abs(t), np.concatenate([[0], vn_c])
        ext = np.arange(-S, S + 1)
        mag = rec.vn_quantizer.cells(np.arange(S + 1))[np.abs(ext)]
        # a zero extrinsic sum takes sign +1 on vn_type 0 and -1 on vn_type 1
        out = np.concatenate([np.where(ext < 0, -mag, mag), np.where(ext > 0, mag, -mag)])
        return ch, cn_in, cn_out, out + H

    def _fold(self, raw):
        """Loop tables from per-iteration (ch, cn_in, cn_out, vn_out) tables.

        vn_out gives offset codes t + 2^(w-1); each code is replaced by its
        encoded message for the next iteration's CN input.  cn_out is stored
        sign-interleaved: entry 2y + 1 - s is the output for extrinsic sum
        or minimum y with sign bit s, the entry :func:`_flood` indexes by
        2T + 1 - (v ^ P) or (m | 1) ^ ((v ^ P) & 1).
        """
        def encode(cn_in, code):
            return (2 * cn_in[code] + (code < self.half)).astype(self.dtype)

        next_in = [r[1] for r in raw[1:] + raw[-1:]]
        self.forward = encode(raw[0][1], np.arange(2 * self.half + 1)) if raw else None
        self.tables = [(np.asarray(ch, dtype=self.dtype),
                        np.stack([-cn_out, cn_out], axis=1).ravel().astype(self.dtype),
                        encode(cn_in, vn_out))
                       for (ch, _, cn_out, vn_out), cn_in in zip(raw, next_in)]

    def _scratch(self, frames):
        """The loop's two message buffers of edges x ``frames`` entries and its
        intp index buffer of slab x ``frames``, kept across decode calls."""
        E = self.edge_var.size
        if self._buffers is None or self._buffers[0].size < E * frames:
            self._buffers = [np.empty(n * frames, dtype=t) for n, t in
                             ((E, self.dtype), (E, self.dtype), (self.slab, np.intp))]
        return self._buffers

    def _parity_ok(self, hard):
        """Per frame, from (n_vars, frames) hard decisions: every check satisfied?"""
        edges = self.checks.view(np.take(hard, self.edge_var, axis=0))
        return ~self.checks.reduce(np.bitwise_xor, edges).any(axis=0)

    def syndrome_ok(self, bits):
        """Per frame: do the (frames, n_vars) hard decisions satisfy every check?"""
        return self._parity_ok(np.ascontiguousarray(np.asarray(bits).T))


#: the working set is compacted once this share of its frames has finished;
#: 1/8 and 1/4 timed best on the decode benchmark's kernels, 1/2 took 4%
#: longer and never compacting 30% longer
_COMPACT_SHARE = 0.25


def _integer_messages(channel_msgs):
    """channel_msgs as an integer array; a float or bool one is rejected, not truncated."""
    msgs = np.asarray(channel_msgs)
    if msgs.dtype.kind not in "iu":
        raise ValidationError(f"channel messages must be integers, not {msgs.dtype}")
    return msgs


def _flood(state, channel_msgs, max_iter):
    """The one flooding loop of every decoder variant.

    Each iteration forms both sides' lookup indices, the check side's by the
    arithmetic of the module doc, slab by slab in one intp buffer
    (:func:`_lookup`), and writes its lookups into two message buffers and
    v2c; the two buffers and the index buffer are the state's.  A
    frame's bits, iteration count and ``ok`` are recorded at its first
    syndrome success; it is decoded on but never recorded again until
    _COMPACT_SHARE of the working set has finished and the set is compacted.
    """
    ch = _integer_messages(channel_msgs)
    if ch.ndim != 2 or ch.shape[1] != state.vars.n:
        raise ValidationError("channel message array must be (frames, n_vars)")
    omsq = state.cn_variant == "omsq"        # zero is an omsq message
    limit = state.half - omsq
    if (not omsq and np.any(ch == 0)) or np.any(ch < -limit) or np.any(ch > limit):
        raise ValidationError(f"channel messages must be {'' if omsq else 'nonzero '}"
                              f"{state.w}-bit values")
    checks, vars_, tables = state.checks, state.vars, state.tables
    bits = (ch < 0).view(np.uint8)
    iters_used = np.zeros(len(ch), dtype=np.int64)
    ok = state.syndrome_ok(bits)
    if max_iter == 0 or ok.all():
        return bits, iters_used, ok
    if not tables:
        raise ValidationError("decoder state has no iteration tables")

    active = np.flatnonzero(~ok)
    live = np.ones(len(active), dtype=bool)
    u_ch = np.empty((ch.shape[1], len(active)), dtype=np.intp)
    np.add(ch[active].T, state.half, out=u_ch, dtype=np.intp)
    v2c = np.take(np.take(state.forward, u_ch), state.edge_var, axis=0)
    # the state's two message buffers and index buffer, viewed at the working set's size
    bufs = state._scratch(len(active))
    ch_tab = psi_ch = None
    for it in range(max_iter):
        tab_ch, cn_out, vn_out = tables[min(it, len(tables) - 1)]  # last one reused
        if ch_tab is None or not np.array_equal(tab_ch, ch_tab):
            ch_tab, psi_ch = tab_ch, np.take(tab_ch, u_ch)   # once per distinct table
        a, b = (buf[:v2c.size].reshape(v2c.shape) for buf in bufs[:2])
        idx = bufs[2][:state.slab * v2c.shape[1]]
        # --- check nodes: extrinsic sum or minimum, then sign, c2v into a ---
        v = checks.view(v2c)
        par = checks.reduce(np.bitwise_xor, v)
        par &= 1
        if state.sum_cn:
            top = 2 * checks.reduce(np.add, np.right_shift(v, 1, out=checks.view(a))) + 1
            np.bitwise_xor(v, checks.spread(par), out=v)
            _lookup(cn_out, np.subtract, checks.spread(top), v, checks.view(a), idx)
        else:
            m = checks.min_others(v, checks.view(a), checks.view(b))
            m |= 1
            np.bitwise_xor(v, checks.spread(par), out=v)
            v &= 1
            _lookup(cn_out, np.bitwise_xor, m, v, checks.view(a), idx)
        # --- variable nodes -------------------------------------------------
        psi = vars_.view(np.take(a, state.vn_perm, axis=0, out=b, mode="clip"))
        app = vars_.reduce(np.add, psi)
        app += psi_ch
        _lookup(vn_out, np.subtract, vars_.spread(app + state.vn_base), psi, vars_.view(a), idx)
        np.take(a, state.vn_inv, axis=0, out=v2c, mode="clip")

        hard = (app < 0).view(np.uint8)
        done = state._parity_ok(hard)
        last = it + 1 == max_iter
        fin = live if last else done & live
        if fin.any():
            rows = active[fin]
            bits[rows] = hard[:, fin].T
            iters_used[rows] = it + 1
            ok[rows] = done[fin]
            live &= ~fin
        if last or not live.any():
            break
        if np.count_nonzero(~live) >= _COMPACT_SHARE * len(live):
            keep = np.flatnonzero(live)
            active, live = active[keep], live[keep]
            u_ch, psi_ch = (np.take(x, keep, axis=1) for x in (u_ch, psi_ch))
            v2c = np.take(v2c, keep, axis=1)    # after them: their old copies are freed first
    return bits, iters_used, ok


def decode_batch(channel_msgs, code, artifact, max_iter, *, state=None):
    """Flooding decode of a batch of frames.

    channel_msgs: (B, N) integer array of w-bit channel messages.  Returns
    (bits (B, N) uint8, iterations_used (B,), syndrome_ok (B,)).  Frames
    whose syndrome clears drop out of the working set immediately;
    iterations_used counts the message-passing iterations actually run for
    each frame.  max_iter=0 slices the channel signs only.
    """
    if state is None:
        state = DecoderState(code, artifact)
    elif state.cn_variant == "omsq":
        raise ValidationError("an omsq state runs through omsq_decode")
    return _flood(state, channel_msgs, max_iter)


def decode(channel_msgs, code, artifact, max_iter, *, state=None):
    """Single-frame wrapper around decode_batch."""
    msgs = _integer_messages(channel_msgs)
    if msgs.ndim != 1:
        raise ValidationError("decode expects one frame; use decode_batch")
    bits, iters, ok = decode_batch(msgs[None, :], code, artifact, max_iter,
                                   state=state)
    return bits[0], int(iters[0]), bool(ok[0])


def omsq_decode_batch(channel_msgs, code, w, beta, max_iter, *, state=None):
    """Offset-min-sum decode on uniform-LLR integer messages.

    Messages live on {-M..M} with M = 2^(w-1) - 1 and may be zero.  Check
    nodes take the sign product times max(extrinsic min - beta, 0);
    variable nodes form the saturating integer sum.  ``state`` comes from
    DecoderState.offset_min_sum(code, w, beta).
    """
    if state is None:
        state = DecoderState.offset_min_sum(code, w, beta)
    elif (state.cn_variant, state.w, getattr(state, "beta", None)) != ("omsq", w, beta):
        raise ValidationError("state was not built for this omsq decoder")
    return _flood(state, channel_msgs, max_iter)


def omsq_decode(channel_msgs, code, w, beta, max_iter, *, state=None):
    """Single-frame wrapper around omsq_decode_batch."""
    msgs = _integer_messages(channel_msgs)
    if msgs.ndim != 1:
        raise ValidationError("omsq_decode expects one frame")
    bits, iters, ok = omsq_decode_batch(msgs[None, :], code, w, beta, max_iter,
                                        state=state)
    return bits[0], int(iters[0]), bool(ok[0])
