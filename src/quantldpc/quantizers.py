"""Quantizer design for symmetric binary-input message distributions.

Two quantizer families act on symbol magnitudes of a symmetric joint PMF:

* non-uniform threshold quantizers, designed by dynamic programming that is
  exact over all contiguous magnitude partitions and maximizes the mutual
  information of the quantized output.  For K cells over n magnitudes it
  takes O(K * n**2) time and O((block + K) * n) memory, walking the
  magnitude axis in fixed row blocks; MI ties go to the leftmost
  boundary, i.e. the lexicographically smallest threshold vector.  When
  the magnitudes past the first m carry little mass, the DP first runs
  with no boundary past m and an O(n) certificate (proof and rounding
  slack in :func:`design_nonuniform`) shows that the unrestricted DP
  would return the same thresholds and MI bit for bit: O(K * m**2 + n)
  time when it holds, O(K * n**2) more when it does not.  Across a
  design's iterations, a second O(n) certificate reuses an earlier DP's
  thresholds when the input has drifted less than that result's margin;
* uniform shift-and-offset quantizers (add an offset, drop the r low bits,
  saturate), searched exhaustively: per step size, one vectorized pass
  scores every (shift r, offset kappa) pair; MI ties go to the smaller
  step, then the smaller r, then the smaller kappa.

Both designs return a :class:`QuantizerSpec` consumable by
``pmf.apply_quantizer`` together with the mutual information achieved.
:class:`TranslationTable` maps quantizer output cells back to fixed-point
computational-domain values (check node phi sums or variable node LLRs).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pmf import (JointPMF, ValidationError, _aligned, _cluster_scores, _magnitude_unit,
                  apply_quantizer)


@dataclass(frozen=True)
class QuantizerSpec:
    """Symmetric magnitude quantizer with pass-through sign.

    The magnitude of each input symbol maps to a cell index 1..2**(w-1):

    * kind ``"non_uniform"``: cell(m) = 1 + #{thresholds <= m}, so a
      magnitude equal to a threshold lands in the upper cell;
    * kind ``"uniform"``: cell(m) = min(((m + offset_kappa) >> shift_r) + 1,
      2**(w-1)).

    ``delta`` records the real value of one unit of the input magnitude
    axis so downstream consumers can convert back to LLR-like scales; it
    does not affect the mapping itself.
    """

    kind: str
    out_width_w: int
    delta: float = 1.0
    thresholds: tuple = ()
    shift_r: int = 0
    offset_kappa: int = 0

    def __post_init__(self):
        if self.out_width_w < 2:
            raise ValidationError("output width must be at least 2 bits")
        if not (self.delta > 0):
            raise ValidationError("delta must be positive")
        if self.kind == "non_uniform":
            t = tuple(int(v) for v in self.thresholds)
            object.__setattr__(self, "thresholds", t)
            if len(t) != self.n_cells - 1:
                raise ValidationError(
                    f"need {self.n_cells - 1} thresholds for {self.n_cells} cells, got {len(t)}")
            if any(v <= 0 for v in t) or any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise ValidationError("thresholds must be positive and strictly increasing")
        elif self.kind == "uniform":
            if not (0 <= self.shift_r < 32):
                raise ValidationError("shift_r out of range")
            if not (0 <= self.offset_kappa < (1 << self.shift_r) * self.n_cells):
                raise ValidationError("offset_kappa out of range for this shift")
        else:
            raise ValidationError(f"unknown quantizer kind {self.kind!r}")

    @property
    def n_cells(self):
        return 1 << (self.out_width_w - 1)

    def map_symbols(self, p: JointPMF):
        """Signed output cell index for every symbol of ``p``."""
        if np.any(p.alphabet == 0):
            raise ValidationError("alphabet contains 0; fold it into a signed domain first")
        mags = np.abs(p.alphabet) - p.mag_offset
        if np.any(mags < 0):
            raise ValidationError("negative magnitudes under this mag_offset")
        return np.sign(p.alphabet) * self.cells(mags)

    def cells(self, mags):
        """Cell index 1..2**(w-1) of each nonnegative integer magnitude."""
        if self.kind == "non_uniform":
            return 1 + np.searchsorted(np.asarray(self.thresholds, dtype=np.int64), mags,
                                       side="right")
        return np.minimum((mags + self.offset_kappa) >> self.shift_r, self.n_cells - 1) + 1


@dataclass(frozen=True)
class TranslationTable:
    """Per-cell fixed-point magnitudes for message translation.

    ``values[k-1]`` is the nonnegative integer assigned to cell k; under
    ``sign_rule`` the table extends oddly, the value for symbol -t being
    the negated value for +t.  One integer unit corresponds to ``delta`` in
    the real domain, and values saturate at 2**(width_wphi - 1) - 1.
    Values need not be monotone in the cell index: the cells of a quantized
    CN sum are contiguous on the sum's magnitude axis, not ordered by
    reliability, and every consumer only indexes the table.  ``clipped``
    records 1-based cells whose raw value was infinite and got clipped to
    the range limit.
    """

    values: tuple
    width_wphi: int
    delta: float
    sign_rule: bool = True
    clipped: tuple = ()

    def __post_init__(self):
        v = tuple(int(x) for x in self.values)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "clipped", tuple(int(c) for c in self.clipped))
        if not v:
            raise ValidationError("translation table is empty")
        if min(v) < 0 or max(v) > self.vmax:
            raise ValidationError(f"table values must lie in [0, {self.vmax}]")
        if not (self.delta > 0):
            raise ValidationError("delta must be positive")

    @property
    def vmax(self):
        return (1 << (self.width_wphi - 1)) - 1

    @property
    def saturated(self):
        return self.vmax in self.values

    def as_array(self):
        return np.asarray(self.values, dtype=np.int64)


def cell_llr_magnitudes(p: JointPMF):
    """|L_k| per positive symbol of a symmetric message PMF.

    One-sided cells give inf, unpopulated cells nan.
    """
    _, a, b = p.fold_positive()
    out = np.full(a.size, np.nan)
    for i in range(a.size):
        if a[i] > 0.0 and b[i] > 0.0:
            out[i] = abs(math.log(a[i]) - math.log(b[i]))
        elif a[i] > 0.0 or b[i] > 0.0:
            out[i] = math.inf
    return out


def cn_phi_values(p: JointPMF):
    """Raw phi = -ln tanh(|L_k| / 2) per positive cell (nan if unpopulated).

    A one-sided cell (infinite |L|) has phi 0; an uninformative cell
    (|L| = 0) has phi inf.
    """
    L = cell_llr_magnitudes(p)
    out = np.full(L.size, np.nan)
    for i, v in enumerate(L):
        if math.isnan(v):
            continue
        if v == 0.0:
            out[i] = math.inf
        elif math.isinf(v):
            out[i] = 0.0
        else:
            out[i] = -math.log(math.tanh(0.5 * v))
    return out


def saturation_delta(raws, wphi: int) -> float:
    """Step size putting the largest finite raw translation value across
    the arrays ``raws`` (:func:`raw_translation_values`) exactly at the
    wphi-bit top."""
    peak = max((float(x[np.isfinite(x)].max(initial=0.0)) for x in raws), default=0.0)
    if peak <= 0.0:
        raise ValidationError("no cell yields a positive finite translation value")
    return peak / ((1 << (wphi - 1)) - 1)


def phi_saturation_delta(p: JointPMF, wphi: int) -> float:
    """Step size putting the largest finite phi exactly at the wphi-bit top."""
    return saturation_delta([cn_phi_values(p)], wphi)


def llr_saturation_delta(pmfs, wphi: int) -> float:
    """Step size putting the largest finite cell LLR across PMFs at the top."""
    return saturation_delta([cell_llr_magnitudes(p) for p in pmfs], wphi)


def raw_translation_values(p: JointPMF, mode: str):
    """Unrounded translation value of each positive cell of a message PMF.

    * mode ``"cn_phi"``: phi_k = -ln tanh(|L_k| / 2), the check node sum
      domain (a one-sided cell has phi 0, an uninformative cell infinity);
    * mode ``"vn_llr"``: |L_k| itself, the variable node adder domain.

    Unpopulated cells are nan.  They do not depend on the step size, so a
    step search computes them once and rounds them per step
    (:func:`round_translation_values`).
    """
    if mode not in ("cn_phi", "vn_llr"):
        raise ValidationError(f"unknown translation mode {mode!r}")
    return cn_phi_values(p) if mode == "cn_phi" else cell_llr_magnitudes(p)


def build_translation_table(p: JointPMF, mode: str, delta: float, wphi: int) -> TranslationTable:
    """Fixed-point translation values for each cell of a message PMF.

    Per positive cell the conditional LLR L_k is read off ``p`` and
    converted to the requested domain (:func:`raw_translation_values`),
    then rounded half-up to a multiple of ``delta``
    (:func:`round_translation_values`).
    """
    return round_translation_values(raw_translation_values(p, mode), delta, wphi)


def round_translation_values(raw, delta: float, wphi: int) -> TranslationTable:
    """A translation table from raw cell values at step size ``delta``.

    The one row of :func:`round_translation_steps` at ``delta``; a step
    at which that row is not ok raises.
    """
    values, clipped, ok = round_translation_steps(raw, [delta], wphi)
    if not ok[0]:
        raise ValidationError(f"step {delta!r} does not round the raw values into a table")
    return TranslationTable(tuple(values[0].tolist()), wphi, delta, clipped=clipped)


def round_translation_steps(raw, steps, wphi: int):
    """Translation table values from raw cell values at every step at once.

    Each finite value x becomes floor(x / delta + 0.5), saturated at
    2**(wphi-1) - 1; cells whose raw value is infinite are clipped there
    and listed in the tables' ``clipped`` metadata.  Cells with no
    probability mass (nan) inherit the value of the nearest populated cell
    below (or above, for a leading gap).  The values need not be monotone
    in the cell index: the cells of a quantized sum are contiguous on the
    sum axis, not ordered by reliability.

    Returns ``(values, clipped, ok)``: ``values[i]`` the table values at
    ``steps[i]`` (an int64 array of steps x cells), ``clipped`` the
    tables' ``clipped`` metadata, which does not depend on the step, and
    ``ok[i]`` False where no table exists at that step: a step that is not
    positive, or an x / delta + 0.5 that is not finite or negative.  Such
    a row's values are 0.
    """
    raw = np.asarray(raw, dtype=np.float64)
    steps = np.asarray(steps, dtype=np.float64)
    vmax = (1 << (wphi - 1)) - 1
    populated = ~np.isnan(raw)
    if not populated.any():
        raise ValidationError("every cell of the PMF is unpopulated")
    # the cell each cell copies: itself if populated, else the nearest
    # populated cell below, else (a leading gap) the first populated one
    src = np.maximum.accumulate(np.where(populated, np.arange(raw.size), populated.argmax()))
    x = raw[src]
    with np.errstate(all="ignore"):
        q = np.floor(x / steps[:, None] + 0.5)
    q[:, np.isinf(x)] = vmax
    ok = (steps > 0) & ((q >= 0) & (q < np.inf)).all(axis=1)
    q[~ok] = 0
    clipped = tuple((np.flatnonzero(np.isinf(raw)) + 1).tolist())
    return np.minimum(q, vmax).astype(np.int64), clipped, ok


# ---------------------------------------------------------------------------
# non-uniform design: exact DP over contiguous magnitude partitions
# ---------------------------------------------------------------------------

def _folded_prune(mags, a, b, prune_tol, min_keep):
    """Fold the high-magnitude tail of joint mass <= prune_tol into the last
    kept symbol.  At least ``min_keep`` symbols survive."""
    if prune_tol <= 0.0:
        return mags, a, b
    tail = np.cumsum((a + b)[::-1])[::-1]
    keep = np.nonzero(tail > prune_tol)[0]
    t = int(keep[-1]) if keep.size else 0
    t = max(t, min_keep - 1)
    if t < mags.size - 1:
        a2 = a[: t + 1].copy()
        b2 = b[: t + 1].copy()
        a2[t] += a[t + 1:].sum()
        b2[t] += b[t + 1:].sum()
        return mags[: t + 1], a2, b2
    return mags, a, b


#: rows of the partition DP per block.  A block's four buffers hold rows x
#: m floats each, m the DP's (truncated) symbol count: about 560 at the
#: paper point's CN and 210 at its VN, so 1.1 MiB and 0.4 MiB in all, which
#: stay in a 2 MiB L2 while the scores are built and every layer runs over
#: them.  Replaying the 3.0 dB comp/comp probe's DPs on one core, 48 to 64
#: rows beat 32 by 2-11% and 96 rows lose again
_DP_BLOCK = 64


def _dp_layers(A, B, best, pick, runner=None):
    """Layers 1.. of the partition DP, filled in place, bottom-up in blocks.

    ``A`` and ``B`` are the prefix sums of the folded masses; ``best[0]``
    must hold the one-cell scores.  Four buffers of ``_DP_BLOCK`` x n
    floats are allocated once per call.  For a block of rows lo..hi-1 they
    hold pa, pb and s = pa + pb of every cluster i..e-1 (e > lo) and its
    score x(pa) + x(pb) - x(s) + s, x(v) = v * log2(max(v, 5e-324)): the
    ufuncs of ``pmf._cluster_scores`` without its ``+ 0.0``, which only
    turns x(0) = -0.0 into +0.0.  A -0.0 term changes no score: added to a
    nonzero term or to +0.0 it vanishes, and where pa = pb = 0 the score
    is ((-0.0 + -0.0) - -0.0) + 0.0 = +0.0 either way.  Each DP layer then
    adds the previous layer to the scores in a freed buffer and takes the
    first maximum per row.

    ``runner``, if given, is shaped as ``best`` with ``runner[0]`` = -inf
    (one cell is one path) and is filled alongside it: runner[c, i] is the
    larger of the best candidate of row i at any other boundary than the
    picked one, and the picked cell's score plus runner[c - 1] there.  By
    induction, and as float addition is monotone, no DP path from row i
    but the picked one sums to more than runner[c, i]; this costs one
    masked maximum per layer and block.
    """
    n = A.size - 1
    block = min(_DP_BLOCK, n)
    pa, pb, s, g = (_aligned(block * n) for _ in range(4))
    below = np.tri(block, k=-1, dtype=bool)     # e <= i within a block
    rows = np.arange(block)
    for hi in range(n, 0, -block):
        lo = max(0, hi - block)
        h = hi - lo
        shape = (h, n - lo)
        size = h * (n - lo)
        PA = np.subtract(A[lo + 1:], A[lo:hi, None], out=pa[:size].reshape(shape))
        PB = np.subtract(B[lo + 1:], B[lo:hi, None], out=pb[:size].reshape(shape))
        S = np.add(PA, PB, out=s[:size].reshape(shape))
        G = g[:size].reshape(shape)
        np.maximum(PA, 5e-324, out=G)
        np.log2(G, out=G)
        G *= PA
        np.maximum(PB, 5e-324, out=PA)
        np.log2(PA, out=PA)
        PA *= PB
        G += PA
        np.maximum(S, 5e-324, out=PB)
        np.log2(PB, out=PB)
        PB *= S
        G -= PB
        G += S
        np.copyto(G[:, :h], -np.inf, where=below[:h, :h])
        cand = PB
        for c in range(1, best.shape[0]):
            np.add(G, best[c - 1, lo + 1:], out=cand)
            k = np.argmax(cand, axis=1)     # first max: smallest boundary
            best[c, lo:hi] = cand[rows[:h], k]
            pick[c, lo:hi] = k + (lo + 1)
            if runner is not None:
                own = G[rows[:h], k] + runner[c - 1, k + (lo + 1)]
                cand[rows[:h], k] = -np.inf
                np.maximum(cand.max(axis=1), own, out=runner[c, lo:hi])


#: tail mass at or below which the partition search first runs with no
#: boundary in the tail, and the margin its certificate must hold by (both
#: in :func:`design_nonuniform`)
_TAIL_MASS = 1e-3
_TAIL_SLACK = 1e-12


def _partition_dp(A, B, K, m, runner=False):
    """Best partition of symbols 0..n-1 into K cells with every boundary
    in 1..m (m = n: no restriction), n = ``A.size`` - 1.

    Cluster i..e-1 (0 <= i < e <= n) scores _cluster_scores(A[e] - A[i],
    B[e] - B[i]); the MI of a partition is twice its cluster-score sum.
    best[c, i] is the top score of symbols i..n-1 split into c + 1 cells
    (-inf if infeasible), pick[c, i] the start of its second cell.
    Returns ``(score, boundaries, best)``.

    With ``runner`` set, as numpy's ``return_counts``, the DP keeps runners-up
    (:func:`_dp_layers`) and returns ``(score, boundaries, best, gap)``:
    no other path's float sum comes within ``gap`` of ``score`` (inf if
    there is no other path).
    """
    n = A.size - 1
    best = np.empty((K - 1, m + 1))
    pick = np.zeros((K - 1, m + 1), dtype=np.intp)
    best[0] = _cluster_scores(A[n] - A[:m + 1], B[n] - B[:m + 1])
    best[1:, m] = -np.inf      # no second cell starts past m
    best[0, n:] = -np.inf      # at m = n, the empty cell n..n-1
    second = np.full((K - 1, m + 1), -np.inf) if runner else None
    layers = functools.partial(_dp_layers, runner=second) if runner else _dp_layers
    # Layers 1..K-2, bottom-up in row blocks: row i of layer c reads layer
    # c-1 only at e > i, which a later block or an earlier layer of this
    # block has already filled in.
    if K > 2:
        layers(A[:m + 1], B[:m + 1], best, pick)
    # the last layer (K cells) is only needed at row 0
    first = _cluster_scores(A[1:m + 1] - A[0], B[1:m + 1] - B[0])
    cand = first + best[K - 2, 1:]
    j = int(np.argmax(cand)) + 1
    score = cand[j - 1]
    bounds = [j]
    for c in range(K - 2, 0, -1):
        bounds.append(int(pick[c, bounds[-1]]))
    if not runner:
        return score, bounds, best
    cand[j - 1] = first[j - 1] + second[K - 2, j]
    return score, bounds, best, score - cand.max()


def _mi_shift(D, K):
    """Largest change of the MI of a K-cell partition when its 2K cell
    masses, all in [0, 1], move by D in l1: 4 D log2(2K/D), or inf where
    D/K exceeds 1/e.

    The MI is 2 sum_k h(a_k) + h(b_k) - h(a_k + b_k) + a_k + b_k, h(x) =
    x log2 x, whose modulus of continuity on [0, 1] is w(d) = d log2(1/d)
    for d <= 1/e.  By concavity of w, an l1 change D of the cell masses
    moves the MI by at most 2 (2K w(D/2K) + K w(D/K) + D) = 4 D log2(2K/D).
    """
    if D == 0.0:
        return 0.0
    if not D / K <= 1 / math.e:
        return math.inf
    return 4 * D * math.log2(2 * K / D)


def _path_score(A, B, bounds):
    """The partition DP's float sum along ``bounds``: its cell scores added
    in the DP's nesting order, the last cell first."""
    edges = np.array([0] + list(bounds) + [A.size - 1])
    cells = _cluster_scores(A[edges[1:]] - A[edges[:-1]], B[edges[1:]] - B[edges[:-1]])
    score = cells[-1]
    for s in cells[-2::-1]:
        score = s + score
    return score


#: the margin a stage's phase is taken to have before its first anchor
_FIRST_MARGIN = 1e-7


class Anchors:
    """The anchors of one threshold-DP stage over the iterations of one
    design run, for the drift certificate of :func:`design_nonuniform`.

    A design that settles into a cycle of period 2 or 3 feeds the stage
    inputs that repeat with that lag, so the store keys its anchors by
    (lag, call count mod lag): ``kept`` maps a key to ``(mags, A, B,
    boundaries, margin)``, and ``recent`` holds the ``(mags, A, B)`` of the
    last three calls, oldest first.  ``certified`` counts the calls that
    reused an anchor, ``built`` the anchors made.
    """

    def __init__(self):
        self.kept = {}
        self.recent = []
        self.calls = self.certified = self.built = 0

    def certify(self, mags, A, B, K):
        """The boundaries of an anchor that provably stay optimal on the
        prefix sums ``A``, ``B`` of the pruned alphabet ``mags``, or None."""
        for mags0, A0, B0, bounds, margin in self.kept.values():
            if len(bounds) == K - 1 and np.array_equal(mags, mags0):
                if margin > _mi_shift(_drift(A, B, A0, B0), K) + _TAIL_SLACK:
                    self.certified += 1
                    return bounds
        return None

    def _lag(self, mags):
        """2, or else 3, if the call that many back had the pruned alphabet ``mags``."""
        return next((lag for lag in (2, 3) if len(self.recent) >= lag
                     and np.array_equal(mags, self.recent[-lag][0])), None)

    def wants(self, mags, A, B, K):
        """Whether a call that no anchor certified should make one: the
        call ``_lag`` back had the same pruned alphabet, and four times the
        drift from it stays inside the margin of the last anchor of its key
        (``_FIRST_MARGIN`` if it has none).  A cycle's drift shrinks about
        geometrically, so its later inputs then stay near the new anchor."""
        if (lag := self._lag(mags)) is None:
            return False
        key = lag, self.calls % lag
        margin = self.kept[key][4] if key in self.kept else _FIRST_MARGIN
        return _mi_shift(4 * _drift(A, B, *self.recent[-lag][1:]), K) < margin

    def add(self, mags, A, B, bounds, margin):
        lag = self._lag(mags) or 2      # lag 2 where no earlier call matches
        self.kept[lag, self.calls % lag] = mags, A, B, bounds, margin
        self.built += 1

    def remember(self, mags, A, B):
        self.recent = self.recent[-2:] + [(mags, A, B)]
        self.calls += 1


def _drift(A, B, A0, B0):
    """An upper bound on how far any partition's cell masses move in l1
    between the prefix sums ``A0``, ``B0`` and ``A``, ``B``."""
    D = np.abs(np.diff(A - A0)).sum() + np.abs(np.diff(B - B0)).sum()
    return float(D) * (1.0 + (A.size - 1) * 2.0 ** -50)


def design_nonuniform(p: JointPMF, w: int, *, delta: float = 1.0,
                      prune_tol: float = 1e-12, anchors: Anchors | None = None):
    """MI-optimal magnitude-threshold quantizer for a symmetric PMF.

    Dynamic programming over contiguous partitions of the magnitude axis
    into exactly 2**(w-1) nonempty cells, which is no loss: refining a
    partition never lowers mutual information.  Among MI ties the
    lexicographically smallest threshold vector wins: each DP step takes
    the leftmost maximizing boundary.  A high-magnitude tail of joint mass
    at most ``prune_tol`` is folded into the last retained symbol before
    the search.

    With K = 2**(w-1) cells and n retained magnitudes the search costs
    O(K * n**2) time and O((block + K) * n) memory: four buffers of
    ``_DP_BLOCK`` x n floats, allocated once per call, hold one block of
    rows' cluster scores and each DP layer's candidates on them (never an
    n x n matrix), plus the K - 1 layers of best scores and picks.  Every
    DP layer runs on a block before the next block is built
    (:func:`_dp_layers`).  The result is the same, bit for bit, as a DP
    over the full score matrix (kept as the reference in the tests).

    Tail certificate.  Let m >= K be the first boundary index whose tail
    mass (A[n] - A[m]) + (B[n] - B[m]) is at most ``_TAIL_MASS``, A and B
    the prefix sums of the folded masses.  If m < n - 1 and no folded mass
    is negative (``JointPMF`` admits -1e-15), the DP first runs with every
    boundary in 1..m (:func:`_partition_dp`), in O(K * m**2 + n) time, and
    keeps its score R_K if an O(n) certificate holds:

        R_{K-1} + max_{b <= m} g(b) + _TAIL_SLACK < R_K,
        g(b) = S([b, m+1)) + sum_{t > m} S({t}) - S([b, n)),

    with S the score of a cell and R_{K-1} the top score of K - 1 cells
    with boundaries in 1..m (row 0 of the DP's layer K - 2).  Otherwise it
    reruns with m = n, the unrestricted O(K * n**2) search.  A kept result
    is the unrestricted one, thresholds and MI bit for bit:

    * Exactly: take a partition P with r >= 1 boundaries past m.  Without
      them it is a partition H of K - r cells, boundaries in 1..m, whose
      last cell is [b, n).  H scores at most R_{K-r} <= R_{K-1}: refining
      never lowers the score, and m >= K leaves room for K - 2 boundaries.
      [b, m+1) and the tail singletons refine P's cells inside [b, n), so
      P scores at most H's score + g(b) <= R_{K-1} + max g.
    * In floats, the slack covers the rounding, so P's DP sum is below
      R_K.  A cell's masses are float differences of the prefix sums, each
      within a relative 2**-53 of the exact difference, and the exact
      differences add up exactly, so the refinement steps hold for their
      exact scores.  A cell of mass s scores within about
      10 * 2**-53 * (s + 3 s log2(1/s)) of its exact score; over N cells of
      total mass 1/2 that adds up to below 10 * 2**-53 * (2 + 1.5 log2 N),
      under 6e-14 for N < 2**30.  The four sums compared (P, R_{K-1} and
      the two sides of g), with the K or fewer additions of a DP path,
      stay below a quarter of the slack 1e-12.
    * Rounding is monotone, so each DP value, the first maximum over
      boundaries of a cell score plus the next layer's value, is the
      largest float sum of any path from its row.  At a row of the kept
      path, a path through a boundary past m that reached the truncated
      DP's value there would reach R_K with the kept path's prefix added,
      which the second point forbids.  So at each row of the kept path the
      full DP has the truncated DP's value and maximizing boundaries, and
      it takes the same boundaries and the same score, ties included.

    Drift certificate.  ``anchors``, an :class:`Anchors` kept by the caller
    across similar inputs (one stage over a design's iterations), lets a
    call skip the DP in O(n).  A DP that makes an anchor keeps runners-up
    (:func:`_partition_dp`, 10-60% more time at the paper point) and stores the pruned
    alphabet, the prefix sums A0, B0, its partition P0 and its margin M:
    the smaller of the 2-best gap and, after a truncated run, the tail
    certificate's gap R_K - (R_{K-1} + max g) - _TAIL_SLACK.  A later call
    on the same pruned alphabet with no negative mass returns P0 if

        M > _mi_shift(D) + _TAIL_SLACK,  _mi_shift(D) = 4 D log2(2K/D),

    D the l1 drift of the masses measured on the prefix sums,
    sum_j |(A - A0)[j+1] - (A - A0)[j]| + the same for B (:func:`_drift`),
    with the score summed along P0 in the DP's order (:func:`_path_score`).
    That is the DP's result, thresholds and MI bit for bit:

    * Let F(P) be the float sum the DP forms along a partition P, which
      the truncated and the full DP form alike, and E(P) the exact score
      of P's cells, their masses the exact differences of the float prefix
      sums (nonnegative and at most 1/2, as the masses are).  By the tail
      certificate's second point |F - E| < 6.1e-14.  On the anchor's input
      every other partition has F0(P0) - F0(P) >= M: inside 1..m as the
      runners-up bound every other path's sum, past m as the tail
      certificate bounds F0(P) by R_{K-1} + max g + _TAIL_SLACK.
    * Exactly, a cell [i, e) of any partition moves by (A - A0)[e] -
      (A - A0)[i] between the two inputs, and by the triangle inequality
      along i..e the 2K cell masses move by at most D in l1.  So each
      exact score, half the MI, moves by at most _mi_shift(D) / 2
      (:func:`_mi_shift`; ``ranking._rank_tolerance`` step 6), and
      E(P0) - E(P) >= M - 1.22e-13 - _mi_shift(D) on the new input.
    * In floats, the new input's F(P0) - F(P) then exceeds M - 2.44e-13 -
      _mi_shift(D), which is positive by the rule with 7.5e-13 to spare.
      That covers the rounding of the rule itself: :func:`_drift` scales
      its float sums by 1 + n 2**-50, above the relative error 4 (n + 1)
      2**-53 of the differences and sums it takes, _mi_shift increases in
      D, and the terms of the comparison round within 1e-15 of 1.
    * Rounding is monotone, so the DP's value at each row is the largest
      float sum of any path from it, and its score is F(P0).  Any boundary
      where a first maximum could fall leads to a path of sum F(P0), which
      only P0 has: the DP returns P0 and F(P0), the sum formed here by the
      same operations on the same operands.

    Returns ``(QuantizerSpec, mutual_information_of_quantized_output)``.
    """
    if not p.symmetric:
        raise ValidationError("threshold design expects a symmetric PMF")
    if not p.llr_order:
        raise ValidationError("threshold design expects reliability-ordered magnitudes")
    K = 1 << (w - 1)
    mags, a, b = p.fold_positive()
    if mags.size < K:
        raise ValidationError(f"{mags.size} magnitudes cannot fill {K} cells")
    mags, a, b = _folded_prune(mags, a, b, prune_tol, K)
    n = mags.size
    A = np.concatenate([[0.0], np.cumsum(a)])
    B = np.concatenate([[0.0], np.cumsum(b)])
    signed = min(a.min(), b.min()) < 0.0     # no proof covers a negative mass
    bounds = None if anchors is None or signed else anchors.certify(mags, A, B, K)
    build = bounds is None and anchors is not None and not signed and anchors.wants(mags, A, B, K)
    if bounds is not None:
        score = _path_score(A, B, bounds)
    else:
        m = max(int(np.argmax((A[n] - A) + (B[n] - B) <= _TAIL_MASS)), K)
        if m >= n - 1 or signed:        # no tail, or no proof
            m = n
        dp = functools.partial(_partition_dp, runner=True) if build else _partition_dp
        score, bounds, best, *margin = dp(A, B, K, m)
        if m < n:
            head = _cluster_scores(A[m + 1] - A[:m + 1], B[m + 1] - B[:m + 1])
            tail = _cluster_scores(np.diff(A[m + 1:]), np.diff(B[m + 1:])).sum()
            bound = best[K - 2, 0] + np.max(head + tail - best[0])
            if bound + _TAIL_SLACK < score:     # a margin over the tail's partitions too
                margin = [min(margin + [score - bound - _TAIL_SLACK])]
            else:
                score, bounds, _, *margin = dp(A, B, K, n)
    if not math.isfinite(score):
        raise RuntimeError("partition search found no feasible solution")
    if anchors is not None:
        if build:
            anchors.add(mags, A, B, bounds, margin[0])
        anchors.remember(mags, A, B)
    thresholds = tuple(int(mags[e]) for e in bounds)
    spec = QuantizerSpec("non_uniform", w, delta=delta, thresholds=thresholds)
    return spec, float(2.0 * score)


def design_channel_quantizer(fine: JointPMF, w: int):
    """Threshold quantizer for a fine channel-LLR grid.

    Same search as :func:`design_nonuniform`, with no tail pruned; the
    returned spec's ``delta`` is the grid bin width, so integer thresholds
    convert to LLR units via :func:`threshold_edges_llr`.  Returns the spec
    together with the quantized channel message PMF.
    """
    if fine.values is None:
        raise ValidationError("fine channel grid must carry bin-center values")
    step = float(fine.values[1] - fine.values[0])
    spec, _ = design_nonuniform(fine, w, delta=step, prune_tol=0.0)
    return spec, apply_quantizer(fine, spec)


def threshold_edges_llr(spec: QuantizerSpec, fine: JointPMF):
    """LLR positions of a channel threshold quantizer's cell boundaries.

    Reported as the lower edge of the first grid bin of each upper cell:
    bins left of the edge quantize down, bins at or right of it up.
    """
    if spec.kind != "non_uniform":
        raise ValidationError("only threshold quantizers have LLR edges")
    step = float(fine.values[1] - fine.values[0])
    edges = []
    for t in spec.thresholds:
        i = int(np.searchsorted(fine.alphabet, t))
        edges.append(float(fine.values[i]) - 0.5 * step)
    return tuple(edges)


# ---------------------------------------------------------------------------
# uniform design: exhaustive shift / offset / step-size search
# ---------------------------------------------------------------------------

def _dense_folded(p: JointPMF):
    """Positive-half masses on a dense magnitude-indexed grid 0..M."""
    mags, a, b = p.fold_positive()
    M = int(mags[-1])
    da = np.zeros(M + 1)
    db = np.zeros(M + 1)
    da[mags] = a
    db[mags] = b
    return da, db


@functools.lru_cache(maxsize=8)
def _uniform_grid(K, r_limit, kappa_search):
    """Unclipped boundaries k * 2**r - kappa (k = 0..K) of every (r, kappa)
    pair in sweep order, and the pairs; read-only, as the cache shares them."""
    rk = np.array([(r, kappa) for r in range(r_limit)
                   for kappa in (range(1 << r) if kappa_search else (0,))],
                  dtype=np.int64).reshape(-1, 2)
    grid = np.arange(K + 1) * (1 << rk[:, :1]) - rk[:, 1:]
    rk.setflags(write=False)
    grid.setflags(write=False)
    return grid, rk[:, 0], rk[:, 1]


def _uniform_scores(da, db, w, r_limit, kappa_search):
    """MI of every (r, kappa) pair of :func:`_uniform_sweep`, in sweep order.

    ``da`` and ``db`` may hold one magnitude PMF per row: the scores of
    each row are along the last axis.
    """
    K = 1 << (w - 1)
    M = da.shape[-1] - 1
    zero = np.zeros(da.shape[:-1] + (1,))
    cumA, cumB = (np.concatenate([zero, np.cumsum(d, axis=-1)], axis=-1) for d in (da, db))
    grid, r, kappa = _uniform_grid(K, r_limit, kappa_search)
    bnd = np.clip(grid, 0, M + 1)     # column 0 (-kappa) clips to 0
    bnd[:, K] = M + 1
    pa, pb = (np.diff(cum[..., bnd], axis=-1) for cum in (cumA, cumB))
    return 2.0 * np.sum(_cluster_scores(pa, pb), axis=-1), r, kappa


def _uniform_sweep(da, db, w, r_limit, kappa_search):
    """Best (mi, shift, offset) for dropping low bits of a magnitude PMF.

    Every shift r < r_limit is tried, with every offset kappa < 2**r when
    ``kappa_search`` is set and kappa = 0 otherwise: one vectorized pass
    over all (r, kappa) pairs, O(#pairs * K) time and memory for K cells.
    MI ties go to the smaller r, then the smaller kappa (first maximum in
    the sweep order); the result equals, bit for bit, that of a loop over
    the pairs in this order keeping the best under strict improvement
    (kept as the reference in the tests).  Returns (-1.0, 0, 0) if no pair
    scores above -1.
    """
    mi, r, kappa = _uniform_scores(da, db, w, r_limit, kappa_search)
    # first maximum after a -1.0 seed, NaN read as -1.0: the pair a loop
    # keeping the best under strict improvement would keep
    j = int(np.argmax(np.fmax(np.concatenate([[-1.0], mi]), -1.0)))
    if j == 0:
        return (-1.0, 0, 0)
    return (float(mi[j - 1]), int(r[j - 1]), int(kappa[j - 1]))


def build_delta_grid(delta_star: float, n_points: int = 256):
    """Geometric step-size grid from 1/16 to 4 times a saturation-derived
    reference."""
    if not (delta_star > 0.0):
        raise ValidationError("delta_star must be positive")
    return np.geomspace(delta_star / 16.0, delta_star * 4.0, n_points)


def design_uniform(p: JointPMF, w: int, *, wphi: int | None = None,
                   kappa_search: bool = False, delta: float | None = None):
    """MI-best uniform shift/offset quantizer for one symmetric PMF.

    Searches every shift r < wphi (default: enough shifts to reach past
    the largest magnitude of ``p``) and, when ``kappa_search`` is set,
    every offset kappa < 2**r.  MI ties go to the smaller shift, then the
    smaller offset.  ``delta`` only labels the resulting spec (default:
    the real value of one magnitude step of ``p``).  The step-size search,
    which rebuilds the PMF at every step and keeps the first step of
    highest MI, lives in the density-evolution stage that calls this.

    Returns ``(QuantizerSpec, mutual_information_of_quantized_output)``.
    """
    if not p.symmetric:
        raise ValidationError("uniform design expects a symmetric PMF")
    if not p.llr_order:
        raise ValidationError("uniform design expects reliability-ordered magnitudes")
    da, db = _dense_folded(p)
    r_limit = wphi if wphi is not None else max(1, int(da.size - 1).bit_length() + 1)
    mi, r, kappa = _uniform_sweep(da, db, w, r_limit, kappa_search)
    step = _magnitude_unit(p) if delta is None else delta
    return QuantizerSpec("uniform", w, delta=step, shift_r=r, offset_kappa=kappa), mi
