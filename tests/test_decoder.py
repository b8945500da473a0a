import itertools
import math
import warnings
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quantldpc import decoder
from quantldpc.codes import ParityCheckMatrix, bundled_code, generate_regular_code
from quantldpc.decoder import (
    DecoderState,
    cn_exact_llr,
    cn_update_comp,
    cn_update_min,
    decode,
    decode_batch,
    omsq_decode_batch,
    vn_update,
)
from quantldpc.evolution import DesignArtifact, EnsembleConfig, IterationDesign, design_decoder
from quantldpc.pmf import ValidationError
from quantldpc.quantizers import QuantizerSpec, TranslationTable


def all_messages(w):
    M = 1 << (w - 1)
    return [t for t in range(-M, M + 1) if t != 0]


def quantize_ref(mag, spec):
    """Reference quantizer on a magnitude, written as explicit comparisons."""
    if spec.kind == "non_uniform":
        cell = 1
        for t in spec.thresholds:
            if mag >= t:
                cell += 1
        return cell
    return 1 + min((mag + spec.offset_kappa) >> spec.shift_r, spec.n_cells - 1)


# --- check node, computational domain --------------------------------------

CN_TAB = TranslationTable((13, 6, 2, 0), 6, 0.3)
CN_SPEC = QuantizerSpec("non_uniform", 3, thresholds=(3, 8, 14))


def cn_ref(inputs):
    """Per-output recomputation from scratch: the exclusion definition."""
    out = []
    for j in range(len(inputs)):
        others = inputs[:j] + inputs[j + 1:]
        sign = 1
        for t in others:
            sign *= 1 if t > 0 else -1
        y = sum(CN_TAB.values[abs(t) - 1] for t in others)
        out.append(sign * quantize_ref(y, CN_SPEC))
    return out


@pytest.mark.parametrize("dc", [3, 4])
def test_cn_comp_exclusion_equivalence_exhaustive(dc):
    w = CN_SPEC.out_width_w
    for inputs in itertools.product(all_messages(w)[:6], repeat=dc):
        assert cn_update_comp(list(inputs), CN_TAB, CN_SPEC) == cn_ref(list(inputs))


def test_cn_comp_exclusion_equivalence_random_w4():
    tab = TranslationTable((40, 22, 13, 8, 4, 2, 1, 0), 8, 0.1)
    spec = QuantizerSpec("non_uniform", 4,
                         thresholds=(5, 11, 20, 33, 52, 80, 120))
    rng = np.random.default_rng(0)
    msgs = all_messages(4)
    for _ in range(300):
        dc = int(rng.integers(3, 12))
        inputs = [msgs[i] for i in rng.integers(0, len(msgs), size=dc)]
        got = cn_update_comp(inputs, tab, spec)
        ref = []
        for j in range(dc):
            others = inputs[:j] + inputs[j + 1:]
            sign = 1
            for t in others:
                sign *= 1 if t > 0 else -1
            y = sum(tab.values[abs(t) - 1] for t in others)
            ref.append(sign * quantize_ref(y, spec))
        assert got == ref


@pytest.mark.parametrize("dc", [3, 4])
def test_cn_comp_sign_symmetry(dc):
    # negating every input scales each output sign by (-1)^(dc-1), the
    # number of sign factors entering the extrinsic product
    factor = 1 if (dc - 1) % 2 == 0 else -1
    for inputs in itertools.product(all_messages(3)[:4], repeat=dc):
        flipped = [-t for t in inputs]
        a = cn_update_comp(list(inputs), CN_TAB, CN_SPEC)
        b = cn_update_comp(flipped, CN_TAB, CN_SPEC)
        assert b == [factor * t for t in a]


def test_cn_comp_rejects_bad_messages():
    with pytest.raises(ValidationError):
        cn_update_comp([1, 0, 2], CN_TAB, CN_SPEC)
    with pytest.raises(ValidationError):
        cn_update_comp([1, 9, 2], CN_TAB, CN_SPEC)


# --- check node, min approximation ------------------------------------------

def test_cn_min_worked_example():
    assert cn_update_min([3, -1, 2]) == [-1, 2, -1]


def min_ref(inputs):
    out = []
    for j in range(len(inputs)):
        others = inputs[:j] + inputs[j + 1:]
        sign = 1
        for t in others:
            sign *= 1 if t > 0 else -1
        out.append(sign * min(abs(t) for t in others))
    return out


@pytest.mark.parametrize("dc,w", [(3, 2), (4, 2), (3, 3)])
def test_cn_min_exclusion_equivalence_exhaustive(dc, w):
    for inputs in itertools.product(all_messages(w), repeat=dc):
        assert cn_update_min(list(inputs)) == min_ref(list(inputs))


def test_cn_min_duplicate_minimum():
    # both ties must see the other tie, not the third-smallest
    assert cn_update_min([2, 2, 3]) == [2, 2, 2]
    assert cn_update_min([-2, 2, 3]) == [2, -2, -2]


# --- variable node -----------------------------------------------------------

VN_TABS = {"phi_ch": TranslationTable((14, 9, 5, 2), 6, 0.2),
           "phi_c": TranslationTable((11, 7, 3, 1), 6, 0.2)}
VN_SPEC = QuantizerSpec("non_uniform", 3, thresholds=(4, 10, 19))


def vn_ref(ch, inputs, vn_type):
    sgn = lambda t: 1 if t > 0 else -1
    terms = [sgn(t) * VN_TABS["phi_c"].values[abs(t) - 1] for t in inputs]
    ch_term = sgn(ch) * VN_TABS["phi_ch"].values[abs(ch) - 1]
    out = []
    for j in range(len(inputs)):
        ext = ch_term + sum(terms[:j]) + sum(terms[j + 1:])
        if ext == 0:
            sign = -1 if vn_type else 1
        else:
            sign = 1 if ext > 0 else -1
        out.append(sign * quantize_ref(abs(ext), VN_SPEC))
    return out, ch_term + sum(terms)


@pytest.mark.parametrize("vn_type", [0, 1])
def test_vn_exclusion_equivalence_exhaustive(vn_type):
    msgs = all_messages(3)
    for ch in msgs[::2]:
        for inputs in itertools.product(msgs[:5], repeat=2):
            got, app = vn_update(ch, list(inputs), VN_TABS, VN_SPEC, vn_type)
            ref, app_ref = vn_ref(ch, list(inputs), vn_type)
            assert got == ref
            assert app == app_ref


def test_vn_zero_sum_tie_rule():
    # channel +9*0.2 against a single check message -9*0.2: exact tie
    tabs = {"phi_ch": TranslationTable((1, 2, 4, 9), 6, 0.2),
            "phi_c": TranslationTable((1, 2, 4, 9), 6, 0.2)}
    spec = QuantizerSpec("non_uniform", 3, thresholds=(3, 6, 12))
    out0, app0 = vn_update(4, [-4, 4], tabs, spec, 0)
    out1, app1 = vn_update(4, [-4, 4], tabs, spec, 1)
    # the edge excluding +4 sees 9 - 9 = 0
    assert out0[1] == 1 and out1[1] == -1
    assert out0[0] == out1[0]  # nonzero sums ignore the type
    assert app0 == app1 == 9


def test_vn_sign_symmetry():
    msgs = all_messages(3)
    for ch in msgs[:4]:
        for inputs in itertools.product(msgs[:4], repeat=2):
            a, _ = vn_update(ch, list(inputs), VN_TABS, VN_SPEC, 0)
            b, _ = vn_update(-ch, [-t for t in inputs], VN_TABS, VN_SPEC, 1)
            assert b == [-t for t in a]


# --- exact check node LLR ----------------------------------------------------

def test_cn_exact_llr_hand_value():
    assert cn_exact_llr([2.0, 2.0]) == pytest.approx(1.3250027473578643, abs=1e-12)


def test_cn_exact_llr_against_naive_formula():
    rng = np.random.default_rng(1)
    for _ in range(200):
        llrs = rng.uniform(-6, 6, size=rng.integers(2, 8))
        prod = np.prod(np.tanh(0.5 * llrs))
        want = 2.0 * math.atanh(prod)
        assert cn_exact_llr(list(llrs)) == pytest.approx(want, abs=1e-9)


def test_cn_exact_llr_edge_cases():
    assert cn_exact_llr([0.0, 3.0]) == 0.0
    assert cn_exact_llr([-2.0, 3.0]) < 0
    assert cn_exact_llr([-2.0, -3.0]) > 0
    assert cn_exact_llr([50.0, 60.0]) == pytest.approx(80.0)  # clipped regime
    assert abs(cn_exact_llr([1e-12, 5.0])) < 1e-10


# --- full decoder ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup():
    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=8,
                         cn_variant="comp", vn_variant="comp",
                         design_ebn0_db=2.8, rate=0.5)
    artifact, _ = design_decoder(cfg)
    code = generate_regular_code(96, 3, 6, seed=5)
    return code, artifact


@pytest.fixture(scope="module")
def min_setup():
    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=8,
                         cn_variant="min", vn_variant="comp",
                         design_ebn0_db=2.8, rate=0.5)
    artifact, _ = design_decoder(cfg)
    code = generate_regular_code(96, 3, 6, seed=5)
    return code, artifact


@cache
def omsq_artifact(dc=6, dv=3, rate=0.5, w=4, beta=1):
    """A designed offset-min-sum artifact; its decoder depends on w and beta only."""
    cfg = EnsembleConfig(dc=dc, dv=dv, w=w, wphi=8, iterations=2, cn_variant="omsq",
                         vn_variant="omsq", design_ebn0_db=2.8, rate=rate, beta=beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return design_decoder(cfg)[0]


def noisy_frames(code, artifact, n_frames, sigma, seed):
    rng = np.random.default_rng(seed)
    llr = (2.0 / sigma ** 2) * (1.0 + sigma * rng.standard_normal((n_frames, code.n_vars)))
    mag = 1 + np.searchsorted(artifact.channel_edges_llr, np.abs(llr), side="right")
    return np.where(llr >= 0, mag, -mag).astype(np.int64)


def test_noiseless_decodes_clean(small_setup):
    code, artifact = small_setup
    ch = np.full((25, code.n_vars), 8, dtype=np.int64)
    bits, iters, ok = decode_batch(ch, code, artifact, max_iter=8)
    assert not bits.any()
    assert ok.all()
    assert not iters.any()  # hard decisions already satisfy every check


def test_scalar_and_batch_agree(small_setup):
    code, artifact = small_setup
    msgs = noisy_frames(code, artifact, 6, sigma=1.05, seed=2)
    bits_b, iters_b, ok_b = decode_batch(msgs, code, artifact, max_iter=8)
    for f in range(msgs.shape[0]):
        bits_s, iters_s, ok_s = decode(msgs[f], code, artifact, max_iter=8)
        assert np.array_equal(bits_s, bits_b[f])
        assert iters_s == iters_b[f]
        assert ok_s == ok_b[f]


def test_scalar_and_batch_agree_min_variant(min_setup):
    # magnitude ties inside a check are common at w=4; the batched
    # extrinsic minimum must match the scalar first/second minimum rule
    code, artifact = min_setup
    msgs = noisy_frames(code, artifact, 6, sigma=1.1, seed=3)
    bits_b, iters_b, ok_b = decode_batch(msgs, code, artifact, max_iter=8)
    for f in range(msgs.shape[0]):
        bits_s, iters_s, ok_s = decode(msgs[f], code, artifact, max_iter=8)
        assert np.array_equal(bits_s, bits_b[f])
        assert iters_s == iters_b[f]
        assert ok_s == ok_b[f]


def test_decoding_corrects_moderate_noise(small_setup):
    code, artifact = small_setup
    # sigma 0.63 is about 4 dB for rate 1/2, comfortably decodable
    msgs = noisy_frames(code, artifact, 200, sigma=0.63, seed=4)
    bits, _, ok = decode_batch(msgs, code, artifact, max_iter=8)
    assert ok.mean() > 0.95
    assert bits[ok].sum() == 0


def test_max_iter_zero_slices_channel_signs(small_setup):
    code, artifact = small_setup
    msgs = noisy_frames(code, artifact, 4, sigma=1.0, seed=6)
    bits, iters, ok = decode_batch(msgs, code, artifact, max_iter=0)
    assert np.array_equal(bits, (msgs < 0).astype(np.uint8))
    assert not iters.any()


def test_decode_batch_validation(small_setup):
    code, artifact = small_setup
    with pytest.raises(ValidationError, match="frames, n_vars"):
        decode_batch(np.ones((3, 5), dtype=np.int64), code, artifact, 4)
    bad = np.full((1, code.n_vars), 8, dtype=np.int64)
    bad[0, 0] = 0
    with pytest.raises(ValidationError, match="nonzero"):
        decode_batch(bad, code, artifact, 4)
    bad[0, 0] = 9
    with pytest.raises(ValidationError):
        decode_batch(bad, code, artifact, 4)
    # abs() of the most negative int64 is itself, so it used to pass the range check
    bad[0, 0] = np.iinfo(np.int64).min
    with pytest.raises(ValidationError, match="4-bit"):
        decode_batch(bad, code, artifact, 4)
    with pytest.raises(ValidationError, match="4-bit"):
        decode_batch(np.full((1, code.n_vars), 2 ** 64 - 1, dtype=np.uint64), code,
                     artifact, 4)
    # a float message was truncated (1.7 decoded as 1), a bool one passed as +-1
    frame = np.full(code.n_vars, 7, dtype=np.int64)
    for msgs in (frame + 0.7, frame.astype(float), frame > 0):
        with pytest.raises(ValidationError, match="integers"):
            decode_batch(msgs[None], code, artifact, 4)
        with pytest.raises(ValidationError, match="integers"):
            decode(msgs, code, artifact, 4)
    # Python ints and any integer dtype keep working
    want = decode(frame, code, artifact, 4)
    for msgs in (frame.tolist(), frame.astype(np.int8), frame.astype(np.uint16)):
        got = decode(msgs, code, artifact, 4)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_omsq_decode_batch_validation():
    code = generate_regular_code(24, 3, 6, seed=1, min_girth=4)
    frame = np.full(code.n_vars, 7, dtype=np.int64)
    frame[0] = 0        # zero is an omsq message
    with pytest.raises(ValidationError, match="frames, n_vars"):
        omsq_decode_batch(frame[None, :5], code, 4, 1, 4)
    for top in (8, -8, np.iinfo(np.int64).min):
        bad = frame.copy()
        bad[1] = top
        with pytest.raises(ValidationError, match="4-bit"):
            omsq_decode_batch(bad[None], code, 4, 1, 4)
    artifact = omsq_artifact()
    for msgs in (frame + 0.7, frame.astype(float), frame > 0):
        with pytest.raises(ValidationError, match="integers"):
            omsq_decode_batch(msgs[None], code, 4, 1, 4)
        with pytest.raises(ValidationError, match="integers"):
            decode(msgs, code, artifact, 4)
    want = decode(frame, code, artifact, 4)
    for msgs in (frame.tolist(), frame.astype(np.int8)):
        got = decode(msgs, code, artifact, 4)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_vn_phase_flips_tie_convention(small_setup):
    code, artifact = small_setup
    s0 = DecoderState(code, artifact, vn_phase=0)
    s1 = DecoderState(code, artifact, vn_phase=1)
    assert np.array_equal(s0.vn_type, 1 - s1.vn_type)
    msgs = noisy_frames(code, artifact, 30, sigma=0.63, seed=8)
    bits0, _, ok0 = decode_batch(msgs, code, artifact, max_iter=8, state=s0)
    bits1, _, ok1 = decode_batch(msgs, code, artifact, max_iter=8, state=s1)
    # both phases are valid decoders; on comfortably decodable frames they
    # agree on the codeword
    both = ok0 & ok1
    assert both.mean() > 0.9
    assert np.array_equal(bits0[both], bits1[both])


def test_state_rejects_omsq_artifact(small_setup):
    # an omsq artifact builds a state of its own; a designed decoder's refuses it
    code, comp = small_setup
    ch = np.full((2, code.n_vars), 3, dtype=np.int64)
    with pytest.raises(ValidationError, match="built for comp .* not for omsq"):
        decode_batch(ch, code, omsq_artifact(), 2, state=DecoderState(code, comp))


# --- offset-min-sum baseline -------------------------------------------------

def test_omsq_noiseless_and_scalar_batch_agreement():
    code = generate_regular_code(96, 3, 6, seed=5)
    M = 7
    ch = np.full((10, code.n_vars), M, dtype=np.int64)
    bits, iters, ok = omsq_decode_batch(ch, code, w=4, beta=1, max_iter=8)
    assert not bits.any() and ok.all()

    rng = np.random.default_rng(9)
    msgs = rng.integers(-M, M + 1, size=(8, code.n_vars))
    bits_b, iters_b, ok_b = omsq_decode_batch(msgs, code, w=4, beta=1, max_iter=6)
    for f in range(8):
        bits_s, iters_s, ok_s = decode(msgs[f], code, omsq_artifact(), max_iter=6)
        assert np.array_equal(bits_s, bits_b[f])
        assert iters_s == iters_b[f]
        assert ok_s == ok_b[f]


# --- reference kernels --------------------------------------------------------
# The batched decoders as they stood before the lookup-table kernel, kept
# verbatim (names aside) as the differential oracle of the flooding loop.

class RefState:
    """Immutable edge layout and per-iteration tables for one decoder.

    Precomputes the CSR-style edge orderings of the parity-check matrix
    and converts every iteration's tables into flat integer arrays, so
    repeated decode calls only pay for the message arithmetic.  vn_type
    alternates with node index; ``vn_phase=1`` swaps the two roles.
    """

    def __init__(self, code, artifact, *, vn_phase=0):
        if not artifact.per_iteration and artifact.config.iterations > 0:
            raise ValidationError("artifact carries no designed iterations")
        self.code = code
        self.artifact = artifact
        self.w = artifact.config.w
        self.cn_variant = artifact.config.cn_variant
        if self.cn_variant == "omsq":
            raise ValidationError("the omsq baseline runs through omsq_decode")

        # edges in check-major order
        self.edge_var = np.concatenate([np.asarray(r, dtype=np.int64)
                                        for r in code.row_adjacency])
        deg_c = np.array([len(r) for r in code.row_adjacency], dtype=np.int64)
        if np.any(deg_c < 2):
            raise ValidationError("every check node needs degree at least 2")
        self.cn_ptr = np.concatenate([[0], np.cumsum(deg_c)])[:-1]
        self.cn_rep = np.repeat(np.arange(code.n_checks), deg_c)
        # permutation into variable-major order
        self.vn_perm = np.argsort(self.edge_var, kind="stable")
        self.vn_inv = np.argsort(self.vn_perm, kind="stable")
        deg_v = np.bincount(self.edge_var, minlength=code.n_vars)
        if np.any(deg_v == 0):
            raise ValidationError("every variable node needs at least one edge")
        self.vn_ptr = np.concatenate([[0], np.cumsum(deg_v)])[:-1]
        self.vn_rep = np.repeat(np.arange(code.n_vars), deg_v)
        self.vn_type = ((np.arange(code.n_vars) + vn_phase) % 2).astype(np.int8)

        self._iters = []
        for rec in artifact.per_iteration:
            self._iters.append({
                "cn_vals": None if rec.cn_tables is None
                else np.asarray(rec.cn_tables.values, dtype=np.int64),
                "cn_spec": rec.cn_quantizer,
                "vn_ch": np.asarray(rec.vn_tables["phi_ch"].values, dtype=np.int64),
                "vn_c": np.asarray(rec.vn_tables["phi_c"].values, dtype=np.int64),
                "vn_spec": rec.vn_quantizer,
            })

    def tables_for(self, iteration):
        """Iteration's arrays; reuses the last designed record beyond it."""
        idx = min(iteration, len(self._iters) - 1)
        return self._iters[idx]


def _quantize_cells_array(mag, spec: QuantizerSpec):
    if spec.kind == "non_uniform":
        thr = np.asarray(spec.thresholds, dtype=np.int64)
        return 1 + np.searchsorted(thr, mag, side="right")
    cell = (mag + spec.offset_kappa) >> spec.shift_r
    return 1 + np.minimum(cell, spec.n_cells - 1)


def _syndrome_ok(bits, state):
    par = np.bitwise_xor.reduceat(bits[:, state.edge_var], state.cn_ptr, axis=1)
    return ~par.any(axis=1)


def ref_decode_batch(channel_msgs, code, artifact, max_iter, *, state=None):
    if state is None:
        state = RefState(code, artifact)
    ch = np.asarray(channel_msgs, dtype=np.int64)
    if ch.ndim != 2 or ch.shape[1] != code.n_vars:
        raise ValidationError("channel message array must be (frames, n_vars)")
    if np.any(ch == 0) or np.any(np.abs(ch) > (1 << (state.w - 1))):
        raise ValidationError("channel messages must be nonzero w-bit values")

    B = ch.shape[0]
    bits = (ch < 0).astype(np.uint8)
    iters_used = np.zeros(B, dtype=np.int64)
    ok = _syndrome_ok(bits, state)
    if max_iter == 0:
        return bits, iters_used, ok

    active = np.flatnonzero(~ok)
    ch_act = ch[active]
    v2c = ch_act[:, state.edge_var]            # iteration 1: channel forwarded
    for it in range(max_iter):
        tabs = state.tables_for(it)
        # --- check nodes ---------------------------------------------------
        neg = (v2c < 0).astype(np.int64)
        par_tot = np.add.reduceat(neg, state.cn_ptr, axis=1)[:, state.cn_rep]
        sign = 1 - 2 * ((par_tot - neg) & 1)
        if state.cn_variant == "min":
            mag = np.abs(v2c)
            m1e = np.minimum.reduceat(mag, state.cn_ptr, axis=1)[:, state.cn_rep]
            is_min = mag == m1e
            cnt = np.add.reduceat(is_min.astype(np.int64),
                                  state.cn_ptr, axis=1)[:, state.cn_rep]
            masked = np.where(is_min, np.iinfo(np.int64).max, mag)
            m2 = np.minimum.reduceat(masked, state.cn_ptr, axis=1)[:, state.cn_rep]
            # a unique minimum sees the runner-up; everything else sees the min
            c2v = sign * np.where(is_min & (cnt == 1), m2, m1e)
        else:
            phi = tabs["cn_vals"][np.abs(v2c) - 1]
            tot = np.add.reduceat(phi, state.cn_ptr, axis=1)[:, state.cn_rep]
            c2v = sign * _quantize_cells_array(tot - phi, tabs["cn_spec"])
        # --- variable nodes ------------------------------------------------
        sgn_c = np.where(c2v > 0, 1, -1)
        psi = (sgn_c * tabs["vn_c"][np.abs(c2v) - 1])[:, state.vn_perm]
        sgn_ch = np.where(ch_act > 0, 1, -1)
        psi_ch = sgn_ch * tabs["vn_ch"][np.abs(ch_act) - 1]
        app = np.add.reduceat(psi, state.vn_ptr, axis=1) + psi_ch
        ext = app[:, state.vn_rep] - psi
        sign_v = np.where(ext > 0, 1, np.where(ext < 0, -1, 0))
        tie = 1 - 2 * state.vn_type[state.vn_rep].astype(np.int64)
        sign_v = np.where(sign_v == 0, tie, sign_v)
        out = sign_v * _quantize_cells_array(np.abs(ext), tabs["vn_spec"])
        v2c = out[:, state.vn_inv]

        bits_act = (app < 0).astype(np.uint8)
        iters_used[active] = it + 1
        bits[active] = bits_act
        done = _syndrome_ok(bits_act, state)
        ok[active] |= done
        if done.all():
            break
        keep = ~done
        active = active[keep]
        ch_act = ch_act[keep]
        v2c = v2c[keep]
    return bits, iters_used, ok


class RefOmsqState:
    def __init__(self, code):
        self.edge_var = np.concatenate([np.asarray(r, dtype=np.int64)
                                        for r in code.row_adjacency])
        deg_c = np.array([len(r) for r in code.row_adjacency], dtype=np.int64)
        if np.any(deg_c < 2):
            raise ValidationError("every check node needs degree at least 2")
        self.cn_ptr = np.concatenate([[0], np.cumsum(deg_c)])[:-1]
        self.cn_rep = np.repeat(np.arange(code.n_checks), deg_c)
        self.vn_perm = np.argsort(self.edge_var, kind="stable")
        self.vn_inv = np.argsort(self.vn_perm, kind="stable")
        deg_v = np.bincount(self.edge_var, minlength=code.n_vars)
        self.vn_ptr = np.concatenate([[0], np.cumsum(deg_v)])[:-1]
        self.vn_rep = np.repeat(np.arange(code.n_vars), deg_v)
        self.n_checks = code.n_checks
        self.n_vars = code.n_vars


def ref_omsq_decode_batch(channel_msgs, code, w, beta, max_iter, *, state=None):
    if state is None:
        state = RefOmsqState(code)
    M = (1 << (w - 1)) - 1
    ch = np.asarray(channel_msgs, dtype=np.int64)
    if ch.ndim != 2 or ch.shape[1] != state.n_vars:
        raise ValidationError("channel message array must be (frames, n_vars)")
    if np.any(np.abs(ch) > M):
        raise ValidationError(f"channel messages exceed +/-{M}")

    B = ch.shape[0]
    bits = (ch < 0).astype(np.uint8)
    iters_used = np.zeros(B, dtype=np.int64)
    par = np.bitwise_xor.reduceat(bits[:, state.edge_var], state.cn_ptr, axis=1)
    ok = ~par.any(axis=1)
    if max_iter == 0:
        return bits, iters_used, ok

    active = np.flatnonzero(~ok)
    ch_act = ch[active]
    v2c = ch_act[:, state.edge_var]
    big = np.iinfo(np.int64).max
    for it in range(max_iter):
        neg = (v2c < 0).astype(np.int64)
        par_tot = np.add.reduceat(neg, state.cn_ptr, axis=1)[:, state.cn_rep]
        sign = 1 - 2 * ((par_tot - neg) & 1)
        mag = np.abs(v2c)
        m1 = np.minimum.reduceat(mag, state.cn_ptr, axis=1)[:, state.cn_rep]
        is_min = mag == m1
        cnt = np.add.reduceat(is_min.astype(np.int64),
                              state.cn_ptr, axis=1)[:, state.cn_rep]
        masked = np.where(is_min, big, mag)
        m2 = np.minimum.reduceat(masked, state.cn_ptr, axis=1)[:, state.cn_rep]
        ext = np.where(is_min & (cnt == 1), m2, m1)
        c2v = sign * np.maximum(ext - beta, 0)

        psi = c2v[:, state.vn_perm]
        app = np.add.reduceat(psi, state.vn_ptr, axis=1) + ch_act
        ext_v = app[:, state.vn_rep] - psi
        v2c = np.clip(ext_v, -M, M)[:, state.vn_inv]

        bits_act = (app < 0).astype(np.uint8)
        iters_used[active] = it + 1
        bits[active] = bits_act
        par = np.bitwise_xor.reduceat(bits_act[:, state.edge_var],
                                      state.cn_ptr, axis=1)
        done = ~par.any(axis=1)
        ok[active] |= done
        if done.all():
            break
        keep = ~done
        active = active[keep]
        ch_act = ch_act[keep]
        v2c = v2c[keep]
    return bits, iters_used, ok


# --- scalar flooding reference -------------------------------------------------

def scalar_flood(frames, code, max_iter, cn, vn):
    """Flooding schedule one frame and one node at a time.

    cn(it, inputs) -> outputs and vn(it, v, ch, inputs) -> (outputs, app)
    are the node updates of iteration it (0-based).
    """
    rows = code.row_adjacency
    cols = [[] for _ in range(code.n_vars)]          # (check, slot) per variable
    for c, row in enumerate(rows):
        for k, v in enumerate(row):
            cols[v].append((c, k))

    def syndrome_ok(bits):
        return all(sum(bits[v] for v in row) % 2 == 0 for row in rows)

    out_bits, out_iters, out_ok = [], [], []
    for frame in np.asarray(frames).tolist():
        bits = [int(t < 0) for t in frame]
        used, ok = 0, syndrome_ok(bits)
        v2c = [[frame[v] for v in row] for row in rows]
        while not ok and used < max_iter:
            c2v = [cn(used, msgs) for msgs in v2c]
            for v, edges in enumerate(cols):
                outs, app = vn(used, v, frame[v], [c2v[c][k] for c, k in edges])
                for (c, k), o in zip(edges, outs):
                    v2c[c][k] = o
                bits[v] = int(app < 0)
            used += 1
            ok = syndrome_ok(bits)
        out_bits.append(bits)
        out_iters.append(used)
        out_ok.append(ok)
    return (np.array(out_bits, dtype=np.uint8).reshape(len(out_bits), code.n_vars),
            np.array(out_iters, dtype=np.int64), np.array(out_ok, dtype=bool))


def scalar_decode(frames, code, artifact, max_iter, vn_phase=0):
    recs = artifact.per_iteration
    rec = lambda it: recs[min(it, len(recs) - 1)]

    def cn(it, msgs):
        if artifact.config.cn_variant == "min":
            return cn_update_min(msgs)
        return cn_update_comp(msgs, rec(it).cn_tables, rec(it).cn_quantizer)

    def vn(it, v, ch, msgs):
        return vn_update(ch, msgs, rec(it).vn_tables, rec(it).vn_quantizer,
                         (v + vn_phase) % 2)

    return scalar_flood(frames, code, max_iter, cn, vn)


def scalar_omsq_decode(frames, code, w, beta, max_iter):
    M = (1 << (w - 1)) - 1

    def cn(it, msgs):
        return [(1 if o > 0 else -1) * max(abs(o) - beta, 0) for o in cn_update_min(msgs)]

    def vn(it, v, ch, msgs):
        app = ch + sum(msgs)
        return [min(max(app - t, -M), M) for t in msgs], app

    return scalar_flood(frames, code, max_iter, cn, vn)


def assert_same(got, *refs):
    for ref in refs:
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


# --- differential tests of the flooding kernel ------------------------------------

@st.composite
def codes(draw):
    """Regular, row-regular and irregular codes with every variable covered."""
    kind = draw(st.sampled_from(["regular", "rows", "columns", "irregular"]))
    if kind == "regular":
        n, dv, dc = draw(st.sampled_from([(12, 2, 4), (12, 3, 6), (16, 2, 8),
                                          (10, 1, 2), (24, 3, 4), (64, 6, 32)]))
        return generate_regular_code(n, dv, dc, seed=draw(st.integers(0, 99)), min_girth=4)
    n = draw(st.integers(3, 12))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "columns":       # every variable in dv checks, check degrees vary
        dv = draw(st.integers(1, m))
        cols = [rng.choice(m, size=dv, replace=False) for _ in range(n)]
        rows = [[v for v in range(n) if c in cols[v]] for c in range(m)]
        assume(all(len(r) >= 2 for r in rows))
        return ParityCheckMatrix.from_rows(n, rows)
    sizes = [draw(st.integers(2, n))] * m if kind == "rows" else \
        draw(st.lists(st.integers(2, n), min_size=m, max_size=m))
    rows = [rng.choice(n, size=s, replace=False) for s in sizes]
    missing = set(range(n)) - {int(v) for r in rows for v in r}
    rows += [[v, (v + 1) % n] for v in sorted(missing)]
    return ParityCheckMatrix.from_rows(n, rows)


@st.composite
def tables(draw, w, wphi):
    vmax = (1 << (wphi - 1)) - 1
    # any order: a table need not be monotone in the cell index
    vals = draw(st.lists(st.integers(0, vmax), min_size=1 << (w - 1), max_size=1 << (w - 1)))
    return TranslationTable(tuple(vals), wphi, 1.0)


@st.composite
def quantizers(draw, w, top):
    cells = 1 << (w - 1)
    if draw(st.booleans()):
        thr = draw(st.lists(st.integers(1, top), min_size=cells - 1, max_size=cells - 1,
                            unique=True))
        return QuantizerSpec("non_uniform", w, thresholds=tuple(sorted(thr)))
    r = draw(st.integers(0, 5))
    return QuantizerSpec("uniform", w, shift_r=r,
                         offset_kappa=draw(st.integers(0, (1 << r) * cells - 1)))


@st.composite
def artifacts(draw, w=None, wphi=None, cn_variant=None):
    """Decoders with arbitrary (valid) tables: small ones make ties common."""
    w = w or draw(st.integers(2, 4))
    wphi = wphi or draw(st.integers(w, 6))
    cn_variant = cn_variant or draw(st.sampled_from(["comp", "comp_uni", "min"]))
    top = 8 * (1 << (wphi - 1))
    recs = []
    for _ in range(draw(st.integers(1, 3))):
        cn = cn_variant != "min"
        recs.append(IterationDesign(
            0.5, 0.5,
            cn_tables=draw(tables(w, wphi)) if cn else None,
            cn_quantizer=draw(quantizers(w, top)) if cn else None,
            vn_tables={"phi_ch": draw(tables(w, wphi)), "phi_c": draw(tables(w, wphi))},
            vn_quantizer=draw(quantizers(w, top))))
    cfg = EnsembleConfig(dc=4, dv=2, w=w, wphi=wphi, iterations=len(recs),
                         cn_variant=cn_variant, vn_variant="comp",
                         design_ebn0_db=1.0, rate=0.5)
    return DesignArtifact(cfg, None, None, None, recs)


def random_frames(seed, n_frames, n, levels, *, zero=False):
    """Frames from clean (no wrong sign) to heavily corrupted."""
    rng = np.random.default_rng(seed)
    mags = rng.integers(0 if zero else 1, levels + 1, size=(n_frames, n))
    flip = rng.random((n_frames, n)) < np.linspace(0.0, 0.4, n_frames)[:, None]
    return np.where(flip, -mags, mags)


@settings(max_examples=150, deadline=None)
@given(code=codes(), artifact=artifacts(), seed=st.integers(0, 2 ** 32 - 1),
       n_frames=st.integers(1, 40), max_iter=st.integers(0, 8), vn_phase=st.integers(0, 1))
def test_kernel_matches_reference_and_scalar_nodes(code, artifact, seed, n_frames,
                                                   max_iter, vn_phase):
    msgs = random_frames(seed, n_frames, code.n_vars, 1 << (artifact.config.w - 1))
    got = decode_batch(msgs, code, artifact, max_iter,
                       state=DecoderState(code, artifact, vn_phase=vn_phase))
    ref = ref_decode_batch(msgs, code, artifact, max_iter,
                           state=RefState(code, artifact, vn_phase=vn_phase))
    assert_same(got, ref, scalar_decode(msgs, code, artifact, max_iter, vn_phase))


@settings(max_examples=100, deadline=None)
@given(code=codes(), w=st.integers(2, 5), beta=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1), n_frames=st.integers(1, 40),
       max_iter=st.integers(0, 8))
def test_omsq_kernel_matches_reference_and_scalar_nodes(code, w, beta, seed, n_frames,
                                                        max_iter):
    msgs = random_frames(seed, n_frames, code.n_vars, (1 << (w - 1)) - 1, zero=True)
    got = omsq_decode_batch(msgs, code, w, beta, max_iter)
    ref = ref_omsq_decode_batch(msgs, code, w, beta, max_iter)
    assert_same(got, ref, scalar_omsq_decode(msgs, code, w, beta, max_iter))


def test_kernel_zero_sum_ties_follow_vn_phase():
    # equal channel and check translations make exact zero VN sums common;
    # the two tie conventions must then decode differently, each exactly
    # as the references do
    tab = TranslationTable((3, 3, 3, 3), 4, 1.0)
    spec = QuantizerSpec("non_uniform", 3, thresholds=(1, 4, 7))
    rec = IterationDesign(0.5, 0.5, cn_tables=tab, cn_quantizer=spec,
                          vn_tables={"phi_ch": tab, "phi_c": tab}, vn_quantizer=spec)
    cfg = EnsembleConfig(dc=4, dv=2, w=3, wphi=4, iterations=1, cn_variant="comp",
                         vn_variant="comp", design_ebn0_db=1.0, rate=0.5)
    artifact = DesignArtifact(cfg, None, None, None, [rec])
    code = generate_regular_code(48, 2, 4, seed=2, min_girth=4)   # dv = 2: even VN sums
    msgs = random_frames(5, 8, code.n_vars, 4)
    outs = []
    for phase in (0, 1):
        got = decode_batch(msgs, code, artifact, 6,
                           state=DecoderState(code, artifact, vn_phase=phase))
        assert_same(got, ref_decode_batch(msgs, code, artifact, 6,
                                          state=RefState(code, artifact, vn_phase=phase)),
                    scalar_decode(msgs, code, artifact, 6, phase))
        outs.append(got)
    assert not all(np.array_equal(a, b) for a, b in zip(*outs))


def scalar_syndromes(frame, code, artifact, n_iter):
    """After each of n_iter flooding iterations of one frame, through the
    scalar node updates and never stopping: is every check satisfied?"""
    rows = code.row_adjacency
    cols = [[] for _ in range(code.n_vars)]
    for c, row in enumerate(rows):
        for k, v in enumerate(row):
            cols[v].append((c, k))
    rec = artifact.per_iteration[0]
    frame = [int(t) for t in frame]
    v2c = [[frame[v] for v in row] for row in rows]
    bits, path = [0] * code.n_vars, []
    for _ in range(n_iter):
        if rec.cn_tables is None:
            c2v = [cn_update_min(m) for m in v2c]
        else:
            c2v = [cn_update_comp(m, rec.cn_tables, rec.cn_quantizer) for m in v2c]
        for v, edges in enumerate(cols):
            outs, app = vn_update(frame[v], [c2v[c][k] for c, k in edges], rec.vn_tables,
                                  rec.vn_quantizer, v % 2)
            for (c, k), o in zip(edges, outs):
                v2c[c][k] = o
            bits[v] = int(app < 0)
        path.append(all(sum(bits[v] for v in row) % 2 == 0 for row in rows))
    return path


@pytest.mark.parametrize("variant,path", [("comp", [False, True, False, True]),
                                          ("min", [False, True, False, False])])
def test_a_frame_is_recorded_at_its_first_success(variant, path):
    """A frame that clears its syndrome at iteration 2 and fails it at 3,
    among seven frames still running: one finished frame of eight is below
    the compaction share, so it is decoded on but must report iteration 2
    and its bits of then, as both references do."""
    tab = lambda *v: TranslationTable(v, 5, 1.0)
    quant = lambda *t: QuantizerSpec("non_uniform", 3, thresholds=t)
    if variant == "comp":
        rec = IterationDesign(0.5, 0.5, cn_tables=tab(7, 8, 8, 5), cn_quantizer=quant(15, 26, 36),
                              vn_tables={"phi_ch": tab(15, 2, 10, 6), "phi_c": tab(10, 12, 5, 10)},
                              vn_quantizer=quant(5, 18, 26))
    else:
        rec = IterationDesign(0.5, 0.5, vn_tables={"phi_ch": tab(7, 8, 8, 5),
                                                   "phi_c": tab(15, 5, 10, 5)},
                              vn_quantizer=quant(8, 17, 38))
    cfg = EnsembleConfig(dc=6, dv=3, w=3, wphi=5, iterations=1, cn_variant=variant,
                         vn_variant="comp", design_ebn0_db=1.0, rate=0.5)
    artifact = DesignArtifact(cfg, None, None, None, [rec])
    code = generate_regular_code(24, 3, 6, seed=1, min_girth=4)
    frame = [3, 3, 2, 4, 2, 4, 1, 2, 4, 2, 3, 3, 2, 1, 4, 4, 2, 4, 1, 2, 3, 4, -3, 1]
    assert scalar_syndromes(frame, code, artifact, 4) == path
    others = [f for f in random_frames(6, 24, code.n_vars, 4)
              if not any(scalar_syndromes(f, code, artifact, 5))][:7]
    assert len(others) == 7 and decoder._COMPACT_SHARE > 1 / 8
    msgs = np.array([frame] + others)
    got = decode_batch(msgs, code, artifact, 8)
    assert_same(got, ref_decode_batch(msgs, code, artifact, 8),
                scalar_decode(msgs, code, artifact, 8))
    assert got[1][0] == 2 and got[2][0] and (got[1][1:] > 3).all()
    first, _, _ = decode_batch(msgs[:1], code, artifact, 2)
    assert np.array_equal(got[0][0], first[0])


@pytest.fixture(scope="module")
def designed():
    """One designed decoder per variant on a (3,6) code."""
    code = generate_regular_code(96, 3, 6, seed=5)
    arts = {}
    for cn, vn, w, wphi in (("comp", "comp", 4, 8), ("comp_uni", "comp_uni", 3, 5),
                            ("min", "comp", 4, 8), ("omsq", "omsq", 4, 8)):
        cfg = EnsembleConfig(dc=6, dv=3, w=w, wphi=wphi, iterations=4, cn_variant=cn,
                             vn_variant=vn, design_ebn0_db=2.8, rate=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            arts[cn] = design_decoder(cfg)[0]
    return code, arts


@pytest.mark.parametrize("variant", ["comp", "comp_uni", "min", "omsq"])
def test_kernel_matches_references_on_designed_decoders(designed, variant):
    code, arts = designed
    art = arts[variant]
    rng = np.random.default_rng(11)
    llr = (2.0 / 0.8 ** 2) * (1.0 + 0.8 * rng.standard_normal((40, code.n_vars)))
    if variant == "omsq":
        msgs = art.channel_quantizer.map_llr(llr)
        ref = ref_omsq_decode_batch(msgs, code, 4, art.config.beta, 8)
        scalar = scalar_omsq_decode(msgs, code, 4, art.config.beta, 8)
    else:
        mag = 1 + np.searchsorted(art.channel_edges_llr, np.abs(llr), side="right")
        msgs = np.where(llr >= 0, mag, -mag)
        ref = ref_decode_batch(msgs, code, art, 8)
        scalar = scalar_decode(msgs, code, art, 8)
    got = decode_batch(msgs, code, art, 8)
    assert_same(got, ref, scalar)
    # frames leave the working set at many different iterations
    assert len(set(got[1].tolist())) >= 3


@pytest.mark.parametrize("n_vars,rows", [(4, [[0, 1, 3], [0, 1, 3]]),
                                         (5, [[0, 1, 2], [1, 2, 3]])])
def test_variable_without_edges_is_rejected(small_setup, n_vars, rows):
    # variable 2 (4) has no check: it must not borrow a neighbour's messages
    code = ParityCheckMatrix.from_rows(n_vars, rows)
    _, artifact = small_setup
    ch = np.full((1, n_vars), 7, dtype=np.int64)
    ch[0, 0] = -7
    ch[0, 2] = 1
    with pytest.raises(ValidationError, match="at least one edge"):
        decode_batch(ch, code, artifact, 1)
    with pytest.raises(ValidationError, match="at least one edge"):
        omsq_decode_batch(ch, code, 4, 0, 1)


def sorted_layout(state, code):
    """edge_var, vn_perm and vn_inv by the per-row arrays and stable sorts
    the O(E) layout replaced."""
    edge_var = state.checks.order(np.concatenate([np.asarray(r, dtype=np.intp)
                                                  for r in code.row_adjacency]))
    vn_perm = state.vars.order(np.argsort(edge_var, kind="stable"))
    return edge_var, vn_perm, np.argsort(vn_perm)


@settings(max_examples=100, deadline=None)
@given(code=codes())
def test_layout_equals_the_sorted_layout(code):
    state = DecoderState.offset_min_sum(code, 3, 1)
    for got, want in zip((state.edge_var, state.vn_perm, state.vn_inv),
                         sorted_layout(state, code)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["dv3_dc6_n8000", "dv6_dc32_n2048"])
def test_layout_of_the_bundled_codes(name):
    code = bundled_code(name)
    state = DecoderState.offset_min_sum(code, 4, 1)
    for got, want in zip((state.edge_var, state.vn_perm, state.vn_inv),
                         sorted_layout(state, code)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("variant", ["comp", "min", "omsq"])
def test_scratch_buffers_carry_nothing_between_calls(designed, variant):
    # one state decodes batches of growing and shrinking sizes as fresh
    # states do; its buffers are reused while they are large enough
    code, arts = designed
    art = arts[variant]
    if variant == "omsq":
        state = DecoderState.offset_min_sum(code, 4, art.config.beta)
        run = partial(omsq_decode_batch, code=code, w=4, beta=art.config.beta, max_iter=8)
        levels, zero = 7, True
    else:
        state = DecoderState(code, art)
        run = partial(decode_batch, code=code, artifact=art, max_iter=8)
        levels, zero = 8, False
    kept = None
    for seed, frames in enumerate((40, 8, 40, 1, 64, 3)):
        msgs = random_frames(seed, frames, code.n_vars, levels, zero=zero)
        assert_same(run(msgs, state=state), run(msgs))
        if kept is not None and frames <= 40:
            assert all(a is b for a, b in zip(state._buffers, kept))
        kept = list(state._buffers)
    assert kept[0].size > 40 * code.n_edges


@settings(max_examples=60, deadline=None)
@given(code=codes())
def test_index_buffer_holds_a_node_row_slab_on_regular_codes(code):
    # the intp lookup indices take one row of the larger side per frame on a
    # code regular on both sides, and every edge's only where a side is not
    state = DecoderState.offset_min_sum(code, 4, 1)
    sides = (state.checks, state.vars)
    want = max(s.n for s in sides) if all(s.regular for s in sides) else code.n_edges
    msgs = np.full((7, code.n_vars), 3)
    msgs[:, 0] = -3             # the checks of variable 0 fail: no frame clears at once
    omsq_decode_batch(msgs, code, 4, 1, 3, state=state)
    a, b, idx = state._buffers
    assert idx.dtype == np.intp and idx.size == 7 * want
    assert a.size == b.size == 7 * code.n_edges
    assert all(not s.regular or not hasattr(s, "rep") for s in sides)


def test_states_are_tied_to_their_decoder(small_setup):
    code, artifact = small_setup
    omsq = DecoderState.offset_min_sum(code, 4, 1)
    ch = np.full((2, code.n_vars), 3, dtype=np.int64)
    with pytest.raises(ValidationError, match="omsq"):
        decode_batch(ch, code, artifact, 2, state=omsq)
    with pytest.raises(ValidationError, match="omsq"):
        omsq_decode_batch(ch, code, 4, 2, 2, state=omsq)
    with pytest.raises(ValidationError, match="omsq"):
        omsq_decode_batch(ch, code, 4, 1, 2, state=DecoderState(code, artifact))
    with pytest.raises(ValidationError, match="beta"):
        DecoderState.offset_min_sum(code, 4, -1)


def test_a_state_refuses_an_artifact_of_another_variant(small_setup, min_setup):
    code, comp = small_setup
    _, min_art = min_setup
    ch = np.full((2, code.n_vars), 3, dtype=np.int64)
    with pytest.raises(ValidationError, match="built for min .* not for comp"):
        decode_batch(ch, code, comp, 2, state=DecoderState(code, min_art))
    with pytest.raises(ValidationError, match="built for omsq at w=4, beta=1, not for omsq "
                                              "at w=4, beta=2"):
        decode_batch(ch, code, omsq_artifact(beta=2), 2, state=DecoderState(code, omsq_artifact()))


@pytest.mark.parametrize("beta", [0, 1, 2])
@pytest.mark.parametrize("name", ["tiny", "dv6_dc32_n2048"])
def test_an_omsq_artifact_decodes_as_the_offset_min_sum_baseline(name, beta):
    if name == "tiny":
        code, dc, dv, sigma = generate_regular_code(24, 3, 6, seed=1, min_girth=4), 6, 3, 0.8
    else:
        code, dc, dv, sigma = bundled_code(name), 32, 6, 0.49
    art = omsq_artifact(dc, dv, 1 - dv / dc, 4, beta)
    state = DecoderState(code, art)
    want = DecoderState.offset_min_sum(code, 4, beta)
    assert np.array_equal(state.forward, want.forward)
    assert len(state.tables) == len(want.tables) == 1
    for got, ref in zip(state.tables[0], want.tables[0]):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    rng = np.random.default_rng(beta)
    llr = (2.0 / sigma ** 2) * (1.0 + sigma * rng.standard_normal((24, code.n_vars)))
    msgs = art.channel_quantizer.map_llr(llr)
    got = decode_batch(msgs, code, art, 8)
    assert_same(got, omsq_decode_batch(msgs, code, 4, beta, 8),
                ref_omsq_decode_batch(msgs, code, 4, beta, 8))
    assert_same(decode_batch(msgs, code, art, 8, state=state), got)
    for f in (0, 11, 23):
        bits, iters, ok = decode(msgs[f], code, art, 8, state=state)
        assert np.array_equal(bits, got[0][f]) and (iters, ok) == (got[1][f], got[2][f])


@pytest.mark.parametrize("beta", [0.5, -1, True, np.bool_(True), 1.0])
def test_omsq_state_rejects_a_beta_that_is_not_a_nonnegative_int(beta):
    # 0.5 used to build the table of beta = 1 without a word
    code = generate_regular_code(24, 3, 6, seed=1, min_girth=4)
    with pytest.raises(ValidationError, match="beta must be a nonnegative integer"):
        DecoderState.offset_min_sum(code, 4, beta)
    for state in (None, DecoderState.offset_min_sum(code, 4, 1)):
        # 1.0 and True passed the check of a given beta = 1 state
        with pytest.raises(ValidationError, match="beta must be a nonnegative integer"):
            omsq_decode_batch(np.ones((1, code.n_vars), dtype=np.int64), code, 4, beta, 2,
                              state=state)


def test_omsq_state_takes_a_numpy_int_beta():
    code = generate_regular_code(24, 3, 6, seed=1, min_girth=4)
    state = DecoderState.offset_min_sum(code, 4, np.int64(2))
    assert type(state.beta) is int and state.beta == 2
    want = DecoderState.offset_min_sum(code, 4, 2)
    assert np.array_equal(state.tables[0][1], want.tables[0][1])
    msgs = random_frames(3, 5, code.n_vars, 7, zero=True)
    assert_same(omsq_decode_batch(msgs, code, 4, np.int64(2), 6, state=state),
                ref_omsq_decode_batch(msgs, code, 4, 2, 6))


@pytest.mark.parametrize("variant", ["comp", "comp_uni", "min", "omsq"])
def test_folded_tables_carry_the_next_cn_input_and_the_sign(designed, variant):
    """VN output i, decoded with >> 1 and & 1, gives cn_in of iteration
    min(i+1, L-1) and the sign of the w-bit message; so does the forward."""
    code, arts = designed
    art = arts[variant]
    omsq = variant == "omsq"
    state = DecoderState(code, art)
    recs = [None] if omsq else art.per_iteration
    H, S = state.half, state.vn_range
    sent = [t for t in range(-H, H + 1) if (abs(t) < H if omsq else t != 0)]

    def cn_in(rec, t):
        return abs(t) if rec is None or rec.cn_tables is None else rec.cn_tables.values[abs(t) - 1]

    def vn_code(rec, ext, vn_type):
        if rec is None:
            return min(max(ext, 1 - H), H - 1)
        sign = 1 if ext > 0 or (ext == 0 and not vn_type) else -1
        return sign * quantize_ref(abs(ext), rec.vn_quantizer)

    assert len(state.tables) == len(recs)
    for t in sent:
        enc = int(state.forward[t + H])
        assert (enc >> 1, enc & 1) == (cn_in(recs[0], t), int(t < 0))
    for i, (_, _, vn_out) in enumerate(state.tables):
        assert vn_out.dtype == state.dtype
        nxt = recs[min(i + 1, len(recs) - 1)]
        for vn_type in (0, 1):
            for ext in range(-S, S + 1):
                t = vn_code(recs[i], ext, vn_type)
                enc = int(vn_out[vn_type * (2 * S + 1) + ext + S])
                assert (enc >> 1, enc & 1) == (cn_in(nxt, t), int(t < 0)), (i, ext, vn_type)


@settings(max_examples=25, deadline=None)
@given(code=codes(), seed=st.integers(0, 2 ** 32 - 1))
def test_syndrome_ok_takes_frames_by_variables(code, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=(5, code.n_vars), dtype=np.uint8)
    bits[0] = 0
    want = [all(sum(int(b[v]) for v in r) % 2 == 0 for r in code.row_adjacency) for b in bits]
    got = DecoderState.offset_min_sum(code, 3, 0).syndrome_ok(bits)
    assert got.shape == (5,) and got.tolist() == want


# --- integer widths ------------------------------------------------------------------

@settings(max_examples=3, deadline=None)
@given(artifact=artifacts(w=4, wphi=8, cn_variant="comp"))
def test_paper_point_runs_in_int16(artifact):
    code = generate_regular_code(256, 6, 32, seed=0, min_girth=4)
    state = DecoderState(code, artifact)
    assert (state.checks.deg, state.vars.deg) == (32, 6)
    assert state.dtype == np.int16
    assert DecoderState.offset_min_sum(code, 4, 1).dtype == np.int16


@settings(max_examples=20, deadline=None)
@given(artifact=artifacts(w=3, wphi=14), seed=st.integers(0, 2 ** 32 - 1))
def test_wide_tables_pick_a_wider_type(artifact, seed):
    # 14-bit tables: six CN inputs of up to 8191 overflow int16
    code = generate_regular_code(24, 3, 6, seed=1, min_girth=4)
    state = DecoderState(code, artifact)
    assert state.dtype == np.int32
    msgs = random_frames(seed, 4, code.n_vars, 4)
    got = decode_batch(msgs, code, artifact, 6, state=state)
    assert_same(got, ref_decode_batch(msgs, code, artifact, 6))


@pytest.mark.parametrize("dc,wphi,dtype", [(129, 8, np.int16), (65, 9, np.int32)])
def test_doubled_cn_sum_at_the_limit_of_its_type(dc, wphi, dtype):
    """Every CN input at the table maximum: 2T + 1 = 2 dc (2^(wphi-1) - 1) + 1
    is exactly 2^15 - 1 at dc = 129, wphi = 8, which runs in int16; at
    dc = 65, wphi = 9 it is 33151, and only that bound widens the loop to
    int32 (a min CN on the same code stays in int16)."""
    vmax = (1 << (wphi - 1)) - 1
    top = 2 * dc * vmax + 1
    assert (top == np.iinfo(np.int16).max) == (dtype == np.int16)
    h = (dc + 1) // 2           # two blocks of dc variables, every variable in two checks
    code = ParityCheckMatrix.from_rows(2 * dc, [
        list(range(dc)), list(range(dc, 2 * dc)),
        list(range(h)) + list(range(dc, 2 * dc - h)),
        list(range(h, dc)) + list(range(2 * dc - h, 2 * dc))])
    spec = QuantizerSpec("non_uniform", 3, thresholds=(dc * vmax // 4, dc * vmax // 2,
                                                       dc * vmax - vmax))
    rec = IterationDesign(0.5, 0.5, cn_tables=TranslationTable((vmax,) * 4, wphi, 1.0),
                          cn_quantizer=spec,
                          vn_tables={"phi_ch": TranslationTable((vmax, 90, 40, 1), wphi, 1.0),
                                     "phi_c": TranslationTable((3, 70, 20, vmax), wphi, 1.0)},
                          vn_quantizer=QuantizerSpec("non_uniform", 3, thresholds=(30, 90, 200)))
    cfg = EnsembleConfig(dc=dc, dv=2, w=3, wphi=wphi, iterations=1, cn_variant="comp",
                         vn_variant="comp", design_ebn0_db=1.0, rate=0.5)
    artifact = DesignArtifact(cfg, None, None, None, [rec])
    state = DecoderState(code, artifact)
    assert state.dtype == dtype
    min_rec = IterationDesign(0.5, 0.5, vn_tables=rec.vn_tables, vn_quantizer=rec.vn_quantizer)
    min_art = DesignArtifact(replace(cfg, cn_variant="min"), None, None, None, [min_rec])
    assert DecoderState(code, min_art).dtype == np.int16
    msgs = random_frames(dc, 12, code.n_vars, 4)
    got = decode_batch(msgs, code, artifact, 6, state=state)
    assert_same(got, ref_decode_batch(msgs, code, artifact, 6),
                scalar_decode(msgs, code, artifact, 6))
    assert len(set(got[1].tolist())) >= 3
