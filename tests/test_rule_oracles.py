"""Design rules that have one definition now, against the bodies they
replaced, kept here verbatim (names aside) as their oracles: the two
saturation steps, the pairwise min-CN combine and its loop, the
mirror-averaging offset-min-sum VN, and the adder width vn_evolve wrote
out by hand.  Each comparison is bit for bit."""

import functools
import math

import numpy as np
import pytest

from quantldpc.complexity import vn_input_width
from quantldpc.evolution import (
    _min_chain,
    _omsq_channel_design,
    _omsq_cn_evolve,
    _omsq_fold,
    _omsq_vn_evolve,
    cn_evolve_min,
)
from quantldpc.pmf import ChannelModel, JointPMF, ValidationError, awgn_llr_pmf
from quantldpc.quantizers import (
    cell_llr_magnitudes,
    cn_phi_values,
    design_channel_quantizer,
    llr_saturation_delta,
    phi_saturation_delta,
    raw_translation_values,
    saturation_delta,
)

EBN0S = [float(e) for e in range(-1, 6)]      # -1 ... 5 dB
WIDTHS = range(2, 6)                           # w 2-5


def old_phi_saturation_delta(p: JointPMF, wphi: int) -> float:
    """Step size putting the largest finite phi exactly at the wphi-bit top."""
    phis = cn_phi_values(p)
    finite = phis[np.isfinite(phis)]
    if finite.size == 0 or float(finite.max()) <= 0.0:
        raise ValidationError("no cell yields a usable phi value")
    return float(finite.max()) / ((1 << (wphi - 1)) - 1)


def old_llr_saturation_delta(pmfs, wphi: int) -> float:
    """Step size putting the largest finite cell LLR across PMFs at the top."""
    peak = 0.0
    for p in pmfs:
        L = cell_llr_magnitudes(p)
        finite = L[np.isfinite(L)]
        if finite.size:
            peak = max(peak, float(finite.max()))
    if peak <= 0.0:
        raise ValidationError("no finite cell LLR found")
    return peak / ((1 << (wphi - 1)) - 1)


def old_min_index_matrix(k):
    i = np.arange(k)
    return np.minimum(i[:, None], i[None, :]).ravel()


def old_pairwise_min(acc0, acc1, b0, b1, idx):
    """One (sign product, min magnitude) combine of two folded PMFs."""
    k = acc0.size
    z0 = np.bincount(idx, (np.outer(acc0, b0) + np.outer(acc1, b1)).ravel(), k)
    z1 = np.bincount(idx, (np.outer(acc0, b1) + np.outer(acc1, b0)).ravel(), k)
    return z0, z1


def old_min_loop(base0, base1, dc):
    """The loop cn_evolve_min and _omsq_cn_evolve each ran."""
    idx = old_min_index_matrix(base0.size)
    q0, q1 = base0.copy(), base1.copy()
    for _ in range(dc - 2):
        q0, q1 = old_pairwise_min(q0, q1, base0, base1, idx)
    return q0, q1


def old_omsq_vn_evolve(p_cn: JointPMF, p_ch: JointPMF, dv: int) -> JointPMF:
    """Saturating integer sum of the channel and dv-1 check messages."""
    if dv < 1:
        raise ValidationError("variable degree must be at least 1")
    M = int(p_ch.alphabet[-1])
    acc = 2.0 * p_ch.mass[0]
    S = M
    if dv > 1:
        c = 2.0 * p_cn.mass[0]
        for _ in range(dv - 1):
            acc = np.convolve(acc, c)
            S += M
    # clip the sum back to +/-M
    clipped = np.zeros(2 * M + 1)
    lo = S - M
    clipped[:] = acc[lo:lo + 2 * M + 1]
    clipped[0] += acc[:lo].sum()
    clipped[-1] += acc[lo + 2 * M + 1:].sum()
    alphabet = np.arange(-M, M + 1)
    mass = np.vstack([0.5 * clipped, 0.5 * clipped[::-1]])
    row = 0.5 * (mass[0] + mass[1][::-1])   # exact symmetry
    mass = np.vstack([row, row[::-1]])
    mass /= mass.sum()
    return JointPMF(alphabet, mass, symmetric=True)


@functools.lru_cache(maxsize=None)
def fine_grid(ebn0):
    return awgn_llr_pmf(ChannelModel(ebn0, 0.5, grid_size=512))


@functools.lru_cache(maxsize=None)
def channel(ebn0, w):
    """The designed channel message PMF at a point."""
    return design_channel_quantizer(fine_grid(ebn0), w)[1]


@functools.lru_cache(maxsize=None)
def omsq_channel(ebn0, w):
    """The offset-min-sum baseline's channel message PMF at a point."""
    return _omsq_channel_design(fine_grid(ebn0), w)[1]


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_saturation_step_is_the_old_phi_and_llr_rules_bit_for_bit():
    points = 0
    for ebn0 in EBN0S:
        for w in WIDTHS:
            t_ch = channel(ebn0, w)
            for dc in range(2, 33):
                # a CN output stands in for a VN output as a CN input
                p_c2v = cn_evolve_min(t_ch, dc)
                llrs = [raw_translation_values(p, "vn_llr") for p in (t_ch, p_c2v)]
                for wphi in range(w, 9):
                    for p in (t_ch, p_c2v):
                        want = old_phi_saturation_delta(p, wphi)
                        phi = raw_translation_values(p, "cn_phi")
                        assert bits(saturation_delta([phi], wphi)) == bits(want)
                        assert bits(phi_saturation_delta(p, wphi)) == bits(want)
                    want = old_llr_saturation_delta([p_c2v, t_ch], wphi)
                    assert bits(saturation_delta(llrs, wphi)) == bits(want)
                    assert bits(llr_saturation_delta([p_c2v, t_ch], wphi)) == bits(want)
                    points += 1
    assert points == len(EBN0S) * 31 * sum(9 - w for w in WIDTHS)


def test_saturation_step_raises_where_the_old_rules_raised():
    # every cell one-sided: phi 0 and |L| infinite, no usable step
    p = JointPMF([-2, -1, 1, 2], [[0.0, 0.0, 0.25, 0.25], [0.25, 0.25, 0.0, 0.0]],
                 llr_order=True, symmetric=True)
    for old, new in ((lambda: old_phi_saturation_delta(p, 6), lambda: phi_saturation_delta(p, 6)),
                     (lambda: old_llr_saturation_delta([p], 6),
                      lambda: llr_saturation_delta([p], 6))):
        with pytest.raises(ValidationError):
            old()
        with pytest.raises(ValidationError, match="no cell yields a positive finite"):
            new()
    with pytest.raises(ValidationError):
        saturation_delta([], 6)


def test_min_chain_is_the_old_pairwise_loop_bit_for_bit():
    for ebn0 in EBN0S:
        for w in WIDTHS:
            _, a, b = channel(ebn0, w).fold_positive()
            base0, base1, _ = _omsq_fold(omsq_channel(ebn0, w))
            for dc in range(2, 33):
                for x0, x1 in ((2.0 * a, 2.0 * b), (base0, base1)):
                    assert bits(*_min_chain(x0, x1, dc)) == bits(*old_min_loop(x0, x1, dc))


def test_min_chain_is_the_old_pairwise_loop_on_fuzzed_masses():
    # one product and one bincount per combine, against the two outer
    # products and two bincounts it replaced, on masses that are zero,
    # subnormal or slightly negative (as JointPMF admits)
    rng = np.random.default_rng(24)
    specials = np.array([0.0, 5e-324, 3e-310, -1e-16, -0.0])
    for trial in range(600):
        k = int(rng.integers(1, 17))
        base = rng.random((2, k)) * rng.choice([1.0, 1e-3, 1e-300], size=(2, k))
        spots = rng.random((2, k)) < rng.choice([0.0, 0.3, 0.8])
        base[spots] = rng.choice(specials, size=int(spots.sum()))
        dc = 2 + trial % 39
        want = old_min_loop(base[0], base[1], dc)
        assert bits(*_min_chain(base[0], base[1], dc)) == bits(*want)


def test_omsq_vn_without_the_mirror_average_is_the_old_one_bit_for_bit():
    points = 0
    for ebn0 in EBN0S:
        for w in WIDTHS:
            t_ch = omsq_channel(ebn0, w)
            for dc in (2, 3, 6, 32):
                for beta in range(3):
                    p_cn = _omsq_cn_evolve(t_ch, dc, beta)
                    for dv in range(1, 7):
                        got = _omsq_vn_evolve(p_cn, t_ch, dv)
                        want = old_omsq_vn_evolve(p_cn, t_ch, dv)
                        assert bits(got.alphabet, got.mass) == bits(want.alphabet, want.mass)
                        points += 1
    assert points == len(EBN0S) * len(WIDTHS) * 4 * 3 * 6


def test_vn_adder_limit_is_the_cost_models_width():
    for dv in range(1, 65):
        for wphi in range(2, 17):
            old = 1 << (wphi - 1 + max(1, math.ceil(math.log2(max(dv, 2)))) + 1)
            assert old == 1 << (vn_input_width(dv, wphi) - 1)
