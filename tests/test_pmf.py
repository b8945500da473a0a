import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantldpc.pmf import (
    ChannelModel,
    JointPMF,
    ValidationError,
    apply_quantizer,
    awgn_llr_pmf,
    folded_mutual_information,
    mutual_information,
    symmetrize_vn_sum,
)
from quantldpc.quantizers import QuantizerSpec


def small_pmf():
    # equiprobable x, three-symbol alphabet, mass written out by hand
    mass = np.array([[0.30, 0.15, 0.05],
                     [0.05, 0.15, 0.30]])
    return JointPMF([-1, 1, 2], mass)


def test_mi_against_hand_sum():
    # independent double-loop evaluation of the defining sum
    p = small_pmf()
    assert mutual_information(p) == pytest.approx(0.285829054992371, abs=1e-14)


def test_mi_independence_and_determinism():
    mass = np.outer([0.5, 0.5], [0.1, 0.2, 0.3, 0.4])
    p = JointPMF([-2, -1, 1, 2], mass)
    assert mutual_information(p) == pytest.approx(0.0, abs=1e-14)
    assert mutual_information(p) == mutual_information(p)


def _quadrature_capacity(ebn0_db, rate):
    """BPSK-AWGN capacity, 1 - E[log2(1 + e^{-L})], via Gauss-Hermite."""
    from scipy.special import roots_hermite

    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    mean = 2.0 / sigma2
    x, w = roots_hermite(181)
    llr = mean + math.sqrt(4.0 * mean) * x
    val = np.log1p(np.exp(-np.clip(llr, -700.0, 700.0))) / math.log(2.0)
    return 1.0 - float(np.sum(w * val)) / math.sqrt(math.pi)


@pytest.mark.parametrize("ebn0_db,rate", [(3.3, 0.841), (1.0, 0.5), (6.0, 0.9)])
def test_fine_grid_mi_matches_channel_capacity(ebn0_db, rate):
    # 2000 bins lose a few 1e-6 bits to discretization, never gain any
    ch = ChannelModel(ebn0_db=ebn0_db, rate=rate)
    mi = mutual_information(awgn_llr_pmf(ch))
    cap = _quadrature_capacity(ebn0_db, rate)
    assert mi <= cap + 1e-9
    assert mi == pytest.approx(cap, abs=1e-5)


def test_capacity_frozen_value():
    ch = ChannelModel(ebn0_db=3.3, rate=0.841)
    assert mutual_information(awgn_llr_pmf(ch)) == pytest.approx(
        0.8902614399920333, abs=1e-5)


def test_awgn_pmf_shape_and_symmetry():
    ch = ChannelModel(ebn0_db=2.0, rate=0.5, grid_size=1024)
    p = awgn_llr_pmf(ch)
    assert p.symmetric and p.llr_order
    assert p.n_symbols == 1024
    assert 0 not in p.alphabet
    assert p.mass.sum() == pytest.approx(1.0, abs=1e-14)
    # conditional LLR of the bin should track the bin center (channel is
    # symmetric, so L(y) equals the LLR value the bin represents)
    llrs = p.conditional_llr()
    centers = p.values
    mid = np.abs(centers) < 8.0  # away from folded tails
    assert np.allclose(llrs[mid], centers[mid], atol=ch.effective_clip / 1024)


@st.composite
def symmetric_pmfs(draw):
    half = draw(st.integers(min_value=2, max_value=12))
    raw = draw(st.lists(st.floats(1e-9, 1.0), min_size=2 * half, max_size=2 * half))
    row0 = np.asarray(raw)
    row0 /= 2.0 * row0.sum()
    mass = np.vstack([row0, row0[::-1]])
    alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    return JointPMF(alphabet, mass, symmetric=True)


@given(symmetric_pmfs())
@settings(max_examples=60, deadline=None)
def test_mi_bounds_and_symmetry_survival(p):
    mi = mutual_information(p)
    assert -1e-12 <= mi <= 1.0 + 1e-12
    mags, a, b = p.fold_positive()
    assert folded_mutual_information(a, b) == pytest.approx(mi, abs=1e-10)


@given(symmetric_pmfs(), st.integers(min_value=2, max_value=3))
@settings(max_examples=60, deadline=None)
def test_quantization_never_gains_information(p, w):
    if p.n_symbols < 2 ** w:
        return
    mags = np.abs(p.alphabet)
    cells = np.minimum(1 + (mags - 1) // 2, 2 ** (w - 1))
    q = apply_quantizer(p, np.sign(p.alphabet) * cells)
    assert mutual_information(q) <= mutual_information(p) + 1e-12
    assert q.mass.sum() == pytest.approx(p.mass.sum(), abs=1e-14)
    assert q.symmetric


def test_apply_quantizer_spec_and_mapping_agree():
    p = small_pmf_symmetric()
    spec = QuantizerSpec("non_uniform", 2, thresholds=(3,))
    via_spec = apply_quantizer(p, spec)
    mapping = {y: int(np.sign(y)) * (1 if abs(y) < 3 else 2) for y in p.alphabet}
    via_map = apply_quantizer(p, mapping)
    assert np.array_equal(via_spec.alphabet, via_map.alphabet)
    assert np.allclose(via_spec.mass, via_map.mass, atol=0.0)


def small_pmf_symmetric():
    row0 = np.array([0.02, 0.04, 0.08, 0.12, 0.24, 0.50])
    row0 = row0 / (2 * row0.sum())
    mass = np.vstack([row0, row0[::-1]])
    return JointPMF([-3, -2, -1, 1, 2, 3], mass, llr_order=True, symmetric=True)


def test_apply_quantizer_missing_symbol():
    p = small_pmf_symmetric()
    with pytest.raises(ValidationError, match="missing symbol"):
        apply_quantizer(p, {1: 1, -1: -1})


def test_symmetrize_vn_sum_hand_case():
    # contiguous alphabet -2..2 with 0.1 sitting on zero
    mass = np.array([[0.02, 0.08, 0.05, 0.15, 0.20],
                     [0.20, 0.15, 0.05, 0.08, 0.02]])
    p = JointPMF([-2, -1, 0, 1, 2], mass)
    out = symmetrize_vn_sum(p)
    assert list(out.alphabet) == [-2, -1, 1, 2]
    # zero mass splits evenly, then mirror-averaging symmetrizes exactly
    expect0 = np.array([0.02, 0.08 + 0.025, 0.15 + 0.025, 0.20])
    assert np.allclose(out.mass[0], expect0, atol=1e-15)
    assert np.allclose(out.mass[1], expect0[::-1], atol=1e-15)
    assert out.symmetric and out.llr_order
    assert out.mass.sum() == pytest.approx(1.0, abs=1e-14)


def test_symmetrize_rejects_gapped_alphabet():
    mass = np.full((2, 3), 1 / 6)
    with pytest.raises(ValidationError):
        symmetrize_vn_sum(JointPMF([-2, 0, 3], mass))


def test_joint_pmf_validation():
    with pytest.raises(ValidationError, match="strictly increasing"):
        JointPMF([1, 1], np.full((2, 2), 0.25))
    with pytest.raises(ValidationError, match="sums to"):
        JointPMF([-1, 1], np.full((2, 2), 0.3))
    with pytest.raises(ValidationError, match="not symmetric"):
        JointPMF([-1, 1], np.array([[0.3, 0.3], [0.2, 0.2]]), symmetric=True)
    # the same table is fine without the symmetry claim
    JointPMF([-1, 1], np.array([[0.3, 0.3], [0.2, 0.2]]))


def test_joint_pmf_rejects_nan_mass():
    with pytest.raises(ValidationError, match="sums to nan"):
        JointPMF([-1, 1], [[math.nan, 0.5], [0.5, 0.2]])


def test_channel_model_validation():
    with pytest.raises(ValidationError):
        ChannelModel(ebn0_db=1.0, rate=1.5)
    with pytest.raises(ValidationError):
        ChannelModel(ebn0_db=1.0, rate=0.5, grid_size=100)
    ch = ChannelModel(ebn0_db=0.0, rate=0.5)
    assert ch.noise_variance == pytest.approx(1.0)
    assert ch.llr_mean == pytest.approx(2.0)
