import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import quantldpc as ql
from quantldpc import pmf
from quantldpc.evolution import EnsembleConfig, _speculate
from quantldpc.pmf import (
    MASS_TOL,
    ChannelModel,
    JointPMF,
    ValidationError,
    _ndtr,
    _xlog2x,
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


def masked_xlog2x(v):
    """The where=-masked form _xlog2x replaced, as the reference."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros_like(v)
    np.log2(v, out=out, where=v > 0)
    out *= v
    return out


def test_xlog2x_equals_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(7)
    tiny = np.finfo(np.float64).tiny
    edge = np.array([0.0, 5e-324, 1e-320, tiny / 2, tiny, 1e-300, 0.5, 1.0, 2.0, 1e300, np.inf])
    cases = [edge, rng.random(10 ** 6), np.exp(-700.0 * rng.random(10 ** 6)),
             np.where(rng.random((64, 1450)) < 0.2, 0.0, rng.random((64, 1450)))]
    for v in cases:
        got, want = _xlog2x(v), masked_xlog2x(v)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.signbit(_xlog2x(np.zeros(3))).sum() == 0      # +0.0, not -0.0


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


def test_apply_quantizer_spec_keeps_empty_cells():
    # magnitudes 1..3 under shift 0 land in cells 2..4: cell 1 is empty
    p = small_pmf_symmetric()
    q = apply_quantizer(p, QuantizerSpec("uniform", 3, shift_r=0))
    assert q.alphabet.tolist() == [-4, -3, -2, -1, 1, 2, 3, 4]
    assert q.mass[:, [3, 4]].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert np.array_equal(q.mass[:, [0, 1, 2, 5, 6, 7]], p.mass)


def small_pmf_symmetric():
    row0 = np.array([0.02, 0.04, 0.08, 0.12, 0.24, 0.50])
    row0 = row0 / (2 * row0.sum())
    mass = np.vstack([row0, row0[::-1]])
    return JointPMF([-3, -2, -1, 1, 2, 3], mass, llr_order=True, symmetric=True)


@pytest.mark.parametrize("symmetric,mapping,want", [
    (True, {-3: -1, -2: -1, -1: -1, 1: 1, 2: 1, 3: 1}, True),
    # output alphabet -2, -1, 1 is not closed under negation
    (True, {-3: -2, -2: -1, -1: -1, 1: 1, 2: 1, 3: 1}, False),
    # output alphabet -2, -1, 1, 2 mirrors, but cell -2 holds input -3 and cell 2 inputs 2, 3
    (True, {-3: -2, -2: -1, -1: -1, 1: 1, 2: 2, 3: 2}, False),
    # a mirroring mapping of masses that mirror, but not flagged symmetric
    (False, {-3: -1, -2: -1, -1: -1, 1: 1, 2: 1, 3: 1}, False),
])
def test_a_mapped_output_is_symmetric_only_where_input_and_output_mirror(
        symmetric, mapping, want):
    p = small_pmf_symmetric()
    p = JointPMF(p.alphabet, p.mass, symmetric=symmetric)
    q = apply_quantizer(p, mapping)
    out = np.array([mapping[y] for y in p.alphabet.tolist()])
    assert q.symmetric is want
    assert q.alphabet.tolist() == sorted(set(out.tolist()))
    assert q.mass.tolist() == [[row[out == y].sum() for y in q.alphabet] for row in p.mass]


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


def reference_validate(p):
    """JointPMF.validate with its earlier symmetry test, np.allclose."""
    a, m = p.alphabet, p.mass
    if a.ndim != 1 or m.shape != (2, a.size):
        raise ValidationError(f"mass shape {m.shape} does not match alphabet size {a.size}")
    if a.size < 2:
        raise ValidationError("alphabet must hold at least two symbols")
    if np.any(np.diff(a) <= 0):
        raise ValidationError("alphabet must be strictly increasing")
    if np.any(m < -1e-15):
        raise ValidationError("negative probability mass")
    total = float(m.sum())
    if not (abs(total - 1.0) <= MASS_TOL):
        raise ValidationError(f"mass sums to {total!r}, not 1 within {MASS_TOL}")
    if p.values is not None and p.values.shape != a.shape:
        raise ValidationError("values must align with the alphabet")
    if p.symmetric:
        if not np.array_equal(a[::-1], -a):
            raise ValidationError("symmetric PMF needs an alphabet closed under negation")
        if not np.allclose(m[0], m[1][::-1], rtol=0.0, atol=MASS_TOL):
            raise ValidationError("p(0, y) != p(1, -y): PMF is not symmetric")


def reference_fold_positive(p):
    """JointPMF.fold_positive with its earlier boolean mask."""
    pos = p.alphabet > 0
    return p.alphabet[pos] - p.mag_offset, p.mass[0, pos].copy(), p.mass[1, pos].copy()


def validation_outcome(check, p):
    try:
        check(p)
    except ValidationError as exc:
        return str(exc)
    return None


def checked_pmfs():
    """Random symmetric PMFs, some nudged off symmetry or normalization,
    and hand-made edge cases, all built unvalidated."""
    rng = np.random.default_rng(12)
    for trial in range(300):
        half = int(rng.integers(1, 40))
        row0 = rng.random(2 * half)
        row0[rng.random(2 * half) < 0.2] = 0.0
        row0 /= 2.0 * row0.sum() if row0.sum() > 0 else 1.0
        mass = np.vstack([row0, row0[::-1]])
        for _ in range(int(rng.integers(0, 3))):
            mass[rng.integers(2), rng.integers(2 * half)] += (
                rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(10.0, 17.0))
        if trial % 3 == 0:       # a zero symbol, magnitude offset 1
            alphabet = np.arange(-half, half + 1)
            mass = np.insert(mass, half, 0.0, axis=1)
            offset = 1
        else:
            alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
            offset = 0
        yield JointPMF(alphabet, mass, symmetric=trial % 5 != 4, mag_offset=offset,
                       validate=False)
    # asymmetry of 1e-12 and one ulp either side, on masses summing to
    # 1 - 2**-41 so the sum check passes
    row0 = np.array([0.0, 0.125, 0.125, 0.25 - 2.0 ** -42])
    for gap in (np.nextafter(1e-12, 0.0), 1e-12, np.nextafter(1e-12, 1.0)):
        mass = np.vstack([row0, row0[::-1]])
        mass[0, 0] = gap
        yield JointPMF([-2, -1, 1, 2], mass, symmetric=True, validate=False)
    for bad in (math.inf, -math.inf, math.nan, -1e-16, -2e-15):
        for cells in ([(0, 1)], [(0, 1), (1, 2)]):
            mass = np.vstack([row0, row0[::-1]])
            for cell in cells:
                mass[cell] = bad
            yield JointPMF([-2, -1, 1, 2], mass, symmetric=True, validate=False)
    yield JointPMF([-3, -2, -1], np.full((2, 3), 1 / 6), validate=False)
    yield JointPMF([-1, 0, 1], np.full((2, 3), 1 / 6), mag_offset=1, validate=False)


def test_validate_and_fold_equal_their_earlier_expressions():
    outcomes = set()
    for p in checked_pmfs():
        want = validation_outcome(reference_validate, p)
        assert validation_outcome(JointPMF.validate, p) == want
        outcomes.add(want.split(":")[0].split(" ")[0] if want else None)
        if want is None:
            for got, ref in zip(p.fold_positive(), reference_fold_positive(p)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
    # accepted, asymmetric, unnormalized, negative and nan cases all ran
    assert outcomes == {None, "p(0,", "mass", "negative"}


def test_symmetry_check_boundary_is_one_ulp():
    gaps = [validation_outcome(JointPMF.validate, p) for p in checked_pmfs()][300:303]
    assert gaps == [None, None, "p(0, y) != p(1, -y): PMF is not symmetric"]


def test_channel_model_validation():
    with pytest.raises(ValidationError):
        ChannelModel(ebn0_db=1.0, rate=1.5)
    with pytest.raises(ValidationError):
        ChannelModel(ebn0_db=1.0, rate=0.5, grid_size=100)
    ch = ChannelModel(ebn0_db=0.0, rate=0.5)
    assert ch.noise_variance == pytest.approx(1.0)
    assert ch.llr_mean == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_channel_model_rejects_a_non_finite_snr_or_clip(bad):
    # an infinite SNR divided by zero in llr_mean, a nan clip failed only
    # later as a mass summing to nan
    with pytest.raises(ValidationError, match="ebn0_db must be finite"):
        ChannelModel(ebn0_db=bad, rate=0.5)
    with pytest.raises(ValidationError, match="clip_llr must be positive and finite"):
        ChannelModel(ebn0_db=1.0, rate=0.5, clip_llr=bad)
    with pytest.raises(ValidationError, match="clip_llr must be positive and finite"):
        ChannelModel(ebn0_db=1.0, rate=0.5, clip_llr=0.0)
    assert ChannelModel(ebn0_db=1.0, rate=0.5, clip_llr=12.5).effective_clip == 12.5


def assert_same_bits(got, want):
    bad = got.view(np.int64) != want.view(np.int64)
    assert not bad.any(), (got[bad][:5], want[bad][:5])


#: Cephes' MAXLOG: erfc(x) is 0 once x*x exceeds it
MAXLOG = 7.09782712893383996843e2


def ulps_around(v, k=3):
    """v and the k floats on either side of it, ascending."""
    lo, hi = [v], [v]
    for _ in range(k):
        lo.append(np.nextafter(lo[-1], -math.inf))
        hi.append(np.nextafter(hi[-1], math.inf))
    return lo[:0:-1] + hi


def test_ndtr_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    sqrt1_2 = math.sqrt(0.5)
    # each branch point of Cephes' ndtr as a test on z = |a| * sqrt(1/2):
    # erf inside, 1 - erf, the P/Q rational, the R/S rational, the cut
    branches = {1.0: lambda z: z < sqrt1_2, math.sqrt(2.0): lambda z: z < 1.0,
                8.0 * math.sqrt(2.0): lambda z: z < 8.0,
                math.sqrt(MAXLOG) / sqrt1_2: lambda z: z * z <= MAXLOG}
    edges = []
    for a, inside in branches.items():
        window = np.array(ulps_around(a))
        assert len(set(inside(window * sqrt1_2))) == 2     # the window straddles it
        edges += [window, -window]
    tiny = np.finfo(np.float64).tiny
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny,
                         np.nextafter(tiny, 0.0), 1e-300, 1e300, -1e300,
                         np.finfo(np.float64).max, -np.finfo(np.float64).max,
                         np.inf, -np.inf])
    for a in [rng.uniform(-40.0, 40.0, 10 ** 6), specials, *edges]:
        assert_same_bits(_ndtr(a), ndtr(a))
    nan = np.array([np.nan, -np.nan])
    assert np.isnan(_ndtr(nan)).all() and np.isnan(ndtr(nan)).all()


def _design_points():
    """(config, snr window, resolution) of every design the acceptance gate
    and the benchmark make; the window is None for a single design."""
    paper = dict(dc=32, dv=6, w=4, wphi=8, cn_variant="comp", vn_variant="comp")
    gate = [(EnsembleConfig(iterations=1, design_ebn0_db=3.3, rate=0.841, **paper), None, None),
            (EnsembleConfig(iterations=150, design_ebn0_db=3.3, rate=0.841, **paper),
             (3.0, 3.2), 0.005),
            (EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=10, cn_variant="comp",
                            vn_variant="comp", design_ebn0_db=3.0, rate=0.5), None, None)]
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    w = workloads.WORKLOADS
    seeds = range(len(workloads.DESIGN_OFFSETS_DB))
    return (gate
            + [(cfg, window, w["threshold_dp"].resolution_db) for seed in seeds
               for _, cfg, window in w["threshold_dp"].prepare(ql, seed, None)]
            + [(cfg, None, None) for seed in seeds
               for _, cfg in w["design_uniform"].prepare(ql, seed, None)]
            + [(cfg, None, None) for _, cfg in w["decode"].design_configs(ql)])


def test_channel_pmfs_of_every_gate_and_benchmark_design_equal_scipy(monkeypatch):
    # every SNR a bisection may probe, whatever the verdicts
    channels = {replace(cfg, design_ebn0_db=snr).channel_model()
                for cfg, window, resolution in _design_points()
                for snr in ([cfg.design_ebn0_db] if window is None
                            else _speculate(*window, resolution, {}))}
    assert len(channels) > 100
    got = {ch: awgn_llr_pmf(ch) for ch in channels}
    monkeypatch.setattr(pmf, "_ndtr", ndtr)
    for ch, p in got.items():
        want = awgn_llr_pmf(ch)
        assert_same_bits(p.mass, want.mass)
        assert_same_bits(p.values, want.values)
