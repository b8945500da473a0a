import collections
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantldpc import evolution, quantizers
from quantldpc.evolution import EnsembleConfig, _design_stage, cn_evolve_comp, vn_evolve
from quantldpc.pmf import (
    ChannelModel,
    JointPMF,
    ValidationError,
    _cluster_scores,
    apply_quantizer,
    awgn_llr_pmf,
    mutual_information,
)
from quantldpc.quantizers import (
    QuantizerSpec,
    TranslationTable,
    _DP_BLOCK,
    _dense_folded,
    _folded_prune,
    _uniform_sweep,
    build_delta_grid,
    build_translation_table,
    design_channel_quantizer,
    design_nonuniform,
    design_uniform,
    phi_saturation_delta,
    raw_translation_values,
    round_translation_values,
    threshold_edges_llr,
)


def pmf_from_raw(rng, raw):
    """Symmetric PMF with joint masses ``raw`` per positive magnitude and
    p(x=0 | +m) increasing in m, so the folded axis is LLR-ordered."""
    half = raw.size
    frac = np.sort(rng.uniform(0.5, 1.0, size=half))
    t = 2 * raw.sum()
    a, b = raw * frac / t, raw * (1.0 - frac) / t
    row0 = np.concatenate([b[::-1], a])
    mass = np.vstack([row0, row0[::-1]])
    alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    return JointPMF(alphabet, mass, llr_order=True, symmetric=True)


def random_symmetric_pmf(rng, half, concentrated=False):
    """Symmetric message PMF with reliability growing in the magnitude."""
    if concentrated:
        raw = rng.random(half) ** 4 + 1e-9
    else:
        raw = rng.random(half) + 1e-6
    return pmf_from_raw(rng, raw)


def folded_cluster_mi(a, b, boundaries):
    """MI of the partition given by boundary indices, from first principles.

    ``boundaries`` are the start indices of cells 2..K on the folded axis.
    """
    edges = [0] + list(boundaries) + [a.size]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        pa = float(a[lo:hi].sum())
        pb = float(b[lo:hi].sum())
        for v in (pa, pb):
            if v > 0.0:
                total += v * math.log2(v)
        s = pa + pb
        if s > 0.0:
            total -= s * math.log2(s)
        total += s
    return 2.0 * total


def exhaustive_best(a, b, K):
    """All max-MI partitions by explicit enumeration, lexicographic order."""
    n = a.size
    best_mi = -1.0
    best = []
    for bounds in itertools.combinations(range(1, n), K - 1):
        mi = folded_cluster_mi(a, b, bounds)
        if mi > best_mi + 1e-13:
            best_mi, best = mi, [bounds]
        elif abs(mi - best_mi) <= 1e-13:
            best.append(bounds)
    return best_mi, best


@pytest.mark.parametrize("w,half,trials", [(2, 14, 12), (3, 14, 12), (4, 10, 6)])
def test_dp_matches_exhaustive_enumeration(w, half, trials):
    rng = np.random.default_rng(1000 + w)
    K = 1 << (w - 1)
    for t in range(trials):
        p = random_symmetric_pmf(rng, half, concentrated=(t % 3 == 0))
        spec, mi = design_nonuniform(p, w, prune_tol=0.0)
        mags, a, b = p.fold_positive()
        ref_mi, ref_bounds = exhaustive_best(a, b, K)
        assert mi == pytest.approx(ref_mi, abs=1e-10)
        got = tuple(int(np.searchsorted(mags, t)) for t in spec.thresholds)
        assert got in ref_bounds
        assert got == min(ref_bounds)


def test_dp_tie_break_on_degenerate_mass():
    # two interior symbols carry no mass at all: every boundary placement
    # across the gap ties, and the smallest threshold vector must win
    a = np.array([0.02, 0.0, 0.0, 0.30])
    b = np.array([0.08, 0.0, 0.0, 0.10])
    s = 2 * (a + b).sum()
    a, b = a / s, b / s
    row0 = np.concatenate([b[::-1], a])
    mass = np.vstack([row0, row0[::-1]])
    p = JointPMF([-4, -3, -2, -1, 1, 2, 3, 4], mass, llr_order=True, symmetric=True)
    spec, mi = design_nonuniform(p, 2, prune_tol=0.0)
    mags, af, bf = p.fold_positive()
    ref_mi, ref_bounds = exhaustive_best(af, bf, 2)
    assert mi == pytest.approx(ref_mi, abs=1e-12)
    assert spec.thresholds == (int(mags[min(ref_bounds)[0]]),)


def oracle_xlog2x(v):
    """v*log2(v) with 0*log2(0) = +0.0: the DP's arithmetic as the dense
    reference keeps it, whatever the package's own helpers do."""
    out = np.maximum(v, 5e-324)
    np.log2(out, out=out)
    out *= v
    out += 0.0
    return out


def dense_design_nonuniform(p, w, prune_tol):
    """Reference partition DP over the full (n+1) x (n+1) score matrix.

    G[i, e] scores the cluster of folded symbols i..e-1 (-inf for e <= i);
    each of the K-1 passes adds the previous layer to every row and takes
    the first maximum.  Returns ``(thresholds, mi)``.
    """
    K = 1 << (w - 1)
    mags, a, b = p.fold_positive()
    mags, a, b = _folded_prune(mags, a, b, prune_tol, K)
    n = mags.size
    A = np.concatenate([[0.0], np.cumsum(a)])
    B = np.concatenate([[0.0], np.cumsum(b)])
    pa = A[None, :] - A[:, None]
    pb = B[None, :] - B[:, None]
    G = oracle_xlog2x(pa)
    G += oracle_xlog2x(pb)
    s = pa + pb
    G -= oracle_xlog2x(s)
    G += s
    idx = np.arange(A.size)
    G[idx[:, None] >= idx[None, :]] = -np.inf

    s = G[:, n].copy()
    rows = np.arange(n + 1)
    choices = []
    for _ in range(K - 1):
        cand = G + s[None, :]
        pick = np.argmax(cand, axis=1)
        s = cand[rows, pick]
        choices.append(pick)
    bounds = []
    j = 0
    for pick in reversed(choices):
        j = int(pick[j])
        bounds.append(j)
    return tuple(int(mags[e]) for e in bounds), float(2.0 * s[0])


def raw_masses(rng, n, kind):
    raw = rng.random(n) + 1e-6
    if kind == "zero_gaps":
        raw[rng.random(n) < 0.3] = 0.0
        raw[n // 3: n // 3 + max(1, n // 8)] = 0.0
    elif kind == "tiny":
        # masses far below the ulp of the prefix sums, between normal ones
        m = rng.random(n) < 0.4
        raw[m] = 10.0 ** -rng.uniform(20.0, 30.0, size=int(m.sum()))
    elif kind == "tiny_tail":
        # a tail that prune_tol=1e-12 folds away
        raw[-max(1, n // 4):] = 10.0 ** -rng.uniform(20.0, 30.0, size=max(1, n // 4))
    raw[0] = max(raw[0], 0.5)
    return raw


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("size", ["K", "small", "block", "ragged"])
@pytest.mark.parametrize("kind", ["plain", "zero_gaps", "tiny", "tiny_tail"])
def test_dp_bit_identical_to_dense_reference(w, size, kind):
    K = 1 << (w - 1)
    n = {"K": K, "small": _DP_BLOCK // 2 + 3, "block": 2 * _DP_BLOCK,
         "ragged": 2 * _DP_BLOCK + 17}[size]
    rng = np.random.default_rng([w, n, sum(map(ord, kind))])
    for _ in range(3):
        p = pmf_from_raw(rng, raw_masses(rng, n, kind))
        for prune_tol in (0.0, 1e-12):
            spec, mi = design_nonuniform(p, w, prune_tol=prune_tol)
            thresholds, ref_mi = dense_design_nonuniform(p, w, prune_tol)
            assert spec.thresholds == thresholds
            assert mi == ref_mi


def folded_pmf(a, b):
    """Symmetric PMF whose positive half folds to the masses (a, b), scaled
    so the whole table sums to 1."""
    n = a.size
    row0 = np.concatenate([b[::-1], a]) / (2 * (a.sum() + b.sum()))
    mass = np.vstack([row0, row0[::-1]])
    alphabet = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    return JointPMF(alphabet, mass, llr_order=True, symmetric=True)


def zero_mass_pmf(rng, n, rows):
    """Symmetric PMF over n magnitudes whose folded masses have zero runs:
    on both rows (clusters with pa = pb = 0), or on one row only (pa = 0 <
    pb and pb = 0 < pa), at the start, inside and at block edges."""
    a = rng.random(n) + 1e-3
    b = rng.random(n) * a
    runs = [slice(0, 2), slice(n // 2 - 2, n // 2 + 3), slice(n - 4, n - 2)]
    runs += [slice(i, i + 1) for i in rng.choice(n - 1, size=n // 6, replace=False)]
    zero = np.zeros((2, n), dtype=bool)
    for k, run in enumerate(runs):
        zero[:, run] = True if rows == "both" else [[k % 2 == 1], [k % 2 == 0]]
    if rows == "one":
        zero[1] &= ~zero[0]
    a[zero[0]] = 0.0
    b[zero[1]] = 0.0
    return folded_pmf(a, b)


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("rows", ["both", "one"])
def test_dp_bit_identical_on_zero_mass_clusters(w, offset, rows):
    n = _DP_BLOCK + offset
    rng = np.random.default_rng([w, n, len(rows)])
    for _ in range(3):
        p = zero_mass_pmf(rng, n, rows)
        _, a, b = p.fold_positive()
        assert a.size == n and np.any((a == 0) & (b == 0)) == (rows == "both")
        assert rows == "both" or (np.any((a == 0) & (b > 0)) and np.any((b == 0) & (a > 0)))
        for prune_tol in (0.0, 1e-12):
            spec, mi = design_nonuniform(p, w, prune_tol=prune_tol)
            assert (spec.thresholds, mi) == dense_design_nonuniform(p, w, prune_tol)


def test_dp_bit_identical_on_channel_grid():
    fine = awgn_llr_pmf(ChannelModel(ebn0_db=3.0, rate=0.841, grid_size=1200))
    for w in (2, 3, 4):
        for prune_tol in (0.0, 1e-12):
            spec, mi = design_nonuniform(fine, w, prune_tol=prune_tol)
            assert (spec.thresholds, mi) == dense_design_nonuniform(fine, w, prune_tol)


class DPRuns(list):
    """(n, m) of each partition DP run, and in ``layers`` the symbol count
    of each ``_dp_layers`` input."""

    def __init__(self):
        super().__init__()
        self.layers = []

    def reset(self):
        self.clear()
        self.layers.clear()


@pytest.fixture
def dp_runs(monkeypatch):
    """Spy on the partition DP, recording into a :class:`DPRuns`.  Every
    truncated run must hand the certificate finite values only."""
    runs = DPRuns()
    partition_dp, dp_layers = quantizers._partition_dp, quantizers._dp_layers

    def spy_layers(A, B, best, pick):
        runs.layers.append(A.size - 1)
        return dp_layers(A, B, best, pick)

    def spy(A, B, K, m):
        score, bounds, best = partition_dp(A, B, K, m)
        runs.append((A.size - 1, m))
        if m < A.size - 1:
            assert math.isfinite(score) and np.isfinite(best[-1, 0]) and np.isfinite(best[0]).all()
        return score, bounds, best

    monkeypatch.setattr(quantizers, "_partition_dp", spy)
    monkeypatch.setattr(quantizers, "_dp_layers", spy_layers)
    return runs


def dp_path(runs, w):
    """The path one design's spied runs took: "certified", "fallback" or
    "full" (no truncation tried); the _dp_layers inputs must match them."""
    assert runs.layers == ([m for _, m in runs] if w > 2 else [])
    (n, m), *rest = runs
    if m == n:
        assert not rest
        return "full"
    assert rest in ([], [(n, n)])
    return "fallback" if rest else "certified"


@pytest.fixture(scope="module")
def cn_sums_dc32():
    """CN sum PMFs of the paper's check degree (dc = 32, wphi = 6) at two
    SNRs and two translation steps."""
    out = []
    for snr in (3.0, 3.3):
        fine = awgn_llr_pmf(ChannelModel(ebn0_db=snr, rate=0.841, grid_size=600))
        _, p_ch = design_channel_quantizer(fine, 4)
        dstar = phi_saturation_delta(p_ch, 6)
        for step in (dstar, 0.5 * dstar):
            out.append(cn_evolve_comp(p_ch, 32, build_translation_table(p_ch, "cn_phi", step, 6)))
    return out


@pytest.mark.parametrize("w", [2, 3, 4])
def test_cn_sums_at_dc32_take_the_certified_tail_dp(cn_sums_dc32, dp_runs, w):
    for q in cn_sums_dc32:
        dp_runs.reset()
        spec, mi = design_nonuniform(q, w)
        assert (spec.thresholds, mi) == dense_design_nonuniform(q, w, 1e-12)
        assert dp_path(dp_runs, w) == "certified"
        (n, m), = dp_runs
        assert m < n // 2


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("rate", [0.9, 0.95, 0.98])
def test_geometric_tails_take_the_certified_tail_dp(dp_runs, w, rate):
    # masses rate**k, reliability saturating early: the tail holds nothing
    # a boundary could separate
    k = np.arange(200)
    frac = 1.0 - 0.5 * np.exp(-k / 5.0)
    p = folded_pmf(rate ** k * frac, rate ** k * (1.0 - frac))
    for prune_tol in (0.0, 1e-12):
        dp_runs.reset()
        spec, mi = design_nonuniform(p, w, prune_tol=prune_tol)
        assert (spec.thresholds, mi) == dense_design_nonuniform(p, w, prune_tol)
        assert dp_path(dp_runs, w) == "certified"


@pytest.mark.parametrize("w", [3, 4, 5])
def test_a_reliable_tail_fails_the_certificate_and_falls_back(dp_runs, w):
    # 60 unreliable head magnitudes, then a tail of 0.9e-3 of the half-axis
    # mass: 20 unreliable magnitudes and 20 one-sided ones.  The optimum cuts
    # the tail at its one-sided part, past m, so the truncated DP is wrong
    # here and only the fallback finds it (at w = 2 the one boundary stays
    # in the head, and the certificate holds).
    rng = np.random.default_rng(w)
    raw = np.concatenate([np.ones(60), np.full(40, 0.9e-3 * 2 * 60 / 40 / (1 - 0.9e-3 * 2))])
    frac = np.concatenate([np.sort(rng.uniform(0.5, 0.6, 80)), np.ones(20)])
    p = folded_pmf(raw * frac, raw * (1.0 - frac))
    spec, mi = design_nonuniform(p, w, prune_tol=0.0)
    thresholds, ref_mi = dense_design_nonuniform(p, w, 0.0)
    assert (spec.thresholds, mi) == (thresholds, ref_mi)
    assert dp_path(dp_runs, w) == "fallback"
    (n, m), _ = dp_runs
    assert thresholds[-1] == 81 and m == 60     # threshold 81 is boundary 80 > m
    # the tail DP alone would have missed it
    mags, a, b = p.fold_positive()
    A, B = np.concatenate([[0.0], np.cumsum(a)]), np.concatenate([[0.0], np.cumsum(b)])
    assert 2.0 * quantizers._partition_dp(A, B, 1 << (w - 1), m)[0] < ref_mi


def fuzz_pmf(rng):
    """A random folded PMF and width for the tail DP fuzz: geometric, cut,
    stretched-exponential or sparse masses; sorted, zig-zag, saturating or
    tail-reliable posteriors."""
    w = int(rng.integers(2, 6))
    K = 1 << (w - 1)
    n = int(rng.integers(K, 100))
    kind = rng.integers(4)
    if kind == 0:
        raw = rng.uniform(0.6, 0.99) ** np.arange(n)
    elif kind == 1:
        raw = rng.random(n) + 1e-6
        raw[int(rng.integers(0, n)):] *= 10.0 ** -rng.uniform(0.0, 8.0)
    elif kind == 2:
        raw = np.exp(-rng.uniform(0.01, 0.3) * np.arange(n) ** rng.uniform(1.0, 2.0))
    else:
        raw = rng.random(n) ** 6
        raw[rng.random(n) < 0.3] = 0.0
        raw[0] = 1.0
    shape = rng.integers(4)
    if shape == 0:
        frac = np.sort(rng.uniform(0.5, 1.0, n))
    elif shape == 1:
        frac = rng.uniform(0.5, 1.0, n)
    elif shape == 2:
        frac = 1.0 - 0.5 * np.exp(-np.arange(n) / rng.uniform(1.0, 30.0))
    else:
        frac = np.sort(rng.uniform(0.5, 0.7, n))
        frac[int(rng.integers(K, n + 1)):] = 1.0
    return folded_pmf(raw * frac, raw * (1.0 - frac)), w


def test_tail_dp_fuzz_against_the_dense_dp(dp_runs):
    rng = np.random.default_rng(20)
    paths = collections.Counter()
    for _ in range(300):
        p, w = fuzz_pmf(rng)
        prune_tol = float(rng.choice([0.0, 1e-12]))
        dp_runs.reset()
        spec, mi = design_nonuniform(p, w, prune_tol=prune_tol)
        assert (spec.thresholds, mi) == dense_design_nonuniform(p, w, prune_tol)
        paths[dp_path(dp_runs, w)] += 1
    assert min(paths["certified"], paths["fallback"], paths["full"]) >= 50, paths


def edge_case_pmf(case, w):
    """The edge cases of the tail DP: n == K, all mass on the first, a middle
    or the last of 40 magnitudes, and an exact-zero tail (for prune_tol=0),
    bare or holding one slightly negative mass."""
    K = 1 << (w - 1)
    rng = np.random.default_rng([w, len(case)])
    if case == "n_equals_K":
        a = rng.random(K) + 0.1
        return folded_pmf(a, a * np.sort(rng.uniform(0.1, 0.9, K))[::-1])
    if case.startswith("one_"):
        a, b = np.zeros(40), np.zeros(40)
        i = {"one_first": 0, "one_middle": 20, "one_last": 39}[case]
        a[i], b[i] = 0.7, 0.3
        return folded_pmf(a, b)
    frac = np.sort(rng.uniform(0.5, 1.0, 60))
    raw = rng.random(60) + 0.1
    raw[30:] = 0.0
    if case == "negative_mass":     # JointPMF admits -1e-15; no proof covers it
        raw[45] = -1e-17
    return folded_pmf(raw * frac, raw * (1.0 - frac))


@pytest.mark.parametrize("w", [2, 5])
@pytest.mark.parametrize("case,path", [
    ("n_equals_K", "full"), ("one_first", "fallback"), ("one_middle", "fallback"),
    ("one_last", "full"), ("zero_tail", "certified"), ("negative_mass", "full")])
def test_tail_dp_edge_cases_on_both_paths(dp_runs, monkeypatch, w, case, path):
    # each case equals the dense DP on the path it takes, and again with the
    # certificate made to fail; no warning, and no nan from -inf arithmetic
    p = edge_case_pmf(case, w)
    want = dense_design_nonuniform(p, w, 0.0)
    for slack, expected in ((quantizers._TAIL_SLACK, path), (1.0, path.replace("certified", "fallback"))):
        monkeypatch.setattr(quantizers, "_TAIL_SLACK", slack)
        dp_runs.reset()
        with warnings.catch_warnings(), np.errstate(invalid="raise", divide="raise", over="raise"):
            warnings.simplefilter("error")
            spec, mi = design_nonuniform(p, w, prune_tol=0.0)
        assert (spec.thresholds, mi) == want
        assert dp_path(dp_runs, w) == expected


@pytest.fixture
def always_anchor(monkeypatch):
    """Every call that no anchor certifies makes one."""
    monkeypatch.setattr(quantizers.Anchors, "wants", lambda self, *args: True)


def thresholds_mi(p, w, prune_tol, anchors=None):
    """``design_nonuniform``'s thresholds and MI, as the dense DP gives them."""
    spec, mi = design_nonuniform(p, w, prune_tol=prune_tol, anchors=anchors)
    return spec.thresholds, mi


def anchored(p, w, prune_tol):
    """A fresh Anchors holding the anchor of one design of ``p``."""
    anchors = quantizers.Anchors()
    assert thresholds_mi(p, w, prune_tol, anchors) == thresholds_mi(p, w, prune_tol)
    assert anchors.built == 1 and anchors.certified == 0
    return anchors


def drifted(rng, p, eps):
    """``p`` with each folded mass scaled by 1 + eps * U(-1, 1), renormalized:
    the same alphabet, moved by about eps / 2 in l1."""
    _, a, b = p.fold_positive()
    a = a * (1.0 + eps * rng.uniform(-1.0, 1.0, a.size))
    b = b * (1.0 + eps * rng.uniform(-1.0, 1.0, b.size))
    row0 = np.concatenate([b[::-1], a]) / (2 * (a.sum() + b.sum()))
    return JointPMF(p.alphabet, np.vstack([row0, row0[::-1]]), llr_order=True,
                    symmetric=True, mag_offset=p.mag_offset, values=p.values)


@pytest.fixture(scope="module")
def recorded_dp_inputs():
    """The threshold DP inputs of a 12-iteration comp/comp design at the
    paper point (CN sums and VN outputs, alternating)."""
    cfg = EnsembleConfig(dc=32, dv=6, w=4, wphi=8, iterations=12, cn_variant="comp",
                         vn_variant="comp", design_ebn0_db=3.0, rate=0.841)
    seen = []

    def spy(p, w, **kw):
        seen.append(p)
        return design_nonuniform(p, w, **kw)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(evolution, "design_nonuniform", spy)
        warnings.simplefilter("ignore", RuntimeWarning)
        evolution.design_decoder(cfg)
    return seen


def test_drift_certificate_fuzz_against_the_dense_dp(always_anchor, recorded_dp_inputs):
    # each anchored input is moved by l1 amounts from far inside to far
    # outside its certificate; every certified call must be the dense DP's
    # result, and both outcomes must occur many times
    rng = np.random.default_rng(22)
    inputs = [("recorded", p, 4, 1e-12) for p in recorded_dp_inputs[-6:]]
    inputs += [("random", p, w, float(rng.choice([0.0, 1e-12])))
               for p, w in (fuzz_pmf(rng) for _ in range(60))]
    outcomes = collections.Counter()
    for kind, p, w, prune_tol in inputs:
        anchors = anchored(p, w, prune_tol)
        for eps in 10.0 ** rng.uniform(-15.0, -4.0, 6):
            q = drifted(rng, p, eps)
            before = anchors.certified
            got = thresholds_mi(q, w, prune_tol, anchors)
            certified = anchors.certified > before
            outcomes[kind, certified] += 1
            if certified:
                assert got == dense_design_nonuniform(q, w, prune_tol)
            assert got == thresholds_mi(q, w, prune_tol)
    assert min(outcomes["recorded", True], outcomes["recorded", False]) >= 10, outcomes
    assert min(outcomes["random", True], outcomes["random", False]) >= 80, outcomes


def test_drift_certificate_accepts_only_inside_its_margin(always_anchor, recorded_dp_inputs):
    # on a recorded CN sum: a drift whose bound fits the anchor's margin is
    # certified, one that does not is recomputed, and the margin is the DP's
    # 2-best gap against an explicit second-best search
    p = recorded_dp_inputs[-2]
    anchors = anchored(p, 4, 1e-12)
    (mags0, A0, B0, bounds, margin), = anchors.kept.values()
    assert 0.0 < margin < 1e-6
    rng = np.random.default_rng(5)
    for eps, certified in ((1e-14, True), (1e-4, False)):
        q = drifted(rng, p, eps)
        mags, a, b = _folded_prune(*q.fold_positive(), 1e-12, 8)
        A, B = np.concatenate([[0.0], np.cumsum(a)]), np.concatenate([[0.0], np.cumsum(b)])
        D = quantizers._drift(A, B, A0, B0)
        assert (quantizers._mi_shift(D, 8) + quantizers._TAIL_SLACK < margin) == certified
        assert (anchors.certify(mags, A, B, 8) is not None) == certified


def test_runner_up_gap_equals_the_enumerated_second_best():
    rng = np.random.default_rng(9)
    for _ in range(40):
        w = int(rng.integers(2, 4))
        K = 1 << (w - 1)
        p = random_symmetric_pmf(rng, int(rng.integers(K, 11)), concentrated=bool(rng.integers(2)))
        _, a, b = p.fold_positive()
        A, B = np.concatenate([[0.0], np.cumsum(a)]), np.concatenate([[0.0], np.cumsum(b)])
        sums = sorted((quantizers._path_score(A, B, list(c))
                       for c in itertools.combinations(range(1, a.size), K - 1)), reverse=True)
        score, bounds, _, gap = quantizers._partition_dp(A, B, K, a.size, runner=True)
        assert score == sums[0] == quantizers._path_score(A, B, bounds)
        assert gap == (sums[0] - sums[1] if len(sums) > 1 else math.inf)


def test_near_ties_and_changed_alphabets_are_never_certified(always_anchor):
    # a tie (two zero-mass symbols between the cells) has margin 0, so not
    # even its own input is certified
    a = np.array([0.02, 0.0, 0.0, 0.30, 0.1])
    b = np.array([0.08, 0.0, 0.0, 0.10, 0.01])
    tie = folded_pmf(a, b)
    anchors = anchored(tie, 2, 0.0)
    assert anchors.kept[2, 0][4] == 0.0
    assert thresholds_mi(tie, 2, 0.0, anchors) == dense_design_nonuniform(tie, 2, 0.0)
    assert anchors.certified == 0
    # a pruned alphabet that gains or loses a symbol, another width, and a
    # negative mass are never certified, however small the drift
    k = np.arange(120)
    frac = 1.0 - 0.5 * np.exp(-k / 20.0)
    base = 0.8 ** k
    p = folded_pmf(base * frac, base * (1.0 - frac))
    anchors = anchored(p, 3, 1e-12)
    assert thresholds_mi(p, 3, 1e-12, anchors) == dense_design_nonuniform(p, 3, 1e-12)
    assert anchors.certified == 1       # the anchor's own input
    n = _folded_prune(*p.fold_positive(), 1e-12, 4)[0].size
    for raw in (np.where(k == n, base * 1e3, base), np.where(k == n - 1, 0.0, base)):
        q = folded_pmf(raw * frac, raw * (1.0 - frac))
        assert _folded_prune(*q.fold_positive(), 1e-12, 4)[0].size != n
        assert thresholds_mi(q, 3, 1e-12, anchors) == dense_design_nonuniform(q, 3, 1e-12)
    assert thresholds_mi(p, 4, 1e-12, anchors) == dense_design_nonuniform(p, 4, 1e-12)
    assert anchors.certified == 1
    # without pruning, a drift of 1e-17 is certified, unless it is a
    # negative mass
    anchors = anchored(p, 3, 0.0)
    for mass, certified in ((1e-17, 1), (-1e-17, 0)):
        q = folded_pmf(np.where(k == 100, mass, base) * frac, base * (1.0 - frac))
        before = anchors.certified
        assert thresholds_mi(q, 3, 0.0, anchors) == dense_design_nonuniform(q, 3, 0.0)
        assert anchors.certified - before == certified


def test_two_phases_with_the_same_thresholds_keep_an_anchor_each():
    # a period-2 cycle whose two inputs quantize alike but lie far apart:
    # each parity of the call count keeps its own anchor, built once the
    # input repeats the one two calls back, and both phases are certified
    rng = np.random.default_rng(8)
    base = random_symmetric_pmf(rng, 40)
    phases = base, drifted(rng, base, 1e-3)
    assert thresholds_mi(phases[0], 3, 1e-12)[0] == thresholds_mi(phases[1], 3, 1e-12)[0]
    anchors = quantizers.Anchors()
    for t in range(12):
        p = drifted(rng, phases[t % 2], 1e-12 * 0.5 ** t)
        assert thresholds_mi(p, 3, 1e-12, anchors) == thresholds_mi(p, 3, 1e-12)
    assert (anchors.built, anchors.certified) == (2, 8)


def test_a_period_3_cycle_keeps_an_anchor_per_phase():
    # three phases on three pruned alphabets: the call two back never
    # matches, the call three back does, so each phase gets its own
    # (3, phase) anchor once it repeats and is certified from then on
    rng = np.random.default_rng(3)
    phases = [random_symmetric_pmf(rng, half) for half in (38, 40, 42)]
    anchors = quantizers.Anchors()
    for t in range(12):
        p = drifted(rng, phases[t % 3], 1e-12 * 0.5 ** t)
        assert thresholds_mi(p, 3, 1e-12, anchors) == thresholds_mi(p, 3, 1e-12)
    assert sorted(anchors.kept) == [(3, 0), (3, 1), (3, 2)]
    assert (anchors.built, anchors.certified) == (3, 6)
    assert len(anchors.recent) == 3


def test_same_masses_on_another_alphabet_and_margins_within_the_slack_are_not_certified():
    rng = np.random.default_rng(4)
    p = random_symmetric_pmf(rng, 30)
    mags, a, b = p.fold_positive()
    A, B = np.concatenate([[0.0], np.cumsum(a)]), np.concatenate([[0.0], np.cumsum(b)])
    anchors = quantizers.Anchors()
    for margin in (0.9, 1.1):
        anchors.kept = {0: (mags, A, B, [5, 10, 20], margin * quantizers._TAIL_SLACK)}
        assert (anchors.certify(mags, A, B, 4) is not None) == (margin > 1)
        assert anchors.certify(mags * 2, A, B, 4) is None
        assert anchors.certify(mags, A, B, 8) is None


def test_anchor_margin_bounds_the_gap_to_every_partition(always_anchor):
    # after a certified tail DP the margin must also cover the partitions
    # with a boundary past m, which its runners-up never saw: it may not
    # exceed the full DP's own 2-best gap
    rng = np.random.default_rng(12)
    truncated = 0
    for _ in range(400):
        p, w = fuzz_pmf(rng)
        K = 1 << (w - 1)
        anchors = anchored(p, w, 0.0)
        (mags, A, B, bounds, margin), = anchors.kept.values()
        score, full, _, gap = quantizers._partition_dp(A, B, K, A.size - 1, runner=True)
        assert full == bounds and margin <= gap
        m = max(int(np.argmax((A[-1] - A) + (B[-1] - B) <= quantizers._TAIL_MASS)), K)
        truncated += m < A.size - 2
    assert truncated >= 100


def test_drift_bounds_the_l1_change_of_the_masses():
    # dyadic masses make every prefix sum exact: the drift is the l1 change
    # of the masses, scaled up by 1 + n 2**-50, even where it alternates in
    # sign and the prefix sums hardly move
    rng = np.random.default_rng(6)
    n = 200
    a0 = rng.integers(1, 1 << 20, n) * 2.0 ** -30
    b0 = rng.integers(1, 1 << 20, n) * 2.0 ** -30
    step = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * 2.0 ** -30
    for a, b in ((a0 + step, b0), (a0, b0 - step), (a0 + 3 * step, b0 + step)):
        cums = [np.concatenate([[0.0], np.cumsum(x)]) for x in (a, b, a0, b0)]
        l1 = np.abs(a - a0).sum() + np.abs(b - b0).sum()
        assert quantizers._drift(*cums) == l1 * (1.0 + n * 2.0 ** -50) > l1


def test_mi_shift_is_the_rank_tolerance_bound():
    assert quantizers._mi_shift(0.0, 8) == 0.0
    assert quantizers._mi_shift(1e-9, 8) == 4 * 1e-9 * math.log2(16 / 1e-9)
    assert quantizers._mi_shift(8 / math.e * 1.0001, 8) == math.inf
    assert quantizers._mi_shift(math.nan, 8) == math.inf


def test_nonuniform_requires_symmetric_ordered_input():
    mass = np.array([[0.3, 0.3], [0.2, 0.2]])
    with pytest.raises(ValidationError):
        design_nonuniform(JointPMF([-1, 1], mass), 2)


def test_refinement_monotonicity():
    # more cells never hurt: MI(w=4) >= MI(w=3) >= MI(w=2)
    rng = np.random.default_rng(7)
    p = random_symmetric_pmf(rng, 20)
    mis = [design_nonuniform(p, w)[1] for w in (2, 3, 4)]
    assert mis[0] <= mis[1] + 1e-12 <= mis[2] + 2e-12
    assert mis[2] <= mutual_information(p) + 1e-12


def uniform_cells_by_thresholds(mag, r, kappa, K):
    """Reference: the shift quantizer as an explicit threshold rule."""
    cell = 1
    for k in range(1, K):
        if mag >= k * (1 << r) - kappa:
            cell = k + 1
    return min(cell, K)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_uniform_shift_equals_threshold_rule(w, r):
    K = 1 << (w - 1)
    for kappa in range(1 << r):
        spec = QuantizerSpec("uniform", w, shift_r=r, offset_kappa=kappa)
        half = K * (1 << r) + 5
        alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
        mass = np.full((2, alphabet.size), 1.0 / (2 * alphabet.size))
        p = JointPMF(alphabet, mass, symmetric=True)
        got = spec.map_symbols(p)
        for sym, cell in zip(p.alphabet, got):
            want = uniform_cells_by_thresholds(abs(sym), r, kappa, K)
            assert cell == int(np.sign(sym)) * want, (sym, r, kappa)


def test_uniform_sweep_finds_exhaustive_best():
    rng = np.random.default_rng(42)
    for _ in range(8):
        p = random_symmetric_pmf(rng, 24)
        spec, mi = design_uniform(p, 3, wphi=6, kappa_search=True)
        # brute force over the same parameter space
        best = -1.0
        for r in range(6):
            for kappa in range(1 << r):
                trial = QuantizerSpec("uniform", 3, shift_r=r, offset_kappa=kappa)
                best = max(best, mutual_information(apply_quantizer(p, trial)))
        assert mi == pytest.approx(best, abs=1e-12)
        achieved = mutual_information(apply_quantizer(p, spec))
        assert achieved == pytest.approx(mi, abs=1e-12)


def loop_uniform_sweep(da, db, w, r_limit, kappa_search):
    """Reference uniform sweep: one Python iteration per (r, kappa) pair,
    r ascending, then kappa ascending, keeping the best under strict
    improvement."""
    K = 1 << (w - 1)
    M = da.size - 1
    cumA = np.concatenate([[0.0], np.cumsum(da)])
    cumB = np.concatenate([[0.0], np.cumsum(db)])
    cells = np.arange(K + 1)
    best = (-1.0, 0, 0)
    for r in range(r_limit):
        width = 1 << r
        for kappa in range(width) if kappa_search else (0,):
            bnd = cells * width - kappa
            bnd[0] = 0
            bnd[K] = M + 1
            np.clip(bnd, 0, M + 1, out=bnd)
            pa = cumA[bnd[1:]] - cumA[bnd[:-1]]
            pb = cumB[bnd[1:]] - cumB[bnd[:-1]]
            mi = 2.0 * float(np.sum(_cluster_scores(pa, pb)))
            if mi > best[0]:
                best = (mi, r, kappa)
    return best


def sweep_masses(rng, n, kind):
    """Dense positive-half masses (da, db) on magnitudes 0..n-1, total 1/2."""
    if kind == "uniform":
        # equal masses and one p(x | m) everywhere: every partition scores
        # the same up to rounding
        raw, frac = np.ones(n), np.full(n, 0.8)
    elif kind == "single":
        # all mass on one magnitude: every partition scores exactly the same
        raw, frac = np.zeros(n), np.full(n, 0.7)
        raw[rng.integers(n)] = 1.0
    else:
        raw = raw_masses(rng, n, "zero_gaps" if kind == "gaps" else kind)
        frac = np.sort(rng.uniform(0.5, 1.0, size=n))
    t = 2.0 * raw.sum()
    return raw * frac / t, raw * (1.0 - frac) / t


@pytest.mark.parametrize("w", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa_search", [False, True])
@pytest.mark.parametrize("kind", ["plain", "uniform", "gaps", "single", "tiny"])
def test_uniform_sweep_bit_identical_to_loop(w, kappa_search, kind):
    rng = np.random.default_rng([w, kappa_search, sum(map(ord, kind))])
    for M in (0, 1, 2, 5, 37, 300):
        da, db = sweep_masses(rng, M + 1, kind)
        # shifts up to one past r = M.bit_length(), the first at which
        # every kappa = 0 boundary clips to M + 1
        for r_limit in range(1, M.bit_length() + 3):
            got = _uniform_sweep(da, db, w, r_limit, kappa_search)
            assert got == loop_uniform_sweep(da, db, w, r_limit, kappa_search)
            assert type(got[0]) is float and type(got[1]) is int and type(got[2]) is int


def test_uniform_sweep_no_pair_above_seed():
    # no pair: the loop's seed comes back, as for an all-NaN PMF
    da, db = np.full(4, 0.1), np.full(4, 0.15)
    assert _uniform_sweep(da, db, 3, 0, True) == (-1.0, 0, 0)
    assert _uniform_sweep(da * np.nan, db, 3, 4, True) == (-1.0, 0, 0)
    # NaN pairs never win, whatever their position
    da[3] = np.nan
    for ks in (False, True):
        assert _uniform_sweep(da, db, 2, 4, ks) == loop_uniform_sweep(da, db, 2, 4, ks)


@pytest.mark.parametrize("stage", ["cn", "vn"])
def test_design_uniform_rebuild_matches_loop_sweep(stage, monkeypatch):
    # a CN (kappa searched) and a VN (kappa = 0) stage of the paper's design
    # point, each over a 24-step grid of rebuilt PMFs
    fine = awgn_llr_pmf(ChannelModel(ebn0_db=3.3, rate=0.841, grid_size=600))
    _, p_ch = design_channel_quantizer(fine, 4)
    dstar = quantizers.phi_saturation_delta(p_ch, 8)
    if stage == "cn":
        def tables_at(step):
            return build_translation_table(p_ch, "cn_phi", step, 8)

        def evolve(tab):
            return cn_evolve_comp(p_ch, 8, tab)
    else:
        def tables_at(step):
            return {"phi_ch": build_translation_table(p_ch, "vn_llr", step, 8),
                    "phi_c": build_translation_table(p_ch, "vn_llr", step, 8)}

        def evolve(tabs):
            return vn_evolve(p_ch, p_ch, 3, tabs)
    cfg = EnsembleConfig(dc=8, dv=3, w=4, wphi=8, iterations=1, cn_variant="comp_uni",
                         vn_variant="comp_uni", design_ebn0_db=3.3, rate=0.841,
                         uniform_grid_points=24)

    def stage_design():
        tables, spec, mi, q = _design_stage(cfg, True, dstar, tables_at, evolve, None,
                                            kappa_search=stage == "cn")
        return tables, spec, mi, q.alphabet.tolist(), q.mass.tolist()

    got = stage_design()
    monkeypatch.setattr(quantizers, "_uniform_sweep", loop_uniform_sweep)
    assert got == stage_design()
    # the plain search on one PMF too, with its default shift limit
    grid = build_delta_grid(dstar, 24)
    q = evolve(tables_at(float(grid[5])))
    monkeypatch.undo()
    got = design_uniform(q, 4, kappa_search=True)
    monkeypatch.setattr(quantizers, "_uniform_sweep", loop_uniform_sweep)
    assert got == design_uniform(q, 4, kappa_search=True)
    assert _dense_folded(q)[0].size > 2 ** 6    # default shift limit >= 8


def test_uniform_never_beats_nonuniform():
    rng = np.random.default_rng(3)
    for _ in range(6):
        p = random_symmetric_pmf(rng, 30)
        _, mi_u = design_uniform(p, 3, wphi=8, kappa_search=True)
        _, mi_n = design_nonuniform(p, 3)
        assert mi_u <= mi_n + 1e-12


def test_translation_table_rounding_and_fill():
    # cells: |L| = ln3 (both sides), one-sided, and an unpopulated gap
    a = np.array([0.15, 0.0, 0.35])
    b = np.array([0.05, 0.0, 0.00])
    s = 2 * (a + b).sum()
    a, b = a / s, b / s
    row0 = np.concatenate([b[::-1], a])
    mass = np.vstack([row0, row0[::-1]])
    p = JointPMF([-3, -2, -1, 1, 2, 3], mass, llr_order=True, symmetric=True)
    tab = build_translation_table(p, "vn_llr", delta=0.25, wphi=6)
    # |L_1| = ln 3 = 1.0986, /0.25 = 4.394 -> 4; gap copies it; cell 3 clips
    assert tab.values == (4, 4, 31)
    assert tab.clipped == (3,)
    assert tab.saturated
    phis = build_translation_table(p, "cn_phi", delta=0.05, wphi=6)
    # phi(ln 3) = -ln tanh(ln3 / 2) = ln 2 = 0.6931, /0.05 = 13.86 -> 14
    assert phis.values[0] == 14
    assert phis.values[2] == 0  # infinite reliability translates to phi 0


def test_translation_table_validation():
    with pytest.raises(ValidationError, match=r"\[0, 31\]"):
        TranslationTable((40,), 6, 1.0)
    with pytest.raises(ValidationError, match="empty"):
        TranslationTable((), 6, 1.0)
    t = TranslationTable((5, 3, 0), 6, 1.0)  # decreasing is fine
    assert not t.saturated
    # so is any order: cells are contiguous on the sum axis, not by reliability
    assert TranslationTable((1, 3, 2), 6, 1.0).values == (1, 3, 2)


def test_channel_quantizer_design_point_shape():
    ch = ChannelModel(ebn0_db=3.3, rate=0.841)
    fine = awgn_llr_pmf(ch)
    spec, q = design_channel_quantizer(fine, 4)
    assert q.n_symbols == 16
    assert spec.kind == "non_uniform" and len(spec.thresholds) == 7
    edges = threshold_edges_llr(spec, fine)
    assert all(e1 < e2 for e1, e2 in zip(edges, edges[1:]))
    # MI-optimal LLR boundaries of a Gaussian spread out with reliability
    gaps = np.diff([0.0] + list(edges))
    assert np.all(np.diff(gaps) > 0)
    # quantizing to 8 magnitude levels keeps nearly all of the fine-grid MI
    assert mutual_information(q) > 0.99 * mutual_information(fine)


def test_delta_grid_shape():
    g = build_delta_grid(1.0, n_points=128)
    assert g.size == 128
    assert g[0] == pytest.approx(1.0 / 16.0)
    assert g[-1] == pytest.approx(4.0)
    assert np.all(np.diff(np.log(g)) > 0)
    with pytest.raises(ValidationError):
        build_delta_grid(0.0)


def test_spec_validation():
    with pytest.raises(ValidationError, match="thresholds"):
        QuantizerSpec("non_uniform", 3, thresholds=(4, 2, 1))
    with pytest.raises(ValidationError, match="need 3 thresholds"):
        QuantizerSpec("non_uniform", 3, thresholds=(1,))
    with pytest.raises(ValidationError, match="kind"):
        QuantizerSpec("median", 3)
    with pytest.raises(ValidationError):
        QuantizerSpec("uniform", 3, shift_r=2, offset_kappa=64)


@given(st.integers(0, 4), st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_uniform_mapping_is_monotone_odd(r, w, data):
    kappa = data.draw(st.integers(0, (1 << r) - 1))
    spec = QuantizerSpec("uniform", w, shift_r=r, offset_kappa=kappa)
    half = (1 << (w - 1)) * (1 << r) + 3
    alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    mass = np.full((2, alphabet.size), 1.0 / (2 * alphabet.size))
    cells = spec.map_symbols(JointPMF(alphabet, mass, symmetric=True))
    pos = cells[alphabet > 0]
    assert np.all(np.diff(pos) >= 0)
    assert np.array_equal(cells[::-1], -cells)


def loop_rounding(raw, delta, wphi):
    """A translation table from raw cell values, one cell at a time: the
    scalar loop round_translation_values was, kept as the reference of the
    batched rounding."""
    vmax = (1 << (wphi - 1)) - 1
    vals, clipped = [], []
    for i, x in enumerate(np.asarray(raw, dtype=np.float64).tolist()):
        if math.isnan(x):
            vals.append(None)
        elif math.isinf(x):
            vals.append(vmax)
            clipped.append(i + 1)
        else:
            vals.append(min(math.floor(x / delta + 0.5), vmax))
    if all(v is None for v in vals):
        raise ValidationError("every cell of the PMF is unpopulated")
    for i in range(1, len(vals)):           # forward fill gaps
        if vals[i] is None:
            vals[i] = vals[i - 1]
    for i in range(len(vals) - 2, -1, -1):  # leading gap, if any
        if vals[i] is None:
            vals[i] = vals[i + 1]
    return TranslationTable(tuple(vals), wphi, delta, clipped=tuple(clipped))


def loop_translation_table(p, mode, delta, wphi):
    """build_translation_table as it was before the split into raw values
    and per-step rounding, kept as the reference."""
    raw = quantizers.cn_phi_values(p) if mode == "cn_phi" else quantizers.cell_llr_magnitudes(p)
    return loop_rounding(raw, delta, wphi)


@pytest.mark.parametrize("mode", ["cn_phi", "vn_llr"])
def test_raw_values_rounded_per_step_equal_the_table_at_every_grid_step(mode):
    # a design's channel PMF, random PMFs with gaps, one-sided and
    # uninformative cells: rounding the raw values computed once gives the
    # reference table at each of 256 steps, saturated and not
    rng = np.random.default_rng(11)
    _, p_ch = design_channel_quantizer(awgn_llr_pmf(ChannelModel(3.3, 0.841)), 4)
    pmfs = [p_ch] + [random_symmetric_pmf(rng, 8) for _ in range(4)]
    a = np.array([0.1, 0.0, 0.2, 0.1, 0.0, 0.05, 0.3, 0.0])
    b = np.array([0.1, 0.0, 0.05, 0.0, 0.0, 0.01, 0.0, 0.0])
    a, b = a / (2 * (a + b).sum()), b / (2 * (a + b).sum())
    row0 = np.concatenate([b[::-1], a])
    pmfs.append(JointPMF(np.r_[-8:0, 1:9], np.vstack([row0, row0[::-1]]),
                         llr_order=True, symmetric=True))
    for p in pmfs:
        raw = raw_translation_values(p, mode)
        for wphi in (4, 8):
            for step in build_delta_grid(phi_saturation_delta(p, wphi), 256).tolist():
                want = loop_translation_table(p, mode, step, wphi)
                assert round_translation_values(raw, step, wphi) == want
                assert build_translation_table(p, mode, step, wphi) == want
    with pytest.raises(ValidationError, match="unknown translation mode"):
        raw_translation_values(p_ch, "phi")
    with pytest.raises(ValidationError, match="every cell of the PMF is unpopulated"):
        round_translation_values(np.full(4, np.nan), 0.5, 6)


def scalar_rounding(raw, step, wphi):
    """The reference loop's (values, clipped), or None where it raises."""
    try:
        tab = loop_rounding(raw, step, wphi)
    except (ArithmeticError, ValueError):     # a ValidationError is a ValueError
        return None
    return tab.values, tab.clipped


def test_rounding_every_step_at_once_equals_rounding_step_by_step():
    # nan and inf cells, leading and inner gaps, values exactly at a
    # rounding tie (x / delta + 0.5 an integer), saturated values, and
    # steps at which the scalar rounding raises: each row of the batch is
    # the table's values, or not ok where the table raises
    rng = np.random.default_rng(3)
    raws = [np.array([np.nan, np.nan, 0.75, np.inf, np.nan, 2.25, 0.0, np.nan]),
            np.array([0.25, np.inf, np.inf, np.nan, 1.25, 3.75, np.nan, 100.0]),
            np.array([np.nan, 1e300, 0.5, 1.5, 2.5, np.inf, 3.5, 4.5]),
            np.array([0.3, -0.2, -0.4, 1.0])]
    for _ in range(20):
        raw = rng.exponential(2.0, size=8)
        raw[rng.random(8) < 0.25] = np.nan
        raw[rng.random(8) < 0.1] = np.inf
        if not np.isnan(raw).all():
            raws.append(raw)
    steps = np.concatenate([build_delta_grid(0.05, 256), [0.5, 0.25, 1.0, 0.125, 1e-310,
                                                          0.0, -1.0, np.inf, np.nan]])
    for raw in raws:
        for wphi in (2, 4, 8):
            values, clipped, ok = quantizers.round_translation_steps(raw, steps, wphi)
            assert values.shape == (steps.size, raw.size) and values.dtype == np.int64
            for i, step in enumerate(steps.tolist()):
                want = scalar_rounding(raw, step, wphi)
                assert ok[i] == (want is not None)
                if want is None:
                    with pytest.raises(ValidationError, match="does not round"):
                        round_translation_values(raw, step, wphi)
                    continue
                assert (tuple(values[i].tolist()), clipped) == want
                tab = round_translation_values(raw, step, wphi)
                assert (tab.values, tab.clipped, tab.delta) == (*want, step)
    # the ties round up, the overflow and the negative value are caught
    values, _, ok = quantizers.round_translation_steps(raws[2], [0.5, 1e-310], 8)
    assert values[0].tolist() == [127, 127, 1, 3, 5, 127, 7, 9] and ok.tolist() == [True, False]
    assert quantizers.round_translation_steps(raws[3], [1.0, 0.25], 8)[2].tolist() == [True,
                                                                                       False]
    with pytest.raises(ValidationError, match="every cell of the PMF is unpopulated"):
        quantizers.round_translation_steps(np.full(4, np.nan), [0.5], 6)


@pytest.mark.parametrize("step,loop_error", [
    (0.0, ZeroDivisionError), (-1.0, ValidationError), (1e-310, OverflowError),
    (math.nan, ValueError)])
def test_a_step_that_rounds_to_no_table_raises_a_validation_error(step, loop_error):
    # the scalar loop raised whatever its arithmetic raised at such a step;
    # as a row of the batched rounding every one is a ValidationError
    raw = np.array([np.nan, 1e300, 0.5, 1.5])
    with pytest.raises(loop_error) as loop:
        loop_rounding(raw, step, 8)
    assert type(loop.value) is loop_error
    with pytest.raises(ValidationError, match="does not round the raw values"):
        round_translation_values(raw, step, 8)


def test_uniform_scores_of_rows_equal_each_row_alone():
    # the batched sweep scores each row of folded masses as that row alone,
    # but for the order of the last additions
    rng = np.random.default_rng(8)
    rows = [_dense_folded(random_symmetric_pmf(rng, 40)) for _ in range(5)]
    da, db = (np.array([r[i] for r in rows]) for i in (0, 1))
    for kappa_search in (False, True):
        mi, r, kappa = quantizers._uniform_scores(da, db, 4, 7, kappa_search)
        for i, (a, b) in enumerate(rows):
            one, r1, k1 = quantizers._uniform_scores(a, b, 4, 7, kappa_search)
            assert np.allclose(mi[i], one, rtol=0.0, atol=1e-15) and np.array_equal(r, r1)
            best = _uniform_sweep(a, b, 4, 7, kappa_search)
            j = int(np.argmax(one))
            assert best == (float(one[j]), int(r[j]), int(kappa[j]))
