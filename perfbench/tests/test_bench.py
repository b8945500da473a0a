"""Self-tests of the benchmark: span arithmetic, wrapper transparency,
fingerprint comparison and the metric lists of BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import warnings

import numpy as np
import pytest

import fingerprint as fp
import quantldpc as ql
import run
import tracer as tr
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def _spans():
    # id, name, start, end, parent, run id
    return [
        [0, "sim.simulate_point", 0.0, 10.0, -1, "r"],
        [1, "decoder.DecoderState", 0.5, 1.5, 0, "r"],
        [2, "decoder.decode_batch", 2.0, 6.0, 0, "r"],
        [3, "sim.simulate_point", 3.0, 4.0, 2, "r"],     # nested same name
        [4, "decoder.decode_batch", 7.0, 9.0, 0, "r"],
        [5, "pmf.mutual_information", 11.0, 11.5, -1, "r"],
    ]


def test_self_times_subtract_children():
    own = tr.self_times(_spans())
    assert own == pytest.approx({0: 3.0, 1: 1.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 0.5})
    assert sum(own.values()) == pytest.approx(10.5)   # the root durations


def test_layer_metrics_on_synthetic_spans():
    counts = {"decoder.decode_batch.edge_updates": 100}
    m = tr.layer_metrics(_spans(), counts, wall_s=12.0, overhead_s=0.25)
    assert set(m) == set(tr.METRICS)
    assert m["sim.simulate_point.calls"] == 2
    assert m["sim.simulate_point.self_s"] == pytest.approx(4.0)
    assert m["sim.simulate_point.total_s"] == pytest.approx(10.0)   # outermost only
    assert m["decoder.decode_batch.self_s"] == pytest.approx(5.0)
    assert m["decoder.decode_batch.edge_updates_per_s"] == pytest.approx(20.0)
    assert m["layer.decoder.self_s"] == pytest.approx(6.0)
    assert m["layer.pmf.self_s"] == pytest.approx(0.5)
    assert m["trace.self_sum_s"] == pytest.approx(10.5)
    assert m["trace.overhead_s"] == 0.25
    assert m["quantizers.design_uniform.calls"] == 0


def test_tracer_spans_nest():
    t = tr.Tracer()
    with t.span("a"):
        with t.span("b"):
            pass
    with t.span("c"):
        pass
    assert [(s[1], s[4]) for s in t.spans] == [("a", -1), ("b", 0), ("c", -1)]
    assert all(s[3] >= s[2] for s in t.spans)


def test_pruned_size_folds_the_light_tail():
    a = np.array([0.4, 0.3, 1e-13, 1e-14, 0.0])
    b = np.array([0.2, 0.1, 0.0, 1e-14, 0.0])
    assert tr.pruned_size(a, b, 1e-12, 2) == 2       # tail mass 1.2e-13 folded
    assert tr.pruned_size(a, b, 1e-12, 4) == 4       # min_keep wins
    assert tr.pruned_size(a, b, 1e-13, 2) == 3       # 1.2e-13 > tol: kept
    assert tr.pruned_size(a, b, 0.0, 2) == 5         # no pruning
    assert tr.pruned_size(a, b, 2.0, 2) == 2         # everything below tol


def test_design_nonuniform_counter_on_a_small_pmf():
    alphabet = np.array([-3, -2, -1, 1, 2, 3])
    pos = np.array([0.3, 0.15, 0.05])                # p(x=0, +m), m = 1, 2, 3
    neg = np.array([0.1, 0.05, 1e-13])               # p(x=1, +m)
    mass = np.array([np.r_[neg[::-1], pos], np.r_[pos[::-1], neg]]) / 1.3
    p = ql.pmf.JointPMF(alphabet, mass, symmetric=True)
    counts = {"quantizers.design_nonuniform.symbols": 0,
              "quantizers.design_nonuniform.dp_cells": 0}
    tr._count_design_nonuniform(counts, (p, 2), {"prune_tol": 1e-12}, None)
    assert counts == {"quantizers.design_nonuniform.symbols": 6,
                      "quantizers.design_nonuniform.dp_cells": 16}   # 3 folded symbols
    tr._count_design_nonuniform(counts, (p, 2), {"prune_tol": 0.04}, None)
    assert counts["quantizers.design_nonuniform.dp_cells"] == 16 + 9     # m = 3 folded


# ---------------------------------------------------------------------------
# wrapper transparency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny():
    code = ql.generate_regular_code(96, 3, 6, seed=3)
    arts = {}
    for cn, vn in (("comp", "comp"), ("min", "comp"), ("omsq", "omsq")):
        cfg = ql.EnsembleConfig(dc=6, dv=3, w=3, wphi=6, iterations=4, cn_variant=cn,
                                vn_variant=vn, design_ebn0_db=3.0, rate=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            arts[cn] = ql.design_decoder(cfg)[0]
    return code, arts


def _decode_all(code, arts):
    rng = np.random.default_rng(7)
    llr = 2.0 * (1.0 + rng.normal(0.0, 0.8, size=(40, code.n_vars))) / 0.64
    out = {}
    for cn, art in arts.items():
        if cn == "omsq":
            msgs = art.channel_quantizer.map_llr(llr)
            out[cn] = ql.decoder.omsq_decode_batch(msgs, code, art.config.w,
                                                   art.config.beta, 6)
        else:
            edges = np.asarray(art.channel_edges_llr)
            msgs = np.where(llr < 0, -1, 1) * (1 + np.searchsorted(edges, np.abs(llr), "right"))
            out[cn] = ql.decoder.decode_batch(msgs, code, art, 6)
    return out


def test_wrapped_decode_returns_the_same_bits(tiny):
    code, arts = tiny
    plain = _decode_all(code, arts)
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        wrapped = _decode_all(code, arts)
    finally:
        uninstall()
    for cn in arts:
        for a, b in zip(plain[cn], wrapped[cn]):
            np.testing.assert_array_equal(a, b)
    names = {s[1] for s in tracer.spans}
    assert {"decoder.decode_batch", "decoder.omsq_decode_batch",
            "decoder.DecoderState"} <= names
    assert tracer.counts["decoder.decode_batch.frames"] == 80
    assert ql.decoder.decode_batch.__name__ == "decode_batch"
    assert not hasattr(ql.decoder.decode_batch, "__wrapped__")   # uninstalled


def test_traced_fingerprint_equals_untraced(tiny):
    code, arts = tiny
    cfg = arts["comp"].config

    def ops():
        return [run_point(snr) for snr in (2.5, 3.5)] + [design()]

    def run_point(snr):
        return lambda: fp.sim_point(ql.sim.simulate_point(
            code, arts["comp"], snr, stop={"max_frames": 64, "target_frame_errors": 65},
            seed=5))

    def design():
        return lambda: fp.artifact(*ql.evolution.design_decoder(cfg))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        plain = [op() for op in ops()]
        tracer = tr.Tracer()
        uninstall = tr.install(tracer)
        try:
            traced = [op() for op in ops()]
        finally:
            uninstall()
    assert fp.compare(plain, traced) == []
    names = {s[1] for s in tracer.spans}
    # nested calls through the package's own from-imports are caught
    assert {"sim.simulate_point", "decoder.decode_batch", "evolution.design_decoder",
            "quantizers.design_nonuniform", "quantizers.design_channel_quantizer",
            "evolution.cn_evolve_comp", "evolution.vn_evolve", "pmf.awgn_llr_pmf",
            "pmf.apply_quantizer"} <= names
    parent = {s[0]: s[1] for s in tracer.spans}
    dp_parents = {parent[s[4]] for s in tracer.spans
                  if s[1] == "quantizers.design_nonuniform"}
    assert "quantizers.design_channel_quantizer" in dp_parents


# ---------------------------------------------------------------------------
# fingerprint comparison
# ---------------------------------------------------------------------------

REF = {"ops": {
    "comp@2.6": {"frames": 256, "frame_errors": 52, "bit_errors": 400,
                 "iterations_histogram": [[4, 100], [10, 156]]},
    "comp_uni/comp_uni": {"iterations": [{"mi_cn": 0.9874368274555314,
                                          "mi_vn": 0.9999999971593171,
                                          "cn_quantizer": {"shift_r": 3, "offset_kappa": 2}}],
                          "trajectory": [[0.9874368274555314, 0.9999999971593171]]},
}}


def test_compare_flags_a_changed_frame_error_count():
    got = copy.deepcopy(REF)
    got["ops"]["comp@2.6"]["frame_errors"] = 53
    assert fp.compare(REF, got) == ["ops.comp@2.6.frame_errors: 52 != 53"]


@pytest.mark.parametrize("shift, flagged", [(2e-12, True), (-2e-12, True),
                                            (5e-13, False), (-5e-13, False)])
def test_compare_mi_tolerance(shift, flagged):
    got = copy.deepcopy(REF)
    got["ops"]["comp_uni/comp_uni"]["iterations"][0]["mi_vn"] += shift
    got["ops"]["comp_uni/comp_uni"]["trajectory"][0][0] += shift
    diffs = fp.compare(REF, got)
    assert bool(diffs) == flagged
    if flagged:
        assert any("iterations[0].mi_vn" in d for d in diffs)
        assert any("trajectory[0][0]" in d for d in diffs)


def test_compare_is_exact_outside_mi():
    got = copy.deepcopy(REF)
    got["ops"]["comp_uni/comp_uni"]["iterations"][0]["cn_quantizer"]["shift_r"] = 4
    assert fp.compare(REF, got) == [
        "ops.comp_uni/comp_uni.iterations[0].cn_quantizer.shift_r: 3 != 4"]


# ---------------------------------------------------------------------------
# metric bookkeeping
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == tr.METRICS
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == ["setup_s", "pass_s", "peak_rss_mb"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_summarize_tail_has_ten_samples_beyond():
    s = run.summarize([float(i) for i in range(1, 101)])
    assert s["median"] == 50.5
    assert (s["tail_pct"], s["tail"]) == (90, 90.0)
    assert run.summarize([1.0, 2.0, 3.0])["tail"] is None
