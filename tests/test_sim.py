import dataclasses
import io
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from quantldpc import sim, workers
from quantldpc.codes import bundled_code, generate_regular_code
from quantldpc.decoder import DecoderState, decode_batch, omsq_decode_batch
from quantldpc.evolution import EnsembleConfig, OmsqChannelQuantizer, design_decoder
from quantldpc.pmf import ValidationError
from quantldpc.sim import (CSV_HEADER, SimPoint, _frame_noise, _quantize_channel, simulate_point,
                           sweep, wilson_interval, write_csv)
from support import alarm


@pytest.fixture(scope="module")
def setup():
    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=8,
                         cn_variant="comp", vn_variant="comp",
                         design_ebn0_db=2.8, rate=0.5)
    artifact, _ = design_decoder(cfg)
    code = generate_regular_code(96, 3, 6, seed=5)
    return code, artifact


def test_wilson_hand_values():
    lo, hi = wilson_interval(5, 100)
    assert lo == pytest.approx(0.02154336145631356, abs=1e-12)
    assert hi == pytest.approx(0.11175196527208817, abs=1e-12)
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0
    assert 0.0 < hi0 < 0.1
    lo1, hi1 = wilson_interval(50, 50)
    assert hi1 == 1.0 and lo1 > 0.9
    with pytest.raises(ValidationError):
        wilson_interval(1, 0)
    # unchecked, 101 of 100 gave (0, 1) with a nan warning and -1 gave (0, 1)
    with pytest.raises(ValidationError):
        wilson_interval(101, 100)
    with pytest.raises(ValidationError):
        wilson_interval(-1, 100)


def test_noiseless_point_is_error_free(setup):
    code, artifact = setup
    pt = simulate_point(code, artifact, 2.8, stop={"max_frames": 200},
                        seed=3, noiseless=True)
    assert pt.frames == 200
    assert pt.fer == 0.0 and pt.ber == 0.0
    assert pt.avg_iterations == 0.0


def test_hopeless_snr_every_frame_fails(setup):
    code, artifact = setup
    pt = simulate_point(code, artifact, -20.0,
                        stop={"max_frames": 300, "target_frame_errors": 64},
                        seed=3)
    assert pt.fer == 1.0
    assert 0.2 < pt.ber < 0.5
    # the error target ends the run after the first chunk
    assert pt.frames == 256


def test_determinism_and_seed_sensitivity(setup):
    code, artifact = setup
    stop = {"max_frames": 512, "target_frame_errors": 10 ** 9}
    a = simulate_point(code, artifact, 3.2, stop=stop, seed=1)
    b = simulate_point(code, artifact, 3.2, stop=stop, seed=1)
    assert (a.bit_errors, a.frame_errors) == (b.bit_errors, b.frame_errors)
    assert a.iterations_histogram == b.iterations_histogram
    c = simulate_point(code, artifact, 3.2, stop=stop, seed=2)
    assert (a.bit_errors, a.frame_errors) != (c.bit_errors, c.frame_errors)
    # same master seed, different point index: a different noise stream
    d = simulate_point(code, artifact, 3.2, stop=stop, seed=1, point_index=1)
    assert (a.bit_errors, a.frame_errors) != (d.bit_errors, d.frame_errors)


def test_csv_output_is_stable(setup):
    code, artifact = setup
    stop = {"max_frames": 256, "target_frame_errors": 10 ** 9}
    pts = sweep(code, artifact, [2.0, 3.0], stop=stop, seed=4)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(pts, buf1)
    write_csv(sweep(code, artifact, [2.0, 3.0], stop=stop, seed=4), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 2.0
    assert int(first[1]) == 256


def test_stop_validation(setup):
    code, artifact = setup
    with pytest.raises(ValidationError, match="unknown stop"):
        simulate_point(code, artifact, 3.0, stop={"max_frame": 10})
    with pytest.raises(ValidationError, match="positive"):
        simulate_point(code, artifact, 3.0, stop={"max_frames": 0})


def test_partial_chunk_respects_max_frames(setup):
    code, artifact = setup
    pt = simulate_point(code, artifact, 3.0,
                        stop={"max_frames": 300, "target_frame_errors": 10 ** 9},
                        seed=0)
    assert pt.frames == 300


def test_fer_falls_with_snr(setup):
    code, artifact = setup
    stop = {"max_frames": 1024, "target_frame_errors": 10 ** 9}
    lo = simulate_point(code, artifact, 1.0, stop=stop, seed=6)
    hi = simulate_point(code, artifact, 4.5, stop=stop, seed=6)
    assert lo.fer > hi.fer
    assert lo.avg_iterations > hi.avg_iterations


def test_omsq_baseline_runs(setup):
    code, _ = setup
    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=8,
                         cn_variant="omsq", vn_variant="omsq",
                         design_ebn0_db=2.8, rate=0.5)
    artifact, _ = design_decoder(cfg)
    pt = simulate_point(code, artifact, 4.0,
                        stop={"max_frames": 256, "target_frame_errors": 10 ** 9},
                        seed=1)
    assert pt.frames == 256
    assert pt.fer < 0.2


# --- noise and channel quantization against the per-frame references -----------------

def ref_frame_noise(master_seed, point_index, frame_start, count, n, sigma):
    """Reference: one Philox Generator built per frame."""
    out = np.empty((count, n))
    for i in range(count):
        key = (int(master_seed) << 64) | (int(point_index) << 40) | (frame_start + i)
        gen = np.random.Generator(np.random.Philox(key=key))
        out[i] = gen.normal(0.0, sigma, size=n)
    return out


def ref_quantize_channel(llr, artifact):
    """Reference: searchsorted over the channel cell boundaries."""
    q = artifact.channel_quantizer
    if isinstance(q, OmsqChannelQuantizer):
        return q.map_llr(llr)
    edges = np.asarray(artifact.channel_edges_llr)
    cells = 1 + np.searchsorted(edges, np.abs(llr), side="right")
    sign = np.where(llr < 0, -1, 1)    # LLR exactly 0: boundary, take +
    return sign * cells


@pytest.mark.parametrize("seed,point_index,frame_start,count", [
    (0, 0, 0, 256), (1, 3, 1000, 37), (7, 0, 255, 1), (2 ** 63 + 5, 2 ** 23 - 1, 2 ** 40 - 3, 37),
])
def test_frame_noise_matches_one_generator_per_frame(seed, point_index, frame_start, count):
    got = _frame_noise(seed, point_index, frame_start, count, 96, 0.83)
    want = ref_frame_noise(seed, point_index, frame_start, count, 96, 0.83)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # each frame is its own stream: a one-frame call gives the same row
    last = _frame_noise(seed, point_index, frame_start + count - 1, 1, 96, 0.83)
    assert np.array_equal(last.view(np.int64), want[-1:].view(np.int64))


def test_quantize_channel_matches_searchsorted(setup):
    _, artifact = setup
    edges = np.asarray(artifact.channel_edges_llr)
    rng = np.random.default_rng(4)
    llr = 6.0 * (1.0 + rng.standard_normal((37, 96)))
    special = np.concatenate([edges, -edges, np.nextafter(edges, 0), np.nextafter(edges, 99),
                              [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]])
    llr[0, :special.size] = special
    want = ref_quantize_channel(llr, artifact)
    got = _quantize_channel(llr.copy(), artifact)      # it overwrites its input
    assert got.dtype == np.int16 and got.shape == want.shape
    assert np.array_equal(got, want)
    # |L| exactly on a boundary falls in the upper cell; +-0.0 take the weakest +1
    k = edges.size
    assert list(got[0, :k]) == list(range(2, k + 2))
    assert list(got[0, k:2 * k]) == [-c for c in range(2, k + 2)]
    assert list(got[0, 4 * k:4 * k + 2]) == [1, 1]


def test_quantize_channel_omsq_path_is_unchanged():
    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=4, iterations=2, cn_variant="omsq",
                         vn_variant="omsq", design_ebn0_db=2.8, rate=0.5)
    artifact, _ = design_decoder(cfg)
    step = artifact.channel_quantizer.step
    llr = np.concatenate([np.arange(-9, 10) * step / 2, [0.0, -0.0],
                          6.0 * np.random.default_rng(5).standard_normal(200)])
    got = _quantize_channel(llr, artifact)
    want = ref_quantize_channel(llr, artifact)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# --- frame-range sharding against the serial run ---------------------------------------
# The serial oracle is the same call with the worker count patched to 1.  The
# sharded runs use this host's count and 3, so uneven splits run on any host.

@pytest.fixture(scope="module")
def decoders(setup):
    code, comp = setup
    out = {"comp": comp}
    for cn, vn in [("comp_uni", "comp_uni"), ("min", "comp"), ("omsq", "omsq")]:
        cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=8, cn_variant=cn,
                             vn_variant=vn, design_ebn0_db=2.8, rate=0.5)
        out[cn] = design_decoder(cfg)[0]
    return code, out


def tally(point):
    """Every SimPoint field but wall_time, the histogram in insertion order."""
    fields = dataclasses.asdict(point)
    del fields["wall_time"]
    fields["iterations_histogram"] = list(point.iterations_histogram.items())
    return fields


def serial_and_sharded(monkeypatch, count, run):
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = tally(run())
    monkeypatch.setattr(workers, "WORKERS", count)
    got = tally(run())
    assert multiprocessing.active_children() == []
    return want, got


WORKERS = pytest.mark.parametrize("count", [workers.WORKERS, 3],
                                  ids=[f"host{workers.WORKERS}", "3"])


@WORKERS
@pytest.mark.parametrize("cn", ["comp", "comp_uni", "min", "omsq"])
def test_sharded_tallies_equal_serial_for_every_decoder(monkeypatch, decoders, count, cn):
    code, artifacts = decoders
    stop = {"max_frames": 300, "target_frame_errors": 10 ** 9}
    want, got = serial_and_sharded(
        monkeypatch, count,
        lambda: simulate_point(code, artifacts[cn], 2.0, stop=stop, seed=5))
    assert got == want
    assert want["frames"] == 300 and 0 < want["frame_errors"] < 300


@WORKERS
@pytest.mark.parametrize("max_frames", [1, 2, 3, 255, 257, 300])
def test_sharded_tallies_equal_serial_for_any_frame_count(monkeypatch, setup, count,
                                                          max_frames):
    code, artifact = setup
    stop = {"max_frames": max_frames, "target_frame_errors": 10 ** 9}
    want, got = serial_and_sharded(
        monkeypatch, count,
        lambda: simulate_point(code, artifact, 1.5, stop=stop, seed=8, point_index=2))
    assert got == want
    assert want["frames"] == max_frames


@WORKERS
def test_sharded_noiseless_point_equals_serial(monkeypatch, setup, count):
    code, artifact = setup
    want, got = serial_and_sharded(
        monkeypatch, count,
        lambda: simulate_point(code, artifact, 2.8, stop={"max_frames": 200}, seed=3,
                               noiseless=True))
    assert got == want
    assert want["iterations_histogram"] == [(0, 200)]


@WORKERS
def test_sharded_run_stops_in_the_same_chunk(monkeypatch, setup, count):
    code, artifact = setup
    first = simulate_point(code, artifact, 1.5, seed=4, point_index=1,
                           stop={"max_frames": 256, "target_frame_errors": 10 ** 9})
    # the target is reached in the second of three chunks
    stop = {"max_frames": 768, "target_frame_errors": first.frame_errors + 1}
    want, got = serial_and_sharded(
        monkeypatch, count,
        lambda: simulate_point(code, artifact, 1.5, stop=stop, seed=4, point_index=1))
    assert got == want
    assert want["frames"] == 512


# --- frame blocks against the unblocked decode of each range ---------------------------
# The reference is the Monte Carlo loop as it stood before frame blocks: each chunk
# split into the ranges of a k-process run, and each range decoded in one
# decode_batch call on llr_scale * (1.0 + noise).

def ref_llrs(artifact, ebn0_db, seed, start, count, n):
    """Channel LLRs of frames [start, start+count) at point 0, in one batch."""
    sigma = np.sqrt(1.0 / (2.0 * artifact.config.rate * 10.0 ** (ebn0_db / 10.0)))
    llr_scale = 2.0 / sigma ** 2
    y = 1.0 + _frame_noise(seed, 0, start, count, n, sigma)
    return llr_scale * y


def ref_simulate_point(code, artifact, ebn0_db, max_frames, seed, k):
    """Reference: every frame range of a k-process run decoded as one batch."""
    cfg = artifact.config
    n = code.n_vars

    def decode_range(start, count):
        msgs = _quantize_channel(ref_llrs(artifact, ebn0_db, seed, start, count, n), artifact)
        if cfg.cn_variant == "omsq":
            bits, iters, _ = omsq_decode_batch(msgs, code, cfg.w, cfg.beta, cfg.iterations)
        else:
            bits, iters, _ = decode_batch(msgs, code, artifact, cfg.iterations)
        return bits.sum(axis=1), iters

    frames = bit_errors = frame_errors = 0
    hist = {}
    while frames < max_frames:
        count = min(sim._CHUNK, max_frames - frames)
        parts = min(k, count)
        bounds = [frames + count * i // parts for i in range(parts + 1)]
        ranges = [decode_range(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        errs, iters = (np.concatenate(p) for p in zip(*ranges))
        bit_errors += int(errs.sum())
        frame_errors += int((errs > 0).sum())
        for used, c in zip(*np.unique(iters, return_counts=True)):
            hist[int(used)] = hist.get(int(used), 0) + int(c)
        frames += count
    return SimPoint(float(ebn0_db), frames, bit_errors, frame_errors, hist, seed, 0.0, n)


B = sim._BLOCK


@pytest.mark.parametrize("count", sorted({1, workers.WORKERS, 3}))
@pytest.mark.parametrize("max_frames", [1, B - 1, B, B + 1, 2 * B + 1, 300])
@pytest.mark.parametrize("cn", ["comp", "comp_uni", "min", "omsq"])
def test_blocked_tallies_equal_the_unblocked_reference(monkeypatch, decoders, cn, max_frames,
                                                       count):
    code, artifacts = decoders
    monkeypatch.setattr(workers, "WORKERS", count)
    stop = {"max_frames": max_frames, "target_frame_errors": 10 ** 9}
    got = simulate_point(code, artifacts[cn], 2.0, stop=stop, seed=5)
    want = ref_simulate_point(code, artifacts[cn], 2.0, max_frames, 5, count)
    assert tally(got) == tally(want)
    assert multiprocessing.active_children() == []


def test_blocked_llrs_are_bit_identical_to_one_batch(monkeypatch, setup):
    # tallies alone miss a rounding change that crosses no cell boundary
    code, artifact = setup
    seen = []

    def spy(llr, art):
        seen.append(llr.copy())
        return _quantize_channel(llr, art)

    monkeypatch.setattr(sim, "_quantize_channel", spy)
    monkeypatch.setattr(workers, "WORKERS", 1)
    simulate_point(code, artifact, 2.0, stop={"max_frames": 2 * B + 1}, seed=5)
    assert [len(llr) for llr in seen] == [B, B, 1]
    want = ref_llrs(artifact, 2.0, 5, 0, 2 * B + 1, code.n_vars)
    assert np.array_equal(np.concatenate(seen).view(np.int64), want.view(np.int64))


def test_decode_working_set_is_bounded_by_the_block(monkeypatch):
    code = bundled_code("dv3_dc6_n8000")
    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=5, cn_variant="comp",
                         vn_variant="comp", design_ebn0_db=2.0, rate=0.5)
    artifact, _ = design_decoder(cfg)
    state = DecoderState(code, artifact)
    edges, n, msg = state.edge_var.size, code.n_vars, np.dtype(state.dtype).itemsize
    assert state.slab == n      # lookup indices of one variable row per frame
    del state
    monkeypatch.setattr(workers, "WORKERS", 1)
    tracemalloc.start()
    try:
        point = simulate_point(code, artifact, 2.0, seed=3,
                               stop={"max_frames": 256, "target_frame_errors": 10 ** 9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert point.frames == 256
    # Per frame of a block, per edge: two message buffers, the messages v2c
    # and their compacted copy, and one byte of hard decisions.  Per
    # variable: the float64 LLRs, the intp channel index, the intp lookup
    # indices of one variable row (the larger side's), the int16 channel
    # messages, the channel addends, the VN sums and one temporary of them,
    # and a few bytes of bits and masks.  The decoder state and its
    # construction take under 16 intp arrays per edge.  Measured: 14.5 MiB
    # (20 MiB with an edges x frames index buffer and int64 channel copies;
    # 181 MiB decoding the 256-frame chunk as one batch).
    per_frame = edges * (4 * msg + 1) + n * (3 * 8 + 2 + 3 * msg + 4)
    bound = B * per_frame + 16 * 8 * edges
    assert peak < bound, f"peak {peak / 2 ** 20:.1f} MiB, bound {bound / 2 ** 20:.1f} MiB"


def test_worker_error_is_raised_and_leaves_no_worker(monkeypatch, setup):
    code, artifact = setup
    parent = os.getpid()

    def noise(seed, point_index, frame_start, count, n, sigma):
        if os.getpid() != parent:
            raise ValidationError(f"noise for frame {frame_start} failed")
        return np.zeros((count, n))

    # patched before the call, so the forked workers see it
    monkeypatch.setattr(sim, "_frame_noise", noise)
    monkeypatch.setattr(workers, "WORKERS", 3)
    with pytest.raises(ValidationError, match="noise for frame 33 failed"):
        simulate_point(code, artifact, 3.0, stop={"max_frames": 100}, seed=1)
    assert multiprocessing.active_children() == []


def test_worker_warnings_come_back_in_frame_order(monkeypatch, setup):
    # a forked worker's warnings used to die in the child; each block's noise
    # warns once per frame, so the blocks of any frame split give one list
    code, artifact = setup
    real = sim._frame_noise

    def noise(seed, point_index, frame_start, count, n, sigma):
        for frame in range(frame_start, frame_start + count):
            warnings.warn(f"frame {frame}", UserWarning)
        return real(seed, point_index, frame_start, count, n, sigma)

    def run():
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            point = simulate_point(code, artifact, 2.0, seed=2,
                                   stop={"max_frames": 300, "target_frame_errors": 10 ** 9})
        return tally(point), [str(w.message) for w in log]

    monkeypatch.setattr(sim, "_frame_noise", noise)
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = run()
    monkeypatch.setattr(workers, "WORKERS", 3)
    assert run() == want
    assert want[1] == [f"frame {f}" for f in range(300)]
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_in_bounded_time(monkeypatch, setup):
    code, artifact = setup
    parent = os.getpid()

    def noise(seed, point_index, frame_start, count, n, sigma):
        if os.getpid() != parent and frame_start + count == 100:    # the last range
            os._exit(1)
        return np.zeros((count, n))

    monkeypatch.setattr(sim, "_frame_noise", noise)
    monkeypatch.setattr(workers, "WORKERS", 3)
    with alarm(30), pytest.raises(RuntimeError, match="exit code 1"):
        simulate_point(code, artifact, 3.0, stop={"max_frames": 100}, seed=1)
    assert multiprocessing.active_children() == []


def test_busy_worker_is_terminated_when_the_call_raises(monkeypatch, setup):
    code, artifact = setup
    parent = os.getpid()

    def noise(seed, point_index, frame_start, count, n, sigma):
        if os.getpid() == parent:
            raise ValidationError("noise failed in the calling process")
        time.sleep(60)

    monkeypatch.setattr(sim, "_frame_noise", noise)
    monkeypatch.setattr(workers, "WORKERS", 3)
    with alarm(30), pytest.raises(ValidationError, match="calling process"):
        simulate_point(code, artifact, 3.0, stop={"max_frames": 100}, seed=1)
    assert multiprocessing.active_children() == []


def simulate_in_pool_worker(code, artifact, stop):
    assert multiprocessing.current_process().daemon
    return simulate_point(code, artifact, 2.0, stop=stop, seed=6)


def test_call_from_a_daemonic_worker_runs_serially(monkeypatch, setup):
    code, artifact = setup
    stop = {"max_frames": 300, "target_frame_errors": 10 ** 9}
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = tally(simulate_point(code, artifact, 2.0, stop=stop, seed=6))
    # a daemonic process may not fork; the call must not try
    monkeypatch.setattr(workers, "WORKERS", 3)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = tally(pool.apply(simulate_in_pool_worker, (code, artifact, stop)))
        pool.close()
        pool.join()
    assert got == want
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kwargs", [
    dict(ebn0_db=math.nan), dict(ebn0_db=math.inf), dict(ebn0_db=-math.inf),
    dict(ebn0_db=4000.0), dict(ebn0_db=-4000.0), dict(max_iter=-3),
    dict(stop={"target_frame_errors": 0}), dict(stop={"target_frame_errors": -1})])
def test_invalid_point_is_rejected_before_any_worker(monkeypatch, setup, kwargs):
    # unchecked, nan gave 16 clean frames, -inf and target 0 ZeroDivisionError,
    # max_iter -3 a histogram {0: 16}
    code, artifact = setup

    def no_shards(*args):
        raise AssertionError("workers started for an invalid point")

    monkeypatch.setattr(workers, "forked", no_shards)
    call = {"ebn0_db": 3.0, "stop": {"max_frames": 16}, **kwargs}
    with pytest.raises(ValidationError):
        simulate_point(code, artifact, **call)


def test_package_import_leaves_multiprocessing_unloaded():
    # it is imported when workers are forked: ~8 ms off every package import
    src = os.path.dirname(os.path.dirname(sim.__file__))
    check = "import sys, quantldpc; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
