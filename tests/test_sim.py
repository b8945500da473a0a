import io

import numpy as np
import pytest

from quantldpc.codes import generate_regular_code
from quantldpc.evolution import EnsembleConfig, OmsqChannelQuantizer, design_decoder
from quantldpc.pmf import ValidationError
from quantldpc.sim import (CSV_HEADER, _frame_noise, _quantize_channel, simulate_point, sweep,
                           wilson_interval, write_csv)


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
    got = _quantize_channel(llr, artifact)
    want = ref_quantize_channel(llr, artifact)
    assert got.dtype == want.dtype and got.shape == want.shape
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
