"""Monte Carlo FER/BER measurement over BPSK-AWGN.

All-zero codeword transmission (valid for the symmetric decoders built
here), counter-based seeding so every frame's noise is reproducible in
isolation, chunked decoding with early stop on a frame-error target,
each chunk split across worker processes (see :func:`simulate_point`).

Each process streams its frame range through noise, channel quantizer and
flooding kernel in blocks of :data:`_BLOCK` frames, so its working set is
bounded by the block, not the chunk: per frame at most 9 bytes per edge
and 36 per variable with int16 messages.  No tally depends on the block size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .decoder import DecoderState, decode_batch
from .evolution import OmsqChannelQuantizer
from .pmf import ValidationError, _integer

CSV_HEADER = "ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iterations,seed"

_CHUNK = 256
#: frames a process decodes at a time: of 16, 24, 32 and 48, 32 timed best on
#: the decode benchmark; 16 held 4 MB less peak RSS but took 2% longer
_BLOCK = 32


@dataclass
class SimPoint:
    """Tally of one simulated SNR point."""

    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    iterations_histogram: dict
    seed: int
    wall_time: float
    n_vars: int

    @property
    def fer(self):
        return self.frame_errors / self.frames

    @property
    def ber(self):
        return self.bit_errors / (self.frames * self.n_vars)

    @property
    def avg_iterations(self):
        total = sum(k * v for k, v in self.iterations_histogram.items())
        return total / self.frames


def wilson_interval(errors, trials, z=1.96):
    """95% (default) Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValidationError(f"errors must lie in [0, trials], not {errors!r}")
    p = errors / trials
    den = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / den
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / den
    return max(0.0, center - half), min(1.0, center + half)


def _frame_noise(master_seed, point_index, frame_start, count, n, sigma):
    """AWGN for frames [frame_start, frame_start+count), one stream each.

    Philox keyed by (master seed, point index, frame index), packed into
    64 + 24 + 40 bits of its 128-bit key, makes any frame reproducible on
    its own, in any execution order.  One bit generator is re-keyed
    through its ``state`` for each frame, with a zero counter and an empty
    buffer: the stream ``Philox(key=key)`` starts.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    mask = (1 << 64) - 1
    out = np.empty((count, n))
    for i in range(count):
        key = (int(master_seed) << 64) | (int(point_index) << 40) | (frame_start + i)
        state["state"]["key"] = np.array([key & mask, key >> 64], dtype=np.uint64)
        bitgen.state = state
        out[i] = gen.normal(0.0, sigma, size=n)
    return out


def _quantize_channel(llr, artifact):
    """Real LLRs to integer channel messages per the designed quantizer.

    The cell of |L| is one plus the number of cell boundaries at or below
    it; an LLR exactly on a boundary falls in the upper cell.  The cells are
    counted in int16 (wider only past 2^15 - 1 cells), and the float64
    array ``llr`` is overwritten by |L|.
    """
    q = artifact.channel_quantizer
    if isinstance(q, OmsqChannelQuantizer):
        return q.map_llr(llr)
    edges = artifact.channel_edges_llr
    neg = llr < 0                       # LLR exactly 0: boundary, take +
    mag = np.abs(llr, out=llr)
    cells = np.ones(mag.shape, dtype=np.int16 if len(edges) < 2 ** 15 - 1 else np.int64)
    for e in edges:
        cells += mag >= e
    np.negative(cells, out=cells, where=neg)
    return cells


def simulate_point(code, artifact, ebn0_db, stop=None, seed=0, *,
                   point_index=0, max_iter=None, noiseless=False) -> SimPoint:
    """Simulate one SNR point until a stop condition triggers.

    stop: dict with max_frames (default 1e7) and/or target_frame_errors
    (default 100); whichever hits first ends the run, checked after each
    chunk of up to 256 frames.  The noise variance follows the rate
    carried in the artifact's config, matching the design-side convention.

    Each chunk is split into contiguous frame ranges: this process decodes
    the first, the workers of :mod:`quantldpc.workers` the others.  A
    frame's noise depends only on (seed, point, frame) and its decoding not
    on its batch, so every field but ``wall_time`` equals that of a serial
    run.
    """
    stop = dict(stop or {})
    # frame, point and seed fill the 40, 24 and 64 bits of a noise key
    max_frames = _integer("max_frames", stop.pop("max_frames", 10_000_000), 1, 1 << 40)
    target_errors = _integer("target_frame_errors", stop.pop("target_frame_errors", 100), 1)
    if stop:
        raise ValidationError(f"unknown stop keys {sorted(stop)}")
    seed = _integer("seed", seed, hi=(1 << 64) - 1)
    point_index = _integer("point_index", point_index, hi=(1 << 24) - 1)
    if not math.isfinite(ebn0_db):
        raise ValidationError(f"ebn0_db must be finite, not {ebn0_db!r}")

    cfg = artifact.config
    max_iter = _integer("max_iter", cfg.iterations if max_iter is None else max_iter)
    try:
        with np.errstate(over="raise", divide="raise", under="raise"):
            sigma = np.sqrt(1.0 / (2.0 * cfg.rate * 10.0 ** (ebn0_db / 10.0)))
            llr_scale = 2.0 / sigma ** 2
    except ArithmeticError:         # overflow, underflow or a zero noise level
        raise ValidationError(f"ebn0_db={ebn0_db!r} has no float noise level") from None
    n = code.n_vars
    state = DecoderState(code, artifact)

    def decode_range(start, count):
        """Bit errors and iterations of frames [start, start+count), block by block."""
        parts = []
        for lo in range(start, start + count, _BLOCK):
            k = min(_BLOCK, start + count - lo)
            if noiseless:
                y = np.ones((k, n))
            else:
                y = _frame_noise(seed, point_index, lo, k, n, sigma)
                y += 1.0
            y *= llr_scale
            msgs = _quantize_channel(y, artifact)
            bits, iters, _ = decode_batch(msgs, code, artifact, max_iter, state=state)
            parts.append((bits.sum(axis=1), iters))
        return tuple(np.concatenate(p) for p in zip(*parts))

    frames = 0
    bit_errors = 0
    frame_errors = 0
    hist = {}
    t0 = time.perf_counter()
    spare = min(workers.WORKERS, _CHUNK, max_frames) - 1
    with workers.forked(decode_range, spare) as team:
        while frames < max_frames and frame_errors < target_errors:
            count = min(_CHUNK, max_frames - frames)
            k = min(len(team) + 1, count)
            bounds = [frames + count * i // k for i in range(k + 1)]
            parts = workers.replayed(workers.spread(
                decode_range, team, [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]))
            errs, iters = (np.concatenate(p) for p in zip(*parts))
            bit_errors += int(errs.sum())
            frame_errors += int((errs > 0).sum())
            for used, c in zip(*np.unique(iters, return_counts=True)):
                hist[int(used)] = hist.get(int(used), 0) + int(c)
            frames += count
    return SimPoint(float(ebn0_db), frames, bit_errors, frame_errors, hist,
                    seed, time.perf_counter() - t0, n)


def sweep(code, artifact, ebn0_list, stop=None, seed=0, **kw):
    """simulate_point over a list of SNRs with per-point derived streams."""
    return [simulate_point(code, artifact, s, stop=stop, seed=seed,
                           point_index=i, **kw)
            for i, s in enumerate(ebn0_list)]


def write_csv(points, fh):
    """One row per SimPoint under the fixed header."""
    fh.write(CSV_HEADER + "\n")
    for p in points:
        fh.write(f"{p.ebn0_db:.10g},{p.frames},{p.bit_errors},{p.frame_errors},"
                 f"{p.ber:.10g},{p.fer:.10g},{p.avg_iterations:.10g},{p.seed}\n")
