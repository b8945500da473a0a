"""Cache-line-aligned operands change no value: ``np.correlate`` on a kernel
reversed into an aligned array forms ``np.convolve``'s entries byte for
byte, at any placement of that array, and the node-evolution chains built
on it equal plain ``np.convolve`` loops.  OpenBLAS picks its ``ddot``
kernel per CPU; setting ``OPENBLAS_CORETYPE`` (Prescott, Haswell, ...)
before the run checks the identity under another kernel."""

import numpy as np
import pytest

from quantldpc.evolution import _power_chain
from quantldpc.pmf import _aligned


def placed(x, offset):
    """``x`` copied into an array that starts ``offset`` bytes past a
    64-byte boundary."""
    out = _aligned(x.size + 8)[offset // 8:offset // 8 + x.size]
    out[:] = x
    assert out.ctypes.data % 64 == offset
    return out


def operand(rng, n, kind):
    if kind == "dense":
        return rng.random(n)
    if kind == "sparse":
        return np.where(rng.random(n) < 0.8, 0.0, rng.random(n))
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 2, n)     # signed, wide range


def pairs(rng):
    """(a, k) of lengths 1-400, either one the longer, some of equal length."""
    kinds = ("dense", "sparse", "signed")
    for trial in range(240):
        la, lk = (int(n) for n in rng.integers(1, 401, 2))
        if trial % 6 == 0:
            lk = la
        yield (operand(rng, la, kinds[trial % 3]),
               operand(rng, lk, kinds[(trial // 3) % 3]))


def test_aligned_arrays_start_on_a_cache_line():
    for n in range(1, 5001):
        x = _aligned(n)
        assert x.ctypes.data % 64 == 0
        assert x.shape == (n,) and x.dtype == np.float64 and x.flags.c_contiguous
        assert x.flags.writeable


@pytest.mark.parametrize("offset", [0, 16, 32, 48])
def test_correlate_on_a_reversed_kernel_is_convolve_byte_for_byte(offset):
    # np.convolve reverses the shorter operand (the second on a tie) and
    # correlates the other with it; the same dot products on a copy placed
    # anywhere give the same bytes
    rng = np.random.default_rng(240 + offset)
    for a, k in pairs(rng):
        longer, shorter = (a, k) if a.size >= k.size else (k, a)
        got = np.correlate(longer, placed(shorter[::-1], offset), "full")
        assert got.tobytes() == np.convolve(a, k).tobytes()


def test_power_chain_is_the_convolve_loop_byte_for_byte():
    rng = np.random.default_rng(24)
    for a, k in pairs(rng):
        times = int(rng.integers(0, 5))
        want = a
        for _ in range(times):
            want = np.convolve(want, k)
        assert _power_chain(a, k, times).tobytes() == want.tobytes()
