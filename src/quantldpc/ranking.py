"""Ranking the steps of a uniform stage's search, many steps at a time.

A uniform stage (``evolution._design_stage``) tries a grid of step sizes.
:func:`_rank_steps` gives each step a ranking MI by array operations over a
block of steps: the tables of every step, the node output of every step by
FFT in place of the ``np.convolve`` chain, and the uniform quantizer's
scores of every step.  :func:`_rank_tolerance` bounds how far a ranking MI
may lie from the exact one, so the stage evolves on the chain only the
steps ranked near the best, and its result stays the exhaustive scan's.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .quantizers import _mi_shift, _uniform_grid, _uniform_scores, round_translation_steps

#: bytes the arrays of one block of ranked steps may take; a block is as
#: many steps as fit, and at least one.  With 1 MiB the paper point's
#: designs peak at the RSS of an exact scan; 2 MiB adds 0.8 MB
_RANK_BYTES = 1 << 20


def _bincount_rows(idx, weights, width):
    """``np.bincount(row, weights, width)`` of every row of ``idx`` at
    once, by one flat bincount."""
    rows = idx.shape[0]
    flat = (idx + width * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, np.tile(weights, rows), rows * width).reshape(rows, width)


def _power_rows(x, k, m):
    """irfft(rfft(x, m) ** k, m) of every row of ``x``."""
    X = np.fft.rfft(x, m)
    X **= k
    return np.fft.irfft(X, m)


def _cn_rank_masses(p_in, dc, T, vals):
    """Folded output masses of ``evolution.cn_evolve_comp`` for each row of
    table values, the two powers taken by FFT.

    u and v of every row sit on the common grid 0..T, and U = irfft(rfft(u,
    m) ** (dc - 1), m) on 0..n-1, n = (dc - 1) T + 1, m the power of two at
    or above n; likewise V.  Returns (a, b), p(x=0, +k) and p(x=1, +k) at
    magnitude k (the layout of ``quantizers._dense_folded``), clamped and
    normalized as the chain's.  A row whose tables reach only vmax < T
    holds round-off dust above (dc - 1) vmax, where the chain has no sums.
    """
    _, a, b = p_in.fold_positive()
    n = (dc - 1) * T + 1
    m = 1 << (n - 1).bit_length()
    U, V = (_power_rows(_bincount_rows(vals, 2.0 * x, T + 1), dc - 1, m)[:, :n]
            for x in (a + b, a - b))
    a = np.add(U, V)                    # twice the even parity sums
    b = np.subtract(U, V, out=U)        # twice the odd ones
    np.maximum(a, 0.0, out=a)
    np.maximum(b, 0.0, out=b)
    total = 2.0 * (a.sum(axis=1) + b.sum(axis=1))[:, None]
    a /= total
    b /= total
    return a, b


def _vn_rank_masses(p_cn, p_ch, dv, T, vals_ch, vals_c):
    """Folded output masses of ``evolution.vn_evolve`` for each row of table
    values (channel, check), the sum taken by FFT.

    h and c of every row (``evolution._signed_translated``) sit on the common
    grid -T..T, and acc = irfft(rfft(h, m) * rfft(c, m) ** (dv - 1), m) on
    -dv T..dv T, m the power of two at or above its L = 2 dv T + 1 sums.
    The rows are then clamped and normalized, and the zero sum's mass goes
    half to +1 and half to -1, as ``symmetrize_vn_sum`` does; its mirror
    average is the identity here, as both rows of the mass are the same
    row mirrored.  Returns (a, b) at magnitudes 0..dv T, magnitude 0
    empty.  A row whose sums can only be 0 (all its tables 0) is nan, as
    ``vn_evolve`` raises there; its adder-width check cannot fail: the sums
    reach at most dv T, below its limit.
    """
    h, c = (_bincount_rows(np.concatenate([T + v, T - v], axis=1),
                           np.concatenate([2.0 * a, 2.0 * b]), 2 * T + 1)
            for (_, a, b), v in ((p_ch.fold_positive(), vals_ch),
                                 (p_cn.fold_positive(), vals_c)))
    L = 2 * dv * T + 1
    m = 1 << (L - 1).bit_length()
    C = np.fft.rfft(c, m)
    C **= dv - 1
    C *= np.fft.rfft(h, m)
    acc = np.fft.irfft(C, m)[:, :L]
    row = np.maximum(0.5 * acc, 0.0)
    row /= 2.0 * row.sum(axis=1, keepdims=True)
    zero = 0.5 * row[:, dv * T]
    a, b = row[:, dv * T:].copy(), row[:, dv * T::-1].copy()
    a[:, 0] = b[:, 0] = 0.0
    a[:, 1] += zero
    b[:, 1] += zero
    a[vals_ch.max(axis=1) + (dv - 1) * vals_c.max(axis=1) == 0] = np.nan
    return a, b


def _rank_steps(masses, raws, span, w, wphi, kappa_search, steps):
    """Ranking MI of each step of a uniform stage, nan where not finite.

    Per block of steps, in array operations: the raw translation values
    ``raws`` are rounded at every step (``quantizers.round_translation_steps``),
    ``masses(*values)`` evolves the node output of every row by FFT, and
    ``quantizers._uniform_scores`` scores every (r, kappa) pair of every row;
    a row's MI is its best score.  A step at which rounding would raise
    gets nan, and so does a row that is not finite.  A block holds about
    ``_RANK_BYTES`` in its arrays, a step about 4 floats per entry of the
    FFT length m (the power of two at or above the output ``span``) and 8
    per (r, kappa) pair and boundary (the paper point's CN ranks blocks of
    3 steps, its VN blocks of 14; tracemalloc measures peaks of 0.7 and
    1.0 MB).
    """
    steps = np.asarray(steps, dtype=np.float64)
    K = 1 << (w - 1)
    pairs = _uniform_grid(K, wphi, kappa_search)[1].size
    m = 1 << (span - 1).bit_length()
    block = max(1, _RANK_BYTES // (32 * (m + 2 * pairs * (K + 1))))
    out = np.empty(steps.size)
    with np.errstate(all="ignore"):
        for lo in range(0, steps.size, block):
            rounded = [round_translation_steps(raw, steps[lo:lo + block], wphi) for raw in raws]
            da, db = masses(*(values for values, _, _ in rounded))
            mi = _uniform_scores(da, db, w, wphi, kappa_search)[0]
            ok = np.logical_and.reduce([ok for _, _, ok in rounded])
            out[lo:lo + block] = np.where(ok, mi.max(axis=-1), math.nan)
    return out


def _rank_tolerance(n, L, K):
    """Bound eps on |ranking MI - exact MI| of one step of a uniform stage.

    The ranking MI is :func:`_rank_steps`'s, the exact one
    ``design_uniform``'s on the ``np.convolve`` chain's PMF.  The node
    output is a product of n factors: n = dc - 1 copies of u (and of v) at
    a CN, the channel's h and dv - 1 copies of c at a VN.  L is the output
    span, the entries of the longest product: L = nT + 1 at a CN, L = 2 dv
    T + 1 at a VN, T = 2**(wphi-1) - 1 the largest table value; so each
    factor spans d = (L - 1) / n + 1 entries (T + 1, and 2T + 1).  e =
    2**-52 is the double epsilon, m the FFT length (the power of two at or
    above L), l = max(1, log2 m) and K = 2**(w-1) the cells.  Bounds at T
    hold at every step (a step's tables have vmax <= T, and every term
    grows with vmax).

    1. Inputs.  Every factor is nonnegative and sums to its input's mass,
       1 within MASS_TOL (u = q0 + q1 at a CN with |v| <= u, h and c at a
       VN), so each has l1 norm <= 1 (the 1e-12 excess, raised to the n-th
       power, is inside the 1% slack below).
    2. Chain.  Each np.convolve entry is a dot product of at most d terms
       (the chain's aligned np.correlate forms the same dot products), so
       after n - 1 of them every entry of the product errs by at most
       (n - 1)(d + 1) e times the same entry of the product of the |factors|
       (Higham, Accuracy and Stability, 2nd ed., sec. 3.5): in l1, e_chain
       = 1.01 (n - 1)(d + 1) e.
    3. FFT.  A length-m FFT errs by ||dX||_2 <= l eta ||X||_2 with eta =
       mu + gamma_4 (sqrt2 + mu) <= 8e for twiddles of error mu <= e
       (ibid., thm. 24.2), and ||X||_2 = sqrt(m) ||u||_2 <= sqrt(m).  As
       |X_k| <= ||u||_1 <= 1, the product of n spectra multiplies a
       coefficient's error by at most 1.01 n, and its own rounding adds 3ne
       |X_k| (numpy raises to an integer power below 100 by repeated
       complex products, each within 3e; measured below 1.9ne up to n =
       400, but beyond 99 eps is inf); the half spectrum rfft returns
       carries a sqrt2 to the whole.  The inverse maps an l2 error of the
       spectrum to 1/sqrt(m) of it and adds l eta ||U||_2 <= l eta.  Over
       the L entries kept, l1 <= sqrt(L) l2:
       e_fft = sqrt(L) (sqrt2 n (1.01 l eta + 3e) + l eta).
    4. Output masses.  At a CN the folded masses (a, b) are halves of (U +
       V)/2 and (U - V)/2, so their l1 error is at most the larger of U's
       and V's.  At a VN they are the two halves of acc/2 around its zero
       sum; splitting the zero sum's mass onto +-1 and the mirror average
       are linear maps whose nonnegative weights out of each entry sum to
       1, so they are l1-non-expansive.  Clamping at 0 moves an entry
       toward its nonnegative true value, and normalizing doubles an l1
       error at most (||x/|x| - y/|y| ||_1 <= 2 ||x - y||_1 / |y|, |y| >=
       0.99).  The two routes' PMFs are therefore within 2.03 (e_fft +
       e_chain) in l1.
    5. Designer.  ``_uniform_sweep`` takes a cell's masses as differences
       of cumsum prefixes over at most L entries (each within L e / 2 for
       prefixes <= 1/2), so the 2K cell masses of both routes add 4.2 K L
       e.  With D the total, D = 2.03 (e_fft + e_chain) + 4.2 K L e.
    6. MI.  An l1 change D of a partition's cell masses moves its MI by
       at most ``quantizers._mi_shift(D, K)`` = 4 D log2(2K/D), by the
       continuity of x log2 x (proof there; the threshold DP's drift
       certificate uses the same bound).  Each route's own rounding of the
       scores (three x log2 x terms and four sums per cell, then a sum of
       K) adds at most 32 K e.  The maximum over the same (r, kappa) pairs
       moves by no more than its largest term, so
       eps = 4 D log2(2K/D) + 64 K e.
    At the paper point (dc = 32, dv = 6, w = 4, wphi = 8) eps = 2.3e-8 at
    the CN and 4.3e-9 at the VN.

    If the exact winner is step s and M the best ranking MI, then
    rank(s) >= exact(s) - eps >= exact(argmax rank) - eps >= M - 2 eps,
    and so does every step tying with s: verifying each step within 2 eps
    of M on the chain finds the first exact maximum of the whole scan.
    Returns inf, for a stage that then scans exactly, where n >= 100 or
    D/K exceeds 1/e (where ``_mi_shift`` is inf).
    """
    e = float(np.finfo(float).eps)
    d = (L - 1) // n + 1
    m = 1 << (L - 1).bit_length()
    l, eta = max(1, m.bit_length() - 1), 8 * e
    e_chain = 1.01 * (n - 1) * (d + 1) * e
    e_fft = math.sqrt(L) * (math.sqrt(2) * n * (1.01 * l * eta + 3 * e) + l * eta)
    D = 2.03 * (e_fft + e_chain) + 4.2 * K * L * e
    if n >= 100:
        return math.inf
    return _mi_shift(D, K) + 64 * K * e


def _stage_rank(cfg, n, span, masses, raws, kappa_search):
    """``(ranker, eps)`` of a uniform stage (:func:`_rank_steps`,
    :func:`_rank_tolerance`), or None where eps is infinite and the stage
    scans exactly."""
    eps = _rank_tolerance(n, span, 1 << (cfg.w - 1))
    if not math.isfinite(eps):
        return None
    return partial(_rank_steps, masses, raws, span, cfg.w, cfg.wphi, kappa_search), eps
