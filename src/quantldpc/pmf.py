"""Joint-PMF algebra for binary-input message distributions.

Everything in this package reasons about finite distributions p(x, y) of a
code bit x in {0, 1} and a signed integer observation symbol y.  The symbol
alphabets are either sign-magnitude message alphabets without a zero symbol
(channel and node output messages), contiguous signed adder ranges including
zero (variable-node sums), or sign-magnitude check-node sum domains where the
magnitude itself may be zero (encoded with ``mag_offset=1`` so that +0 and -0
stay distinct symbols).

Log-likelihood ratios are natural-log throughout; entropies and mutual
information are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

#: absolute tolerance for normalization / symmetry checks
MASS_TOL = 1e-12


class ValidationError(ValueError):
    """A PMF, quantizer, table or configuration violates its contract."""


def _xlog2x(v):
    """Elementwise v*log2(v) of masses v >= 0, with the 0*log(0)=0 convention.

    A zero is raised to the smallest subnormal before the log, so its
    product is -0.0, and adding 0.0 makes it +0.0; every other element is
    the plain v*log2(v).  No mask, no warning.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.maximum(v, 5e-324)
    np.log2(out, out=out)
    out *= v
    out += 0.0
    return out


def _cluster_scores(pa, pb):
    """Elementwise x(pa) + x(pb) - x(pa + pb) + (pa + pb), x = _xlog2x.

    ``pa`` and ``pb`` are the joint masses p(x=0, cell) and p(x=1, cell)
    of cells on the positive half-axis of a symmetric PMF with equal
    priors; twice the sum of the scores over a partition of that half-axis
    is the mutual information of the partition, in bits.
    """
    s = pa + pb
    out = _xlog2x(pa)
    out += _xlog2x(pb)
    out -= _xlog2x(s)
    out += s
    return out


class JointPMF:
    """Joint mass table p(x, y) over a sorted signed integer alphabet.

    Parameters
    ----------
    alphabet : array of int
        Strictly increasing symbol values.
    mass : array, shape (2, len(alphabet))
        Rows are x=0 and x=1; entries are joint probabilities.
    llr_order : bool
        True when the cells are contiguous on this magnitude axis, with
        sign(L(x|+m)) = +: the order a symmetric threshold quantizer on the
        magnitude axis works in.  Conditional reliability need not be
        monotone in the magnitude index (a quantized CN sum keeps its cells
        in sum order).
    symmetric : bool
        Declares (and checks) p(X=0, Y=y) == p(X=1, Y=-y) for all y, with
        the alphabet closed under negation.
    mag_offset : int
        Magnitude of symbol y is ``abs(y) - mag_offset``.  Zero for plain
        sign-magnitude alphabets; one for check-node sum domains where a
        magnitude of zero exists for both signs.
    values : array of float, optional
        Real-valued computational-domain value of each symbol (bin center,
        scaled translation sum, ...).  Informational.
    """

    __slots__ = ("alphabet", "mass", "llr_order", "symmetric", "mag_offset", "values")

    def __init__(self, alphabet, mass, *, llr_order=False, symmetric=False,
                 mag_offset=0, values=None, validate=True):
        self.alphabet = np.asarray(alphabet, dtype=np.int64)
        self.mass = np.asarray(mass, dtype=np.float64)
        self.llr_order = bool(llr_order)
        self.symmetric = bool(symmetric)
        self.mag_offset = int(mag_offset)
        self.values = None if values is None else np.asarray(values, dtype=np.float64)
        if validate:
            self.validate()

    # -- basic integrity ----------------------------------------------------

    def validate(self):
        a, m = self.alphabet, self.mass
        if a.ndim != 1 or m.shape != (2, a.size):
            raise ValidationError(f"mass shape {m.shape} does not match alphabet size {a.size}")
        if a.size < 2:
            raise ValidationError("alphabet must hold at least two symbols")
        if np.any(np.diff(a) <= 0):
            raise ValidationError("alphabet must be strictly increasing")
        if np.any(m < -1e-15):
            raise ValidationError("negative probability mass")
        total = float(m.sum())
        if not (abs(total - 1.0) <= MASS_TOL):   # a NaN mass fails too
            raise ValidationError(f"mass sums to {total!r}, not 1 within {MASS_TOL}")
        if self.values is not None and self.values.shape != a.shape:
            raise ValidationError("values must align with the alphabet")
        if self.symmetric:
            if not np.array_equal(a[::-1], -a):
                raise ValidationError("symmetric PMF needs an alphabet closed under negation")
            if not np.allclose(m[0], m[1][::-1], rtol=0.0, atol=MASS_TOL):
                raise ValidationError("p(0, y) != p(1, -y): PMF is not symmetric")

    @property
    def n_symbols(self):
        return self.alphabet.size

    def magnitudes(self):
        """Magnitude of each symbol (|y| - mag_offset)."""
        return np.abs(self.alphabet) - self.mag_offset

    def p_y(self):
        return self.mass.sum(axis=0)

    def conditional_llr(self):
        """Natural-log L(x|y) = ln p(x=0|y)/p(x=1|y) per symbol.

        Zero-mass symbols get 0.0; one-sided symbols get +/-inf.
        """
        p0, p1 = self.mass
        out = np.zeros(self.alphabet.size)
        both = (p0 > 0) & (p1 > 0)
        out[both] = np.log(p0[both]) - np.log(p1[both])
        out[(p0 > 0) & (p1 == 0)] = math.inf
        out[(p0 == 0) & (p1 > 0)] = -math.inf
        return out

    def fold_positive(self):
        """Masses of the positive half-alphabet, ascending in magnitude.

        Returns (mags, a, b) with a = p(x=0, +m) and b = p(x=1, +m).
        """
        pos = self.alphabet > 0
        mags = self.alphabet[pos] - self.mag_offset
        return mags, self.mass[0, pos].copy(), self.mass[1, pos].copy()

    def __repr__(self):
        return (f"JointPMF({self.n_symbols} symbols, "
                f"[{self.alphabet[0]}..{self.alphabet[-1]}], "
                f"symmetric={self.symmetric})")


@dataclass(frozen=True)
class ChannelModel:
    """Binary-input AWGN channel at a design point, plus its fine LLR grid.

    The noise variance follows from Eb/N0 and the code rate as
    sigma^2 = 1 / (2 * rate * 10**(ebn0_db/10)) for unit-energy BPSK.
    """

    ebn0_db: float
    rate: float
    grid_size: int = 2000
    clip_llr: float | None = None

    def __post_init__(self):
        if not (0.0 < self.rate < 1.0):
            raise ValidationError(f"rate {self.rate} outside (0, 1)")
        if self.grid_size % 2 != 0 or self.grid_size < 512:
            raise ValidationError("grid_size must be even and >= 512")
        if self.clip_llr is not None and self.clip_llr <= 0:
            raise ValidationError("clip_llr must be positive")

    @property
    def noise_variance(self):
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))

    @property
    def llr_mean(self):
        """Mean of the channel LLR under x=0 (BPSK symbol +1)."""
        return 2.0 / self.noise_variance

    @property
    def effective_clip(self):
        if self.clip_llr is not None:
            return self.clip_llr
        return max(25.0, 6.0 * self.llr_mean)


def awgn_llr_pmf(ch: ChannelModel) -> JointPMF:
    """Discretized joint PMF of (code bit, channel LLR) on a symmetric grid.

    The LLR axis [-clip, +clip] is split into ``grid_size`` equal bins; tail
    mass beyond the clip is folded into the edge bins.  Symbols are signed
    bin indices (+/-1 .. +/-grid_size/2); ``values`` holds the bin centers.
    """
    g = ch.grid_size
    clip = ch.effective_clip
    mean = ch.llr_mean
    sd = math.sqrt(2.0 * mean)  # var of the LLR is 4/sigma^2 = 2*mean

    edges = np.linspace(-clip, clip, g + 1)
    cdf = ndtr((edges - mean) / sd)
    row0 = np.diff(cdf)
    row0[0] += cdf[0]
    row0[-1] += 1.0 - cdf[-1]
    row0 *= 0.5
    mass = np.vstack([row0, row0[::-1]])
    mass /= mass.sum()  # remove float drift from the cdf differences

    half = g // 2
    alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    centers = 0.5 * (edges[:-1] + edges[1:])
    return JointPMF(alphabet, mass, llr_order=True, symmetric=True, values=centers)


def mutual_information(p: JointPMF) -> float:
    """I(X;Y) in bits."""
    p.validate()
    pxy = p.mass
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    terms = np.zeros_like(pxy)
    ratio = np.divide(pxy, px * py, out=np.ones_like(pxy), where=mask)
    np.log2(ratio, out=terms, where=mask)
    return float(np.sum(pxy * terms))


def folded_mutual_information(a, b):
    """I(X;Y) of a symmetric PMF from its positive-half masses.

    ``a[k]`` and ``b[k]`` are p(x=0, y=+k-th symbol) and p(x=1, y=+k-th);
    the negative half is implied by symmetry.  Equal priors assumed.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(2.0 * np.sum(_cluster_scores(a, b)))


def symmetrize_vn_sum(p: JointPMF) -> JointPMF:
    """Two's-complement sum PMF -> symmetric sign-magnitude message domain.

    The zero symbol's mass is split evenly onto +1 and -1, modelling an
    ensemble with equal shares of the two variable-node tie conventions;
    afterwards the table is mirror-averaged so the output is exactly
    symmetric.  The output alphabet is +/-1 .. +/-M with no zero symbol.
    """
    a = p.alphabet
    lo, hi = int(a[0]), int(a[-1])
    if not (lo <= 0 <= hi) or a.size != hi - lo + 1 or not np.array_equal(a, np.arange(lo, hi + 1)):
        raise ValidationError("expected a contiguous signed alphabet containing 0")
    m = max(-lo, hi)

    # dense signed table indexed by value + m over [-m, +m]
    dense = np.zeros((2, 2 * m + 1))
    dense[:, a + m] = p.mass
    zero = dense[:, m].copy()
    dense[:, m] = 0.0
    dense[:, m + 1] += 0.5 * zero
    dense[:, m - 1] += 0.5 * zero

    keep = np.concatenate([np.arange(0, m), np.arange(m + 1, 2 * m + 1)])
    out = dense[:, keep]
    # mirror-average: exact symmetry regardless of float noise upstream
    row0 = 0.5 * (out[0] + out[1][::-1])
    out = np.vstack([row0, row0[::-1]])

    alphabet = np.concatenate([np.arange(-m, 0), np.arange(1, m + 1)])
    values = None
    if p.values is not None:
        values = alphabet.astype(np.float64) * _magnitude_unit(p)
    return JointPMF(alphabet, out, llr_order=True, symmetric=True, values=values)


def _magnitude_unit(p: JointPMF) -> float:
    """Real value of one magnitude step, read off a PMF's values array at
    its first symbol of nonzero magnitude (1.0 without values)."""
    if p.values is None:
        return 1.0
    mags = np.abs(p.alphabet) - p.mag_offset
    nz = mags >= 1
    if not np.any(nz):
        return 1.0
    i = int(np.argmax(nz))
    return float(abs(p.values[i]) / mags[i])


def apply_quantizer(p: JointPMF, quantizer) -> JointPMF:
    """Push p(x, y) through a quantizer, aggregating masses per output cell.

    ``quantizer`` may be a QuantizerSpec (symmetric threshold or shift-based
    uniform quantizer acting on symbol magnitudes) or an explicit mapping
    from input symbol to output symbol (dict, or an array aligned with the
    alphabet).  Total mass is preserved exactly; no renormalization.  A
    QuantizerSpec's output has every cell +/-1 .. +/-2**(w-1) as a symbol,
    a cell no input reaches with zero mass, so a table built on it is
    indexed by cell as the decoder indexes it; a mapping's output has the
    symbols it reaches.
    """
    # local import: quantizers builds on this module
    from .quantizers import QuantizerSpec

    if isinstance(quantizer, QuantizerSpec):
        n = quantizer.n_cells
        cells = quantizer.map_symbols(p)
        out_alphabet = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
        inverse = np.where(cells < 0, cells + n, cells + n - 1)
        llr_order = p.llr_order
        symmetric = p.symmetric
    else:
        if isinstance(quantizer, dict):
            try:
                out_sym = np.array([quantizer[int(y)] for y in p.alphabet], dtype=np.int64)
            except KeyError as e:
                raise ValidationError(f"mapping is missing symbol {e.args[0]}") from None
        else:
            out_sym = np.asarray(quantizer, dtype=np.int64)
            if out_sym.shape != p.alphabet.shape:
                raise ValidationError("mapping array must align with the alphabet")
        llr_order = False
        symmetric = _mapping_output_symmetric(p, out_sym)
        out_alphabet, inverse = np.unique(out_sym, return_inverse=True)
    out_mass = np.zeros((2, out_alphabet.size))
    np.add.at(out_mass[0], inverse, p.mass[0])
    np.add.at(out_mass[1], inverse, p.mass[1])
    return JointPMF(out_alphabet, out_mass, llr_order=llr_order, symmetric=symmetric)


def _mapping_output_symmetric(p, out_sym):
    """Exact check whether an explicitly mapped output is still symmetric."""
    if not p.symmetric:
        return False
    out_alphabet, inverse = np.unique(out_sym, return_inverse=True)
    if not np.array_equal(out_alphabet[::-1], -out_alphabet):
        return False
    m = np.zeros((2, out_alphabet.size))
    np.add.at(m[0], inverse, p.mass[0])
    np.add.at(m[1], inverse, p.mass[1])
    return bool(np.allclose(m[0], m[1][::-1], rtol=0.0, atol=MASS_TOL))
