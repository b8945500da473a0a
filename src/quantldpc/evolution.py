"""Discrete density evolution for quantized message-passing ensembles.

Tracks joint PMFs of (code bit, message) through check and variable node
updates of a regular (dv, dc) ensemble, redesigning the node quantizers at
every iteration.  Check nodes either work in the translated sum domain
(``comp`` with threshold quantization, ``comp_uni`` with the shift-based
uniform quantizer) or approximate the update by the extrinsic minimum
(``min``).  An offset-min-sum baseline (``omsq``) evolves plain uniform-LLR
integer messages with no designed tables at all.

Every designed node (``comp`` or ``comp_uni``, check or variable side) runs
one stage routine: build the node's translation tables at a step size,
evolve the node output on them, quantize it to w bits, and keep the first
step of highest MI.  The two quantizer styles differ only in the designer
(threshold DP or uniform shift/offset search) and in the steps tried.

The per-iteration designs are collected into a DesignArtifact that the
fixed-point decoder executes verbatim; de_threshold wraps the whole design
pipeline in a bisection over the design SNR.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import quantizers, workers
from .complexity import CN_VARIANTS, VN_VARIANTS, omsq_beta, vn_input_width
from .pmf import (
    ChannelModel,
    JointPMF,
    ValidationError,
    _aligned,
    apply_quantizer,
    awgn_llr_pmf,
    mutual_information,
    symmetrize_vn_sum,
)
from .quantizers import (
    QuantizerSpec,
    TranslationTable,
    build_delta_grid,
    design_channel_quantizer,
    design_nonuniform,
    design_uniform,
    raw_translation_values,
    round_translation_values,
    saturation_delta,
    threshold_edges_llr,
)
from .ranking import _cn_rank_masses, _stage_rank, _vn_rank_masses

#: mi_vn level treated as converged
EARLY_STOP_MI = 1.0 - 1e-6


@dataclass(frozen=True)
class EnsembleConfig:
    """Regular ensemble and design-procedure parameters.

    ``delta_search_points``: 0 leaves the non-uniform designs at the
    saturation step size (largest finite translation value lands exactly on
    the top of the wphi-bit range); n > 1 searches an n-point logarithmic
    grid around it for the MI-best step instead.  The uniform designs
    always search ``uniform_grid_points`` steps spanning a factor-64 range.
    """

    dc: int
    dv: int
    w: int
    wphi: int
    iterations: int
    cn_variant: str
    vn_variant: str
    design_ebn0_db: float
    rate: float
    channel_grid_size: int = 2000
    clip_llr: float | None = None
    prune_tol: float = 1e-12
    delta_search_points: int = 0
    uniform_grid_points: int = 256
    uniform_warm_window: int = 10
    beta: int = 1

    def __post_init__(self):
        # every int field takes a Python or numpy integer, stored as int; a
        # bool is refused, as True for dc or iterations is a mistake
        object.__setattr__(self, "beta", omsq_beta(self.beta))
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValidationError(f"{f.name} must be an integer, not {v!r}")
                object.__setattr__(self, f.name, int(v))
        if self.dc < 2:
            raise ValidationError("check degree must be at least 2")
        if self.dv < 1:
            raise ValidationError("variable degree must be at least 1")
        if not (2 <= self.w <= self.wphi):
            raise ValidationError("need 2 <= w <= wphi")
        for name in ("iterations", "delta_search_points", "uniform_warm_window"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.cn_variant not in CN_VARIANTS:
            raise ValidationError(f"unknown cn_variant {self.cn_variant!r}")
        if self.vn_variant not in VN_VARIANTS:
            raise ValidationError(f"unknown vn_variant {self.vn_variant!r}")
        if (self.cn_variant == "omsq") != (self.vn_variant == "omsq"):
            raise ValidationError("the omsq baseline fixes both node variants together")
        if self.uniform_grid_points < 2:
            raise ValidationError("uniform_grid_points must be at least 2")
        # a symmetric PMF's positive half holds mass 0.5, all pruned from 0.5 up
        if not 0.0 <= self.prune_tol < 0.5:
            raise ValidationError(f"prune_tol must lie in [0, 0.5), not {self.prune_tol!r}")
        self.channel_model()    # its rules check the SNR, rate, grid size and clip

    def channel_model(self) -> ChannelModel:
        return ChannelModel(self.design_ebn0_db, self.rate,
                            self.channel_grid_size, self.clip_llr)


@dataclass(frozen=True)
class OmsqChannelQuantizer:
    """Uniform LLR quantizer of the offset-min-sum baseline.

    Maps a real LLR to round-half-up(|L| / step) with the input sign,
    clipped to +/-(2**(w-1) - 1); zero is a valid output.
    """

    step: float
    width_w: int

    def __post_init__(self):
        if not (self.step > 0):
            raise ValidationError("step must be positive")
        if self.width_w < 2:
            raise ValidationError("output width must be at least 2 bits")

    @property
    def levels(self):
        return (1 << (self.width_w - 1)) - 1

    def map_llr(self, llr):
        llr = np.asarray(llr, dtype=np.float64)
        mags = np.minimum(np.floor(np.abs(llr) / self.step + 0.5), self.levels)
        return np.copysign(mags, llr, out=mags if mags.ndim else None).astype(np.int64)


@dataclass
class IterationDesign:
    """Quantizers, tables and achieved MI of one designed iteration."""

    mi_cn: float
    mi_vn: float
    cn_tables: TranslationTable | None = None
    cn_quantizer: QuantizerSpec | None = None
    vn_tables: dict[str, TranslationTable] | None = None    # keys "phi_ch", "phi_c"
    vn_quantizer: QuantizerSpec | None = None


@dataclass
class DesignArtifact:
    """Everything the fixed-point decoder needs, serializable as JSON.

    ``channel_edges_llr`` carries the channel quantizer cell boundaries in
    raw LLR units so a simulator can quantize real channel observations
    without regenerating the fine design grid.  ``per_iteration`` may be
    shorter than the configured iteration count when the design converged
    or plateaued early; executors reuse the last record beyond its end.
    """

    config: EnsembleConfig
    channel_quantizer: QuantizerSpec | OmsqChannelQuantizer
    channel_pmf: JointPMF
    channel_edges_llr: tuple | None
    per_iteration: list[IterationDesign] = field(default_factory=list)
    format_version: int = 1

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(_to_tree(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DesignArtifact":
        tree = json.loads(text)
        if tree.get("format_version") != 1:
            raise ValidationError(f"unsupported artifact format {tree.get('format_version')!r}")
        art = _from_tree(cls, tree, "file")
        _check_loaded(art)
        return art

    def save(self, path):
        with open(path, "w", encoding="ascii") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def load(cls, path) -> "DesignArtifact":
        with open(path, "r", encoding="ascii") as f:
            return cls.from_json(f.read())


# ---------------------------------------------------------------------------
# node evolution
# ---------------------------------------------------------------------------

def cn_evolve_comp(p_in: JointPMF, dc: int, table: TranslationTable) -> JointPMF:
    """Distribution of the translated check node sum over dc-1 edges.

    The output symbol is (sign product, sum of translated magnitudes) with
    the relevant bit being the XOR of the dc-1 participating bits.  Sign
    and magnitude parts decouple under the parity transform, so the dc-2
    pairwise convolutions reduce to two plain power-convolutions.  The
    output uses ``mag_offset=1``: symbols +/-(m+1) carry magnitude m, which
    keeps the two signs of a zero sum distinct.
    """
    if dc < 2:
        raise ValidationError("check degree must be at least 2")
    if not p_in.symmetric:
        raise ValidationError("check node evolution expects a symmetric PMF")
    vals = table.as_array()
    _, a, b = p_in.fold_positive()
    if vals.size != a.size:
        raise ValidationError("translation table does not match the message alphabet")

    # conditional on x=0: p(t=+k) = 2 p(x=0,+k), p(t=-k) = 2 p(x=0,-k)
    vmax = int(vals.max())
    q0 = np.bincount(vals, 2.0 * a, vmax + 1)
    q1 = np.bincount(vals, 2.0 * b, vmax + 1)

    u = q0 + q1
    v = q0 - q1
    U, V = _power_chain(u, u, dc - 2), _power_chain(v, v, dc - 2)
    even = 0.5 * (U + V)    # parity of sign bits even, conditioned on x=0
    odd = 0.5 * (U - V)

    n = U.size
    alphabet = np.concatenate([-np.arange(n, 0, -1), np.arange(1, n + 1)])
    mass = np.zeros((2, 2 * n))
    mass[0, n:] = 0.5 * even
    mass[0, :n] = 0.5 * odd[::-1]
    mass[1] = mass[0, ::-1]
    np.maximum(mass, 0.0, out=mass)   # convolution round-off dust
    mass /= mass.sum()
    values = np.sign(alphabet) * (np.abs(alphabet) - 1) * table.delta
    return JointPMF(alphabet, mass, llr_order=True, symmetric=True,
                    mag_offset=1, values=values)


def _power_chain(acc, kernel, times):
    """``acc`` convolved ``times`` times with ``kernel``, each step ``np.convolve``'s
    bit for bit (same ``ddot``s on the same operands, ``kernel`` reversed once
    into an aligned array; a longer kernel swaps the operands, as there)."""
    rev = _aligned(kernel.size)
    rev[:] = kernel[::-1]
    for _ in range(times):
        acc = np.correlate(acc, rev, "full") if rev.size <= acc.size else np.convolve(acc, kernel)
    return acc


def _min_chain(base0, base1, dc):
    """(sign product, minimum magnitude) of dc - 1 independent messages,
    each folded as ``base0``, ``base1`` (masses given x=0 of the positive
    and negative sign at each magnitude), by dc - 2 pairwise combines, each
    one product against [[base0, base1], [base1, base0]] and one
    ``bincount`` over both outputs."""
    k = base0.size
    i = np.arange(k)
    idx = np.minimum(i[:, None], i[None, :]).ravel()
    idx = np.concatenate([idx, idx + k])
    pair = np.array([[base0, base1], [base1, base0]])[:, :, None, :]
    q = np.array([base0, base1])
    for _ in range(dc - 2):
        prod = q[:, :, None] * pair
        q = np.bincount(idx, (prod[:, 0] + prod[:, 1]).ravel(), 2 * k).reshape(2, k)
    return q[0], q[1]


def cn_evolve_min(p_in: JointPMF, dc: int) -> JointPMF:
    """Min-approximation check node: sign product and extrinsic minimum.

    Stays on the input message alphabet; no translation or quantizer.
    """
    if dc < 2:
        raise ValidationError("check degree must be at least 2")
    if not p_in.symmetric:
        raise ValidationError("check node evolution expects a symmetric PMF")
    _, a, b = p_in.fold_positive()
    K = a.size
    q0, q1 = _min_chain(2.0 * a, 2.0 * b, dc)
    alphabet = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
    mass = np.zeros((2, 2 * K))
    mass[0, K:] = 0.5 * q0
    mass[0, :K] = 0.5 * q1[::-1]
    mass[1] = mass[0, ::-1]
    mass /= mass.sum()
    return JointPMF(alphabet, mass, llr_order=True, symmetric=True)


def _signed_translated(p: JointPMF, table: TranslationTable):
    """Dense PMF of the translated signed value, conditioned on x=0."""
    vals = table.as_array()
    _, a, b = p.fold_positive()
    if vals.size != a.size:
        raise ValidationError("translation table does not match the message alphabet")
    S = int(vals.max())
    # the x=0 masses are added first, then the x=1 masses, each in cell order
    arr = np.bincount(np.concatenate([S + vals, S - vals]),
                      np.concatenate([2.0 * a, 2.0 * b]), 2 * S + 1)
    return arr, S


def vn_evolve(p_cn: JointPMF, p_ch: JointPMF, dv: int, tables: dict) -> JointPMF:
    """Variable node update: translated adder sum, then symmetry repair.

    Convolves the channel translation with dv-1 check message translations
    on the signed integer grid (zero included), then applies
    :func:`symmetrize_vn_sum`, so the result lives on the zero-free
    sign-magnitude message domain.
    """
    if dv < 1:
        raise ValidationError("variable degree must be at least 1")
    tab_ch: TranslationTable = tables["phi_ch"]
    tab_c: TranslationTable = tables["phi_c"]
    if tab_ch.width_wphi != tab_c.width_wphi:
        raise ValidationError("translation tables disagree on the internal width")
    if tab_ch.delta != tab_c.delta:
        raise ValidationError("translation tables disagree on the step size")

    h, Sh = _signed_translated(p_ch, tab_ch)
    span = Sh + (dv - 1) * ((1 << (tab_c.width_wphi - 1)) - 1)
    if span >= 1 << (vn_input_width(dv, tab_c.width_wphi) - 1):
        raise ValidationError("sum range exceeds the declared adder width")

    acc, S = h, Sh
    if dv > 1:
        c, Sc = _signed_translated(p_cn, tab_c)
        acc, S = _power_chain(acc, c, dv - 1), S + (dv - 1) * Sc
    alphabet = np.arange(-S, S + 1)
    mass = np.zeros((2, alphabet.size))
    mass[0] = 0.5 * acc
    mass[1] = 0.5 * acc[::-1]
    np.maximum(mass, 0.0, out=mass)
    mass /= mass.sum()
    # symmetrize_vn_sum validates its output, which any fault here reaches
    raw = JointPMF(alphabet, mass, symmetric=True,
                   values=alphabet * tab_c.delta, validate=False)
    return symmetrize_vn_sum(raw)


# ---------------------------------------------------------------------------
# offset-min-sum baseline evolution
# ---------------------------------------------------------------------------

def _omsq_channel_design(fine: JointPMF, w: int):
    """Uniform channel step for the baseline, picked by MI grid search."""
    centers = fine.values
    spread = float(np.sqrt(np.sum(fine.p_y() * centers ** 2)))
    ref = spread / ((1 << (w - 1)) - 1)
    best = None
    for step in np.geomspace(ref / 32.0, 2.0 * ref, 200):
        quant = OmsqChannelQuantizer(float(step), w)
        quantized = apply_quantizer(fine, quant.map_llr(centers))
        mi = mutual_information(quantized)
        if best is None or mi > best[0]:
            best = (mi, quant, quantized)
    _, quant, quantized = best
    return quant, quantized


def _omsq_fold(p: JointPMF):
    """(sign bit, magnitude) split of a signed-alphabet PMF given x=0."""
    M = int(p.alphabet[-1])
    cond = 2.0 * p.mass[0]
    q0 = cond[M:].copy()          # symbols 0..M (zero counts as +)
    q1 = np.zeros(M + 1)
    q1[1:] = cond[:M][::-1]       # symbols -1..-M
    return q0, q1, M


def _omsq_cn_evolve(p_in: JointPMF, dc: int, beta: int) -> JointPMF:
    """Sign product and extrinsic min magnitude, offset by beta (floor 0)."""
    if dc < 2:
        raise ValidationError("check degree must be at least 2")
    base0, base1, M = _omsq_fold(p_in)
    q0, q1 = _min_chain(base0, base1, dc)
    if beta:
        dest = np.maximum(np.arange(M + 1) - beta, 0)
        q0, q1 = np.bincount(dest, q0, M + 1), np.bincount(dest, q1, M + 1)
    alphabet = np.arange(-M, M + 1)
    mass = np.zeros((2, alphabet.size))
    mass[0, M] = 0.5 * (q0[0] + q1[0])      # zero magnitude loses its sign
    mass[0, M + 1:] = 0.5 * q0[1:]
    mass[0, :M] = 0.5 * q1[1:][::-1]
    mass[1] = mass[0, ::-1]
    mass /= mass.sum()
    return JointPMF(alphabet, mass, symmetric=True)


def _omsq_vn_evolve(p_cn: JointPMF, p_ch: JointPMF, dv: int) -> JointPMF:
    """Saturating integer sum of the channel and dv-1 check messages."""
    if dv < 1:
        raise ValidationError("variable degree must be at least 1")
    M = int(p_ch.alphabet[-1])
    acc = 2.0 * p_ch.mass[0]
    S = M
    if dv > 1:
        acc, S = _power_chain(acc, 2.0 * p_cn.mass[0], dv - 1), S + (dv - 1) * M
    # clip the sum back to +/-M; the rows are one row mirrored, so exactly
    # symmetric
    lo = S - M
    clipped = acc[lo:lo + 2 * M + 1]
    clipped[0] += acc[:lo].sum()
    clipped[-1] += acc[lo + 2 * M + 1:].sum()
    mass = np.vstack([0.5 * clipped, 0.5 * clipped[::-1]])
    mass /= mass.sum()
    return JointPMF(np.arange(-M, M + 1), mass, symmetric=True)


# ---------------------------------------------------------------------------
# decoder design
# ---------------------------------------------------------------------------

def _search_window(grid, prev_best, half_width):
    """Grid indices of the window of a sorted grid around a previous
    optimum (every index if there is none)."""
    if prev_best is None or half_width <= 0:
        return np.arange(grid.size)
    c = int(np.searchsorted(grid, prev_best))
    return np.arange(max(0, c - half_width), min(grid.size, c + half_width + 1))


def _vn_tables(raw_ch, raw_c, wphi, step):
    """A VN stage's translation tables at a step, from the raw cell LLRs of
    the channel and the check messages."""
    return {"phi_ch": round_translation_values(raw_ch, step, wphi),
            "phi_c": round_translation_values(raw_c, step, wphi)}


@dataclass(frozen=True)
class StageResult:
    """One evaluated step of a stage search; ``pmf`` is what ``spec`` quantizes."""

    index: int
    tables: TranslationTable | dict[str, TranslationTable]
    spec: QuantizerSpec
    mi: float
    pmf: JointPMF


def _kept(results):
    """The first result of highest MI in grid-index order (a None is no result)."""
    return max(sorted((r for r in results if r is not None), key=lambda r: r.index),
               key=lambda r: r.mi, default=None)


def _stage_share(cfg, uniform, kappa_search, tables_at, evolve, grid, idx, ranker=None,
                 anchors=None):
    """Steps ``grid[idx]`` of a stage's search, in order.

    ``anchors``, if given, maps a grid index to the
    :class:`quantizers.Anchors` of its threshold DP (a new one for an index
    not yet in it).

    Returns ``(best, steps)``: ``best`` the :func:`_kept` of the steps'
    StageResults, ``steps`` the ``(grid index, workers.Report)`` of each
    step, its value the exception it raised (which ends the share) or None.

    With ``ranker`` set it returns ``ranker(grid[idx])`` instead: the
    ranking MI of each of those steps, from one batch.  If the ranker
    warned or raised, every one of them is nan, to be evaluated exactly.
    """
    if ranker is not None:
        ranked = workers.recorded(ranker, grid[idx])
        if ranked.warned or isinstance(ranked.value, Exception):
            return np.full(len(idx), math.nan)
        return np.asarray(ranked.value, dtype=np.float64)

    def design(i, step):
        tables = tables_at(step)
        q = evolve(tables)
        if uniform:
            spec, mi = design_uniform(q, cfg.w, wphi=cfg.wphi, kappa_search=kappa_search,
                                      delta=step)
        else:
            spec, mi = design_nonuniform(
                q, cfg.w, delta=step, prune_tol=cfg.prune_tol,
                anchors=None if anchors is None else anchors.setdefault(i, quantizers.Anchors()))
        return StageResult(i, tables, spec, mi, q)

    best, steps = None, []
    for i in idx.tolist():
        step = workers.recorded(design, i, float(grid[i]))
        if isinstance(step.value, Exception):
            return best, steps + [(i, step)]
        best = _kept([best, step.value])
        steps.append((i, workers.Report(None, step.warned)))
    return best, steps


def _design_stage(cfg, uniform, dstar, tables_at, evolve, prev_delta, *,
                  kappa_search=False, rank=None, team=(), anchors=None):
    """One designed node stage: tables at a step, evolution, quantizer.

    ``tables_at(step)`` builds the stage's translation tables at a step
    size, ``evolve(tables)`` the node output PMF on them; each step's PMF
    is quantized to w bits by the threshold DP, or by the uniform search
    when ``uniform`` is set.  The steps tried are ``dstar`` alone or the
    ``delta_search_points`` grid around it (non-uniform), or the warm
    window of the ``uniform_grid_points`` grid around ``prev_delta``
    (uniform), each named by its grid index (a single step is the grid of
    one).  When the kept step lands on the window's edge, the rest of the
    grid is searched too.  Every choice among steps is :func:`_kept`.

    A search of k > 1 steps is split over this process and up to k - 1
    workers of ``team`` (:func:`_stage_share`): share j receives the
    indices j, j + k, ... of the search, so every share gets small steps,
    whose saturated tables evolve the longest.  The steps' reports are
    replayed in grid-index order (:func:`workers.replayed`).

    ``anchors``, if given, holds the threshold DP's anchors of this stage
    by grid index (:func:`_stage_share`).  Only this process's share uses
    them; a worker's share runs without.

    ``rank``, if given, is ``(ranker, eps)``: ``ranker(steps)`` maps an
    array of steps to their ranking MIs in one batch, each within ``eps``
    of the MI ``evolve`` gives, or nan (``ranking._rank_steps``).  A search
    of several steps then first ranks them, one batch per share, and only
    the steps ranked within 2 eps of the best, or not finite, are evaluated
    on ``evolve`` as the exact search above.  The exact winner, and every
    step tying with it, ranks within 2 eps of the best, so the result is
    the exhaustive scan's; every returned table, spec, MI and PMF, and every
    warning and exception, comes from the steps evaluated exactly.

    Returns ``(tables, QuantizerSpec, mi, quantized output PMF)``.
    """
    points = cfg.uniform_grid_points if uniform else cfg.delta_search_points
    grid = build_delta_grid(dstar, points) if points > 1 else np.array([dstar])
    idx = _search_window(grid, prev_delta if uniform else None, cfg.uniform_warm_window)

    def split(idx, ranker=None):
        k = min(len(team) + 1, len(idx))
        args = (cfg, uniform, kappa_search, tables_at, evolve, grid)
        return workers.replayed(workers.spread(_stage_share, team, [
            (*args, idx[j::k], ranker, None if j else anchors) for j in range(k)]))

    def scan(idx):
        shares = split(idx)
        steps = sorted((step for _, share in shares for step in share), key=lambda s: s[0])
        workers.replayed([report for _, report in steps])
        return _kept(best for best, _ in shares)

    def search(idx):
        if rank is not None and len(idx) > 1:
            shares = split(idx, rank[0])
            ranked = np.empty(len(idx))
            for j, mi in enumerate(shares):
                ranked[j::len(shares)] = mi
            finite = np.isfinite(ranked)
            top = ranked[finite].max(initial=-math.inf)
            idx = idx[~finite | (ranked >= top - 2 * rank[1])]
        return scan(idx)

    best = search(idx)
    if idx.size < grid.size and best.index in (idx[0], idx[-1]):
        best = _kept([best, search(np.r_[0:idx[0], idx[-1] + 1:grid.size])])
    return best.tables, best.spec, best.mi, apply_quantizer(best.pmf, best.spec)


def _design_iteration(cfg, t_ch, state, team, anchors):
    """One iteration designed from the state the previous one left.

    ``state`` is ``(p_v2c, prev_cn_delta, prev_vn_delta)``: the VN output
    PMF and the step sizes the designed nodes chose last.  ``anchors`` maps
    "cn" and "vn" to the stages' threshold-DP anchors by grid index; they
    change how fast a stage is designed, never what.  Returns the
    iteration's record and the state it leaves.
    """
    p_v2c, prev_cn_delta, prev_vn_delta = state
    rec = IterationDesign(mi_cn=0.0, mi_vn=0.0)
    T = (1 << (cfg.wphi - 1)) - 1
    if cfg.cn_variant == "min":
        p_c2v = cn_evolve_min(p_v2c, cfg.dc)
        rec.mi_cn = mutual_information(p_c2v)
    elif cfg.cn_variant == "omsq":
        p_c2v = _omsq_cn_evolve(p_v2c, cfg.dc, cfg.beta)
        rec.mi_cn = mutual_information(p_c2v)
    else:
        # a uniform stage ranks its steps by FFT in one batch per share and
        # verifies the near-best on the chain; a threshold stage (the DP
        # prunes its tail, which the bound does not cover) scans exactly
        uniform = CN_VARIANTS[cfg.cn_variant] == "uniform"
        raw = raw_translation_values(p_v2c, "cn_phi")
        n = cfg.dc - 1
        rank = (_stage_rank(cfg, n, n * T + 1, partial(_cn_rank_masses, p_v2c, cfg.dc, T),
                            (raw,), True) if uniform else None)
        rec.cn_tables, rec.cn_quantizer, rec.mi_cn, p_c2v = _design_stage(
            cfg, uniform, saturation_delta([raw], cfg.wphi),
            # by the quantizers module's own binding: a partial sent to a worker
            # pickles its function by name, which fails if a tracer rebinds ours
            partial(quantizers.round_translation_values, raw, wphi=cfg.wphi),
            partial(cn_evolve_comp, p_v2c, cfg.dc), prev_cn_delta,
            kappa_search=True, rank=rank, team=team, anchors=anchors["cn"])
        prev_cn_delta = rec.cn_quantizer.delta

    if cfg.vn_variant == "omsq":
        p_v2c = _omsq_vn_evolve(p_c2v, t_ch, cfg.dv)
        rec.mi_vn = mutual_information(p_v2c)
    else:
        # a uniform VN stage is ranked as the CN stage is (kappa = 0); a
        # threshold one scans exactly
        uniform = VN_VARIANTS[cfg.vn_variant] == "uniform"
        raws = raw_translation_values(t_ch, "vn_llr"), raw_translation_values(p_c2v, "vn_llr")
        rank = (_stage_rank(cfg, cfg.dv, 2 * cfg.dv * T + 1,
                            partial(_vn_rank_masses, p_c2v, t_ch, cfg.dv, T), raws, False)
                if uniform else None)
        rec.vn_tables, rec.vn_quantizer, rec.mi_vn, p_v2c = _design_stage(
            cfg, uniform, saturation_delta(raws, cfg.wphi),
            partial(_vn_tables, *raws, cfg.wphi),
            partial(vn_evolve, p_c2v, t_ch, cfg.dv), prev_vn_delta, rank=rank, team=team,
            anchors=anchors["vn"])
        prev_vn_delta = rec.vn_quantizer.delta
    return rec, (p_v2c, prev_cn_delta, prev_vn_delta)


def _state_key(state):
    """Exact, hashable form of an iteration's state: the next iteration is
    a function of it alone."""
    p, cn_delta, vn_delta = state
    values = None if p.values is None else p.values.tobytes()
    return (p.alphabet.tobytes(), p.mass.tobytes(), p.llr_order, p.symmetric,
            p.mag_offset, values, cn_delta, vn_delta)


def design_decoder(cfg: EnsembleConfig):
    """Run discrete density evolution at the design SNR.

    Iteration 1 forwards the channel messages straight into the check
    nodes; every iteration then designs the variant-specific quantizers on
    the evolved distributions.  Returns the DesignArtifact and the MI
    trajectory, a list of (mi_cn, mi_vn) pairs.  The loop leaves early once
    mi_vn reaches 1 - 1e-6 or stalls for several iterations, so the
    artifact may cover fewer than ``cfg.iterations`` iterations.

    An iteration is a function of the state the previous one left: the VN
    output PMF (alphabet, masses, flags) and the step sizes last chosen.
    Once that state repeats exactly, after iterations s and t > s, the
    design has entered a cycle, and iterations t+1, t+2, ... would design
    records s+1, s+2, ... again bit for bit.  The loop then stops designing
    and replays records s+1..t periodically up to ``cfg.iterations``,
    running the same early-stop and stall rules on them and replaying each
    iteration's report (:func:`workers.replayed`); the artifact, trajectory
    and warnings are those of designing every iteration.  The artifact of a
    cycling design therefore holds replayed copies of records.
    """
    fine = awgn_llr_pmf(cfg.channel_model())
    if cfg.cn_variant == "omsq":
        chq, t_ch = _omsq_channel_design(fine, cfg.w)
        edges = None
    else:
        chq, t_ch = design_channel_quantizer(fine, cfg.w)
        edges = threshold_edges_llr(chq, fine)
    artifact = DesignArtifact(cfg, chq, t_ch, edges)
    trajectory = []

    state = (t_ch, None, None)
    designed = []       # Report(record, warnings) of every designed iteration
    seen = {}           # state key -> index of the iteration designed from it
    cycle = None        # index of the first record of the cycle, once found
    prev_mi_vn = None
    stall = 0
    dips = 0
    # the threshold DP's anchors of this run, by stage and grid index: never
    # part of the state, as they change no result
    anchors = {"cn": {}, "vn": {}}
    # workers for the stages' step scans: only where a stage scans several
    # steps, and none inside a daemonic process (a threshold probe)
    kinds = {CN_VARIANTS[cfg.cn_variant], VN_VARIANTS[cfg.vn_variant]}
    scans = "uniform" in kinds or ("non_uniform" in kinds and cfg.delta_search_points > 1)
    spare = workers.WORKERS - 1 if scans and cfg.iterations and workers.can_fork() else 0
    with workers.forked(_stage_share, spare) as team:
        for it in range(cfg.iterations):
            if cycle is None:
                out = workers.recorded(_design_iteration, cfg, t_ch, state, team, anchors)
                [(rec, state)] = workers.replayed([out])
                designed.append(workers.Report(rec, out.warned))
                key = _state_key(state)
                cycle = seen.get(key)
                seen[key] = it + 1
            else:
                report = designed[cycle + (it - cycle) % (len(designed) - cycle)]
                [rec] = workers.replayed([report])

            artifact.per_iteration.append(replace(rec))
            trajectory.append((rec.mi_cn, rec.mi_vn))

            if prev_mi_vn is not None and rec.mi_vn < prev_mi_vn - 1e-9:
                dips += 1
            if rec.mi_vn >= EARLY_STOP_MI:
                break
            if prev_mi_vn is not None and abs(rec.mi_vn - prev_mi_vn) < 1e-11:
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
            prev_mi_vn = rec.mi_vn
    if dips:
        warnings.warn(
            f"mi_vn decreased on {dips} of {len(trajectory)} iterations "
            "(quantizer redesign oscillation)", RuntimeWarning, stacklevel=2)
    return artifact, trajectory


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a DE threshold bisection.

    status "ok": ``snr_db`` is the smallest probed SNR that converges, at
    the requested resolution.  status "lo_boundary": the whole window
    converges, the true threshold lies at or below its lower edge.  status
    "no_convergence": nothing in the window converges.  ``probes`` records
    every (snr_db, converged) pair of the decision path, in decision order.
    """

    snr_db: float | None
    status: str
    probes: tuple = ()


def _bisection(lo, hi, resolution):
    """The threshold search: yields each SNR it needs, is sent that SNR's
    verdict, and returns (status, snr_db)."""
    if (yield lo):
        return "lo_boundary", lo
    if not (yield hi):
        return "no_convergence", None
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # adjacent floats: the window cannot shrink
            break
        if (yield mid):
            hi = mid
        else:
            lo = mid
    return "ok", hi


def _replay(lo, hi, resolution, verdicts):
    """Run :func:`_bisection` on the verdicts known so far.

    ``verdicts`` maps an SNR to its verdict, or to the exception its probe
    raised.  Returns (path, snr, outcome): the SNRs whose verdicts were
    used, in decision order, then either the SNR needed next (unknown, or
    known to have raised) with outcome None, or snr None and the search's
    (status, snr_db).
    """
    search = _bisection(lo, hi, resolution)
    path, snr = [], next(search)
    try:
        while snr in verdicts and not isinstance(verdicts[snr], BaseException):
            path.append(snr)
            snr = search.send(verdicts[snr])
    except StopIteration as stop:
        return path, None, stop.value
    return path, snr, None


def _speculate(lo, hi, resolution, verdicts):
    """SNRs the search may need, breadth-first over the unknown verdicts.

    The first is the SNR needed now; then come the next SNR under either
    verdict of it, and so on.  Branches end where the search finishes or
    reaches a probe that raised.
    """
    level = [verdicts]
    while level:
        deeper = []
        for assumed in level:
            snr = _replay(lo, hi, resolution, assumed)[1]
            if snr is not None and snr not in assumed:
                yield snr
                deeper += [{**assumed, snr: ok} for ok in (True, False)]
        level = deeper


def _speculative_bisection(lo, hi, resolution, idle, ready):
    """The bisection with its probes on the ``idle`` workers and ``ready``
    of :mod:`quantldpc.workers`, which reply with :func:`_probe`'s report.

    Each idle worker takes the first SNR of :func:`_speculate` that is
    neither known nor running; a verdict off the decision path is kept but
    never used.  With one worker the probes run in the sequential order.
    """
    reports, running = {}, {}
    while True:
        verdicts = {s: report.value for s, report in reports.items()}
        path, snr, outcome = _replay(lo, hi, resolution, verdicts)
        if snr is None or snr in verdicts:
            break
        for s in _speculate(lo, hi, resolution, verdicts):
            if not idle:
                break
            if s not in verdicts and s not in running.values():
                worker = idle.pop()
                worker.send(s)
                running[worker] = s
        for worker in ready(list(running)):
            reports[running.pop(worker)] = worker.reply()
            idle.append(worker)
    if snr is not None:
        path.append(snr)        # its probe raised: replaying the path raises it
    decided = workers.replayed([reports[s] for s in path])
    status, snr_db = outcome
    return ThresholdResult(snr_db, status, tuple(zip(path, decided)))


def _probe(cfg, snr, target_mi):
    """One probe: does the design at ``snr`` reach ``target_mi``?"""
    traj = design_decoder(replace(cfg, design_ebn0_db=snr))[1]
    return bool(traj) and max(mi_vn for _, mi_vn in traj) >= target_mi


def de_threshold(cfg: EnsembleConfig, target_mi: float, snr_window,
                 resolution_db: float = 0.005) -> ThresholdResult:
    """Bisection for the smallest design SNR whose DE trajectory converges.

    Each probe redesigns the full decoder at that SNR and asks whether
    mi_vn reaches ``target_mi`` within cfg.iterations.  The search starts
    at the window's lower edge, then its upper edge, then halves the
    window until it is at most ``resolution_db`` wide.

    Probes are pure functions of the SNR, so the workers of
    :mod:`quantldpc.workers` run them ahead: while the probe the search
    needs runs, idle workers run the probes it may need next under either
    verdict.  The result is that of the sequential search: ``probes``
    holds the decision path only, whose reports alone are replayed here
    (:func:`workers.replayed`), as the sequential search never ran the rest.
    """
    lo, hi = float(snr_window[0]), float(snr_window[1])
    resolution = float(resolution_db)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("snr window edges must be finite")
    if not lo < hi:
        raise ValidationError("snr window must satisfy lo < hi")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValidationError("resolution_db must be finite and positive")
    if not (0.9 < target_mi < 1.0):
        raise ValidationError("target_mi must lie in (0.9, 1)")

    probe = partial(_probe, cfg, target_mi=target_mi)
    with workers.forked(probe, workers.WORKERS) as team:
        return _speculative_bisection(lo, hi, resolution, team, workers.ready)


# ---------------------------------------------------------------------------
# artifact serialization (bit-exact: floats stored as repr strings)
# ---------------------------------------------------------------------------

#: JSON key order of the records whose keys do not follow their fields
_KEY_ORDER = {
    DesignArtifact: ("format_version", "config", "channel_quantizer",
                     "channel_edges_llr", "channel_pmf", "per_iteration"),
    IterationDesign: ("cn_tables", "cn_quantizer", "vn_tables", "vn_quantizer",
                      "mi_cn", "mi_vn"),
}

#: the fields a QuantizerSpec tree leaves out, by the spec's kind
_UNUSED = {"non_uniform": ("shift_r", "offset_kappa"), "uniform": ("thresholds",)}

#: how a scalar field is read back, by its annotation
_SCALARS = {"int": int, "bool": bool, "str": str, "float": float}

#: the record class a field annotation names
_RECORDS = {c.__name__: c for c in (EnsembleConfig, IterationDesign, JointPMF,
                                    QuantizerSpec, TranslationTable)}


def _keys(cls):
    """(key, annotation) of each field of a record's tree, in key order."""
    if cls is JointPMF:
        return [(s, "") for s in JointPMF.__slots__]
    hints = {f.name: f.type for f in fields(cls)}
    return [(k, hints[k]) for k in _KEY_ORDER.get(cls, hints)]


def _to_tree(x, hint=""):
    """JSON tree of an artifact value.

    A record (a dataclass, or a JointPMF by its slots) becomes a dict of
    its fields; a float, or any number in a field annotated float, a repr
    string; a tuple, list or array a list.
    """
    if isinstance(x, float) or (hint.startswith("float") and x is not None):
        return repr(float(x))
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (tuple, list)):
        return [_to_tree(v) for v in x]
    if isinstance(x, dict):
        return {k: _to_tree(v) for k, v in x.items()}
    if not (is_dataclass(x) or isinstance(x, JointPMF)):
        return x            # None, a bool, an int or a string
    tree = {"kind": "omsq_uniform_llr"} if isinstance(x, OmsqChannelQuantizer) else {}
    skip = _UNUSED[x.kind] if isinstance(x, QuantizerSpec) else ()
    for key, hint in _keys(type(x)):
        if key not in skip:
            tree[key] = _to_tree(getattr(x, key), hint)
    return tree


def _from_tree(cls, tree, name):
    """The record of class ``cls`` that :func:`_to_tree` wrote as the tree
    of field ``name``; a tree of kind omsq_uniform_llr is an
    OmsqChannelQuantizer.  A field whose key is missing keeps its default
    (a config field added after the file was written); a required one is
    rejected."""
    if tree.get("kind") == "omsq_uniform_llr":
        cls = OmsqChannelQuantizer
    if cls is not JointPMF:
        for f in fields(cls):
            if f.name not in tree and f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"artifact {name} has no {f.name!r}")
    return cls(**{k: _read(tree[k], hint, k) for k, hint in _keys(cls) if k in tree})


def _read(v, hint, name):
    """The value of field ``name`` from its tree ``v``, as the first
    alternative of the field's annotation ``hint`` reads it: a list or dict
    of its element type, a record, or a scalar.  Any other list is a tuple
    of numbers (as a JointPMF's slots, which have no annotation), in which a
    string is a float."""
    hint = hint.split(" | ")[0]
    if v is None:
        return None
    if hint.startswith("list["):
        return [_read(e, hint[5:-1], name) for e in v]
    if hint.startswith("dict[str, "):
        return {k: _read(e, hint[10:-1], name) for k, e in v.items()}
    if hint in _RECORDS:
        return _from_tree(_RECORDS[hint], v, name)
    if isinstance(v, list):
        return tuple(_read(e, "", name) for e in v)
    if hint in _SCALARS:
        return _SCALARS[hint](v)
    return float(v) if isinstance(v, str) else v


def _check_loaded(art):
    """Reject an artifact whose records cannot belong to its config.

    Every table has one value per w-bit magnitude cell and fits the
    config's wphi; each node's quantizer kind (and whether it has tables)
    follows its variant; VN tables are exactly phi_ch and phi_c; an
    artifact configured for iterations carries at least one record.  The
    channel quantizer has width w: the omsq baseline's, with no edges, or a
    threshold quantizer with one positive LLR edge per threshold t, the
    lower edge (t - 1) * delta of its grid bin within a relative 1e-9 (the
    grid's rounding leaves under 1e-12 up to 20000 bins; one bin of a grid
    under 1e9 bins is more).
    """
    cfg = art.config
    if not art.per_iteration and cfg.iterations > 0:
        raise ValidationError(f"artifact configured for {cfg.iterations} iterations "
                              "carries no designed iterations")
    cells = 1 << (cfg.w - 1)
    chq, edges = art.channel_quantizer, art.channel_edges_llr
    if cfg.cn_variant == "omsq":
        fits = isinstance(chq, OmsqChannelQuantizer) and chq.width_w == cfg.w and edges is None
    else:
        e = np.asarray(edges if isinstance(edges, tuple) else (), dtype=np.float64)
        fits = (isinstance(chq, QuantizerSpec) and chq.kind == "non_uniform"
                and chq.out_width_w == cfg.w and e.size == cells - 1 and e[0] > 0
                and np.allclose(e, np.subtract(chq.thresholds, 1) * chq.delta,
                                rtol=1e-9, atol=0.0))
    if not fits:
        raise ValidationError(f"channel quantizer does not fit {cfg.cn_variant!r} at w={cfg.w}")
    for i, r in enumerate(art.per_iteration, 1):
        if r.vn_tables is not None and sorted(r.vn_tables) != ["phi_c", "phi_ch"]:
            raise ValidationError(f"iteration {i}: vn tables {sorted(r.vn_tables)} "
                                  "are not phi_c and phi_ch")
        vn_tables = [None] if r.vn_tables is None else list(r.vn_tables.values())
        for node, kinds, variant, q, tables in (
                ("cn", CN_VARIANTS, cfg.cn_variant, r.cn_quantizer, [r.cn_tables]),
                ("vn", VN_VARIANTS, cfg.vn_variant, r.vn_quantizer, vn_tables)):
            kind = kinds[variant]
            got = None if q is None else q.kind
            if got != kind or (None in tables) != (kind is None):
                raise ValidationError(f"iteration {i}: {node} quantizer {got!r} and tables "
                                      f"do not fit variant {variant!r}")
            for t in filter(None, tables):
                if len(t.values) != cells:
                    raise ValidationError(f"iteration {i}: {node} table has "
                                          f"{len(t.values)} values, not {cells}")
                if t.width_wphi > cfg.wphi:
                    raise ValidationError(f"iteration {i}: {node} table width "
                                          f"{t.width_wphi} exceeds wphi={cfg.wphi}")
