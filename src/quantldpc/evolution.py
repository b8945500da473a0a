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
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import workers
from .complexity import CN_VARIANTS, VN_VARIANTS
from .pmf import (
    ChannelModel,
    JointPMF,
    ValidationError,
    apply_quantizer,
    awgn_llr_pmf,
    mutual_information,
    symmetrize_vn_sum,
)
from .quantizers import (
    QuantizerSpec,
    TranslationTable,
    build_delta_grid,
    build_translation_table,
    design_channel_quantizer,
    design_nonuniform,
    design_uniform,
    llr_saturation_delta,
    phi_saturation_delta,
    threshold_edges_llr,
)

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
        if self.dc < 2:
            raise ValidationError("check degree must be at least 2")
        if self.dv < 1:
            raise ValidationError("variable degree must be at least 1")
        if not (2 <= self.w <= self.wphi):
            raise ValidationError("need 2 <= w <= wphi")
        if self.iterations < 0:
            raise ValidationError("iterations must be nonnegative")
        if self.cn_variant not in CN_VARIANTS:
            raise ValidationError(f"unknown cn_variant {self.cn_variant!r}")
        if self.vn_variant not in VN_VARIANTS:
            raise ValidationError(f"unknown vn_variant {self.vn_variant!r}")
        if (self.cn_variant == "omsq") != (self.vn_variant == "omsq"):
            raise ValidationError("the omsq baseline fixes both node variants together")
        if self.beta < 0:
            raise ValidationError("beta must be nonnegative")
        if self.uniform_grid_points < 2:
            raise ValidationError("uniform_grid_points must be at least 2")
        if self.uniform_warm_window < 0:
            raise ValidationError("uniform_warm_window must be nonnegative")

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

    @property
    def levels(self):
        return (1 << (self.width_w - 1)) - 1

    def map_llr(self, llr):
        llr = np.asarray(llr, dtype=np.float64)
        mags = np.floor(np.abs(llr) / self.step + 0.5)
        t = np.sign(llr) * np.minimum(mags, self.levels)
        return t.astype(np.int64)


@dataclass
class IterationDesign:
    """Quantizers, tables and achieved MI of one designed iteration."""

    mi_cn: float
    mi_vn: float
    cn_tables: TranslationTable | None = None
    cn_quantizer: QuantizerSpec | None = None
    vn_tables: dict | None = None           # keys "phi_ch", "phi_c"
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
    channel_quantizer: object
    channel_pmf: JointPMF
    channel_edges_llr: tuple | None
    per_iteration: list = field(default_factory=list)
    format_version: int = 1

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(_artifact_to_tree(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DesignArtifact":
        return _artifact_from_tree(json.loads(text))

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
    q0 = np.zeros(vmax + 1)
    q1 = np.zeros(vmax + 1)
    np.add.at(q0, vals, 2.0 * a)
    np.add.at(q1, vals, 2.0 * b)

    u = q0 + q1
    v = q0 - q1
    U, V = u, v
    for _ in range(dc - 2):
        U = np.convolve(U, u)
        V = np.convolve(V, v)
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


def _min_index_matrix(k):
    i = np.arange(k)
    return np.minimum(i[:, None], i[None, :]).ravel()


def _pairwise_min(acc0, acc1, b0, b1, idx):
    """One (sign product, min magnitude) combine of two folded PMFs."""
    k = acc0.size
    z0 = np.zeros(k)
    z1 = np.zeros(k)
    np.add.at(z0, idx, (np.outer(acc0, b0) + np.outer(acc1, b1)).ravel())
    np.add.at(z1, idx, (np.outer(acc0, b1) + np.outer(acc1, b0)).ravel())
    return z0, z1


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
    base0, base1 = 2.0 * a, 2.0 * b
    q0, q1 = base0.copy(), base1.copy()
    idx = _min_index_matrix(K)
    for _ in range(dc - 2):
        q0, q1 = _pairwise_min(q0, q1, base0, base1, idx)
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
    arr = np.zeros(2 * S + 1)
    np.add.at(arr, S + vals, 2.0 * a)
    np.add.at(arr, S - vals, 2.0 * b)
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
    adder_limit = 1 << (tab_c.width_wphi - 1 + max(1, math.ceil(math.log2(max(dv, 2)))) + 1)
    if span >= adder_limit:
        raise ValidationError("sum range exceeds the declared adder width")

    acc, S = h, Sh
    if dv > 1:
        c, Sc = _signed_translated(p_cn, tab_c)
        for _ in range(dv - 1):
            acc = np.convolve(acc, c)
            S += Sc
    alphabet = np.arange(-S, S + 1)
    mass = np.zeros((2, alphabet.size))
    mass[0] = 0.5 * acc
    mass[1] = 0.5 * acc[::-1]
    np.maximum(mass, 0.0, out=mass)
    mass /= mass.sum()
    raw = JointPMF(alphabet, mass, symmetric=True,
                   values=alphabet * tab_c.delta)
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
    idx = _min_index_matrix(M + 1)
    q0, q1 = base0.copy(), base1.copy()
    for _ in range(dc - 2):
        q0, q1 = _pairwise_min(q0, q1, base0, base1, idx)
    if beta:
        z0 = np.zeros(M + 1)
        z1 = np.zeros(M + 1)
        dest = np.maximum(np.arange(M + 1) - beta, 0)
        np.add.at(z0, dest, q0)
        np.add.at(z1, dest, q1)
        q0, q1 = z0, z1
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
        c = 2.0 * p_cn.mass[0]
        for _ in range(dv - 1):
            acc = np.convolve(acc, c)
            S += M
    # clip the sum back to +/-M
    clipped = np.zeros(2 * M + 1)
    lo = S - M
    clipped[:] = acc[lo:lo + 2 * M + 1]
    clipped[0] += acc[:lo].sum()
    clipped[-1] += acc[lo + 2 * M + 1:].sum()
    alphabet = np.arange(-M, M + 1)
    mass = np.vstack([0.5 * clipped, 0.5 * clipped[::-1]])
    row = 0.5 * (mass[0] + mass[1][::-1])   # exact symmetry
    mass = np.vstack([row, row[::-1]])
    mass /= mass.sum()
    return JointPMF(alphabet, mass, symmetric=True)


# ---------------------------------------------------------------------------
# decoder design
# ---------------------------------------------------------------------------

def _search_subgrid(grid, prev_best, half_width):
    """Window of a sorted grid around a previous optimum (None = full)."""
    if prev_best is None or half_width <= 0:
        return grid, False
    c = int(np.searchsorted(grid, prev_best))
    lo = max(0, c - half_width)
    hi = min(grid.size, c + half_width + 1)
    return grid[lo:hi], (lo > 0 or hi < grid.size)


def _cn_tables(p_in, wphi, step):
    """A CN stage's translation table at a step."""
    return build_translation_table(p_in, "cn_phi", step, wphi)


def _vn_tables(t_ch, p_cn, wphi, step):
    """A VN stage's translation tables at a step: channel and check messages."""
    return {"phi_ch": build_translation_table(t_ch, "vn_llr", step, wphi),
            "phi_c": build_translation_table(p_cn, "vn_llr", step, wphi)}


def _stage_share(cfg, uniform, kappa_search, tables_at, evolve, steps, share, k):
    """Steps ``share``, ``share + k``, ... of a stage's search, in order.

    Returns ``(best, raised, caught)``: ``best`` is ``(tables, spec, mi, q,
    index)`` of the share's first step of highest MI (None if none ran),
    ``raised`` the ``(index, exception)`` of a step that raised, which ends
    the share, and ``caught`` the ``(index, warning)`` of every warning a
    step gave.  Steps whose tables round to the same values share one
    evolved PMF.
    """
    best, raised, caught, cache = None, None, [], {}
    for i in range(share, len(steps), k):
        step = float(steps[i])
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            try:
                tables = tables_at(step)
                key = (tuple(t.values for t in tables.values()) if isinstance(tables, dict)
                       else tables.values)
                q = cache.get(key)
                if q is None:
                    q = cache[key] = evolve(tables)
                if uniform:
                    spec, mi = design_uniform(q, cfg.w, wphi=cfg.wphi,
                                              kappa_search=kappa_search, delta=step)
                else:
                    spec, mi = design_nonuniform(q, cfg.w, delta=step, prune_tol=cfg.prune_tol)
            except Exception as exc:
                raised = i, exc
        caught += [(i, w.message) for w in log]
        if raised:
            break
        if best is None or mi > best[2]:
            best = (tables, spec, mi, q, i)
    return best, raised, caught


def _design_stage(cfg, uniform, dstar, tables_at, evolve, prev_delta, *,
                  kappa_search=False, team=()):
    """One designed node stage: tables at a step, evolution, quantizer.

    ``tables_at(step)`` builds the stage's translation tables at a step
    size, ``evolve(tables)`` the node output PMF on them; each step's PMF
    is quantized to w bits by the threshold DP, or by the uniform search
    when ``uniform`` is set.  The steps tried are ``dstar`` alone or the
    ``delta_search_points`` grid around it (non-uniform), or the warm
    window of the ``uniform_grid_points`` grid around ``prev_delta``, with
    the full grid searched instead when the best step lands on the
    window's edge (uniform).  The first step of highest MI wins.

    A search of k > 1 steps is split over this process and up to k - 1
    workers of ``team`` (:func:`_stage_share`): step j goes to share j mod
    k, so every share gets small steps, whose saturated tables evolve the
    longest.  Of the shares' first maxima the highest MI wins, a tie going
    to the smallest step index, which is the step a serial scan keeps.  The
    steps' warnings are re-emitted in step order, and a step that raised
    raises here if no earlier step did, after the earlier steps' warnings.

    Returns ``(tables, QuantizerSpec, mi, quantized output PMF)``.
    """
    if uniform:
        grid = build_delta_grid(dstar, cfg.uniform_grid_points)
        steps, windowed = _search_subgrid(grid, prev_delta, cfg.uniform_warm_window)
    elif cfg.delta_search_points > 1:
        steps, windowed = build_delta_grid(dstar, cfg.delta_search_points), False
    else:
        steps, windowed = [dstar], False

    def search(steps):
        k = min(len(team) + 1, len(steps))
        args = (cfg, uniform, kappa_search, tables_at, evolve, steps)
        for j, worker in enumerate(team[:k - 1], 1):
            worker.send(*args, j, k)
        shares = [_stage_share(*args, 0, k)] + [w.reply() for w in team[:k - 1]]
        raised = min((r for _, r, _ in shares if r), key=lambda r: r[0], default=None)
        last = len(steps) if raised is None else raised[0]
        caught = sorted((c for _, _, cs in shares for c in cs), key=lambda c: c[0])
        for i, message in caught:
            if i <= last:
                warnings.warn(message, stacklevel=1)
        if raised:
            raise raised[1]
        return max(sorted((b for b, _, _ in shares), key=lambda b: b[4]), key=lambda b: b[2])

    tables, spec, mi, q, _ = search(steps)
    if windowed and (spec.delta <= steps[0] or spec.delta >= steps[-1]):
        tables, spec, mi, q, _ = search(grid)
    return tables, spec, mi, apply_quantizer(q, spec)


def design_decoder(cfg: EnsembleConfig):
    """Run discrete density evolution at the design SNR.

    Iteration 1 forwards the channel messages straight into the check
    nodes; every iteration then designs the variant-specific quantizers on
    the evolved distributions.  Returns the DesignArtifact and the MI
    trajectory, a list of (mi_cn, mi_vn) pairs.  The loop leaves early once
    mi_vn reaches 1 - 1e-6 or stalls for several iterations, so the
    artifact may cover fewer than ``cfg.iterations`` iterations.
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

    p_v2c = t_ch
    prev_cn_delta = None
    prev_vn_delta = None
    prev_mi_vn = None
    stall = 0
    dips = 0
    # workers for the stages' step scans: only where a stage scans several
    # steps, and none inside a daemonic process (a threshold probe)
    designed = {cfg.cn_variant, cfg.vn_variant} & {"comp", "comp_uni"}
    scans = "comp_uni" in designed or (designed and cfg.delta_search_points > 1)
    spare = workers.WORKERS - 1 if scans and cfg.iterations and workers.can_fork() else 0
    with workers.forked(_stage_share, spare) as team:
        for _ in range(cfg.iterations):
            rec = IterationDesign(mi_cn=0.0, mi_vn=0.0)
            if cfg.cn_variant == "min":
                p_c2v = cn_evolve_min(p_v2c, cfg.dc)
                rec.mi_cn = mutual_information(p_c2v)
            elif cfg.cn_variant == "omsq":
                p_c2v = _omsq_cn_evolve(p_v2c, cfg.dc, cfg.beta)
                rec.mi_cn = mutual_information(p_c2v)
            else:
                rec.cn_tables, rec.cn_quantizer, rec.mi_cn, p_c2v = _design_stage(
                    cfg, cfg.cn_variant == "comp_uni", phi_saturation_delta(p_v2c, cfg.wphi),
                    partial(_cn_tables, p_v2c, cfg.wphi),
                    partial(cn_evolve_comp, p_v2c, cfg.dc), prev_cn_delta,
                    kappa_search=True, team=team)
                prev_cn_delta = rec.cn_quantizer.delta

            if cfg.vn_variant == "omsq":
                p_v2c = _omsq_vn_evolve(p_c2v, t_ch, cfg.dv)
                rec.mi_vn = mutual_information(p_v2c)
            else:
                rec.vn_tables, rec.vn_quantizer, rec.mi_vn, p_v2c = _design_stage(
                    cfg, cfg.vn_variant == "comp_uni",
                    llr_saturation_delta([p_c2v, t_ch], cfg.wphi),
                    partial(_vn_tables, t_ch, p_c2v, cfg.wphi),
                    partial(vn_evolve, p_c2v, t_ch, cfg.dv), prev_vn_delta, team=team)
                prev_vn_delta = rec.vn_quantizer.delta

            artifact.per_iteration.append(rec)
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
    of :mod:`quantldpc.workers`, which reply with :func:`_probe`'s result.

    Each idle worker takes the first SNR of :func:`_speculate` that is
    neither known nor running; a verdict off the decision path is kept but
    never used.  With one worker the probes run in the sequential order.
    """
    verdicts, caught, running = {}, {}, {}
    while True:
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
            s = running.pop(worker)
            verdicts[s], caught[s] = worker.reply()
            idle.append(worker)
    for s in path:
        for message in caught[s]:
            warnings.warn(message, stacklevel=1)
    if snr is not None:
        raise verdicts[snr]
    status, snr_db = outcome
    return ThresholdResult(snr_db, status, tuple((s, verdicts[s]) for s in path))


def _probe(cfg, snr, target_mi):
    """One probe: does the design at ``snr`` reach ``target_mi``?  Returns
    (verdict, the design's warnings), or (exception, []) if it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _, traj = design_decoder(replace(cfg, design_ebn0_db=snr))
        except Exception as exc:
            return exc, []
    ok = bool(traj) and max(mi_vn for _, mi_vn in traj) >= target_mi
    return ok, [w.message for w in caught]


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
    holds the decision path only, its probes' warnings are re-emitted here
    in decision order, and an exception from a probe is raised only if the
    decision path reaches it (one raised by a probe off the path is
    dropped, as the sequential search never ran it; the warnings a probe
    gave before raising are lost).
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

def _f2s(x):
    return repr(float(x))


def _s2f(s):
    return float(s)


def _spec_to_tree(spec):
    if spec is None:
        return None
    if isinstance(spec, OmsqChannelQuantizer):
        return {"kind": "omsq_uniform_llr", "step": _f2s(spec.step),
                "width_w": spec.width_w}
    tree = {"kind": spec.kind, "out_width_w": spec.out_width_w,
            "delta": _f2s(spec.delta)}
    if spec.kind == "non_uniform":
        tree["thresholds"] = list(spec.thresholds)
    else:
        tree["shift_r"] = spec.shift_r
        tree["offset_kappa"] = spec.offset_kappa
    return tree


def _spec_from_tree(tree):
    if tree is None:
        return None
    if tree["kind"] == "omsq_uniform_llr":
        return OmsqChannelQuantizer(_s2f(tree["step"]), int(tree["width_w"]))
    if tree["kind"] == "non_uniform":
        return QuantizerSpec("non_uniform", int(tree["out_width_w"]),
                             delta=_s2f(tree["delta"]),
                             thresholds=tuple(tree["thresholds"]))
    return QuantizerSpec("uniform", int(tree["out_width_w"]),
                         delta=_s2f(tree["delta"]),
                         shift_r=int(tree["shift_r"]),
                         offset_kappa=int(tree["offset_kappa"]))


def _table_to_tree(tab):
    if tab is None:
        return None
    return {"values": list(tab.values), "width_wphi": tab.width_wphi,
            "delta": _f2s(tab.delta), "sign_rule": tab.sign_rule,
            "clipped": list(tab.clipped)}


def _table_from_tree(tree):
    if tree is None:
        return None
    return TranslationTable(tuple(tree["values"]), int(tree["width_wphi"]),
                            _s2f(tree["delta"]), sign_rule=bool(tree["sign_rule"]),
                            clipped=tuple(tree["clipped"]))


def _pmf_to_tree(p):
    return {
        "alphabet": [int(y) for y in p.alphabet],
        "mass": [[_f2s(v) for v in row] for row in p.mass],
        "llr_order": p.llr_order,
        "symmetric": p.symmetric,
        "mag_offset": p.mag_offset,
        "values": None if p.values is None else [_f2s(v) for v in p.values],
    }


def _pmf_from_tree(tree):
    mass = np.array([[_s2f(v) for v in row] for row in tree["mass"]])
    values = tree["values"]
    return JointPMF(np.array(tree["alphabet"], dtype=np.int64), mass,
                    llr_order=bool(tree["llr_order"]),
                    symmetric=bool(tree["symmetric"]),
                    mag_offset=int(tree["mag_offset"]),
                    values=None if values is None else [_s2f(v) for v in values])


#: how each EnsembleConfig field annotation is read back from an artifact;
#: float fields are written as repr strings so they round-trip exactly
_CONFIG_READERS = {"int": int, "str": str, "float": _s2f, "float | None": _s2f}


def _config_to_tree(cfg):
    tree = {}
    for f in fields(EnsembleConfig):
        v = getattr(cfg, f.name)
        tree[f.name] = _f2s(v) if v is not None and _CONFIG_READERS[f.type] is _s2f else v
    return tree


def _config_from_tree(tree):
    kwargs = {}
    for f in fields(EnsembleConfig):
        if f.name not in tree:
            if f.default is MISSING:
                raise ValidationError(f"artifact config has no {f.name!r}")
            continue    # a field added after the file was written: its default
        v = tree[f.name]
        kwargs[f.name] = None if v is None else _CONFIG_READERS[f.type](v)
    return EnsembleConfig(**kwargs)


def _artifact_to_tree(art):
    return {
        "format_version": art.format_version,
        "config": _config_to_tree(art.config),
        "channel_quantizer": _spec_to_tree(art.channel_quantizer),
        "channel_edges_llr": (None if art.channel_edges_llr is None
                              else [_f2s(e) for e in art.channel_edges_llr]),
        "channel_pmf": _pmf_to_tree(art.channel_pmf),
        "per_iteration": [
            {
                "cn_tables": _table_to_tree(r.cn_tables),
                "cn_quantizer": _spec_to_tree(r.cn_quantizer),
                "vn_tables": None if r.vn_tables is None else {
                    "phi_ch": _table_to_tree(r.vn_tables["phi_ch"]),
                    "phi_c": _table_to_tree(r.vn_tables["phi_c"]),
                },
                "vn_quantizer": _spec_to_tree(r.vn_quantizer),
                "mi_cn": _f2s(r.mi_cn),
                "mi_vn": _f2s(r.mi_vn),
            }
            for r in art.per_iteration
        ],
    }


def _artifact_from_tree(tree):
    if tree.get("format_version") != 1:
        raise ValidationError(f"unsupported artifact format {tree.get('format_version')!r}")
    per_iteration = []
    for r in tree["per_iteration"]:
        vt = r["vn_tables"]
        per_iteration.append(IterationDesign(
            mi_cn=_s2f(r["mi_cn"]), mi_vn=_s2f(r["mi_vn"]),
            cn_tables=_table_from_tree(r["cn_tables"]),
            cn_quantizer=_spec_from_tree(r["cn_quantizer"]),
            vn_tables=None if vt is None else {
                "phi_ch": _table_from_tree(vt["phi_ch"]),
                "phi_c": _table_from_tree(vt["phi_c"]),
            },
            vn_quantizer=_spec_from_tree(r["vn_quantizer"]),
        ))
    edges = tree["channel_edges_llr"]
    art = DesignArtifact(
        config=_config_from_tree(tree["config"]),
        channel_quantizer=_spec_from_tree(tree["channel_quantizer"]),
        channel_pmf=_pmf_from_tree(tree["channel_pmf"]),
        channel_edges_llr=None if edges is None else tuple(_s2f(e) for e in edges),
        per_iteration=per_iteration,
        format_version=1,
    )
    _check_loaded(art)
    return art


#: quantizer kind of each node variant's designed records (None: not designed)
_VARIANT_KIND = {"comp": "non_uniform", "comp_uni": "uniform", "min": None, "omsq": None}


def _check_loaded(art):
    """Reject an artifact whose records cannot belong to its config.

    Every table has one value per w-bit magnitude cell and fits the
    config's wphi; each node's quantizer kind (and whether it has tables)
    follows its variant; an artifact configured for iterations carries at
    least one record.
    """
    cfg = art.config
    if not art.per_iteration and cfg.iterations > 0:
        raise ValidationError(f"artifact configured for {cfg.iterations} iterations "
                              "carries no designed iterations")
    cells = 1 << (cfg.w - 1)
    for i, r in enumerate(art.per_iteration, 1):
        vn_tables = [None] if r.vn_tables is None else list(r.vn_tables.values())
        for node, variant, q, tables in (("cn", cfg.cn_variant, r.cn_quantizer, [r.cn_tables]),
                                         ("vn", cfg.vn_variant, r.vn_quantizer, vn_tables)):
            kind = _VARIANT_KIND[variant]
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
