import contextlib
import functools
import inspect
import itertools
import json
import math
import multiprocessing
import os
import random
import sys
import warnings
from dataclasses import MISSING, fields, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantldpc
from quantldpc import evolution, quantizers, ranking, workers
from quantldpc.codes import generate_regular_code
from quantldpc.complexity import CN_VARIANTS, VN_VARIANTS
from quantldpc.decoder import DecoderState
from quantldpc.evolution import (
    EARLY_STOP_MI,
    DesignArtifact,
    EnsembleConfig,
    IterationDesign,
    OmsqChannelQuantizer,
    ThresholdResult,
    _omsq_channel_design,
    _omsq_cn_evolve,
    _omsq_vn_evolve,
    _search_window,
    cn_evolve_comp,
    cn_evolve_min,
    de_threshold,
    design_decoder,
    vn_evolve,
)
from quantldpc.pmf import (
    ChannelModel,
    JointPMF,
    ValidationError,
    _magnitude_unit,
    apply_quantizer,
    awgn_llr_pmf,
    mutual_information,
    symmetrize_vn_sum,
)
from quantldpc.quantizers import (
    QuantizerSpec,
    TranslationTable,
    _dense_folded,
    _uniform_sweep,
    build_delta_grid,
    build_translation_table,
    design_channel_quantizer,
    design_nonuniform,
    design_uniform,
    llr_saturation_delta,
    phi_saturation_delta,
    threshold_edges_llr,
)
from quantldpc.sim import simulate_point
from artifact_oracle import check_against_oracle
from support import alarm


@pytest.fixture(autouse=True)
def designs_serialize_as_the_field_by_field_writer(monkeypatch):
    """Every artifact design_decoder makes in these tests is written and
    read back as the serializers that listed each field did."""
    design = evolution.design_decoder

    def checked(cfg):
        artifact, traj = design(cfg)
        check_against_oracle(artifact)
        return artifact, traj

    monkeypatch.setattr(evolution, "design_decoder", checked)
    monkeypatch.setitem(globals(), "design_decoder", checked)


def message_pmf(seed=0, half=4):
    rng = np.random.default_rng(seed)
    raw = rng.random(half) + 0.05
    frac = np.sort(rng.uniform(0.55, 0.98, size=half))
    a = raw * frac / (2 * raw.sum())
    b = raw * (1 - frac) / (2 * raw.sum())
    row0 = np.concatenate([b[::-1], a])
    mass = np.vstack([row0, row0[::-1]])
    alphabet = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    return JointPMF(alphabet, mass, llr_order=True, symmetric=True)


def brute_cn(p, dc, combine, mags_of):
    """Reference check node evolution by explicit tuple enumeration.

    ``combine`` folds a list of magnitudes into the output magnitude;
    ``mags_of`` maps the input symbol magnitude to its combining value.
    Returns a dict (x_out, out_symbol) -> probability.
    """
    half = p.alphabet[p.alphabet > 0]
    out = {}
    symbols = list(p.alphabet)
    idx = {s: i for i, s in enumerate(symbols)}
    for combo in itertools.product(symbols, repeat=dc - 1):
        for bits in itertools.product((0, 1), repeat=dc - 1):
            pr = 1.0
            for s, x in zip(combo, bits):
                pr *= p.mass[x, idx[s]]
            if pr == 0.0:
                continue
            x_out = 0
            for x in bits:
                x_out ^= x
            sign = 1
            for s in combo:
                sign *= 1 if s > 0 else -1
            mag = combine([mags_of(abs(s)) for s in combo])
            key = (x_out, sign, mag)
            out[key] = out.get(key, 0.0) + pr
    return out


def test_cn_comp_matches_enumeration_dc3():
    p = message_pmf(seed=1)
    tab = TranslationTable((9, 5, 2, 0), 6, 0.25)
    got = cn_evolve_comp(p, 3, tab)
    vals = tab.as_array()
    ref = brute_cn(p, 3, combine=sum, mags_of=lambda m: int(vals[m - 1]))
    for (x, sign, mag), pr in ref.items():
        sym = sign * (mag + 1)
        j = int(np.searchsorted(got.alphabet, sym))
        assert got.alphabet[j] == sym
        assert got.mass[x, j] == pytest.approx(pr, abs=1e-14)
    assert got.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert got.mag_offset == 1


def test_cn_comp_matches_enumeration_dc4():
    p = message_pmf(seed=2, half=3)
    tab = TranslationTable((7, 3, 1), 6, 0.5)
    got = cn_evolve_comp(p, 4, tab)
    vals = tab.as_array()
    ref = brute_cn(p, 4, combine=sum, mags_of=lambda m: int(vals[m - 1]))
    total = np.zeros_like(got.mass)
    for (x, sign, mag), pr in ref.items():
        sym = sign * (mag + 1)
        j = int(np.searchsorted(got.alphabet, sym))
        total[x, j] += pr
    assert np.allclose(got.mass, total, atol=1e-14)


def test_cn_min_matches_enumeration_dc3():
    p = message_pmf(seed=3)
    got = cn_evolve_min(p, 3)
    ref = brute_cn(p, 3, combine=min, mags_of=lambda m: m)
    total = np.zeros_like(got.mass)
    for (x, sign, mag), pr in ref.items():
        j = int(np.searchsorted(got.alphabet, sign * mag))
        total[x, j] += pr
    assert np.allclose(got.mass, total, atol=1e-14)


def test_cn_min_degree_two_is_identity():
    # with dc=2 each output repeats the single other incoming message
    p = message_pmf(seed=4)
    got = cn_evolve_min(p, 2)
    assert np.array_equal(got.alphabet, p.alphabet)
    assert np.allclose(got.mass, p.mass, atol=1e-14)


def test_cn_mi_degrades_with_degree():
    p = message_pmf(seed=5, half=6)
    tab = TranslationTable((20, 11, 6, 3, 1, 0), 8, 0.1)
    mis = [mutual_information(cn_evolve_comp(p, dc, tab)) for dc in (2, 3, 4, 5)]
    assert all(x > y - 1e-12 for x, y in zip(mis, mis[1:]))
    mis_min = [mutual_information(cn_evolve_min(p, dc)) for dc in (2, 3, 4, 5)]
    assert all(x > y - 1e-12 for x, y in zip(mis_min, mis_min[1:]))


def test_cn_min_never_below_comp_output_mi():
    # the min rule discards reliability mass; with a fine translation the
    # comp rule should carry at least as much information
    p = message_pmf(seed=6, half=4)
    tab = TranslationTable((60, 25, 9, 0), 8, 0.02)
    mi_comp = mutual_information(cn_evolve_comp(p, 8, tab))
    mi_min = mutual_information(cn_evolve_min(p, 8))
    assert mi_min <= mi_comp + 1e-9


def brute_vn(p_cn, p_ch, dv, tab_ch, tab_c):
    """Reference variable node sum distribution by enumeration (dense)."""
    vch = tab_ch.as_array()
    vc = tab_c.as_array()
    S = int(vch.max()) + (dv - 1) * int(vc.max())
    acc = {0: {}, 1: {}}
    ch_syms = list(p_ch.alphabet)
    cn_syms = list(p_cn.alphabet)
    for x in (0, 1):
        px = 0.5
        for combo in itertools.product(cn_syms, repeat=dv - 1):
            base = px
            for s in combo:
                j = int(np.searchsorted(p_cn.alphabet, s))
                base *= p_cn.mass[x, j] / px
            if base == 0.0:
                continue
            t_cn = sum(int(np.sign(s)) * int(vc[abs(s) - 1]) for s in combo)
            for s_ch in ch_syms:
                j = int(np.searchsorted(p_ch.alphabet, s_ch))
                pr = base * p_ch.mass[x, j] / px
                if pr == 0.0:
                    continue
                t = t_cn + int(np.sign(s_ch)) * int(vch[abs(s_ch) - 1])
                acc[x][t] = acc[x].get(t, 0.0) + pr
    alphabet = np.arange(-S, S + 1)
    mass = np.zeros((2, alphabet.size))
    for x in (0, 1):
        for t, pr in acc[x].items():
            mass[x, t + S] += pr
    return alphabet, mass


@pytest.mark.parametrize("dv", [2, 3])
def test_vn_matches_enumeration(dv):
    p_ch = message_pmf(seed=7)
    p_cn = message_pmf(seed=8)
    tab_ch = TranslationTable((11, 6, 3, 1), 6, 0.2)
    tab_c = TranslationTable((9, 4, 2, 0), 6, 0.2)
    got = vn_evolve(p_cn, p_ch, dv, {"phi_ch": tab_ch, "phi_c": tab_c})

    alphabet, mass = brute_vn(p_cn, p_ch, dv, tab_ch, tab_c)
    ref = JointPMF(alphabet, mass / mass.sum(), values=alphabet * 0.2)
    from quantldpc.pmf import symmetrize_vn_sum
    ref_sym = symmetrize_vn_sum(ref)

    # alphabets can differ in span when tails are empty; compare by symbol
    for sym, m0, m1 in zip(ref_sym.alphabet, ref_sym.mass[0], ref_sym.mass[1]):
        j = np.searchsorted(got.alphabet, sym)
        if j < got.n_symbols and got.alphabet[j] == sym:
            assert got.mass[0, j] == pytest.approx(m0, abs=1e-13)
            assert got.mass[1, j] == pytest.approx(m1, abs=1e-13)
        else:
            assert m0 == pytest.approx(0.0, abs=1e-15)


def test_vn_rejects_mismatched_tables():
    p = message_pmf(seed=9)
    t1 = TranslationTable((9, 5, 2, 0), 6, 0.25)
    t2 = TranslationTable((9, 5, 2, 0), 8, 0.25)
    with pytest.raises(ValidationError, match="width"):
        vn_evolve(p, p, 3, {"phi_ch": t1, "phi_c": t2})
    t3 = TranslationTable((9, 5, 2, 0), 6, 0.5)
    with pytest.raises(ValidationError, match="step"):
        vn_evolve(p, p, 3, {"phi_ch": t1, "phi_c": t3})


def base_cfg(**kw):
    args = dict(dc=4, dv=3, w=3, wphi=6, iterations=12, cn_variant="comp",
                vn_variant="comp", design_ebn0_db=3.0, rate=0.5)
    args.update(kw)
    return EnsembleConfig(**args)


#: every (cn, vn) pair with at least one designed node
DESIGNED_PAIRS = [(cn, vn) for cn in ("comp", "comp_uni", "min")
                  for vn in ("comp", "comp_uni")]


def test_config_validation():
    with pytest.raises(ValidationError):
        base_cfg(cn_variant="sum_product")
    with pytest.raises(ValidationError):
        base_cfg(cn_variant="omsq", vn_variant="comp")
    with pytest.raises(ValidationError):
        base_cfg(vn_variant="omsq")
    with pytest.raises(ValidationError):
        base_cfg(w=9, wphi=8)
    with pytest.raises(ValidationError):
        base_cfg(dc=1)


@pytest.mark.parametrize("prune_tol", [math.nan, math.inf, -math.inf, 0.5, 1.0, -1e-12])
def test_config_rejects_a_prune_tol_outside_zero_to_one_half(prune_tol):
    # a symmetric PMF's positive half holds mass 0.5: from 0.5 up (and at
    # nan or inf) _folded_prune folded the whole tail and the design came
    # out degenerate
    with pytest.raises(ValidationError, match="prune_tol must lie in"):
        base_cfg(prune_tol=prune_tol)
    assert base_cfg(prune_tol=0.0).prune_tol == 0.0
    assert base_cfg(prune_tol=0.4999).prune_tol == 0.4999


@pytest.mark.parametrize("beta", [0.5, -1, True, 2.0, "1"])
def test_config_rejects_a_beta_that_is_not_a_nonnegative_int(beta):
    # 0.5 used to validate and then fail inside design_decoder with an IndexError
    with pytest.raises(ValidationError, match="beta must be a nonnegative integer"):
        base_cfg(cn_variant="omsq", vn_variant="omsq", beta=beta)


def test_config_takes_a_numpy_int_beta_as_an_int():
    cfg = base_cfg(cn_variant="omsq", vn_variant="omsq", beta=np.int64(2))
    assert type(cfg.beta) is int and cfg.beta == 2
    assert cfg == base_cfg(cn_variant="omsq", vn_variant="omsq", beta=2)
    assert json.loads(design_decoder(replace(cfg, iterations=1))[0].to_json())["config"]["beta"] == 2


@pytest.mark.parametrize("field,value", [
    ("dc", 6.5), ("iterations", 2.5), ("uniform_grid_points", 3.5), ("w", 3.0),
    ("iterations", True), ("dv", "3"), ("channel_grid_size", None)])
def test_config_rejects_an_int_field_that_is_not_an_integer(field, value):
    # 6.5, 2.5 and 3.5 used to validate and then fail inside design_decoder
    # with a TypeError; a bool is refused too
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        base_cfg(**{field: value})


def test_config_takes_numpy_ints_as_ints_and_artifacts_still_load():
    ints = [f.name for f in fields(EnsembleConfig) if f.type == "int"]
    assert {"dc", "iterations", "uniform_grid_points", "beta"} <= set(ints)
    cfg = base_cfg(**{name: np.int32(getattr(base_cfg(), name)) for name in ints})
    assert cfg == base_cfg() and all(type(getattr(cfg, name)) is int for name in ints)
    artifact, _ = design_decoder(replace(cfg, iterations=2))
    text = artifact.to_json()
    assert DesignArtifact.from_json(text).to_json() == text


@pytest.mark.parametrize("cn,vn", [("comp", "comp"), ("comp_uni", "comp_uni"),
                                   ("min", "comp"), ("omsq", "omsq")])
def test_design_converges_above_threshold(cn, vn):
    cfg = base_cfg(cn_variant=cn, vn_variant=vn, design_ebn0_db=4.0)
    artifact, traj = design_decoder(cfg)
    assert len(traj) <= cfg.iterations
    assert all(0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 for a, b in traj)
    assert traj[-1][1] > 0.999  # early stop fired before the budget
    assert len(artifact.per_iteration) == len(traj)
    if cn == "omsq":
        assert isinstance(artifact.channel_quantizer, OmsqChannelQuantizer)
        assert artifact.channel_edges_llr is None
    else:
        assert len(artifact.channel_edges_llr) == 2 ** (cfg.w - 1) - 1


def test_design_trajectory_mostly_monotone():
    cfg = base_cfg(design_ebn0_db=2.2, iterations=30)
    _, traj = design_decoder(cfg)
    vn = [b for _, b in traj]
    # DE at a workable SNR should improve iteration over iteration
    assert vn[0] < vn[-1]
    drops = sum(1 for x, y in zip(vn, vn[1:]) if y < x - 1e-9)
    assert drops == 0


def test_artifact_roundtrip_is_bit_exact():
    cfg = base_cfg(iterations=3)
    artifact, _ = design_decoder(cfg)
    text = artifact.to_json()
    back = DesignArtifact.from_json(text)
    assert back.to_json() == text
    assert back.config == artifact.config
    assert np.array_equal(back.channel_pmf.mass, artifact.channel_pmf.mass)
    assert back.channel_edges_llr == artifact.channel_edges_llr
    for a, b in zip(artifact.per_iteration, back.per_iteration):
        assert a.mi_cn == b.mi_cn and a.mi_vn == b.mi_vn
        assert a.cn_quantizer == b.cn_quantizer
        assert a.cn_tables.values == b.cn_tables.values
        assert a.cn_tables.delta == b.cn_tables.delta
        assert a.vn_tables["phi_ch"].values == b.vn_tables["phi_ch"].values


@pytest.mark.parametrize("cn,vn", DESIGNED_PAIRS + [("omsq", "omsq")])
def test_artifact_roundtrip_is_structural(cn, vn, tmp_path):
    artifact, _ = design_decoder(base_cfg(cn_variant=cn, vn_variant=vn, iterations=3))
    path = tmp_path / "design.json"
    artifact.save(path)
    back = DesignArtifact.load(path)
    assert back.to_json() == artifact.to_json()
    for f in fields(DesignArtifact):
        got, want = getattr(back, f.name), getattr(artifact, f.name)
        if f.name != "channel_pmf":
            # config, quantizers, edges and every IterationDesign field
            assert type(got) is type(want) and got == want, f.name
            continue
        for slot in JointPMF.__slots__:
            a, b = getattr(got, slot), getattr(want, slot)
            assert type(a) is type(b), slot
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), slot
            else:
                assert a == b, slot
    for a, b in zip(back.per_iteration, artifact.per_iteration):
        assert type(a) is IterationDesign
        assert type(a.mi_cn) is type(b.mi_cn) and type(a.mi_vn) is type(b.mi_vn)
        if b.vn_tables is not None:
            assert list(a.vn_tables) == list(b.vn_tables)


def test_vn_evolve_values_keep_the_signed_unit(monkeypatch):
    # symmetrize_vn_sum labels its output with the unit of vn_evolve's raw
    # adder sum; on that sum it equals values[0] / alphabet[0] bit for bit
    raw_sums = []

    def spy(raw):
        raw_sums.append(raw)
        return symmetrize_vn_sum(raw)

    monkeypatch.setattr(evolution, "symmetrize_vn_sum", spy)
    fine = awgn_llr_pmf(ChannelModel(ebn0_db=3.3, rate=0.841, grid_size=600))
    _, p_ch = design_channel_quantizer(fine, 4)
    for step in build_delta_grid(llr_saturation_delta([p_ch], 8), 256):
        tabs = {key: build_translation_table(p_ch, "vn_llr", float(step), 8)
                for key in ("phi_ch", "phi_c")}
        out = vn_evolve(p_ch, p_ch, 3, tabs)
        raw = raw_sums[-1]
        unit = float((raw.values[raw.alphabet != 0] / raw.alphabet[raw.alphabet != 0])[0])
        assert np.array_equal(out.values, out.alphabet.astype(np.float64) * unit)
    assert len(raw_sums) == 256


@pytest.mark.parametrize("side", ["channel", "check"])
def test_vn_evolve_rejects_a_nan_input_mass(side):
    # the adder sum is built unchecked; the symmetrized output's checks
    # still reject a nan mass on either input (on a positive symbol: the
    # evolution reads the positive half)
    p = message_pmf()
    mass = p.mass.copy()
    mass[0, -2] = np.nan
    bad = JointPMF(p.alphabet, mass, llr_order=True, symmetric=True, validate=False)
    tabs = {key: TranslationTable((1, 2, 3, 4), 4, 0.5) for key in ("phi_ch", "phi_c")}
    p_cn, p_ch = (p, bad) if side == "channel" else (bad, p)
    with pytest.raises(ValidationError, match="mass sums to nan"):
        vn_evolve(p_cn, p_ch, 3, tabs)


def test_vn_evolve_rejects_an_adder_sum_of_one_symbol():
    # all-zero tables leave the adder sum one symbol, 0: the unchecked sum
    # must still fail loudly
    p = message_pmf()
    tabs = {key: TranslationTable((0, 0, 0, 0), 2, 4.0) for key in ("phi_ch", "phi_c")}
    with pytest.raises(ValidationError, match="alphabet must hold at least two symbols"):
        vn_evolve(p, p, 2, tabs)


def test_artifact_roundtrip_keeps_every_config_field():
    cfg = base_cfg(iterations=1, uniform_warm_window=3, clip_llr=30.0, beta=2)
    artifact, _ = design_decoder(cfg)
    back = DesignArtifact.from_json(artifact.to_json())
    assert back.config == artifact.config
    assert back.config.uniform_warm_window == 3


def test_artifact_without_newer_config_field_loads_its_default():
    # files written before uniform_warm_window was serialized lack the key
    artifact, _ = design_decoder(base_cfg(iterations=1))
    tree = json.loads(artifact.to_json())
    del tree["config"]["uniform_warm_window"]
    back = DesignArtifact.from_json(json.dumps(tree))
    assert back.config.uniform_warm_window == 10
    del tree["config"]["dc"]
    with pytest.raises(ValidationError, match="'dc'"):
        DesignArtifact.from_json(json.dumps(tree))


def test_artifact_with_a_nan_prune_tol_fails_to_load():
    tree = json.loads(design_decoder(base_cfg(iterations=1))[0].to_json())
    tree["config"]["prune_tol"] = "nan"
    with pytest.raises(ValidationError, match="prune_tol must lie in"):
        DesignArtifact.from_json(json.dumps(tree))


def test_artifact_roundtrip_file(tmp_path):
    cfg = base_cfg(iterations=2, cn_variant="omsq", vn_variant="omsq")
    artifact, _ = design_decoder(cfg)
    path = tmp_path / "design.json"
    artifact.save(path)
    back = DesignArtifact.load(path)
    assert back.to_json() == artifact.to_json()
    assert isinstance(back.channel_quantizer, OmsqChannelQuantizer)
    assert back.channel_quantizer.step == artifact.channel_quantizer.step


def test_artifact_rejects_unknown_version(tmp_path):
    cfg = base_cfg(iterations=1)
    artifact, _ = design_decoder(cfg)
    tree = json.loads(artifact.to_json())
    tree["format_version"] = 99
    with pytest.raises(ValidationError, match="unsupported artifact format"):
        DesignArtifact.from_json(json.dumps(tree))


def _edited(artifact, edit):
    """The artifact's JSON after ``edit`` changed its tree in place."""
    tree = json.loads(artifact.to_json())
    edit(tree)
    return json.dumps(tree)


@pytest.fixture(scope="module")
def loaded_pairs():
    """A small designed artifact per node-variant pair, for hand edits."""
    return {(cn, vn): design_decoder(base_cfg(cn_variant=cn, vn_variant=vn, iterations=2))[0]
            for cn, vn in (("comp", "comp"), ("comp_uni", "comp_uni"), ("min", "comp"),
                           ("omsq", "omsq"))}


def test_artifact_load_rejects_a_table_of_the_wrong_length(loaded_pairs):
    art = loaded_pairs["comp", "comp"]
    text = _edited(art, lambda t: t["per_iteration"][1]["vn_tables"]["phi_c"]["values"].pop())
    with pytest.raises(ValidationError, match="iteration 2: vn table has 3 values, not 4"):
        DesignArtifact.from_json(text)
    text = _edited(art, lambda t: t["per_iteration"][0]["cn_tables"]["values"].append(0))
    with pytest.raises(ValidationError, match="iteration 1: cn table has 5 values"):
        DesignArtifact.from_json(text)


def test_artifact_load_rejects_a_table_wider_than_wphi(loaded_pairs):
    art = loaded_pairs["comp_uni", "comp_uni"]

    def widen(tree):
        tree["per_iteration"][0]["vn_tables"]["phi_ch"]["width_wphi"] = 7
    with pytest.raises(ValidationError, match="width 7 exceeds wphi=6"):
        DesignArtifact.from_json(_edited(art, widen))


@pytest.mark.parametrize("pair,node,kind", [
    (("comp", "comp"), "cn", "uniform"),            # non_uniform expected
    (("comp_uni", "comp_uni"), "vn", "non_uniform"),  # uniform expected
])
def test_artifact_load_rejects_a_quantizer_of_the_wrong_kind(loaded_pairs, pair, node, kind):
    art = loaded_pairs[pair]

    def swap(tree):
        q = tree["per_iteration"][0][f"{node}_quantizer"]
        q.update(kind=kind, thresholds=[1, 2, 3], shift_r=1, offset_kappa=0)
    with pytest.raises(ValidationError, match=f"iteration 1: {node} quantizer '{kind}'"):
        DesignArtifact.from_json(_edited(art, swap))


def test_artifact_load_rejects_a_designed_node_on_a_min_or_omsq_variant(loaded_pairs):
    comp = json.loads(loaded_pairs["comp", "comp"].to_json())["per_iteration"][0]
    for pair, node in ((("min", "comp"), "cn"), (("omsq", "omsq"), "vn")):
        def graft(tree, node=node):
            tree["per_iteration"][0][f"{node}_quantizer"] = comp[f"{node}_quantizer"]
            tree["per_iteration"][0][f"{node}_tables"] = comp[f"{node}_tables"]
        with pytest.raises(ValidationError, match=f"{node} quantizer 'non_uniform'"):
            DesignArtifact.from_json(_edited(loaded_pairs[pair], graft))

    def strip(tree):
        tree["per_iteration"][0]["cn_tables"] = None
    with pytest.raises(ValidationError, match="cn quantizer 'non_uniform' and tables"):
        DesignArtifact.from_json(_edited(loaded_pairs["comp", "comp"], strip))


@pytest.mark.parametrize("edit", [lambda t: t.pop("phi_c"), lambda t: t.pop("phi_ch"),
                                  lambda t: t.update(phi_x=t["phi_c"])])
def test_artifact_load_requires_exactly_the_two_vn_tables(loaded_pairs, edit):
    # a missing table loaded before and raised KeyError in DecoderState
    art = loaded_pairs["comp", "comp"]
    text = _edited(art, lambda t: edit(t["per_iteration"][1]["vn_tables"]))
    with pytest.raises(ValidationError, match="iteration 2: vn tables .* are not phi_c and phi_ch"):
        DesignArtifact.from_json(text)


@pytest.mark.parametrize("ebn0", [math.inf, -math.inf])
def test_design_rejects_an_infinite_design_snr(ebn0):
    with pytest.raises(ValidationError, match="ebn0_db must be finite"):
        design_decoder(base_cfg(design_ebn0_db=ebn0))


@pytest.mark.parametrize("field,value,message", [
    ("rate", "nan", "rate nan outside"), ("rate", "-0.5", "rate -0.5 outside"),
    ("rate", "1.0", "rate 1.0 outside"), ("design_ebn0_db", "inf", "ebn0_db must be finite"),
    ("design_ebn0_db", "nan", "ebn0_db must be finite"),
    ("channel_grid_size", 511, "grid_size must be even"),
    ("channel_grid_size", 1001, "grid_size must be even"),
    ("clip_llr", "nan", "clip_llr must be positive"), ("clip_llr", "-1.0", "clip_llr must be positive")])
def test_artifact_load_rejects_a_channel_the_config_cannot_model(loaded_pairs, field, value, message):
    # a nan or negative rate and an infinite design SNR used to load, and
    # simulate_point then reported FER 0.0 from a nan noise level
    art = loaded_pairs["comp", "comp"]
    with pytest.raises(ValidationError, match=message):
        DesignArtifact.from_json(_edited(art, lambda t: t["config"].update({field: value})))
    with pytest.raises(ValidationError, match=message):
        base_cfg(**{field: float(value) if isinstance(value, str) else value})


@pytest.mark.parametrize("points", [-1, -4])
def test_config_and_loading_reject_a_negative_delta_search(loaded_pairs, points):
    # a negative count used to validate and act as 0, the saturation step
    with pytest.raises(ValidationError, match="delta_search_points must be nonnegative"):
        base_cfg(delta_search_points=points)
    art = loaded_pairs["comp", "comp"]
    with pytest.raises(ValidationError, match="delta_search_points must be nonnegative"):
        DesignArtifact.from_json(_edited(art, lambda t: t["config"].update(
            delta_search_points=points)))
    assert base_cfg(delta_search_points=0).delta_search_points == 0


def _edges(edit):
    """An edit of the tree that replaces its channel edges ``e`` by ``edit(e)``."""
    return lambda tree: tree.update(channel_edges_llr=edit(tree["channel_edges_llr"]))


def _wider_channel(tree):
    """A valid 4-bit threshold channel quantizer in place of the 3-bit one."""
    tree["channel_quantizer"].update(out_width_w=4, thresholds=list(range(2, 9)))
    tree["channel_edges_llr"] = [repr(float(e)) for e in range(1, 8)]


#: the tree of a valid omsq channel quantizer at w = 3
OMSQ_CHANNEL = {"kind": "omsq_uniform_llr", "step": "0.5", "width_w": 3}


@pytest.mark.parametrize("pair,edit,message", [
    (("comp", "comp"), lambda t: t.update(channel_edges_llr=None), "'comp' at w=3"),
    (("comp", "comp"), _edges(lambda e: e[:1]), "'comp' at w=3"),
    (("comp", "comp"), _edges(lambda e: ["nan"] * 3), "'comp' at w=3"),
    (("comp", "comp"), _edges(lambda e: ["-1.0", *e[1:]]), "'comp' at w=3"),
    (("comp", "comp"), _edges(lambda e: [e[0], e[0], e[2]]), "'comp' at w=3"),
    (("comp", "comp"), _wider_channel, "'comp' at w=3"),
    (("comp", "comp"), lambda t: t.update(channel_quantizer=OMSQ_CHANNEL), "'comp' at w=3"),
    (("comp", "comp"), lambda t: t.update(channel_quantizer=OMSQ_CHANNEL, channel_edges_llr=None),
     "'comp' at w=3"),
    (("omsq", "omsq"), lambda t: t["channel_quantizer"].update(width_w=1), "at least 2 bits"),
    (("omsq", "omsq"), lambda t: t["channel_quantizer"].update(width_w=4), "'omsq' at w=3"),
    (("omsq", "omsq"), lambda t: t.update(channel_edges_llr=["1.0", "2.0", "3.0"]),
     "'omsq' at w=3"),
], ids=["no-edges", "one-edge", "nan-edges", "negative-edge", "repeated-edge", "width",
        "omsq-quantizer", "omsq-quantizer-no-edges", "omsq-width-1", "omsq-width",
        "omsq-edges"])
def test_artifact_load_rejects_a_channel_quantizer_that_does_not_fit(loaded_pairs, pair, edit,
                                                                     message):
    # each of these loaded before: the decoder then ran on a channel of the
    # wrong width or with missing, nan or misordered edges (FER off, or 0.0
    # at width 1), or simulate_point raised TypeError on no edges at all
    art = loaded_pairs[pair]
    assert DesignArtifact.from_json(art.to_json()).to_json() == art.to_json()
    with pytest.raises(ValidationError, match=message):
        DesignArtifact.from_json(_edited(art, edit))


@pytest.mark.parametrize("scale", [2.0, 0.25, 1.0 + 1e-8])
def test_artifact_load_rejects_edges_off_their_threshold_bins(loaded_pairs, scale):
    # edges scaled by 2 or by 0.25 used to load, and simulate_point then
    # quantized the channel there (FER 0.422 -> 0.609 on a 96-bit code at
    # 2.0 dB); the grid's own rounding, about 1e-13 relative, still loads
    art = loaded_pairs["comp", "comp"]
    with pytest.raises(ValidationError, match="'comp' at w=3"):
        DesignArtifact.from_json(_edited(art, _edges(lambda e: [repr(float(x) * scale)
                                                                for x in e])))
    nudged = _edited(art, _edges(lambda e: [repr(float(x) * (1.0 + 1e-12)) for x in e]))
    assert DesignArtifact.from_json(nudged).channel_edges_llr != art.channel_edges_llr


def _benchmark_decoder_configs():
    """The configs of the decoders the decode benchmark designs into its cache."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [cfg for _, cfg in workloads.WORKLOADS["decode"].design_configs(quantldpc)]


@pytest.mark.parametrize("grid", [None, 512, 20000])
def test_channel_edges_of_the_benchmark_decoders_load(grid):
    # the loader ties each edge to its threshold bin; every channel the
    # decode benchmark's cache holds, and the same designs on a coarse and a
    # fine grid, load (the channel side is all an edge depends on)
    for cfg in _benchmark_decoder_configs():
        cfg = replace(cfg, iterations=0, **({} if grid is None else {"channel_grid_size": grid}))
        art, _ = design_decoder(cfg)
        assert DesignArtifact.from_json(art.to_json()).to_json() == art.to_json()


def test_artifact_load_rejects_missing_iterations(loaded_pairs):
    art = loaded_pairs["comp", "comp"]
    with pytest.raises(ValidationError, match="configured for 2 iterations"):
        DesignArtifact.from_json(_edited(art, lambda t: t["per_iteration"].clear()))

    def zero(tree):
        tree["per_iteration"].clear()
        tree["config"]["iterations"] = 0
    assert DesignArtifact.from_json(_edited(art, zero)).per_iteration == []


#: points whose quantized CN output is not reliability-ordered, so a VN table
#: comes out non-monotone in the cell index; a monotone check rejected them
NON_MONOTONE_POINTS = [
    dict(cn_variant="comp_uni", design_ebn0_db=3.0, iterations=10, uniform_warm_window=0),
    dict(cn_variant="comp", design_ebn0_db=2.2, iterations=30),
    dict(cn_variant="comp", design_ebn0_db=3.0, iterations=10),
]


@pytest.mark.parametrize("point", NON_MONOTONE_POINTS)
def test_points_with_non_monotone_tables_design_and_decode(point):
    from quantldpc.codes import generate_regular_code
    from quantldpc.sim import simulate_point

    cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=7, vn_variant="comp", rate=0.5,
                         delta_search_points=5, **point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        artifact, traj = design_decoder(cfg)
    assert traj[-1][1] >= 0.9995
    tables = [t.values for r in artifact.per_iteration
              for t in (r.cn_tables, *r.vn_tables.values())]
    assert any(np.any(np.diff(v) > 0) and np.any(np.diff(v) < 0) for v in tables)
    back = DesignArtifact.from_json(artifact.to_json())
    assert back.to_json() == artifact.to_json()
    code = generate_regular_code(1024, 3, 6, seed=1)
    point = simulate_point(code, back, 3.0, stop={"max_frames": 64}, noiseless=True)
    assert (point.frames, point.frame_errors, point.bit_errors) == (64, 0, 0)


def test_omsq_channel_quantizer_mapping():
    q = OmsqChannelQuantizer(step=0.5, width_w=3)
    llr = np.array([0.0, 0.24, 0.26, 1.6, -1.6, 9.0, -9.0])
    got = q.map_llr(llr)
    # round-to-nearest multiples of 0.5 with clip at 3, zero maps to +0-ish
    assert list(got) == [0, 0, 1, 3, -3, 3, -3]


def test_de_threshold_statuses():
    cfg = base_cfg(iterations=25)
    easy = de_threshold(cfg, 0.9999, (8.0, 9.0), resolution_db=0.25)
    assert easy.status == "lo_boundary" and easy.snr_db == 8.0
    hopeless = de_threshold(cfg, 0.9999, (-3.0, -2.8), resolution_db=0.1)
    assert hopeless.status == "no_convergence" and hopeless.snr_db is None
    found = de_threshold(cfg, 0.9999, (-3.0, 6.0), resolution_db=0.25)
    assert found.status == "ok"
    assert -3.0 < found.snr_db < 6.0
    # the returned point converged, the point one resolution below did not
    conv = {s: ok for s, ok in found.probes}
    assert conv[found.snr_db]


def test_de_threshold_validation():
    cfg = base_cfg()
    with pytest.raises(ValidationError):
        de_threshold(cfg, 0.9999, (3.0, 3.0))
    with pytest.raises(ValidationError):
        de_threshold(cfg, 0.5, (1.0, 2.0))


def test_de_threshold_probes_change_only_the_design_snr(monkeypatch):
    # every field away from its default, so a field the probes drop shows
    cfg = EnsembleConfig(dc=5, dv=4, w=3, wphi=7, iterations=17,
                         cn_variant="min", vn_variant="comp_uni",
                         design_ebn0_db=1.25, rate=0.6, channel_grid_size=900,
                         clip_llr=21.0, prune_tol=1e-9, delta_search_points=5,
                         uniform_grid_points=33, uniform_warm_window=4, beta=3)
    for f in fields(EnsembleConfig):
        if f.default is not MISSING:
            assert getattr(cfg, f.name) != f.default, f.name

    for workers in (1, 3):
        probes = []

        def fake_design(probe_cfg):
            probes.append(probe_cfg)
            return None, [(0.5, 1.0 if probe_cfg.design_ebn0_db >= 2.2 else 0.5)]

        monkeypatch.setattr(evolution, "design_decoder", fake_design)
        res = fake_worker_threshold(cfg, 0.9999, (1.0, 3.0), 0.1, workers)
        assert res.status == "ok" and len(res.probes) > 3
        if workers == 1:
            assert len(probes) == len(res.probes)
            assert [p.design_ebn0_db for p in probes] == [s for s, _ in res.probes]
        else:
            assert {p.design_ebn0_db for p in probes} > {s for s, _ in res.probes}
        for probe in probes:
            assert type(probe) is EnsembleConfig
            assert replace(probe, design_ebn0_db=cfg.design_ebn0_db) == cfg


# --- speculative bisection ----------------------------------------------------

def seq_de_threshold(cfg: EnsembleConfig, target_mi: float, snr_window,
                     resolution_db: float = 0.005) -> ThresholdResult:
    """The sequential search that de_threshold replaced, kept verbatim
    (names aside) as the oracle of the speculative one."""
    lo, hi = float(snr_window[0]), float(snr_window[1])
    if not lo < hi:
        raise ValidationError("snr window must satisfy lo < hi")
    if not (0.9 < target_mi < 1.0):
        raise ValidationError("target_mi must lie in (0.9, 1)")

    probes = []

    def converges(snr):
        _, traj = evolution.design_decoder(replace(cfg, design_ebn0_db=snr))
        ok = bool(traj) and max(mi_vn for _, mi_vn in traj) >= target_mi
        probes.append((snr, ok))
        return ok

    if converges(lo):
        return ThresholdResult(lo, "lo_boundary", tuple(probes))
    if not converges(hi):
        return ThresholdResult(None, "no_convergence", tuple(probes))
    while hi - lo > resolution_db:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdResult(hi, "ok", tuple(probes))


class FakeWorker:
    """In-process stand-in for a forked probe worker: it runs its probe when
    its reply is read, and replies with the probe's report as a real worker
    does."""

    def __init__(self, probe):
        self.probe = probe
        self.args = None

    def send(self, *args):
        assert self.args is None, "a request to a busy worker"
        self.args = args

    def reply(self):
        args, self.args = self.args, None
        return workers.recorded(self.probe, *args)


def fake_worker_threshold(cfg, target_mi, window, resolution, workers, pick=lambda n: 0):
    """de_threshold's search on in-process workers; ``pick(n)`` chooses which
    of the n running probes finishes first."""
    probe = partial(evolution._probe, cfg, target_mi=target_mi)
    return evolution._speculative_bisection(
        float(window[0]), float(window[1]), resolution,
        [FakeWorker(probe) for _ in range(workers)],
        lambda busy: [busy[pick(len(busy))]])


class FakeDesign:
    """design_decoder stand-in: a verdict, an error and a warning per SNR.
    With ``warn_first`` a probe warns before it errors, else only if it
    does not error."""

    def __init__(self, verdict, error=lambda snr: False, warn=lambda snr: False,
                 warn_first=False):
        self.verdict, self.error, self.warn = verdict, error, warn
        self.warn_first = warn_first
        self.calls = []

    def __call__(self, cfg):
        snr = cfg.design_ebn0_db
        self.calls.append(snr)
        if self.warn_first and self.warn(snr):
            warnings.warn(f"probe at {snr!r}", RuntimeWarning)
        if self.error(snr):
            raise ValidationError(f"probe at {snr!r} failed")
        if not self.warn_first and self.warn(snr):
            warnings.warn(f"probe at {snr!r}", RuntimeWarning)
        return None, [(0.5, 1.0 if self.verdict(snr) else 0.5)]


def outcome(run):
    """(result or the raised ValidationError's text, warning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = run()
        except ValidationError as exc:
            res = ("raised", str(exc))
    return res, [str(w.message) for w in caught]


def _coin(tag, seed, snr, p):
    return random.Random(f"{tag}:{seed}:{snr!r}").random() < p


@st.composite
def fake_designs(draw):
    kind = draw(st.sampled_from(["monotone", "non_monotone", "all_fail", "all_converge"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "monotone":
        t = draw(st.floats(-3.0, 5.0))
        verdict = lambda snr: snr >= t  # noqa: E731
    elif kind == "non_monotone":
        verdict = lambda snr: _coin("v", seed, snr, 0.5)  # noqa: E731
    else:
        verdict = lambda snr, ok=kind == "all_converge": ok  # noqa: E731
    p_err = draw(st.sampled_from([0.0, 0.1, 0.3]))
    return FakeDesign(verdict, lambda snr: _coin("e", seed, snr, p_err),
                      lambda snr: _coin("w", seed, snr, 0.5), draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(design=fake_designs(), workers=st.integers(1, 4), data=st.data(),
       lo=st.floats(-2.0, 2.0), width=st.floats(0.1, 4.0),
       resolution=st.sampled_from([0.01, 0.05, 0.3, 10.0]))
def test_speculative_bisection_matches_sequential(design, workers, data, lo, width,
                                                  resolution):
    cfg = base_cfg()
    window = (lo, lo + width)
    pick = lambda n: data.draw(st.integers(0, n - 1))  # noqa: E731
    with mock.patch.object(evolution, "design_decoder", design):
        want = outcome(lambda: seq_de_threshold(cfg, 0.9999, window, resolution))
        sequential, design.calls = design.calls, []
        got = outcome(lambda: fake_worker_threshold(cfg, 0.9999, window, resolution,
                                                    workers, pick))
    assert got == want
    assert len(set(design.calls)) == len(design.calls)
    if workers == 1:
        assert design.calls == sequential
    else:
        assert set(design.calls) >= set(sequential)


def test_error_off_the_decision_path_is_dropped():
    # path 0.0 F, 1.0 T, 0.5 T, 0.25 F, 0.375 T; 0.75 is run ahead for 0.5 F
    design = FakeDesign(lambda snr: snr >= 0.3, error=lambda snr: snr == 0.75,
                        warn=lambda snr: True)
    with mock.patch.object(evolution, "design_decoder", design):
        want = outcome(lambda: seq_de_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2))
        assert 0.75 not in design.calls
        got = outcome(lambda: fake_worker_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2,
                                                    4))
    assert 0.75 in design.calls
    assert got == want
    assert want[0] == ThresholdResult(0.375, "ok", ((0.0, False), (1.0, True), (0.5, True),
                                                     (0.25, False), (0.375, True)))
    assert want[1] == [f"probe at {s!r}" for s in (0.0, 1.0, 0.5, 0.25, 0.375)]


def test_error_on_the_decision_path_is_raised_after_the_path_warnings():
    design = FakeDesign(lambda snr: snr >= 0.3, error=lambda snr: snr == 0.25,
                        warn=lambda snr: True)
    with mock.patch.object(evolution, "design_decoder", design):
        want = outcome(lambda: seq_de_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2))
        got = outcome(lambda: fake_worker_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2, 4,
                                                    pick=lambda n: n - 1))
    assert got == want == (("raised", "probe at 0.25 failed"),
                           ["probe at 0.0", "probe at 1.0", "probe at 0.5"])


@pytest.mark.parametrize("count", [1, 4])
def test_a_probe_that_warns_and_raises_on_the_path_warns_first(count):
    # the sequential search shows the failing probe's warning before its
    # error; a worker must carry both back on one report
    design = FakeDesign(lambda snr: snr >= 0.3, error=lambda snr: snr == 0.25,
                        warn=lambda snr: True, warn_first=True)
    with mock.patch.object(evolution, "design_decoder", design):
        want = outcome(lambda: seq_de_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2))
        got = outcome(lambda: fake_worker_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2,
                                                    count, pick=lambda n: n - 1))
    assert got == want == (("raised", "probe at 0.25 failed"),
                           ["probe at 0.0", "probe at 1.0", "probe at 0.5", "probe at 0.25"])


def test_de_threshold_pool_replays_a_raising_probe_s_warnings(monkeypatch):
    # the same on forked workers: the warning crosses the pipe with the error
    design = FakeDesign(lambda snr: snr >= 0.3, error=lambda snr: snr == 0.25,
                        warn=lambda snr: True, warn_first=True)
    monkeypatch.setattr(evolution, "design_decoder", design)
    monkeypatch.setattr(workers, "WORKERS", 3)
    want = outcome(lambda: seq_de_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2))
    assert outcome(lambda: de_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.2)) == want
    assert want[1][-1] == "probe at 0.25"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cn,vn", [("comp", "comp"), ("min", "comp_uni")])
def test_de_threshold_pool_matches_sequential(cn, vn):
    cfg = EnsembleConfig(dc=6, dv=3, w=3, wphi=6, iterations=15, cn_variant=cn,
                         vn_variant=vn, design_ebn0_db=3.0, rate=0.5)
    want = outcome(lambda: seq_de_threshold(cfg, 0.9999, (-3.0, 6.0), 0.25))
    got = outcome(lambda: de_threshold(cfg, 0.9999, (-3.0, 6.0), 0.25))
    assert multiprocessing.active_children() == []
    assert got == want
    assert want[0].status == "ok"


def test_de_threshold_pool_raises_and_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(evolution, "design_decoder",
                        FakeDesign(lambda snr: snr >= 2.0, error=lambda snr: snr == 2.0))
    with pytest.raises(ValidationError, match="probe at 2.0 failed"):
        de_threshold(base_cfg(), 0.9999, (1.0, 3.0), 0.1)
    assert multiprocessing.active_children() == []


def test_de_threshold_dead_worker_raises_in_bounded_time(monkeypatch):
    # with a Pool, a dead worker's probe was lost and the call waited forever
    parent = os.getpid()
    design = FakeDesign(lambda snr: snr >= 2.0)

    def design_or_die(cfg):
        if os.getpid() != parent and cfg.design_ebn0_db == 3.0:    # on the path
            os._exit(1)
        return design(cfg)

    monkeypatch.setattr(evolution, "design_decoder", design_or_die)
    monkeypatch.setattr(workers, "WORKERS", 3)
    with alarm(30), pytest.raises(RuntimeError, match="exit code 1"):
        de_threshold(base_cfg(), 0.9999, (1.0, 3.0), 0.1)
    assert multiprocessing.active_children() == []


def threshold_in_pool_worker(cfg, window, resolution):
    assert multiprocessing.current_process().daemon
    evolution.design_decoder.calls = []
    got = outcome(lambda: de_threshold(cfg, 0.9999, window, resolution))
    return got, evolution.design_decoder.calls


@pytest.mark.parametrize("error", [None, 0.25])
def test_de_threshold_from_a_daemonic_worker_equals_sequential(monkeypatch, error):
    # a daemonic process may not fork: this raised AssertionError with a Pool
    design = FakeDesign(lambda snr: snr >= 0.3, error=lambda snr: snr == error,
                        warn=lambda snr: True)
    monkeypatch.setattr(evolution, "design_decoder", design)
    monkeypatch.setattr(workers, "WORKERS", 3)
    want = outcome(lambda: seq_de_threshold(base_cfg(), 0.9999, (0.0, 1.0), 0.1))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got, calls = pool.apply_async(threshold_in_pool_worker,
                                      (base_cfg(), (0.0, 1.0), 0.1)).get(timeout=60)
        pool.close()
        pool.join()
    assert got == want
    assert calls == design.calls
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("window,resolution", [
    ((1.0, 3.0), 0.0), ((1.0, 3.0), -1.0), ((1.0, 3.0), math.nan),
    ((1.0, 3.0), math.inf), ((math.nan, 3.0), 0.1), ((1.0, math.inf), 0.1),
    ((-math.inf, 3.0), 0.1)])
def test_de_threshold_rejects_a_resolution_or_window_it_cannot_bisect(
        monkeypatch, window, resolution):
    # unchecked, 0 and -1 probed forever and nan returned "ok" at hi
    monkeypatch.setattr(evolution, "design_decoder", FakeDesign(lambda snr: snr >= 2.0))
    with pytest.raises(ValidationError):
        de_threshold(base_cfg(), 0.9999, window, resolution)


def test_de_threshold_stops_at_adjacent_floats(monkeypatch):
    # a resolution below the float spacing: the midpoint stops moving
    monkeypatch.setattr(evolution, "design_decoder", FakeDesign(lambda snr: snr >= 2.0))
    res = de_threshold(base_cfg(), 0.9999, (1.0, 3.0), 1e-300)
    assert res.status == "ok" and res.snr_db == 2.0
    assert (math.nextafter(2.0, 0.0), False) in res.probes
    assert multiprocessing.active_children() == []


# --- reference design stages --------------------------------------------------
# The four stage routines, the design loop and the step-searching uniform
# designer as they stood before the single stage routine, kept verbatim
# (names aside) as the differential oracle of evolution._design_stage.

def ref_search_subgrid(grid, prev_best, half_width):
    """Window of a sorted grid around a previous optimum (None = full)."""
    if prev_best is None or half_width <= 0:
        return grid, False
    c = int(np.searchsorted(grid, prev_best))
    lo = max(0, c - half_width)
    hi = min(grid.size, c + half_width + 1)
    return grid[lo:hi], (lo > 0 or hi < grid.size)


def ref_design_uniform(p: JointPMF, w: int, *, wphi: int | None = None,
                   kappa_search: bool = False, rebuild=None,
                   delta_grid=None, delta: float | None = None):
    """MI-best uniform shift/offset quantizer for a symmetric PMF.

    Without ``rebuild`` the search runs on ``p`` itself over all shifts
    r < wphi (and offsets kappa < 2**r when ``kappa_search`` is set);
    ``delta`` merely labels the resulting spec.  With ``rebuild``, every
    step size in ``delta_grid`` is tried: ``rebuild(step)`` must return the
    integer-domain PMF obtained when the underlying translation tables are
    rebuilt at that step.  Ties prefer the smaller step, then the smaller
    shift, then the smaller offset (the iteration order guarantees this
    under strict improvement).

    Returns ``(QuantizerSpec, mutual_information_of_quantized_output)``.
    """
    if rebuild is None:
        if not p.symmetric:
            raise ValidationError("uniform design expects a symmetric PMF")
        if not p.llr_order:
            raise ValidationError("uniform design expects reliability-ordered magnitudes")
        candidates = ((p, _magnitude_unit(p) if delta is None else delta),)
    elif delta_grid is None:
        raise ValidationError("rebuild search needs a delta_grid")
    else:
        candidates = ((rebuild(float(step)), float(step))
                      for step in np.asarray(delta_grid, dtype=np.float64))
    best = None
    for q, step in candidates:
        da, db = _dense_folded(q)
        r_limit = wphi if wphi is not None else max(1, int(da.size - 1).bit_length() + 1)
        mi, r, kappa = _uniform_sweep(da, db, w, r_limit, kappa_search)
        if best is None or mi > best[0]:
            best = (mi, step, r, kappa)
    mi, step, r, kappa = best
    return QuantizerSpec("uniform", w, delta=step, shift_r=r, offset_kappa=kappa), mi


def ref_design_cn_comp(p_in, cfg):
    """Non-uniform CN stage: tables at the chosen step, aggregate, DP design."""
    dstar = phi_saturation_delta(p_in, cfg.wphi)
    if cfg.delta_search_points > 1:
        candidates = build_delta_grid(dstar, cfg.delta_search_points)
    else:
        candidates = [dstar]
    best = None
    cache = {}
    for step in candidates:
        step = float(step)
        tab = build_translation_table(p_in, "cn_phi", step, cfg.wphi)
        agg = cache.get(tab.values)
        if agg is None:
            agg = cn_evolve_comp(p_in, cfg.dc, tab)
            cache[tab.values] = agg
        spec, mi = design_nonuniform(agg, cfg.w, delta=step, prune_tol=cfg.prune_tol)
        if best is None or mi > best[0]:
            best = (mi, tab, spec, agg)
    mi, tab, spec, agg = best
    return tab, spec, mi, apply_quantizer(agg, spec)


def ref_design_cn_uniform(p_in, cfg, prev_delta):
    """Uniform CN stage: joint (step, shift, offset) search with rebuilds."""
    dstar = phi_saturation_delta(p_in, cfg.wphi)
    grid = build_delta_grid(dstar, cfg.uniform_grid_points)
    cache = {}

    def rebuild(step):
        tab = build_translation_table(p_in, "cn_phi", step, cfg.wphi)
        agg = cache.get(tab.values)
        if agg is None:
            agg = cn_evolve_comp(p_in, cfg.dc, tab)
            cache[tab.values] = agg
        return agg

    sub, windowed = ref_search_subgrid(grid, prev_delta, cfg.uniform_warm_window)
    spec, mi = ref_design_uniform(p_in, cfg.w, wphi=cfg.wphi, kappa_search=True,
                              rebuild=rebuild, delta_grid=sub)
    if windowed and (spec.delta <= sub[0] or spec.delta >= sub[-1]):
        spec, mi = ref_design_uniform(p_in, cfg.w, wphi=cfg.wphi, kappa_search=True,
                                  rebuild=rebuild, delta_grid=grid)
    tab = build_translation_table(p_in, "cn_phi", spec.delta, cfg.wphi)
    return tab, spec, mi, apply_quantizer(rebuild(spec.delta), spec)


def ref_vn_tables(p_cn, p_ch, step, wphi):
    return {
        "phi_ch": build_translation_table(p_ch, "vn_llr", step, wphi),
        "phi_c": build_translation_table(p_cn, "vn_llr", step, wphi),
    }


def ref_design_vn_comp(p_cn, p_ch, cfg):
    dstar = llr_saturation_delta([p_cn, p_ch], cfg.wphi)
    if cfg.delta_search_points > 1:
        candidates = build_delta_grid(dstar, cfg.delta_search_points)
    else:
        candidates = [dstar]
    best = None
    cache = {}
    for step in candidates:
        step = float(step)
        tabs = ref_vn_tables(p_cn, p_ch, step, cfg.wphi)
        key = (tabs["phi_ch"].values, tabs["phi_c"].values)
        sym = cache.get(key)
        if sym is None:
            sym = vn_evolve(p_cn, p_ch, cfg.dv, tabs)
            cache[key] = sym
        spec, mi = design_nonuniform(sym, cfg.w, delta=step, prune_tol=cfg.prune_tol)
        if best is None or mi > best[0]:
            best = (mi, tabs, spec, sym)
    mi, tabs, spec, sym = best
    return tabs, spec, mi, apply_quantizer(sym, spec)


def ref_design_vn_uniform(p_cn, p_ch, cfg, prev_delta):
    dstar = llr_saturation_delta([p_cn, p_ch], cfg.wphi)
    grid = build_delta_grid(dstar, cfg.uniform_grid_points)
    cache = {}

    def rebuild(step):
        tabs = ref_vn_tables(p_cn, p_ch, step, cfg.wphi)
        key = (tabs["phi_ch"].values, tabs["phi_c"].values)
        sym = cache.get(key)
        if sym is None:
            sym = vn_evolve(p_cn, p_ch, cfg.dv, tabs)
            cache[key] = sym
        return sym

    sub, windowed = ref_search_subgrid(grid, prev_delta, cfg.uniform_warm_window)
    spec, mi = ref_design_uniform(p_ch, cfg.w, wphi=cfg.wphi, kappa_search=False,
                              rebuild=rebuild, delta_grid=sub)
    if windowed and (spec.delta <= sub[0] or spec.delta >= sub[-1]):
        spec, mi = ref_design_uniform(p_ch, cfg.w, wphi=cfg.wphi, kappa_search=False,
                                  rebuild=rebuild, delta_grid=grid)
    tabs = ref_vn_tables(p_cn, p_ch, spec.delta, cfg.wphi)
    return tabs, spec, mi, apply_quantizer(rebuild(spec.delta), spec)


def ref_design_decoder(cfg: EnsembleConfig):
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
    for _ in range(cfg.iterations):
        rec = IterationDesign(mi_cn=0.0, mi_vn=0.0)
        if cfg.cn_variant == "comp":
            rec.cn_tables, rec.cn_quantizer, rec.mi_cn, p_c2v = ref_design_cn_comp(p_v2c, cfg)
            prev_cn_delta = rec.cn_quantizer.delta
        elif cfg.cn_variant == "comp_uni":
            rec.cn_tables, rec.cn_quantizer, rec.mi_cn, p_c2v = \
                ref_design_cn_uniform(p_v2c, cfg, prev_cn_delta)
            prev_cn_delta = rec.cn_quantizer.delta
        elif cfg.cn_variant == "min":
            p_c2v = cn_evolve_min(p_v2c, cfg.dc)
            rec.mi_cn = mutual_information(p_c2v)
        else:  # omsq
            p_c2v = _omsq_cn_evolve(p_v2c, cfg.dc, cfg.beta)
            rec.mi_cn = mutual_information(p_c2v)

        if cfg.vn_variant == "comp":
            rec.vn_tables, rec.vn_quantizer, rec.mi_vn, p_v2c = \
                ref_design_vn_comp(p_c2v, t_ch, cfg)
            prev_vn_delta = rec.vn_quantizer.delta
        elif cfg.vn_variant == "comp_uni":
            rec.vn_tables, rec.vn_quantizer, rec.mi_vn, p_v2c = \
                ref_design_vn_uniform(p_c2v, t_ch, cfg, prev_vn_delta)
            prev_vn_delta = rec.vn_quantizer.delta
        else:  # omsq
            p_v2c = _omsq_vn_evolve(p_c2v, t_ch, cfg.dv)
            rec.mi_vn = mutual_information(p_v2c)

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


def stage_cfg(cn, vn, **kw):
    # dc = 6 and a warm window of 1 often put the best uniform step on the
    # window's edge, either edge, so the full-grid fallback runs too
    args = dict(dc=6, dv=3, w=3, wphi=6, iterations=8, cn_variant=cn, vn_variant=vn,
                uniform_grid_points=16)
    args.update(kw)
    return base_cfg(**args)


@pytest.mark.parametrize("cn,vn", DESIGNED_PAIRS)
@pytest.mark.parametrize("search_points", [0, 1, 5])
@pytest.mark.parametrize("warm_window", [0, 1])
@pytest.mark.parametrize("ebn0", [2.2, 3.0])
def test_design_stage_matches_reference(cn, vn, search_points, warm_window, ebn0):
    cfg = stage_cfg(cn, vn, design_ebn0_db=ebn0, delta_search_points=search_points,
                    uniform_warm_window=warm_window)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got, got_traj = design_decoder(cfg)
        want, want_traj = ref_design_decoder(cfg)
    assert got_traj == want_traj
    assert got.to_json() == want.to_json()
    assert got.per_iteration == want.per_iteration


def test_design_stage_reference_cases_reach_the_fallback(monkeypatch):
    # the differential cases above must exercise the window-edge fallback:
    # a stage falls back when it ranks or designs a step outside its window
    # (a ranked stage designs its verified steps twice, so the calls alone
    # do not tell); the spies count in this process, so the stages run
    # serially in it
    monkeypatch.setattr(workers, "WORKERS", 1)
    stages = []
    rank_steps = ranking._rank_steps

    def window(grid, prev_best, half_width):
        idx = _search_window(grid, prev_best, half_width)
        stages.append((set(grid[idx].tolist()), set()))
        return idx

    def designer(*args, delta, **kwargs):
        stages[-1][1].add(delta)
        return design_uniform(*args, delta=delta, **kwargs)

    def ranker(*args):
        stages[-1][1].update(args[-1].tolist())
        return rank_steps(*args)

    monkeypatch.setattr(evolution, "_search_window", window)
    monkeypatch.setattr(evolution, "design_uniform", designer)
    monkeypatch.setattr(ranking, "_rank_steps", ranker)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        design_decoder(stage_cfg("comp_uni", "comp_uni", design_ebn0_db=3.0,
                                 uniform_warm_window=1))
    fallbacks = sum(1 for window, tried in stages if tried - window)
    assert len(stages) == 16 and 0 < fallbacks < 16
    assert all(window <= tried for window, tried in stages)


# --- the stage scan split across forked workers ------------------------------

def design_outcome(cfg):
    """(artifact JSON, trajectory) or the raised error's text, and the
    warning texts in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            artifact, traj = design_decoder(cfg)
            res = artifact.to_json(), traj
        except ValidationError as exc:
            res = ("raised", str(exc))
    return res, [str(w.message) for w in caught]


def serial_and_split(cfg, monkeypatch, count):
    """design_outcome on one worker, then on ``count`` workers."""
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = design_outcome(cfg)
    monkeypatch.setattr(workers, "WORKERS", count)
    got = design_outcome(cfg)
    assert multiprocessing.active_children() == []
    return want, got


@pytest.mark.parametrize("count", [workers.WORKERS, 3])
@pytest.mark.parametrize("cn,vn,kw", [
    ("comp_uni", "comp_uni", {}), ("min", "comp_uni", {}),
    ("comp", "comp", {"delta_search_points": 5})])
def test_split_stage_scan_equals_one_worker(monkeypatch, count, cn, vn, kw):
    # 2.2 dB: no early stop, so all 8 iterations design; a warm window of 1
    # gives 3-step scans and full-grid fallbacks
    cfg = stage_cfg(cn, vn, design_ebn0_db=2.2, uniform_warm_window=1, **kw)
    want, got = serial_and_split(cfg, monkeypatch, count)
    assert got == want
    assert want[0][0] != "raised"


def grid_design_uniform(grid, mi_at):
    """design_uniform with the MI replaced by ``mi_at(grid index of the
    step)``; each step warns with its index."""
    index = {float(d): i for i, d in enumerate(grid)}

    def fake(q, w, *, delta, **kw):
        spec, _ = design_uniform(q, w, delta=delta, **kw)
        i = index[delta]
        warnings.warn(f"step {i}", UserWarning)
        return spec, mi_at(i)
    return fake


def designer_ranking(p, cfg, steps):
    """Each step's MI by the stage's own designer (``evolution.design_uniform``,
    which a test may replace) on the chain's PMF, one step at a time."""
    return [evolution.design_uniform(
        cn_evolve_comp(p, cfg.dc, build_translation_table(p, "cn_phi", step, cfg.wphi)),
        cfg.w, wphi=cfg.wphi, kappa_search=True, delta=step)[1] for step in steps]


def designer_rank(p, cfg):
    """A ranking of a uniform CN stage on input ``p`` that follows a
    replaced designer: where that designer warns or raises, the batch is
    unranked and every step is evaluated exactly."""
    return partial(designer_ranking, p, cfg), 0.0


def cn_stage(cfg, team, rank=None, prev_delta=None):
    """The first comp_uni CN stage of ``cfg`` (full grid, or the window
    around ``prev_delta``) on ``team``, ranked on ``rank(p, cfg)`` for
    the stage's input p if given."""
    _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    rank = None if rank is None else rank(p, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            tables, spec, mi, q = evolution._design_stage(
                cfg, True, phi_saturation_delta(p, cfg.wphi),
                partial(build_translation_table, p, "cn_phi", wphi=cfg.wphi),
                partial(cn_evolve_comp, p, cfg.dc), prev_delta, kappa_search=True,
                rank=rank, team=team)
            res = tables, spec, mi, q.alphabet.tolist(), q.mass.tolist()
        except ValidationError as exc:
            res = ("raised", str(exc))
    return res, [str(w.message) for w in caught]


@pytest.mark.parametrize("count", [2, 3])
def test_split_stage_tie_goes_to_the_smallest_step_index(monkeypatch, count):
    # steps 5, 6 and 7 tie for the highest MI and lie in different shares
    # (the caller holds 6 under either count): a serial scan keeps step 5
    cfg = stage_cfg("comp_uni", "comp_uni")
    _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    grid = build_delta_grid(phi_saturation_delta(p, cfg.wphi), cfg.uniform_grid_points)
    monkeypatch.setattr(evolution, "design_uniform",
                        grid_design_uniform(grid, lambda i: 0.5 if i in (5, 6, 7) else 0.25))
    want = cn_stage(cfg, ())
    with workers.forked(evolution._stage_share, count - 1) as team:
        got = cn_stage(cfg, team)
        ranked = cn_stage(cfg, team, designer_rank)
    assert multiprocessing.active_children() == []
    assert got == ranked == want
    assert want[0][1].delta == float(grid[5]) and want[0][2] == 0.5
    assert want[1] == [f"step {i}" for i in range(cfg.uniform_grid_points)]


@pytest.mark.parametrize("count", [2, 3])
def test_split_stage_raises_the_earliest_step_error(monkeypatch, count):
    # steps 4 and 9 raise, in different shares: step 4's error is raised,
    # after the warnings of steps 0-4 and of no later step
    cfg = stage_cfg("comp_uni", "comp_uni")
    _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    grid = build_delta_grid(phi_saturation_delta(p, cfg.wphi), cfg.uniform_grid_points)

    def mi_at(i):
        if i in (4, 9):
            raise ValidationError(f"step {i} failed")
        return 0.25
    monkeypatch.setattr(evolution, "design_uniform", grid_design_uniform(grid, mi_at))
    want = cn_stage(cfg, ())
    with workers.forked(evolution._stage_share, count - 1) as team:
        got = cn_stage(cfg, team)
        ranked = cn_stage(cfg, team, designer_rank)
    assert multiprocessing.active_children() == []
    assert got == ranked == want == (("raised", "step 4 failed"),
                                     [f"step {i}" for i in range(5)])


def same_tables(tables, step):
    return tables


def warning_evolve(p, tables):
    warnings.warn("evolve", UserWarning)
    return p


@pytest.mark.parametrize("count", [1, 3])
def test_each_exactly_evaluated_step_evolves_once(monkeypatch, count):
    # every step's tables are the same table, and evolve warns: each step
    # evolves once, so its evolve warning comes back just before its own
    cfg = stage_cfg("comp_uni", "comp_uni")
    _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    dstar = phi_saturation_delta(p, cfg.wphi)
    grid = build_delta_grid(dstar, cfg.uniform_grid_points)
    monkeypatch.setattr(evolution, "design_uniform", grid_design_uniform(grid, lambda i: 0.25))
    table = build_translation_table(p, "cn_phi", dstar, cfg.wphi)
    with (workers.forked(evolution._stage_share, count - 1) as team,
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        _, spec, mi, _ = evolution._design_stage(
            cfg, True, dstar, partial(same_tables, table), partial(warning_evolve, p), None,
            kappa_search=True, team=team)
    assert multiprocessing.active_children() == []
    assert spec.delta == float(grid[0]) and mi == 0.25
    assert [str(w.message) for w in caught] == [
        m for i in range(grid.size) for m in ("evolve", f"step {i}")]


def test_split_stage_requests_pickle_with_rebound_layer_functions(monkeypatch):
    # a tracer rebinds every public function at each module binding, so a
    # function imported from another module no longer pickles by reference
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = design_outcome(stage_cfg("comp_uni", "comp_uni"))
    for name, obj in list(vars(evolution).items()):
        if not name.startswith("_") and inspect.isfunction(obj):
            monkeypatch.setattr(evolution, name, functools.wraps(obj)(
                lambda *a, fn=obj, **kw: fn(*a, **kw)))
    monkeypatch.setattr(workers, "WORKERS", 3)
    assert design_outcome(stage_cfg("comp_uni", "comp_uni")) == want
    assert multiprocessing.active_children() == []


def test_split_stage_dead_worker_raises_in_bounded_time(monkeypatch):
    parent = os.getpid()

    def design_or_die(q, w, **kw):
        if os.getpid() != parent:
            os._exit(1)
        return design_uniform(q, w, **kw)

    monkeypatch.setattr(evolution, "design_uniform", design_or_die)
    monkeypatch.setattr(workers, "WORKERS", 3)
    with alarm(30), pytest.raises(RuntimeError, match="exit code 1"):
        design_decoder(stage_cfg("comp_uni", "comp_uni"))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cfg,spare", [
    (stage_cfg("comp", "comp"), 0), (stage_cfg("min", "comp"), 0),
    (stage_cfg("omsq", "omsq"), 0), (stage_cfg("omsq", "omsq", delta_search_points=5), 0),
    (stage_cfg("comp_uni", "comp_uni", iterations=0), 0),
    (stage_cfg("comp", "comp", delta_search_points=5), 2),
    (stage_cfg("min", "comp_uni"), 2), (stage_cfg("comp_uni", "comp"), 2)])
def test_design_forks_only_for_a_step_search(monkeypatch, cfg, spare):
    counts = []

    @contextlib.contextmanager
    def counting(fn, n):
        counts.append(n)
        yield []

    monkeypatch.setattr(workers, "forked", counting)
    monkeypatch.setattr(workers, "WORKERS", 3)
    design_decoder(cfg)
    assert counts == [spare]


def design_in_pool_worker(cfg):
    assert multiprocessing.current_process().daemon
    teams = []
    real_stage = evolution._design_stage

    def stage(*args, team=(), **kw):
        teams.append(len(team))
        return real_stage(*args, team=team, **kw)

    with mock.patch.object(evolution, "_design_stage", stage):
        return design_outcome(cfg), teams


def test_design_from_a_daemonic_worker_does_not_split(monkeypatch):
    # a threshold probe runs in a daemonic process: its stages scan serially
    cfg = stage_cfg("comp_uni", "comp_uni", design_ebn0_db=2.2, uniform_warm_window=1)
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = design_outcome(cfg)
    monkeypatch.setattr(workers, "WORKERS", 3)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got, teams = pool.apply_async(design_in_pool_worker, (cfg,)).get(timeout=120)
        pool.close()
        pool.join()
    assert got == want
    assert teams and set(teams) == {0}
    assert multiprocessing.active_children() == []


# --- exact fast-forward of a cycling design -----------------------------------

def paper_point(cn, vn, ebn0, iterations=150):
    return EnsembleConfig(dc=32, dv=6, w=4, wphi=8, rate=0.841, iterations=iterations,
                          cn_variant=cn, vn_variant=vn, design_ebn0_db=ebn0)


def reference_outcome(cfg):
    """design_outcome of ref_design_decoder, which designs every iteration."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        artifact, traj = ref_design_decoder(cfg)
    return (artifact.to_json(), traj), [str(w.message) for w in caught]


def counted_vn_stages(monkeypatch):
    """Records every VN stage design_decoder designs (one vn_evolve call
    per stage without a step search)."""
    stages = []

    def spy(*args):
        stages.append(args[-1]["phi_c"].values)
        return vn_evolve(*args)

    monkeypatch.setattr(evolution, "vn_evolve", spy)
    return stages


def test_a_cycling_design_fast_forwards_to_the_reference(monkeypatch):
    # min/comp at the paper point, 3.0 dB: the state the 92nd iteration
    # leaves is one an earlier iteration left (period 3), so 58 of the 150
    # iterations are replayed
    cfg = paper_point("min", "comp", 3.0)
    stages = counted_vn_stages(monkeypatch)
    got = design_outcome(cfg)
    assert len(stages) == 92
    assert got == reference_outcome(cfg)
    (_, traj), caught = got
    assert len(traj) == 150 and traj[92:] == traj[89:147]
    assert caught == ["mi_vn decreased on 91 of 150 iterations (quantizer redesign oscillation)"]


def test_replayed_iterations_re_emit_their_warnings(monkeypatch):
    evolve = vn_evolve
    designed = []

    def warning_vn(p_cn, p_ch, dv, tables):
        designed.append(1)
        warnings.warn(f"vn stage on phi_c {tables['phi_c'].values}", UserWarning)
        return evolve(p_cn, p_ch, dv, tables)

    monkeypatch.setattr(evolution, "vn_evolve", warning_vn)
    monkeypatch.setitem(globals(), "vn_evolve", warning_vn)
    cfg = paper_point("min", "comp", 3.0)
    got = design_outcome(cfg)
    assert len(designed) == 92
    want = reference_outcome(cfg)
    assert len(designed) == 92 + 150
    assert got == want
    assert sum(m.startswith("vn stage") for m in got[1]) == 150


@pytest.mark.parametrize("cn,ebn0,calls,certified", [("comp", 3.0, 278, 100),
                                                     ("min", 3.05, 150, 50)])
def test_drift_certificate_leaves_the_cycling_probes_byte_identical(monkeypatch, cn, ebn0,
                                                                    calls, certified):
    # failing probes of the threshold benchmark at the paper point: a
    # period-2 cycle whose floats keep drifting, so no state repeats and
    # every iteration is designed.  Many late threshold DPs are certified
    # from an anchor, and the outcome is that of a run whose certificate
    # always misses.
    cfg = paper_point(cn, "comp", ebn0)
    certify, add = quantizers.Anchors.certify, quantizers.Anchors.add
    tried, built = [], []

    def counted_certify(self, *args):
        out = certify(self, *args)
        tried.append(out is not None)
        return out

    def counted_add(self, *args):
        built.append(args[3])
        return add(self, *args)

    monkeypatch.setattr(quantizers.Anchors, "certify", counted_certify)
    monkeypatch.setattr(quantizers.Anchors, "add", counted_add)
    got = design_outcome(cfg)
    assert len(tried) == calls and sum(tried) >= certified and 2 <= len(built) <= 12
    monkeypatch.setattr(quantizers.Anchors, "certify", lambda self, *args: None)
    assert got == design_outcome(cfg)
    assert len(got[0][1]) == 150


def test_state_key_tells_apart_every_part_of_the_state():
    # a cycle is declared only on an exact repeat of everything the next
    # iteration reads
    p = message_pmf()
    key = evolution._state_key((p, 0.5, 0.25))
    assert evolution._state_key((JointPMF(p.alphabet.copy(), p.mass.copy(), llr_order=True,
                                          symmetric=True), 0.5, 0.25)) == key
    nudged = p.mass.copy()
    nudged[:, [0, -1]] += [[1e-17], [-1e-17]]
    variants = [
        (JointPMF(p.alphabet, nudged, llr_order=True, symmetric=True), 0.5, 0.25),
        (JointPMF(p.alphabet * 2, p.mass, llr_order=True, symmetric=True), 0.5, 0.25),
        (JointPMF(p.alphabet, p.mass, symmetric=True), 0.5, 0.25),
        (JointPMF(p.alphabet, p.mass, llr_order=True, symmetric=True, values=p.alphabet * 0.5),
         0.5, 0.25),
        (p, 0.5000000000000001, 0.25), (p, 0.5, 0.25000000000000006), (p, None, 0.25)]
    assert len({key} | {evolution._state_key(v) for v in variants}) == 1 + len(variants)


@pytest.mark.parametrize("cfg,stop", [
    (base_cfg(design_ebn0_db=4.0), "converged"),
    (base_cfg(cn_variant="min", dc=6, design_ebn0_db=0.5, iterations=60), "stalled")])
def test_converging_and_stalling_designs_replay_nothing(monkeypatch, cfg, stop):
    stages = counted_vn_stages(monkeypatch)
    got = design_outcome(cfg)
    traj = got[0][1]
    assert len(stages) == len(traj) < cfg.iterations
    assert (traj[-1][1] >= EARLY_STOP_MI) == (stop == "converged")
    assert got == reference_outcome(cfg)


# --- design-point fuzz ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def fuzz_code(dv, dc):
    # N / dc = dv * dc: the quasi-cyclic lift, girth 6 guaranteed
    return generate_regular_code(dv * dc * dc, dv, dc, seed=1)


@st.composite
def design_points(draw):
    w = draw(st.integers(2, 4))
    return dict(dc=draw(st.integers(2, 8)), dv=draw(st.integers(1, 4)), w=w,
                wphi=draw(st.integers(w, 8)), iterations=draw(st.integers(1, 3)),
                cn_variant=draw(st.sampled_from(tuple(CN_VARIANTS))),
                vn_variant=draw(st.sampled_from(tuple(VN_VARIANTS))),
                design_ebn0_db=draw(st.floats(-2.0, 6.0)),
                rate=draw(st.sampled_from([0.25, 0.5, 0.841])),
                delta_search_points=draw(st.sampled_from([0, 1, 5])),
                uniform_warm_window=draw(st.sampled_from([0, 1, 10])))


@settings(max_examples=120, deadline=None)
@given(point=design_points())
def test_every_design_point_designs_or_fails_loudly(point):
    # either a ValidationError, or an artifact that round-trips, loads and
    # decodes noiseless frames clean; SNRs on both sides of threshold
    try:
        cfg = EnsembleConfig(**point)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            artifact, _ = design_decoder(cfg)
    except ValidationError:
        return
    text = artifact.to_json()
    back = DesignArtifact.from_json(text)
    assert back.to_json() == text
    code = fuzz_code(cfg.dv, cfg.dc)
    if cfg.cn_variant != "omsq":
        DecoderState(code, back)
    res = simulate_point(code, back, cfg.design_ebn0_db, stop={"max_frames": 8},
                         noiseless=True)
    assert (res.frames, res.frame_errors, res.bit_errors) == (8, 0, 0)


def test_a_uniform_vn_stage_with_an_empty_cell_keeps_every_cell():
    # dv = 1 with wphi = 4: the VN output has 7 magnitudes and its best
    # shift is 0, so cell 1 is empty; the next stage's tables were 7 long
    # and the artifact failed to load
    cfg = EnsembleConfig(dc=6, dv=1, w=4, wphi=4, iterations=3, cn_variant="min",
                         vn_variant="comp_uni", design_ebn0_db=4.7, rate=0.5)
    artifact, _ = design_decoder(cfg)
    assert artifact.per_iteration[0].vn_quantizer.shift_r == 0
    back = DesignArtifact.from_json(artifact.to_json())
    assert [len(r.vn_tables["phi_c"].values) for r in back.per_iteration] == [8, 8, 8]
    res = simulate_point(fuzz_code(1, 6), back, 4.7, stop={"max_frames": 8}, noiseless=True)
    assert (res.frame_errors, res.bit_errors) == (0, 0)


# --- the FFT-ranked stage search ---------------------------------------------

def ranked_mi(da, db, w, wphi, kappa_search):
    """The ranking MI of one row of folded masses, as ranking._rank_steps
    takes it."""
    return float(quantizers._uniform_scores(da, db, w, wphi, kappa_search)[0].max())


def assert_close_in_l1(da, db, exact, eps):
    """The ranking's folded masses of one row against the exact PMF's: eps
    bounds their l1 distance too, as it exceeds 2 D, and D bounds the
    folded half, which both rows of the mass repeat; the ranking's rows may
    run on above the exact alphabet, with round-off dust."""
    a, b = _dense_folded(exact)
    assert da.size >= a.size and db.size == da.size
    gap = (np.abs(da[:a.size] - a).sum() + np.abs(db[:b.size] - b).sum()
           + da[a.size:].sum() + db[b.size:].sum())
    assert 2 * gap <= eps


def assert_within_rank_tolerance(p, dc, table, w, wphi):
    """One CN step: the FFT ranking's masses and MI within eps of the chain's."""
    T, n = (1 << (wphi - 1)) - 1, dc - 1
    eps = ranking._rank_tolerance(n, n * T + 1, 1 << (w - 1))
    (da,), (db,) = ranking._cn_rank_masses(p, dc, T, table.as_array()[None])
    slow = cn_evolve_comp(p, dc, table)
    assert_close_in_l1(da, db, slow, eps)
    mi_fast = ranked_mi(da, db, w, wphi, True)
    mi_slow = design_uniform(slow, w, wphi=wphi, kappa_search=True)[1]
    assert abs(mi_fast - mi_slow) <= eps
    return abs(mi_fast - mi_slow)


@settings(max_examples=40, deadline=None)
@given(point=design_points())
def test_spectral_evolution_ranks_within_the_derived_tolerance(point):
    # each fuzzed design point's channel messages through a CN at 16 steps
    point.update(cn_variant="comp_uni", vn_variant="comp_uni")
    try:
        cfg = EnsembleConfig(**point)
        _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
        dstar = phi_saturation_delta(p, cfg.wphi)
    except ValidationError:
        return
    for step in build_delta_grid(dstar, 16).tolist():
        table = build_translation_table(p, "cn_phi", step, cfg.wphi)
        assert_within_rank_tolerance(p, cfg.dc, table, cfg.w, cfg.wphi)


@pytest.mark.parametrize("dc,w,wphi,table", [
    (2, 3, 6, None), (5, 3, 6, (0, 0, 0, 0)), (2, 2, 2, (0, 0)),
    (4, 2, 5, None), (32, 4, 8, None), (32, 4, 8, (127,) * 8)])
def test_spectral_evolution_edge_cases_rank_within_the_tolerance(dc, w, wphi, table):
    # dc = 2 (no convolution), all-zero tables (one sum), w = 2, and the
    # paper point with a saturated table
    _, p = design_channel_quantizer(awgn_llr_pmf(ChannelModel(2.0, 0.5)), w)
    if table is None:
        table = build_translation_table(p, "cn_phi", phi_saturation_delta(p, wphi), wphi)
    else:
        table = TranslationTable(table, wphi, 0.5)
    assert_within_rank_tolerance(p, dc, table, w, wphi)


def test_rank_tolerance_is_small_at_the_paper_point_and_far_above_the_error():
    eps = ranking._rank_tolerance(31, 31 * 127 + 1, 8)
    assert 1e-8 < eps < 5e-8
    # the worst measured gap on the paper point's first scan is far inside
    _, p = design_channel_quantizer(awgn_llr_pmf(ChannelModel(3.3, 0.841)), 4)
    grid = build_delta_grid(phi_saturation_delta(p, 8), 64)
    gaps = [assert_within_rank_tolerance(p, 32, build_translation_table(p, "cn_phi", s, 8),
                                         4, 8) for s in grid.tolist()]
    assert max(gaps) < 1e-3 * eps
    # eps grows with every size it is derived from (dc, w, wphi through
    # n, K and L); the power is bounded below 100 factors only
    assert ranking._rank_tolerance(32, 32 * 127 + 1, 8) > eps
    assert ranking._rank_tolerance(31, 31 * 127 + 1, 16) > eps
    assert ranking._rank_tolerance(31, 31 * 255 + 1, 8) > eps
    assert (ranking._rank_tolerance(99, 99 * 127 + 1, 8) < math.inf
            == ranking._rank_tolerance(100, 100 * 127 + 1, 8))
    # the VN's: dv factors over 2 dv T + 1 sums
    assert 1e-9 < ranking._rank_tolerance(6, 2 * 6 * 127 + 1, 8) < eps


def first_vn_stage(cn):
    """The paper point's first VN stage: its config, channel PMF, input
    from the CN and grid."""
    cfg = paper_point(cn, "comp_uni", 3.3, iterations=1)
    _, t_ch = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    if cn == "min":
        p_cn = cn_evolve_min(t_ch, cfg.dc)
    else:
        rec = design_decoder(cfg)[0].per_iteration[0]
        p_cn = apply_quantizer(cn_evolve_comp(t_ch, cfg.dc, rec.cn_tables), rec.cn_quantizer)
    grid = build_delta_grid(llr_saturation_delta([p_cn, t_ch], cfg.wphi), cfg.uniform_grid_points)
    return cfg, t_ch, p_cn, grid


@pytest.mark.parametrize("cn", ["min", "comp_uni"])
def test_vn_ranking_is_within_the_derived_tolerance_at_every_step(cn):
    # every step of the paper point's first VN grid, 256 of them: the
    # ranking's masses and MI are within eps of the chain's, far inside
    cfg, t_ch, p_cn, grid = first_vn_stage(cn)
    T = (1 << (cfg.wphi - 1)) - 1
    raws = (quantizers.raw_translation_values(t_ch, "vn_llr"),
            quantizers.raw_translation_values(p_cn, "vn_llr"))
    ranker, eps = ranking._stage_rank(
        cfg, cfg.dv, 2 * cfg.dv * T + 1,
        partial(ranking._vn_rank_masses, p_cn, t_ch, cfg.dv, T), raws, False)
    ranked = ranker(grid)
    values = [quantizers.round_translation_steps(raw, grid, cfg.wphi)[0] for raw in raws]
    da, db = ranking._vn_rank_masses(p_cn, t_ch, cfg.dv, T, *values)
    gaps = []
    for i, step in enumerate(grid.tolist()):
        exact = vn_evolve(p_cn, t_ch, cfg.dv,
                          {"phi_ch": build_translation_table(t_ch, "vn_llr", step, cfg.wphi),
                           "phi_c": build_translation_table(p_cn, "vn_llr", step, cfg.wphi)})
        assert_close_in_l1(da[i], db[i], exact, eps)
        mi = design_uniform(exact, cfg.w, wphi=cfg.wphi, delta=step)[1]
        assert abs(ranked[i] - mi) <= eps
        gaps.append(abs(ranked[i] - mi))
    assert max(gaps) < 1e-3 * eps


@functools.lru_cache(maxsize=None)
def cached_reference(cfg):
    return reference_outcome(cfg)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("cfg", [
    stage_cfg("comp_uni", "comp_uni", design_ebn0_db=2.2, uniform_warm_window=1),
    stage_cfg("comp_uni", "comp", design_ebn0_db=3.0, uniform_warm_window=2),
    paper_point("comp_uni", "comp_uni", 3.3, iterations=4),
    stage_cfg("min", "comp_uni", design_ebn0_db=2.2, uniform_warm_window=1),
    stage_cfg("min", "comp_uni", design_ebn0_db=3.0, uniform_warm_window=2),
    stage_cfg("comp", "comp_uni", design_ebn0_db=2.2, uniform_warm_window=1),
    stage_cfg("comp", "comp_uni", design_ebn0_db=3.0, uniform_warm_window=2),
    paper_point("min", "comp_uni", 3.3, iterations=4),
    paper_point("comp", "comp_uni", 3.3, iterations=4)],
    ids=["dc6", "dc6-comp", "dc32", "dc6-min-vn-w1", "dc6-min-vn-w2", "dc6-comp-vn-w1",
         "dc6-comp-vn-w2", "dc32-min-vn", "dc32-comp-vn"])
def test_ranked_stage_search_equals_the_reference(monkeypatch, count, cfg):
    monkeypatch.setattr(workers, "WORKERS", count)
    assert design_outcome(cfg) == cached_reference(cfg)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", [1, 2])
def test_a_ranked_vn_stage_raises_where_a_one_symbol_step_raises(monkeypatch, count):
    # wphi = 2: at the largest steps every VN table rounds to 0, and
    # vn_evolve rejects the one-symbol adder sum; the ranking leaves those
    # steps to the chain, so the ranked search raises as the exhaustive one
    cfg = EnsembleConfig(dc=2, dv=2, w=2, wphi=2, iterations=1, cn_variant="min",
                         vn_variant="comp_uni", design_ebn0_db=0.0, rate=0.25)
    with pytest.raises(ValidationError, match="alphabet must hold at least two symbols"):
        ref_design_decoder(cfg)
    monkeypatch.setattr(workers, "WORKERS", count)
    assert design_outcome(cfg) == (("raised", "alphabet must hold at least two symbols"), [])
    assert multiprocessing.active_children() == []


def counted_ranking(monkeypatch, evolve_name):
    """Counts the steps each node's stages rank and the ``evolve_name``
    calls, the steps evaluated on the chain."""
    calls = {"exact": 0, "_cn_rank_masses": 0, "_vn_rank_masses": 0}
    rank_steps, evolve = ranking._rank_steps, getattr(evolution, evolve_name)

    def ranker(masses, *args):
        calls[masses.func.__name__] += len(args[-1])
        return rank_steps(masses, *args)

    def exact(*args):
        calls["exact"] += 1
        return evolve(*args)

    monkeypatch.setattr(workers, "WORKERS", 1)
    monkeypatch.setattr(ranking, "_rank_steps", ranker)
    monkeypatch.setattr(evolution, evolve_name, exact)
    return calls


def test_ranked_stage_search_evolves_few_steps_exactly(monkeypatch):
    # the paper point's first CN stage scans the 256-step grid: every step
    # is ranked, and only the near-best are evolved on the chain
    calls = counted_ranking(monkeypatch, "cn_evolve_comp")
    cfg = paper_point("comp_uni", "comp_uni", 3.3, iterations=1)
    assert design_outcome(cfg) == cached_reference(cfg)
    assert calls["_cn_rank_masses"] > 100 and 1 <= calls["exact"] <= 3


def test_ranked_vn_stage_search_evolves_few_steps_exactly(monkeypatch):
    # likewise the first VN stage: 256 steps ranked, 1 to 3 on vn_evolve
    calls = counted_ranking(monkeypatch, "vn_evolve")
    cfg = paper_point("min", "comp_uni", 3.3, iterations=1)
    assert design_outcome(cfg) == cached_reference(cfg)
    assert calls["_vn_rank_masses"] == 256 and 1 <= calls["exact"] <= 3


def test_a_ranking_that_warns_or_raises_leaves_its_batch_to_the_chain():
    # a share's ranker that warns or raises ranks none of its steps
    steps = np.arange(1.0, 8.0)

    def share(ranker):
        return evolution._stage_share(None, True, False, None, None, steps,
                                      np.arange(steps.size)[1::3], ranker)

    def warning(s):
        warnings.warn("ranking", UserWarning)
        return s

    def failing(s):
        raise ValueError("ranking")

    assert share(np.negative).tolist() == [-2.0, -5.0]
    for ranker in (warning, failing):
        assert np.isnan(share(ranker)).tolist() == [True, True]


def exact_stage_mis(cfg):
    """The exact MI at each grid step of the first comp_uni CN stage."""
    _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    grid = build_delta_grid(phi_saturation_delta(p, cfg.wphi), cfg.uniform_grid_points)
    mis = [design_uniform(cn_evolve_comp(p, cfg.dc, build_translation_table(p, "cn_phi", s,
                                                                             cfg.wphi)),
                          cfg.w, wphi=cfg.wphi, kappa_search=True)[1] for s in grid.tolist()]
    return grid, mis


def offset_ranking(mis, index, win, eps, steps):
    """``mis`` at each step, lowered by 0.999 eps at step ``win`` and raised
    by as much elsewhere."""
    return [mis[index[s]] + (-0.999 if index[s] == win else 0.999) * eps
            for s in steps.tolist()]


def constant_ranking(steps):
    return np.full(len(steps), 0.5)


@pytest.mark.parametrize("count", [1, 2])
def test_a_ranking_off_by_less_than_eps_still_finds_the_first_exact_maximum(monkeypatch,
                                                                           count):
    # the ranking is the exact MI lowered by 0.999 eps at the exact winner
    # and raised by 0.999 eps elsewhere, with eps the winner's lead: the
    # runner-up ranks first, and the winner must still be verified and win
    cfg = stage_cfg("comp_uni", "comp_uni", uniform_grid_points=32)
    grid, mis = exact_stage_mis(cfg)
    best = max(mis)
    win = mis.index(best)
    eps = best - max(mi for mi in mis if mi < best)
    index = {float(d): i for i, d in enumerate(grid)}
    exact_calls = []

    def designer(q, w, *, delta, **kw):
        exact_calls.append(index[delta])
        return design_uniform(q, w, delta=delta, **kw)

    want = cn_stage(cfg, ())
    monkeypatch.setattr(evolution, "design_uniform", designer)
    with workers.forked(evolution._stage_share, count - 1) as team:
        exact_calls.clear()
        got = cn_stage(cfg, team, lambda p, cfg: (
            partial(offset_ranking, mis, index, win, eps), eps))
    assert got == want
    assert got[0][1].delta == float(grid[win])
    if count == 1:
        assert win in exact_calls and len(exact_calls) < len(grid)


@pytest.mark.parametrize("count", [1, 2])
def test_a_ranking_that_ties_everywhere_verifies_every_step(monkeypatch, count):
    # every step ranks alike: all are evaluated exactly, and the first
    # exact maximum wins as in the exhaustive scan
    cfg = stage_cfg("comp_uni", "comp_uni")
    want = cn_stage(cfg, ())
    with workers.forked(evolution._stage_share, count - 1) as team:
        assert cn_stage(cfg, team, lambda p, cfg: (constant_ranking, 0.0)) == want


@pytest.mark.parametrize("mi_at,win", [(lambda i: i / 100, 15),
                                       (lambda i: 0.5 if i in (2, 8) else 0.25, 2)])
def test_window_fallback_searches_only_the_rest_of_the_grid(monkeypatch, mi_at, win):
    # the window is grid steps 4..8 and its best is step 8, its edge: the
    # rest of the grid is searched, each step once (so each warns once),
    # and the window's best meets the rest's at grid index 8, a tie going
    # to the smaller index
    cfg = stage_cfg("comp_uni", "comp_uni", uniform_warm_window=2)
    _, p = design_channel_quantizer(awgn_llr_pmf(cfg.channel_model()), cfg.w)
    grid = build_delta_grid(phi_saturation_delta(p, cfg.wphi), cfg.uniform_grid_points)
    monkeypatch.setattr(evolution, "design_uniform", grid_design_uniform(grid, mi_at))
    for rank in (None, designer_rank):
        (_, spec, mi, *_), caught = cn_stage(cfg, (), rank, prev_delta=float(grid[6]))
        assert spec.delta == float(grid[win]) and mi == mi_at(win)
        assert caught == [f"step {i}" for i in [*range(4, 9), *range(4), *range(9, 16)]]


# --- np.bincount accumulation ---------------------------------------------------

def add_at_bincount(x, weights, minlength=0):
    """np.bincount by np.add.at, the accumulation it replaced: one add per
    index, in index order, into +0.0."""
    out = np.zeros(max(minlength, int(np.max(x, initial=-1)) + 1))
    np.add.at(out, x, weights)
    return out


def test_bincount_accumulates_bit_for_bit_as_add_at():
    rng = np.random.default_rng(5)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308])
    for case in range(2000):
        size, n = int(rng.integers(1, 40)), int(rng.integers(0, 120))
        idx = rng.integers(0, size, n)
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        if case % 4 == 0:
            w[rng.random(n) < 0.2] = rng.choice(specials)
        with np.errstate(all="ignore"):     # sums past 1e308 overflow alike
            assert (np.bincount(idx, w, size).tobytes()
                    == add_at_bincount(idx, w, size).tobytes())


def test_every_bincount_call_site_equals_add_at(monkeypatch):
    p = message_pmf(3, half=6)
    table = TranslationTable((0, 3, 3, 7, 12, 31), 6, 0.25)
    _, omsq = _omsq_channel_design(awgn_llr_pmf(ChannelModel(1.5, 0.5)), 3)
    spec = QuantizerSpec("uniform", 3, shift_r=1, offset_kappa=1)
    mapping = np.where(p.alphabet > 0, 1, -1) * np.minimum(np.abs(p.alphabet), 3)

    def outputs():
        return [q.mass.tobytes() for q in (
            cn_evolve_comp(p, 5, table), cn_evolve_min(p, 4),
            vn_evolve(p, p, 3, {"phi_ch": table, "phi_c": table}),
            _omsq_cn_evolve(omsq, 6, 1), apply_quantizer(p, spec),
            apply_quantizer(p, mapping))] + [apply_quantizer(p, mapping).symmetric]

    want = outputs()
    monkeypatch.setattr(np, "bincount", add_at_bincount)
    assert outputs() == want
