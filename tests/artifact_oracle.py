"""The artifact writer and reader as they were listed field by field.

Kept as the oracle of the serialization derived from the dataclasses:
``old_to_json`` and ``old_from_json`` are the former
``DesignArtifact.to_json`` and ``DesignArtifact.from_json``.
"""

import json
from dataclasses import MISSING, fields

import numpy as np
import pytest

from quantldpc.evolution import (
    DesignArtifact,
    EnsembleConfig,
    IterationDesign,
    OmsqChannelQuantizer,
    _check_loaded,
)
from quantldpc.pmf import JointPMF, ValidationError
from quantldpc.quantizers import QuantizerSpec, TranslationTable


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


def old_to_json(art):
    return json.dumps(_artifact_to_tree(art), indent=1)


def old_from_json(text):
    return _artifact_from_tree(json.loads(text))


def check_against_oracle(art):
    """``art`` serializes as the old writer wrote it, byte for byte, and
    the old text loads as the old reader loaded it: to an artifact that
    re-serializes to the same text, or to the same error."""
    text = old_to_json(art)
    assert art.to_json() == text
    try:
        old = old_from_json(text)
    except Exception as exc:
        with pytest.raises(type(exc)) as new:
            DesignArtifact.from_json(text)
        assert str(new.value) == str(exc)
        return
    back = DesignArtifact.from_json(text)
    assert back.to_json() == old_to_json(back) == old.to_json() == text
