"""Bit-exact output fingerprints and their comparison.

A fingerprint is plain JSON: thresholds, probe verdicts, tables,
quantizer parameters and simulation tallies compare exactly; mutual
information values (under the keys in :data:`MI_KEYS`) compare within
:data:`MI_TOL` absolute.  Floats are stored with full ``repr`` precision,
which JSON round-trips exactly.
"""

from __future__ import annotations

MI_KEYS = frozenset({"mi_cn", "mi_vn", "trajectory"})
MI_TOL = 1e-12


def _spec(spec):
    if spec is None:
        return None
    if spec.__class__.__name__ == "OmsqChannelQuantizer":
        return {"kind": "omsq_uniform_llr", "step": float(spec.step), "width_w": spec.width_w}
    out = {"kind": spec.kind, "w": spec.out_width_w, "delta": float(spec.delta)}
    if spec.kind == "non_uniform":
        out["thresholds"] = list(spec.thresholds)
    else:
        out["shift_r"] = spec.shift_r
        out["offset_kappa"] = spec.offset_kappa
    return out


def _table(tab):
    if tab is None:
        return None
    return {"values": list(tab.values), "wphi": tab.width_wphi,
            "delta": float(tab.delta), "clipped": list(tab.clipped)}


def artifact(art, trajectory=None):
    """Every designed number of a DesignArtifact."""
    out = {
        "channel_quantizer": _spec(art.channel_quantizer),
        "channel_edges_llr": (None if art.channel_edges_llr is None
                              else [float(e) for e in art.channel_edges_llr]),
        "iterations": [
            {
                "mi_cn": float(r.mi_cn),
                "mi_vn": float(r.mi_vn),
                "cn_table": _table(r.cn_tables),
                "cn_quantizer": _spec(r.cn_quantizer),
                "vn_tables": None if r.vn_tables is None else {
                    k: _table(r.vn_tables[k]) for k in ("phi_ch", "phi_c")},
                "vn_quantizer": _spec(r.vn_quantizer),
            }
            for r in art.per_iteration
        ],
    }
    if trajectory is not None:
        out["trajectory"] = [[float(a), float(b)] for a, b in trajectory]
    return out


def threshold(result):
    return {"status": result.status, "snr_db": result.snr_db,
            "probes": [[float(s), bool(ok)] for s, ok in result.probes]}


def sim_point(point):
    return {"ebn0_db": point.ebn0_db, "frames": point.frames,
            "bit_errors": point.bit_errors, "frame_errors": point.frame_errors,
            "iterations_histogram": sorted([int(k), int(v)]
                                           for k, v in point.iterations_histogram.items())}


def compare(ref, got, path="", tolerant=False):
    """Differences between two fingerprints as ``path: ref != got`` lines."""
    if isinstance(ref, dict) and isinstance(got, dict):
        diffs = []
        for key in sorted(set(ref) | set(got)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in ref or key not in got:
                diffs.append(f"{sub}: {'missing' if key not in got else 'unexpected'}")
                continue
            diffs += compare(ref[key], got[key], sub, tolerant or key in MI_KEYS)
        return diffs
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got)}"]
        diffs = []
        for i, (r, g) in enumerate(zip(ref, got)):
            diffs += compare(r, g, f"{path}[{i}]", tolerant)
        return diffs
    if (tolerant and isinstance(ref, float) and isinstance(got, float)
            and abs(ref - got) <= MI_TOL):
        return []
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {ref!r} != {got!r}"]
    return []
