"""Hardware cost bookkeeping for the node variants.

Counts additions/comparisons, translation lookups, and table memory bits
per node update as closed-form functions of the node degree, message width
w, internal width wphi, and the threshold storage width ws.  ws is not
pinned down by the cost model it comes from; it is taken as a parameter
and defaults to the quantizer input width w_y at the call sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pmf import ValidationError

#: the node variants, for the cost model, the design configs, the artifacts
#: and the CLI, each with the kind of quantizer its designed records carry
#: (None: the variant designs none)
CN_VARIANTS = {"comp": "non_uniform", "comp_uni": "uniform", "min": None, "omsq": None}
VN_VARIANTS = {"comp": "non_uniform", "comp_uni": "uniform", "omsq": None}


@dataclass(frozen=True)
class NodeCost:
    """Per-update cost of one node of the given kind and variant."""

    node: str           # "cn" or "vn"
    variant: str
    operations: int     # additions + comparisons
    translations: int   # table lookups
    memory_bits: int    # translation/threshold storage
    out_of_model: bool = False


def cn_input_width(dc, wphi):
    """Adder output width of the check node magnitude path."""
    if dc < 2:
        raise ValidationError("check degree must be at least 2")
    return (wphi - 1) + math.ceil(math.log2(dc - 1))


def vn_input_width(dv, wphi):
    """Adder output width of the signed variable node path."""
    if dv < 1:
        raise ValidationError("variable degree must be at least 1")
    return wphi + math.ceil(math.log2(max(dv, 2))) + 1


def cn_cost(variant, dc, w, wphi, ws=None) -> NodeCost:
    """Check node operation/translation/memory counts."""
    if variant not in CN_VARIANTS:
        raise ValidationError(f"unknown cn variant {variant!r}")
    if dc < 2 or w < 1 or wphi < w:
        raise ValidationError("need dc >= 2 and 1 <= w <= wphi")
    if ws is None:
        ws = cn_input_width(dc, wphi)
    half = 1 << (w - 1)
    log_dc = math.ceil(math.log2(dc))
    if variant == "comp":
        ops = (w + 1) * dc - 2
        trans = dc
        mem = (wphi + ws - 1) * half
    elif variant == "comp_uni":
        ops = 2 * dc - 2
        trans = dc
        mem = wphi * half
    elif variant == "min":
        ops = dc + log_dc - 2
        trans = 0
        mem = 0
    else:  # omsq
        ops = dc + log_dc
        trans = 0
        mem = 0
    return NodeCost("cn", variant, ops, trans, mem, out_of_model=w < 2)


def vn_cost(variant, dv, w, wphi, ws=None) -> NodeCost:
    """Variable node operation/translation/memory counts."""
    if variant not in VN_VARIANTS:
        raise ValidationError(f"unknown vn variant {variant!r}")
    if dv < 1 or w < 1 or wphi < w:
        raise ValidationError("need dv >= 1 and 1 <= w <= wphi")
    if ws is None:
        ws = vn_input_width(dv, wphi)
    half = 1 << (w - 1)
    if variant == "comp":
        ops = (w + 1) * dv - 1
        trans = dv + 1
        mem = (2 * wphi + ws - 3) * half
    elif variant == "comp_uni":
        ops = 2 * dv - 1
        trans = dv + 1
        mem = (2 * wphi - 2) * half
    else:  # omsq
        ops = 2 * dv - 1
        trans = 0
        mem = 0
    return NodeCost("vn", variant, ops, trans, mem, out_of_model=w < 2)


def report(dc, dv, w, wphi, ws_cn=None, ws_vn=None):
    """All variants' costs for one configuration, CN rows then VN rows."""
    rows = [cn_cost(v, dc, w, wphi, ws_cn) for v in CN_VARIANTS]
    rows += [vn_cost(v, dv, w, wphi, ws_vn) for v in VN_VARIANTS]
    return rows
