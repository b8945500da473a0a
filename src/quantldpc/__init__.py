"""Coarsely quantized mutual-information-maximizing LDPC decoder toolkit."""

from .codes import ParityCheckMatrix, bundled_code, generate_regular_code, parse_alist, write_alist
from .complexity import NodeCost, cn_cost, report, vn_cost
from .decoder import DecoderState, cn_exact_llr, decode, decode_batch, omsq_decode_batch
from .evolution import (
    DesignArtifact,
    EnsembleConfig,
    IterationDesign,
    OmsqChannelQuantizer,
    ThresholdResult,
    de_threshold,
    design_decoder,
)
from .pmf import (
    ChannelModel,
    JointPMF,
    ValidationError,
    awgn_llr_pmf,
    apply_quantizer,
    mutual_information,
    symmetrize_vn_sum,
)
from .quantizers import (
    QuantizerSpec,
    TranslationTable,
    build_translation_table,
    design_channel_quantizer,
    design_nonuniform,
    design_uniform,
)
from .sim import SimPoint, simulate_point, sweep, wilson_interval, write_csv

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "DecoderState",
    "DesignArtifact",
    "EnsembleConfig",
    "IterationDesign",
    "JointPMF",
    "NodeCost",
    "OmsqChannelQuantizer",
    "ParityCheckMatrix",
    "QuantizerSpec",
    "SimPoint",
    "ThresholdResult",
    "TranslationTable",
    "ValidationError",
    "awgn_llr_pmf",
    "apply_quantizer",
    "build_translation_table",
    "bundled_code",
    "cn_cost",
    "cn_exact_llr",
    "de_threshold",
    "decode",
    "decode_batch",
    "design_channel_quantizer",
    "design_decoder",
    "design_nonuniform",
    "design_uniform",
    "generate_regular_code",
    "mutual_information",
    "omsq_decode_batch",
    "parse_alist",
    "report",
    "simulate_point",
    "sweep",
    "symmetrize_vn_sum",
    "vn_cost",
    "wilson_interval",
    "write_alist",
]
