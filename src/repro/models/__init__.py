"""``repro.models`` — the paper's five DNNs.

Each model exists as (a) a full-scale :class:`~repro.models.graph.ModelGraph`
with published FLOP/param/activation numbers used by APO and the simulator,
and (b) a tiny runnable :class:`~repro.models.split.SplitModel` on the numpy
substrate used by the real FT-DMP training path and the accuracy studies.
"""

from .catalog import ALL_MODELS, FIGURE_MODELS, RAW_IMAGE_BYTES, model_graph
from .graph import (
    FEATURE_DTYPE_BYTES,
    INPUT_DTYPE_BYTES,
    WEIGHT_DTYPE_BYTES,
    ModelGraph,
    PartitionPoint,
    StageSpec,
)
from .flops import FlopCounter, count_stage_flops
from .registry import TINY_FACTORIES, tiny_model
from .split import SplitModel

__all__ = [
    "ModelGraph", "StageSpec", "PartitionPoint",
    "FEATURE_DTYPE_BYTES", "INPUT_DTYPE_BYTES", "WEIGHT_DTYPE_BYTES",
    "model_graph", "ALL_MODELS", "FIGURE_MODELS",
    "RAW_IMAGE_BYTES",
    "SplitModel", "tiny_model", "TINY_FACTORIES",
    "FlopCounter", "count_stage_flops",
]
