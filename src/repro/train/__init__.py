"""``repro.train`` — training engines and comparison systems.

Runnable full training on the numpy substrate, plus the paper's baseline
system models: SRV-I/P/C, the §3.4 Typical/Ideal strawmen and naive NDP.
"""

from .baselines import (
    DEFAULT_NUM_STORAGE,
    SRV_C_DECOMPRESS_CORES,
    SRV_VARIANTS,
    SystemPoint,
    ideal_finetune,
    ideal_offline_inference,
    inference_crossovers,
    naive_ndp_finetune_breakdown,
    naive_ndp_inference_breakdown,
    ndpipe_inference,
    srv_finetune,
    srv_inference,
    typical_finetune,
    typical_finetune_breakdown,
    typical_inference_breakdown,
    typical_offline_inference,
)
from .fulltrain import TrainHistory, full_train

__all__ = [
    "SystemPoint", "SRV_VARIANTS", "DEFAULT_NUM_STORAGE",
    "SRV_C_DECOMPRESS_CORES",
    "srv_inference", "ndpipe_inference", "inference_crossovers",
    "srv_finetune", "typical_finetune", "ideal_finetune",
    "typical_offline_inference", "ideal_offline_inference",
    "typical_finetune_breakdown", "typical_inference_breakdown",
    "naive_ndp_finetune_breakdown", "naive_ndp_inference_breakdown",
    "full_train", "TrainHistory",
]
