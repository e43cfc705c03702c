"""Full-scale stage graphs of the paper's five models.

Per-stage FLOPs, parameter counts, and activation sizes follow the published
architectures (He et al. '16; Szegedy et al. '16; Ma et al. '18; Xie et
al. '17; Dosovitskiy et al. '21) at their standard input resolutions.
Stage boundaries are the paper's partitionable points: between the named
convolution groups of the CNNs and between encoder-block groups of ViT —
never inside a residual block (§5.3).

FLOPs are multiply-accumulate counts x2.  Numbers are rounded to three
significant digits; APO only needs relative magnitudes, and the simulator
calibrates absolute throughput against the paper's measured IPS
(:mod:`repro.sim.specs`).
"""

from __future__ import annotations

from typing import List

from .graph import ModelGraph, StageSpec

#: average raw photo size in the paper's workload (2.7 MB JPEG, §3.4)
RAW_IMAGE_BYTES = 2_700_000

GF = 1e9
MF = 1e6


def resnet50() -> ModelGraph:
    """ResNet50 at 224x224: 4.2 GFLOPs forward, 25.6M params."""
    stages = [
        StageSpec("Conv1", 0.24 * GF, 9_408, 64 * 56 * 56),
        StageSpec("Conv2", 0.68 * GF, 215_808, 256 * 56 * 56),
        StageSpec("Conv3", 1.04 * GF, 1_219_584, 512 * 28 * 28),
        StageSpec("Conv4", 1.46 * GF, 7_098_368, 1024 * 14 * 14),
        StageSpec("Conv5", 0.81 * GF, 14_964_736, 2048),
        StageSpec("FC", 4.1 * MF, 2_049_000, 1000, trainable=True),
    ]
    return ModelGraph("ResNet50", stages, input_elems=3 * 224 * 224,
                      raw_image_bytes=RAW_IMAGE_BYTES)


def inception_v3() -> ModelGraph:
    """InceptionV3 at 299x299: 5.7 GFLOPs forward, 23.9M params."""
    stages = [
        StageSpec("Stem", 0.86 * GF, 1_240_000, 288 * 35 * 35),
        StageSpec("MixedA", 1.02 * GF, 1_160_000, 288 * 35 * 35),
        StageSpec("MixedB", 2.58 * GF, 10_900_000, 768 * 17 * 17),
        StageSpec("MixedC", 1.24 * GF, 8_550_000, 2048),
        StageSpec("FC", 4.1 * MF, 2_049_000, 1000, trainable=True),
    ]
    return ModelGraph("InceptionV3", stages, input_elems=3 * 299 * 299,
                      raw_image_bytes=RAW_IMAGE_BYTES)


def shufflenet_v2() -> ModelGraph:
    """ShuffleNetV2 1.0x at 224x224: 0.30 GFLOPs forward, 2.3M params."""
    stages = [
        StageSpec("Stem", 0.024 * GF, 1_000, 24 * 56 * 56),
        StageSpec("Stage2", 0.080 * GF, 27_000, 116 * 28 * 28),
        StageSpec("Stage3", 0.120 * GF, 140_000, 232 * 14 * 14),
        StageSpec("Stage4", 0.056 * GF, 556_000, 464 * 7 * 7),
        StageSpec("Conv5", 0.020 * GF, 478_000, 1024),
        StageSpec("FC", 2.1 * MF, 1_025_000, 1000, trainable=True),
    ]
    return ModelGraph("ShuffleNetV2", stages, input_elems=3 * 224 * 224,
                      raw_image_bytes=RAW_IMAGE_BYTES)


def resnext101() -> ModelGraph:
    """ResNeXt101 32x8d at 224x224: 16.5 GFLOPs forward, 88.8M params."""
    stages = [
        StageSpec("Conv1", 0.24 * GF, 9_408, 64 * 56 * 56),
        StageSpec("Conv2", 2.70 * GF, 630_000, 256 * 56 * 56),
        StageSpec("Conv3", 4.20 * GF, 4_260_000, 512 * 28 * 28),
        StageSpec("Conv4", 5.90 * GF, 52_900_000, 1024 * 14 * 14),
        StageSpec("Conv5", 3.40 * GF, 28_900_000, 2048),
        StageSpec("FC", 4.1 * MF, 2_049_000, 1000, trainable=True),
    ]
    return ModelGraph("ResNeXt101", stages, input_elems=3 * 224 * 224,
                      raw_image_bytes=RAW_IMAGE_BYTES)


def vit_b16() -> ModelGraph:
    """ViT-B/16 at 224x224: 17.6 GFLOPs forward, 86.6M params.

    12 encoder blocks grouped into four partitionable groups of three;
    the task module (head) is the trainable stage.
    """
    block_group_flops = 4.33 * GF
    block_group_params = 21_300_000
    token_elems = 197 * 768
    stages = [
        StageSpec("PatchEmbed", 0.24 * GF, 742_000, token_elems),
        StageSpec("Blocks1_3", block_group_flops, block_group_params, token_elems),
        StageSpec("Blocks4_6", block_group_flops, block_group_params, token_elems),
        StageSpec("Blocks7_9", block_group_flops, block_group_params, token_elems),
        StageSpec("Blocks10_12", block_group_flops, block_group_params, 768),
        StageSpec("Head", 1.5 * MF, 769_000, 1000, trainable=True),
    ]
    return ModelGraph("ViT", stages, input_elems=3 * 224 * 224,
                      raw_image_bytes=RAW_IMAGE_BYTES)


_FACTORIES = {
    "ResNet50": resnet50,
    "InceptionV3": inception_v3,
    "ShuffleNetV2": shufflenet_v2,
    "ResNeXt101": resnext101,
    "ViT": vit_b16,
}

#: the four models the paper's scaling figures plot (§6.1)
FIGURE_MODELS: List[str] = ["ResNet50", "InceptionV3", "ResNeXt101", "ViT"]
#: all five models (Table 2 adds ShuffleNetV2)
ALL_MODELS: List[str] = ["ShuffleNetV2", "ResNet50", "InceptionV3", "ResNeXt101", "ViT"]


def model_graph(name: str) -> ModelGraph:
    """Look up a full-scale stage graph by paper model name."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
