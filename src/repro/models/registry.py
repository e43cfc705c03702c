"""Model registry: paper model name -> (tiny runnable factory, full graph)."""

from __future__ import annotations

from typing import Callable, Dict

from . import catalog
from .catalog import ALL_MODELS, FIGURE_MODELS, model_graph
from .inception import tiny_inception_v3
from .resnet import tiny_resnet50
from .resnext import tiny_resnext101
from .shufflenet import tiny_shufflenet_v2
from .split import SplitModel
from .vit import tiny_vit

TINY_FACTORIES: Dict[str, Callable[..., SplitModel]] = {
    "ShuffleNetV2": tiny_shufflenet_v2,
    "ResNet50": tiny_resnet50,
    "InceptionV3": tiny_inception_v3,
    "ResNeXt101": tiny_resnext101,
    "ViT": tiny_vit,
}


def tiny_model(name: str, **kwargs) -> SplitModel:
    """Build the tiny runnable variant of a paper model by name."""
    try:
        factory = TINY_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(TINY_FACTORIES)}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "TINY_FACTORIES", "tiny_model", "model_graph",
    "ALL_MODELS", "FIGURE_MODELS", "catalog",
]
