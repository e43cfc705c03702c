"""Stage-level model graphs: the unit APO partitions over.

The paper's APO tool (Algorithm 1) reasons about a DNN as a sequence of
*partitionable* stages — it never cuts inside a residual block or skip
connection (§5.3).  A :class:`ModelGraph` captures exactly the quantities
`FindBestPoint` needs per stage: forward FLOPs, parameter count, and the
activation volume a cut after that stage would ship over the network.

Graphs exist at two scales:

* full-scale graphs (:mod:`repro.models.catalog`) with the published
  architectures' FLOP/byte numbers, used by APO and the simulator;
* tiny runnable graphs derived from the numpy models, used to cross-check
  that analytic partitioning agrees with what the real split executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: bytes per element when features are shipped PipeStore -> Tuner (fp32;
#: calibrated against the 9.16 GB +Conv5 traffic callout of Fig. 9)
FEATURE_DTYPE_BYTES = 4
#: bytes per element of a preprocessed input binary (fp32)
INPUT_DTYPE_BYTES = 4
#: bytes per model weight (fp32)
WEIGHT_DTYPE_BYTES = 4


@dataclass(frozen=True)
class StageSpec:
    """One partitionable segment of a model.

    ``flops_fwd`` is per-image forward FLOPs; the backward pass of a
    trainable stage is modelled as ``2x`` forward (standard estimate).
    ``out_elems`` is the number of activation elements per image leaving the
    stage.  ``trainable`` marks the classifier / task module that
    fine-tuning updates.
    """

    name: str
    flops_fwd: float
    params: int
    out_elems: int
    trainable: bool = False

    @property
    def flops_train(self) -> float:
        """FLOPs per image when this stage participates in training."""
        if self.trainable:
            return 3.0 * self.flops_fwd
        return self.flops_fwd

    @property
    def out_bytes(self) -> int:
        return self.out_elems * FEATURE_DTYPE_BYTES

    @property
    def weight_bytes(self) -> int:
        return self.params * WEIGHT_DTYPE_BYTES


@dataclass(frozen=True)
class PartitionPoint:
    """A cut after ``num_stages`` stages (0 = nothing offloaded)."""

    index: int
    label: str
    front_flops: float
    back_flops_train: float
    feature_bytes: int
    sync_bytes: int


class ModelGraph:
    """A model as an ordered list of partitionable stages."""

    def __init__(self, name: str, stages: Sequence[StageSpec],
                 input_elems: int, raw_image_bytes: int):
        if not stages:
            raise ValueError("a model graph needs at least one stage")
        trainable = [s for s in stages if s.trainable]
        if not trainable:
            raise ValueError(f"{name}: no trainable (classifier) stage")
        if not stages[-1].trainable:
            raise ValueError(f"{name}: the trainable stage must be last (fine-tuning)")
        self.name = name
        self.stages: Tuple[StageSpec, ...] = tuple(stages)
        self.input_elems = input_elems
        self.raw_image_bytes = raw_image_bytes

    # -- aggregates -----------------------------------------------------
    @property
    def total_flops(self) -> float:
        return sum(s.flops_fwd for s in self.stages)

    @property
    def total_params(self) -> int:
        return sum(s.params for s in self.stages)

    @property
    def input_bytes(self) -> int:
        """Bytes of one preprocessed input binary (what 'None' ships)."""
        return self.input_elems * INPUT_DTYPE_BYTES

    @property
    def classifier(self) -> StageSpec:
        return self.stages[-1]

    @property
    def classifier_params(self) -> int:
        return sum(s.params for s in self.stages if s.trainable)

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    # -- partitioning ----------------------------------------------------
    def num_partition_points(self) -> int:
        """Cuts 0..len(stages): 0 = None (ship inputs), len = +classifier."""
        return len(self.stages) + 1

    def partition_point(self, index: int) -> PartitionPoint:
        """Describe the cut after ``index`` stages.

        ``feature_bytes`` is what each image costs on the wire:
        the preprocessed input for index 0, the activation at the cut
        otherwise, and only label-sized output once everything (including
        the classifier) is offloaded.  ``sync_bytes`` is the per-epoch
        weight-synchronisation cost that appears once trainable layers run
        on PipeStores (the +FC surge of Fig. 9).
        """
        if not 0 <= index <= len(self.stages):
            raise ValueError(f"partition index {index} out of range")
        if index == 0:
            label = "None"
            feature_bytes = self.input_bytes
        else:
            stage = self.stages[index - 1]
            label = f"+{stage.name}"
            feature_bytes = stage.out_bytes if index < len(self.stages) else 8

        front = self.stages[:index]
        back = self.stages[index:]
        sync_bytes = sum(s.weight_bytes for s in front if s.trainable)
        return PartitionPoint(
            index=index,
            label=label,
            front_flops=sum(s.flops_fwd for s in front),
            back_flops_train=sum(s.flops_train for s in back),
            feature_bytes=feature_bytes,
            sync_bytes=sync_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"ModelGraph({self.name}, {len(self.stages)} stages, "
            f"{self.total_flops / 1e9:.2f} GFLOPs, "
            f"{self.total_params / 1e6:.1f}M params)"
        )
