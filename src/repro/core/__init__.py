"""``repro.core`` — the paper's contribution.

FT-DMP training strategy, pipelined training, the APO organisation tool,
the near-data processing engine's cost model, Check-N-Run delta
distribution, and the runnable PipeStore/Tuner/cluster system.
"""

from .apo import OrganizationCandidate, OrganizationPlan, plan_organization
from .checknrun import (
    DeltaError,
    DeltaStats,
    apply_delta,
    delta_stats,
    encode_delta,
    state_dict_bytes,
)
from .cluster import InferenceServer, NDPipeCluster, RelabelStats
from .config import ClusterConfig
from .dataplane import IngestDataPlane, RingPlacement, RoundRobinPlacement
from .driftdetect import (
    DetectionPolicy,
    MaintenanceLog,
    MaintenancePolicy,
    NeverPolicy,
    ScheduledPolicy,
)
from .convergence import (
    RunConvergence,
    check_pipelined_losses,
    inter_run_loss_gap,
)
from ..faults import (
    FaultInjector,
    MessageDroppedError,
    RetryPolicy,
    TransientFaultError,
    call_with_retry,
)
from .fabric import NetworkFabric, TransferRecord
from .ftdmp import EpochRecord, FinetuneReport, FTDMPTrainer
from .npe import (
    ABLATION_LEVELS,
    NpeConfig,
    ThreadedPipeline,
    npe_ablation,
    npe_task_times,
    npe_throughput_ips,
)
from .partition import (
    FinetunePlanConfig,
    PartitionEvaluation,
    evaluate_all_points,
    evaluate_partition,
    find_best_point,
    pipelined_time,
    store_stage_rate,
)
from .pipestore import PipeStore, StoredPhoto, StoreUnavailableError
from .tuner import DistributionStats, Tuner

__all__ = [
    "FTDMPTrainer", "FinetuneReport", "EpochRecord",
    "FinetunePlanConfig", "PartitionEvaluation", "find_best_point",
    "evaluate_partition", "evaluate_all_points", "pipelined_time",
    "store_stage_rate",
    "OrganizationPlan", "OrganizationCandidate", "plan_organization",
    "ThreadedPipeline", "NpeConfig", "npe_ablation", "npe_task_times",
    "npe_throughput_ips", "ABLATION_LEVELS",
    "encode_delta", "apply_delta", "delta_stats", "state_dict_bytes",
    "DeltaStats", "DeltaError",
    "PipeStore", "StoredPhoto", "StoreUnavailableError", "Tuner",
    "DistributionStats",
    "NDPipeCluster", "InferenceServer", "RelabelStats", "ClusterConfig",
    "IngestDataPlane", "RingPlacement", "RoundRobinPlacement",
    "NetworkFabric", "TransferRecord",
    "inter_run_loss_gap", "check_pipelined_losses", "RunConvergence",
    "MaintenancePolicy",
    "ScheduledPolicy", "DetectionPolicy", "NeverPolicy", "MaintenanceLog",
    "FaultInjector", "RetryPolicy", "call_with_retry",
    "TransientFaultError", "MessageDroppedError",
]
