"""NDPipe reproduction — near-data processing for photo storage (ASPLOS '24).

One documented namespace for the symbols everything downstream builds
on.  The system in two imports:

.. code-block:: python

    from repro import ClusterConfig, NDPipeCluster
    from repro.models.registry import tiny_model

    cluster = NDPipeCluster(lambda: tiny_model("ResNet50"),
                            ClusterConfig(num_stores=8, replication=2))

Subsystem tour:

* :mod:`repro.nn` — numpy DNN substrate (autograd, layers, optimisers).
* :mod:`repro.models` — the paper's five architectures: tiny runnable
  variants plus full-scale FLOP/byte stage graphs.
* :mod:`repro.data` — synthetic drifting photo datasets.
* :mod:`repro.storage` — object store, photo label database, codecs.
* :mod:`repro.sim` — discrete-event datacenter simulator, hardware catalog,
  power and cost models.
* :mod:`repro.core` — the contribution: FT-DMP, pipelined training, APO,
  NPE, Check-N-Run, PipeStore/Tuner cluster.
* :mod:`repro.serving` — the high-throughput online upload path:
  admission control, adaptive micro-batching, split-point feature-row
  cache, replica dispatch.
* :mod:`repro.faults` — deterministic fault injection and retry.
* :mod:`repro.ha` — control-plane robustness: heartbeat failure
  detection, Tuner warm-standby failover with epoch fencing, automatic
  store eviction/rejoin, and the nemesis chaos harness.
* :mod:`repro.obs` — metrics, tracing, and the bench-JSON schema.
* :mod:`repro.train` — the training engine and the SRV-I/P/C, Typical
  and Ideal operating points for fine-tuning and offline inference.
* :mod:`repro.analysis` — one driver per paper table/figure.
"""

__version__ = "1.1.0"

from . import nn  # noqa: F401
from .core.cluster import InferenceServer, NDPipeCluster
from .core.config import ClusterConfig
from .core.fabric import NetworkFabric
from .faults.injector import FaultInjector
from .faults.retry import RetryPolicy, call_with_retry
from .ha import HAConfig, HAController, NemesisHarness
from .obs.metrics import MetricsRegistry
from .obs.tracing import Tracer
from .placement import ShardConfig, ShardedCluster, TenantConfig
from .serving import ServeRequest, ServingConfig, ServingFrontend

__all__ = [
    "ClusterConfig",
    "FaultInjector",
    "HAConfig",
    "HAController",
    "InferenceServer",
    "MetricsRegistry",
    "NDPipeCluster",
    "NemesisHarness",
    "NetworkFabric",
    "RetryPolicy",
    "ServeRequest",
    "ServingConfig",
    "ServingFrontend",
    "ShardConfig",
    "ShardedCluster",
    "TenantConfig",
    "Tracer",
    "call_with_retry",
    "nn",
    "__version__",
]
