"""Artifact appendix A.6 — the end-to-end numbers the artifact prints.

Paper artifact (ResNet50, CIFAR-100-scale data):

* feature-extraction throughput ~1913 images/s per PipeStore,
* overall fine-tuning completes in ~75 s,
* offline inference ~2417 IPS across the fleet.

We reproduce both faces: the calibrated full-scale numbers from the
simulator and a real end-to-end run of the tiny cluster.
"""

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.data.datasets import CIFAR100_LIKE
from repro.models.catalog import model_graph
from repro.models.registry import tiny_model
from repro.sim.specs import TESLA_T4, TESLA_V100


def run_artifact_workflow():
    """The A.5 experiment workflow on the runnable tiny cluster."""
    world = CIFAR100_LIKE.world(seed=0)
    num_classes = world.config.max_classes

    def factory():
        return tiny_model("ResNet50", num_classes=num_classes, width=8, seed=0)

    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=2, nominal_raw_bytes=4096))
    x, y = world.sample(240, 0, rng=np.random.default_rng(1))
    cluster.ingest(x, train_labels=y)

    start = time.perf_counter()
    report = cluster.finetune(epochs=2)
    finetune_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stats = cluster.offline_relabel()
    inference_seconds = time.perf_counter() - start

    return {
        "images": 240,
        "finetune_seconds": finetune_seconds,
        "inference_seconds": inference_seconds,
        "inference_ips": stats.photos_processed / inference_seconds,
        "feature_bytes": report.feature_bytes,
    }


def test_artifact_numbers(benchmark, report):
    runnable = benchmark.pedantic(run_artifact_workflow, iterations=1,
                                  rounds=1)

    graph = model_graph("ResNet50")
    fe_ips = TESLA_T4.fe_ips(graph, 5, 512)
    images = 60_000  # CIFAR-100 scale
    fe_seconds = images / fe_ips
    tuner_rate = TESLA_V100.tail_train_ips(graph, 5)
    overall = fe_seconds + 9 * images / tuner_rate  # ~9 classifier epochs
    inference_ips = TESLA_T4.inference_ips(graph, 128)

    rows = [
        ["Feature extraction time (s)", 31.36, fe_seconds],
        ["Feature extraction throughput (IPS)", 1913.26, fe_ips],
        ["Overall fine-tuning time (s)", 75.19, overall],
        ["Offline inference throughput (IPS)", 2417.53, inference_ips],
    ]
    table = format_table(["metric", "paper artifact", "this repro"],
                         rows, title="Artifact A.6: expected results")
    table += ("\n\nrunnable tiny cluster: "
              f"fine-tuned {runnable['images']} photos in "
              f"{runnable['finetune_seconds']:.2f}s, relabelled them at "
              f"{runnable['inference_ips']:.0f} IPS")
    report("artifact", table)

    import pytest

    assert fe_ips == pytest.approx(1913.26, rel=0.03)
    assert fe_seconds == pytest.approx(31.36, rel=0.05)
    assert inference_ips == pytest.approx(2417.53, rel=0.15)
    assert runnable["inference_ips"] > 0
