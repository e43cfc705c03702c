"""Ablation: storing split-point features (the §5.4 trade, one stage later).

The paper keeps the preprocessed binary beside the raw photo — pay bytes,
skip the CPU stage.  PipeStore makes the same trade for the frozen front:
the first near-data job stores each photo's split-point feature as
``feat/<id>``; later fine-tune rounds and relabel sweeps read it back.

Two tables, the paper's way (storage overhead % against throughput):

* measured, on the tiny zoo — bytes the feature adds to a photo's raw +
  preprocessed footprint, and the Store-stage rate of a cold (front runs)
  against a warm (feature read back) fine-tune extraction and relabel;
* analytic, for the five full-size graphs — the activation at APO's
  split against the nominal raw + preprocessed bytes.
"""

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.core.apo import plan_organization
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.models.catalog import ALL_MODELS, model_graph
from repro.models.registry import tiny_model

STORES = 2
PHOTOS = 128


def _rate(job: str, stores) -> float:
    start = time.perf_counter()
    for store in stores:
        getattr(store, job)(store.photo_ids())
    return PHOTOS / (time.perf_counter() - start)


def measured_rows():
    rng = np.random.default_rng(0)
    images = rng.random((PHOTOS, 3, 16, 16))
    labels = rng.integers(0, 8, size=PHOTOS)
    rows = []
    for name in ALL_MODELS:
        cluster = NDPipeCluster(
            lambda: tiny_model(name), ClusterConfig(num_stores=STORES))
        cluster.ingest(images, train_labels=labels)
        stores = cluster.stores
        photo_bytes = sum(s.objects.volume.used_bytes for s in stores)
        rates = {}
        for job in ("extract_features", "offline_infer"):
            for store in stores:  # cold again: drop what the last job stored
                for key in store.objects.keys("feat/"):
                    store.objects.delete(key)
            rates[job] = (_rate(job, stores), _rate(job, stores))
        feature_bytes = sum(s.objects.bytes_by_prefix("feat/") for s in stores)
        rows.append({
            "model": name,
            "split": f"{stores[0].split}/{stores[0].model.num_stages}",
            "feature_bytes": feature_bytes / PHOTOS,
            "overhead_pct": 100.0 * feature_bytes / photo_bytes,
            "finetune_cold": rates["extract_features"][0],
            "finetune_warm": rates["extract_features"][1],
            "relabel_cold": rates["offline_infer"][0],
            "relabel_warm": rates["offline_infer"][1],
        })
    return rows


def analytic_rows():
    rows = []
    for name in ALL_MODELS:
        graph = model_graph(name)
        point = graph.partition_point(plan_organization(graph).split)
        photo_bytes = graph.raw_image_bytes + graph.input_bytes
        rows.append({
            "model": name, "split": point.label,
            "feature_bytes": point.feature_bytes,
            "photo_bytes": photo_bytes,
            "overhead_pct": 100.0 * point.feature_bytes / photo_bytes,
            "front_gflops": point.front_flops / 1e9,
        })
    return rows


def test_ablation_feature_reuse(benchmark, report):
    measured = benchmark.pedantic(measured_rows, iterations=1, rounds=1)
    analytic = analytic_rows()

    text = format_table(
        ["model", "split", "feat B/photo", "storage +%",
         "fine-tune img/s cold", "warm", "relabel img/s cold", "warm"],
        [[r["model"], r["split"], r["feature_bytes"], r["overhead_pct"],
          r["finetune_cold"], r["finetune_warm"],
          r["relabel_cold"], r["relabel_warm"]] for r in measured],
        title=f"Stored split-point features, tiny zoo ({STORES} stores, "
              f"{PHOTOS} photos of 16x16; Store-stage rates)",
    )
    text += "\n\n" + format_table(
        ["model", "APO split", "feat B/photo", "raw+preproc B/photo",
         "storage +%", "front GFLOPs skipped/photo"],
        [[r["model"], r["split"], r["feature_bytes"], r["photo_bytes"],
          r["overhead_pct"], r["front_gflops"]] for r in analytic],
        title="Full-size graphs at APO's split (analytic, float32 features)",
    )
    report("ablation_feature_reuse", text)

    for row in measured:
        # a warm job reads ~2 KB and runs at most the tail: never slower
        assert row["finetune_warm"] > row["finetune_cold"]
        assert row["relabel_warm"] > row["relabel_cold"]
    for row in analytic:
        # late-split features are small beside a 2.7 MB photo
        assert row["overhead_pct"] < 1.0
