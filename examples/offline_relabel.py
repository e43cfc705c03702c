#!/usr/bin/env python
"""Offline relabelling campaign — the outdated-label problem (Table 1).

Runs the real near-data relabel flow on a tiny cluster (labels change after
a model update; only label bytes cross the network), then sizes a
planet-scale campaign on the calibrated catalog: relabelling a billion
photos under NDPipe vs the SRV baselines.

Run:  python examples/offline_relabel.py
"""

import numpy as np

from repro.analysis.tables import format_bytes, format_table
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.data.loader import normalize_images
from repro.models.catalog import model_graph
from repro.models.registry import tiny_model
from repro.train.baselines import ndpipe_inference, srv_inference
from repro.train.fulltrain import full_train


def runnable_demo() -> None:
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0,
    ))
    nc = world.config.max_classes
    base = tiny_model("ResNet50", num_classes=nc, width=8, seed=3)
    x0, y0 = world.sample(260, 0, rng=np.random.default_rng(1))
    full_train(base, normalize_images(x0), y0, epochs=3, seed=0)
    state = base.state_dict()

    def factory():
        model = tiny_model("ResNet50", num_classes=nc, width=8, seed=3)
        model.load_state_dict(state)
        return model

    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=8192))
    x, y = world.sample(120, 0, rng=np.random.default_rng(2))
    cluster.ingest(x, train_labels=y)
    snapshot = cluster.database.snapshot_labels()

    # a model update makes the indexed labels stale
    x_new, y_new = world.sample(120, 10, rng=np.random.default_rng(3))
    cluster.ingest(x_new, train_labels=y_new)
    cluster.finetune(epochs=3)
    stats = cluster.offline_relabel()

    changed = cluster.database.fraction_changed_since(snapshot)
    print(format_table(
        ["metric", "value"],
        [
            ["photos relabelled near-data", stats.photos_processed],
            ["labels changed by the new model", stats.labels_changed],
            ["% of original labels fixed", f"{changed * 100:.1f}%"],
            ["label bytes on the wire", format_bytes(stats.label_bytes)],
        ],
        title="runnable relabel campaign (tiny cluster)",
    ))


def planet_scale_estimate() -> None:
    graph = model_graph("ResNet50")
    photos = 1_000_000_000
    points = [srv_inference(variant, graph)
              for variant in ("SRV-P", "SRV-C", "SRV-I")]
    points.append(ndpipe_inference(graph, num_stores=20))
    rows = [[point.name, point.time_for(photos) / 3600.0,
             point.energy_kj_for(photos) / 1e3,
             format_bytes(photos * point.wire_bytes)]
            for point in points]
    print()
    print(format_table(
        ["system", "duration (h)", "energy (MJ)", "network traffic"],
        rows,
        title="relabelling 1B photos (20 PipeStores vs 2xV100 host)",
    ))


if __name__ == "__main__":
    runnable_demo()
    planet_scale_estimate()
