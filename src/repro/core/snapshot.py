"""Cluster checkpoint serialisation, split out of ``cluster.py``.

Third cut of the ROADMAP item-1 decomposition: the CRC-trailed
checkpoint frame format and its restore-side validation are pure
functions of the cluster's state, so they live here as free functions.
:meth:`~repro.core.cluster.NDPipeCluster.checkpoint` and
:meth:`~repro.core.cluster.NDPipeCluster.restore` delegate verbatim —
the manifest layout (including the ``"cluster"`` section's
``ingest_counter``/``rr_next``/``replication`` keys) is the
pre-refactor one; the bytes around it are the v3 frame of
:mod:`repro.durability.checkpoint` (sealed snapshots verbatim, array
tables deflated once, identical blobs shared).  The upload journal's
pixels go in as one stacked ``(N, C, H, W)`` array, in the order of the
manifest's ``labels`` keys, through the byte-plane
:data:`~repro.storage.compression.PIXELS` codec.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..durability.checkpoint import (
    ArrayReader,
    BlobTable,
    CheckpointError,
    FinetuneProgress,
    read_frame,
    tuner_section,
    tuner_state_from,
    write_frame,
)
from ..durability.replication import ReplicaMap
from ..storage.compression import compress_array, decompress_array
from ..storage.persistence import (
    dump_object_store,
    dump_photo_database,
    load_object_store,
    load_photo_database,
)

__all__ = ["build_checkpoint", "restore_checkpoint"]


def build_checkpoint(cluster, ftdmp: Optional[FinetuneProgress] = None,
                     ) -> bytes:
    """Serialise the full lifecycle into one CRC-trailed blob.

    Captures everything resume needs bit-exactly: the Tuner's model,
    optimizer moments and RNG stream, every store's object snapshot,
    model replica and training labels, the label database with its
    version history, the replica map, the upload journal, and — when
    taken mid-fine-tune — the FT-DMP run journal ``ftdmp``.
    """
    table = BlobTable()
    tuner_manifest = tuner_section(
        cluster.tuner.export_training_state(), table)
    stores_manifest = []
    for store in cluster.stores:
        stores_manifest.append({
            "store_id": store.store_id,
            "model_version": store.model_version,
            # sealed by its producer, deflated where that pays: stored verbatim
            "objects_blob": table.add(dump_object_store(store.objects)),
            # a store at the Tuner's version lands on the Tuner's blob
            "model_blob": table.add_arrays(store.model.state_dict()),
            "train_labels": store.train_labels(),
        })
    journal = cluster.control.journal
    journal_manifest = None
    if journal is not None:
        journal_manifest = {
            "labels": {pid: label
                       for pid, (_pixels, label) in journal.items()},
            "pixels_blob": table.add(compress_array(_stack_journal(journal))),
        }
    manifest = {
        "cluster": {
            "ingest_counter": cluster.dataplane.ingest_counter,
            "rr_next": cluster.dataplane.rr_next,
            "replication": cluster.replication,
        },
        "tuner": tuner_manifest,
        "stores": stores_manifest,
        "db_blob": table.add(dump_photo_database(cluster.database)),
        "replica_map": cluster.replicas.to_dict(),
        "journal": journal_manifest,
        "ftdmp": None if ftdmp is None else ftdmp.to_dict(),
    }
    with cluster.tracer.span("cluster.checkpoint",
                             tuner_version=cluster.tuner.version):
        return write_frame(manifest, table.blobs)


def restore_checkpoint(cluster, blob: bytes) -> Optional[FinetuneProgress]:
    """Load a checkpoint into a freshly built cluster.

    The cluster must have been constructed with the same store fleet the
    checkpoint describes (``inspect_checkpoint`` reports it).  Returns
    the pending :class:`FinetuneProgress` if the checkpoint was taken
    mid-fine-tune, or ``None``.
    """
    manifest, blobs = read_frame(blob)
    try:
        checkpoint_ids = [s["store_id"] for s in manifest["stores"]]
        cluster_ids = [s.store_id for s in cluster.stores]
        if checkpoint_ids != cluster_ids:
            raise CheckpointError(
                f"checkpoint describes stores {checkpoint_ids} but this "
                f"cluster has {cluster_ids}; size the cluster from "
                "inspect_checkpoint() first"
            )
        tuner_manifest = manifest["tuner"]
        if tuner_manifest["split"] != cluster.tuner.split:
            raise CheckpointError(
                f"checkpoint split {tuner_manifest['split']} does not "
                f"match this cluster's split {cluster.tuner.split}"
            )
        # a shared blob is unpacked per reference, so every store (and
        # the Tuner) owns its writable arrays
        arrays = ArrayReader(blobs)
        tuner_state = tuner_state_from(tuner_manifest, arrays)
        store_states = [
            (load_object_store(blobs[entry["objects_blob"]],
                               name=entry["store_id"]),
             arrays(entry["model_blob"]),
             int(entry["model_version"]),
             dict(entry["train_labels"]))
            for entry in manifest["stores"]
        ]
        database = load_photo_database(blobs[manifest["db_blob"]])
        replicas = ReplicaMap.from_dict(manifest["replica_map"])
        journal_manifest = manifest["journal"]
        journal = None
        if journal_manifest is not None:
            labels = journal_manifest["labels"]
            try:
                pixels = decompress_array(
                    blobs[journal_manifest["pixels_blob"]])
            except ValueError as exc:
                raise CheckpointError(
                    f"corrupt journal pixel table: {exc}") from exc
            if len(pixels) != len(labels):
                raise CheckpointError(
                    f"journal pixel table holds {len(pixels)} entries, "
                    f"its labels {len(labels)}")
            # rows of the one stacked array, each at its entry's dtype
            # and shape
            journal = {
                pid: (row, None if label is None else int(label))
                for (pid, label), row in zip(labels.items(), pixels)
            }
        cluster_manifest = manifest["cluster"]
        replication = int(cluster_manifest["replication"])
        if not 1 <= replication <= len(cluster.stores):
            raise CheckpointError(
                f"checkpoint replication {replication} does not fit a "
                f"{len(cluster.stores)}-store cluster"
            )
        progress = (None if manifest["ftdmp"] is None
                    else FinetuneProgress.from_dict(manifest["ftdmp"]))
    except (KeyError, IndexError, TypeError) as exc:
        raise CheckpointError(
            f"malformed checkpoint manifest: {exc!r}") from exc
    # everything parsed and validated — only now mutate the cluster
    with cluster.tracer.span("cluster.restore",
                             tuner_version=tuner_state["version"]):
        cluster.tuner.import_training_state(tuner_state)
        for store, (objects, model_state, version, labels) in zip(
                cluster.stores, store_states):
            store.objects = objects
            store.model.load_state_dict(model_state)
            store.model_version = version
            for pid, label in labels.items():
                store.set_train_label(pid, label)
        cluster.database = database
        cluster.replicas = replicas
        cluster.dataplane.ingest_counter = int(
            cluster_manifest["ingest_counter"])
        cluster.dataplane.rr_next = int(cluster_manifest["rr_next"])
        cluster.replication = replication
        cluster.control.restore_journal(journal)
        # the front end serves whatever model was last distributed
        state = tuner_state["last_distributed"]
        if state is None:
            state = cluster.tuner.model.state_dict()
        cluster.inference_server.sync_model(state)
    return progress


def _stack_journal(journal: Dict[str, tuple]) -> np.ndarray:
    """The journal's pixels as one ``(N, ...)`` array in journal order.

    Every entry must share one dtype and shape (the world and every
    ingest caller produce float32 of one shape); anything else is
    refused, since stacking would silently promote a dtype."""
    pixels = [entry[0] for entry in journal.values()]
    kinds = sorted({(p.dtype.str, p.shape) for p in pixels})
    if len(kinds) > 1:
        raise CheckpointError(
            f"journal pixels mix dtypes or shapes {kinds}; a checkpoint "
            "stacks them into one array")
    return np.stack(pixels) if pixels else np.empty(0, np.float32)
