"""Encode once per upload: every replica stores the same immutable bytes.

``StoredPhoto`` produces the raw payload and the ``preproc/`` blob once
from the upload's 8-bit codes; each holder ``put``s those bytes, the raw payload at its own
nominal size (held as a length, not as zeros).  The
accounting an experiment can observe — ``store_photo``'s return value,
fabric bytes, volume use, ``bytes_written``, per-object CRCs — is pinned
to what the encode-per-replica code produced for the same uploads.
"""

import zlib

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import PipeStore, StoredPhoto
from repro.faults import DropMessages, FaultInjector
from repro.models.registry import tiny_model
from repro.storage import imageformat
from repro.storage.imageformat import model_input, quantise

NUM_PHOTOS = 12


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def replicated_cluster(small_world, replication=3):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=4, nominal_raw_bytes=2048, replication=replication))
    x, y = small_world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(3))
    return cluster, cluster.ingest(x, train_labels=y)


def photo(rng, photo_id="p"):
    return StoredPhoto(photo_id=photo_id,
                       codes=quantise(rng.random((3, 16, 16))), train_label=1)


class TestStoredPhotoEncodesOnce:
    def test_each_form_is_encoded_once(self, rng, monkeypatch):
        calls = []
        real = imageformat.encode_photo
        monkeypatch.setattr(
            "repro.core.pipestore.encode_photo",
            lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        upload = photo(rng)
        stores = [PipeStore(f"s{i}", nominal_raw_bytes=2048)
                  for i in range(3)]
        sizes = [store.store_photo(upload) for store in stores]
        assert len(calls) == 1
        assert len(set(sizes)) == 1
        raws = [s.objects.peek_payload("raw/p") for s in stores]
        pres = [s.objects.peek("preproc/p") for s in stores]
        # one shared payload object, each accounted at the nominal size
        assert raws[0][0] is raws[1][0] is raws[2][0]
        assert [nominal for _payload, nominal in raws] == [2048] * 3
        assert pres[0] is pres[1] is pres[2]
        assert sizes[0] == 2048 + len(pres[0])

    def test_nominal_sizes_get_their_own_padding(self, rng):
        upload = photo(rng)
        small = PipeStore("small", nominal_raw_bytes=1024)
        large = PipeStore("large", nominal_raw_bytes=4096)
        assert small.store_photo(upload) + 3072 == large.store_photo(upload)
        a, b = small.objects.peek("raw/p"), large.objects.peek("raw/p")
        assert (len(a), len(b)) == (1024, 4096)
        assert b.startswith(a.rstrip(b"\0")) and not b[len(a):].strip(b"\0")
        assert small.objects.peek("preproc/p") is large.objects.peek(
            "preproc/p")
        # the padding is a length, never held zeros
        payload, nominal = large.objects.peek_payload("raw/p")
        assert nominal == 4096 and len(payload) * 4 < nominal

    def test_matches_a_fresh_encode_byte_for_byte(self, rng):
        upload = photo(rng)
        store = PipeStore("s", nominal_raw_bytes=2048)
        store.store_photo(upload)
        assert store.objects.peek("raw/p") == imageformat.encode_photo(
            upload.codes).ljust(2048, b"\0")
        np.testing.assert_array_equal(
            store.load_preprocessed("p"), model_input(upload.codes))


class TestReplicatedIngest:
    def test_replicas_hold_byte_equal_blobs(self, small_world):
        cluster, ids = replicated_cluster(small_world)
        by_id = {s.store_id: s for s in cluster.stores}
        for pid in ids:
            holders = [by_id[h] for h in cluster.replicas.holders(pid)]
            assert len(holders) == 3
            for key in (f"raw/{pid}", f"preproc/{pid}"):
                blobs = [h.objects.peek(key) for h in holders]
                assert blobs[0] == blobs[1] == blobs[2]
                assert len({h.objects.stored_crc(key)
                            for h in holders}) == 1
                assert all(h.objects.verify(key) for h in holders)

    def test_counters_equal_the_encode_per_replica_numbers(self, small_world):
        """Pinned on the parent commit (every replica encoded afresh).

        Re-pinned when pixel tensors went run-length (``Z_RLE``) and the
        stand-in JPEG payload went stored: ``preproc/`` blobs are 7.4 B
        smaller on average here, so ingest/replicate (58 882, 117 764) ->
        (58 793, 117 586), bytes written [44 152, 44 159, 44 169,
        44 166] -> [44 084, 44 090, 44 102, 44 103] and the all-objects
        CRC 4 147 498 943 -> 962 799 794; the raw blobs keep their
        length, one zlib header byte changes.  Re-pinned when pixel
        tensors went to byte planes (only the sign/exponent plane
        Huffman-coded): ingest/replicate (58 793, 117 586) -> (55 507,
        111 014), bytes written [44 084, 44 090, 44 102, 44 103] ->
        [41 626, 41 623, 41 642, 41 630] and the all-objects CRC
        962 799 794 -> 1 354 900 958.  Re-pinned when each upload passed
        the front door once and ``preproc/`` came to hold its 8-bit codes
        (785 B a blob, whatever the photo): ingest/replicate (55 507,
        111 014) -> (33 996, 67 992), bytes written [41 626, 41 623,
        41 642, 41 630] -> 25 497 on every store and the all-objects CRC
        1 354 900 958 -> 3 470 633 301."""
        cluster, _ = replicated_cluster(small_world)
        traffic = cluster.traffic_summary()
        assert (traffic["ingest"], traffic["replicate"]) == (33996, 67992)
        written = [25497] * 4
        assert [s.objects.bytes_written for s in cluster.stores] == written
        assert [s.objects.volume.used_bytes
                for s in cluster.stores] == written
        # every stored byte, in store/key order
        assert zlib.crc32(b"".join(
            s.objects.peek(key) for s in cluster.stores
            for key in s.objects.keys())) == 3470633301

    def test_a_restore_shares_payloads_across_replicas(self, small_world):
        """A restored fleet holds one payload object per replicated blob,
        as the live ingest did, and observes the same content."""
        cluster, ids = replicated_cluster(small_world)
        restored = NDPipeCluster(factory, ClusterConfig(
            num_stores=4, nominal_raw_bytes=2048, replication=3))
        restored.restore(cluster.checkpoint())
        by_id = {s.store_id: s for s in restored.stores}
        for pid in ids:
            holders = [by_id[h] for h in restored.replicas.holders(pid)]
            for key in (f"raw/{pid}", f"preproc/{pid}"):
                held = [h.objects.peek_payload(key) for h in holders]
                assert held[0][0] is held[1][0] is held[2][0]
                assert held[0][1] == held[1][1] == held[2][1]
        assert [s.objects.volume.used_bytes for s in restored.stores] == [
            s.objects.volume.used_bytes for s in cluster.stores]

    def test_rot_on_one_replica_is_healed_from_a_donor(self, small_world):
        cluster, ids = replicated_cluster(small_world)
        by_id = {s.store_id: s for s in cluster.stores}
        first, *others = [by_id[h] for h in cluster.replicas.holders(ids[0])]
        key = f"raw/{ids[0]}"
        healthy = first.objects.peek(key)
        first.objects.corrupt_object(key, b"\x13" * 64)
        assert not first.objects.verify(key)
        assert all(o.objects.verify(key) and o.objects.peek(key) == healthy
                   for o in others)
        report = cluster.scrub_and_repair()
        assert report.repaired == [(first.store_id, key)]
        assert first.objects.verify(key)
        assert first.objects.peek(key) == healthy
        assert cluster.scrub_and_repair().clean

    def test_failed_replica_send_evicts_only_that_copy(self, small_world):
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=2048, replication=3))
        # the primary lands; every attempt at the first replica transfer
        # is dropped, the second replica goes through
        injector = FaultInjector(
            [DropMessages(at=0, count=cluster.retry.max_attempts,
                          kind="replicate")]).attach(cluster)
        x, y = small_world.sample(1, 0, rng=np.random.default_rng(3))
        (pid,) = cluster.ingest(x, train_labels=y)
        injector.detach()
        holders = cluster.replicas.holders(pid)
        assert holders == ["pipestore-0", "pipestore-2"]
        dropped = cluster.stores[1]
        assert not dropped.objects.exists(f"raw/{pid}")
        assert not dropped.has_train_label(pid)
        for store in (cluster.stores[0], cluster.stores[2]):
            assert store.objects.verify(f"raw/{pid}")
            assert store.objects.verify(f"preproc/{pid}")
            assert store.train_label(pid) == int(y[0])


@pytest.mark.parametrize("replication", [1, 2])
def test_reingest_from_the_journal_lands_verifiable_copies(
        small_world, replication):
    cluster, ids = replicated_cluster(small_world, replication=replication)
    victim = cluster.stores[0]
    stranded = cluster.database.ids_at(victim.store_id)
    victim.fail()
    moved = cluster.reingest_orphans(victim.store_id)
    assert sorted(moved) == sorted(stranded)
    by_id = {s.store_id: s for s in cluster.stores}
    for pid in moved:
        home = by_id[cluster.database.lookup(pid).location]
        assert home is not victim
        assert home.objects.verify(f"raw/{pid}")
        assert home.objects.verify(f"preproc/{pid}")
