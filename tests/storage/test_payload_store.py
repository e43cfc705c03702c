"""``ObjectStore`` holds payload plus nominal length; it must observe as
a store of full zero-padded ``bytes``.

A hypothesis state machine drives one store and a reference dict of the
full padded content side by side: puts at a nominal size, workload and
maintenance reads, deletes, bit rot in the payload and in the zero tail,
torn writes, snapshot restores of single objects and whole-store
``dump_object_store`` -> ``load_object_store`` round trips.  Every
observable (content, CRCs, sizes, volume use, IO counters, the errors
raised) is compared after every step.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage.objectstore import (
    CorruptObjectError,
    MissingObjectError,
    ObjectStore,
    StorageFullError,
    Volume,
    content_crc,
    zero_run,
)
from repro.storage.persistence import dump_object_store, load_object_store

CAPACITY = 1500
KEYS = st.sampled_from(["raw/a", "raw/b", "preproc/a", "feat/a", "feat/b",
                        "x"])
#: payloads with and without their own trailing zeros
PAYLOADS = st.builds(
    lambda body, zeros: body + bytes(zeros),
    st.binary(max_size=48), st.integers(min_value=0, max_value=3))
NOMINALS = st.integers(min_value=0, max_value=400)


class PaddedReference(RuleBasedStateMachine):
    """The store under test against ``{key: (full content, stored CRC)}``."""

    @initialize()
    def start(self):
        self.store = ObjectStore(Volume(capacity_bytes=CAPACITY), name="s")
        self.ref = {}
        self.read = self.written = 0

    # -- writes -------------------------------------------------------------
    def _fits(self, key, length):
        held = len(self.ref[key][0]) if key in self.ref else 0
        return self._used() - held + length <= CAPACITY

    def _used(self):
        return sum(len(content) for content, _crc in self.ref.values())

    @rule(key=KEYS, payload=PAYLOADS, nominal=NOMINALS)
    def put(self, key, payload, nominal):
        content = payload.ljust(nominal, b"\0")
        if not self._fits(key, len(content)):
            with pytest.raises(StorageFullError):
                self.store.put(key, payload, nominal)
            return
        self.store.put(key, payload, nominal)
        self.ref[key] = (content, zlib.crc32(content))
        self.written += len(content)
        # the payload is held as given: one object, no copy
        assert self.store.peek_payload(key)[0] is payload

    @rule(key=KEYS, payload=PAYLOADS, nominal=NOMINALS,
          crc=st.none() | st.integers(min_value=0, max_value=2**32 - 1))
    def restore_object(self, key, payload, nominal, crc):
        content = payload.ljust(nominal, b"\0")
        crc = zlib.crc32(content) if crc is None else crc
        if not self._fits(key, len(content)):
            with pytest.raises(StorageFullError):
                self.store.restore_object(key, payload, crc, nominal)
            return
        self.store.restore_object(key, payload, crc, nominal)
        self.ref[key] = (content, crc)

    @rule(key=KEYS)
    def delete(self, key):
        if key not in self.ref:
            with pytest.raises(MissingObjectError):
                self.store.delete(key)
            return
        self.store.delete(key)
        del self.ref[key]

    # -- faults -------------------------------------------------------------
    @precondition(lambda self: any(content for content, _crc
                                   in self.ref.values()))
    @rule(data=st.data(), in_tail=st.booleans())
    def bit_rot(self, data, in_tail):
        key = data.draw(st.sampled_from(
            sorted(k for k, (content, _crc) in self.ref.items() if content)))
        content, crc = self.ref[key]
        payload, _nominal = self.store.peek_payload(key)
        # a flip in the held payload or in the zero tail after it
        lo, hi = ((len(payload), len(content)) if in_tail
                  and len(payload) < len(content) else (0, len(content)))
        pos = data.draw(st.integers(min_value=lo, max_value=hi - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        rotted = bytearray(self.store.peek(key))
        rotted[pos] ^= 1 << bit
        self.store.corrupt_object(key, bytes(rotted))
        self.ref[key] = (bytes(rotted), crc)

    @precondition(lambda self: self.ref)
    @rule(data=st.data())
    def torn_write(self, data):
        key = data.draw(st.sampled_from(sorted(self.ref)))
        content, crc = self.ref[key]
        keep = data.draw(st.integers(min_value=0, max_value=len(content)))
        self.store.corrupt_object(key, self.store.peek(key)[:keep])
        self.ref[key] = (content[:keep], crc)

    # -- reads --------------------------------------------------------------
    @rule(key=KEYS)
    def get(self, key):
        if key not in self.ref:
            with pytest.raises(MissingObjectError):
                self.store.get(key)
            return
        content, crc = self.ref[key]
        if zlib.crc32(content) != crc:
            with pytest.raises(CorruptObjectError):
                self.store.get(key)
            return
        assert self.store.get(key) == content
        self.read += len(content)

    @rule(key=KEYS, verify=st.booleans())
    def peek(self, key, verify):
        if key not in self.ref:
            with pytest.raises(MissingObjectError):
                self.store.peek(key, verify)
            return
        content, crc = self.ref[key]
        if verify and zlib.crc32(content) != crc:
            with pytest.raises(CorruptObjectError):
                self.store.peek(key, verify)
            return
        blob = self.store.peek(key, verify)
        assert type(blob) is bytes and blob == content

    @rule()
    def snapshot_round_trip(self):
        self.store = load_object_store(dump_object_store(self.store),
                                       name="s")
        self.read = self.written = 0  # a restore is not a workload write

    # -- observables ---------------------------------------------------------
    @invariant()
    def observables_match(self):
        store, ref = self.store, self.ref
        assert store.keys() == sorted(ref)
        assert len(store) == len(ref)
        for key, (content, crc) in ref.items():
            assert store.exists(key)
            assert store.peek(key) == content
            assert store.size_of(key) == len(content)
            assert store.stored_crc(key) == crc
            assert store.verify(key) == (zlib.crc32(content) == crc)
            payload, nominal = store.peek_payload(key)
            assert nominal == len(content)
            assert content.startswith(payload)
        for prefix in ("", "raw/", "preproc/", "feat/"):
            assert store.bytes_by_prefix(prefix) == sum(
                len(content) for key, (content, _crc) in ref.items()
                if key.startswith(prefix))
        assert store.volume.used_bytes == self._used()
        assert store.volume.capacity_bytes == CAPACITY
        assert (store.bytes_read, store.bytes_written) == (
            self.read, self.written)


TestPaddedReference = PaddedReference.TestCase
TestPaddedReference.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)


class TestZeroTails:
    def test_content_crc_folds_the_tail_in(self):
        for payload in (b"", b"abc", b"abc\0"):
            for nominal in (0, 3, 4, 70_000):
                assert content_crc(payload, nominal) == zlib.crc32(
                    payload.ljust(nominal, b"\0"))

    @given(st.binary(max_size=2000),
           st.one_of(st.sampled_from([0, 1, 1023, 1024, 7413, 1 << 20]),
                     st.integers(0, 6000).map(lambda n: 2 * n + 1)))
    @settings(max_examples=300, deadline=None)
    def test_a_folded_tail_is_the_walked_one(self, payload, tail):
        """Long zero tails fold through tables, short ones are walked:
        either way the CRC32 of the zero-extended bytes."""
        assert content_crc(payload, len(payload) + tail) == zlib.crc32(
            payload + bytes(tail))

    @given(st.binary(min_size=1, max_size=900), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flips_and_torn_writes_fail_verify(self, payload, data):
        """Bit rot in the payload or anywhere in a folded tail, and a
        write torn at any length, leave a stale CRC that ``verify`` and
        ``get`` catch."""
        store = ObjectStore()
        store.put("raw/p", payload, 8192)
        content = bytearray(store.peek("raw/p"))
        if data.draw(st.booleans(), label="torn"):
            cut = data.draw(st.integers(0, 8191), label="cut")
            store.corrupt_object("raw/p", bytes(content[:cut]))
        else:
            at = data.draw(st.integers(0, 8191), label="at")
            content[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            store.corrupt_object("raw/p", bytes(content))
        assert not store.verify("raw/p")
        with pytest.raises(CorruptObjectError):
            store.get("raw/p")

    def test_zero_run_is_shared_and_grows(self):
        small = zero_run(10)
        assert bytes(small) == bytes(10) and small.readonly
        big = zero_run(300_000)
        assert len(big) == 300_000 and not any(big[-64:])
        assert zero_run(5).obj is zero_run(200_000).obj

    def test_torn_write_of_the_tail_keeps_the_payload_only(self):
        store = ObjectStore()
        store.put("raw/p", b"\x07" * 40, 8192)
        store.corrupt_object("raw/p", store.peek("raw/p")[:1000])
        payload, nominal = store.peek_payload("raw/p")
        assert (payload, nominal) == (b"\x07" * 40, 1000)
        assert store.volume.used_bytes == 1000
        assert not store.verify("raw/p")
