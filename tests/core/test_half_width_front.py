"""The numerics tier: trainable means float64, frozen means float32.

``Module.freeze`` casts a stage's master state to float32 once and
``unfreeze`` casts it back; every replica of the Tuner's model follows
from its state (``load_state_dict`` copies the incoming dtype).  These
tests pin that contract on every path a replica is made or moved by —
install, delta, resync, restore, HA failover, serving replicas — and the
bytes it saves on the wire.
"""

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.ftdmp import FeatureRows, FTDMPTrainer
from repro.data.loader import normalize_images
from repro.models.registry import TINY_FACTORIES, tiny_model
from repro.nn.tensor import Tensor, inference_mode
from repro.train.fulltrain import full_train
from tests.nn.reference_ops import assert_frozen_graph_close

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=4)


def dtypes(module):
    return {value.dtype for value in module.state_dict().values()}


def assert_half_width(models):
    """Front stages float32, classifier float64, one front digest."""
    digests = set()
    for model in models:
        split = model.num_stages - 1
        for index in range(split):
            assert dtypes(model.stage(index)) == {F32}, (model.name, index)
        assert dtypes(model.classifier) == {F64}
        digests.add(model.front.digest)
    assert len(digests) == 1


def replicas(cluster):
    return ([cluster.tuner.model, cluster.inference_server.model]
            + [store.model for store in cluster.stores])


@pytest.fixture
def cluster(small_world):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, seed=2))
    x, y = small_world.sample(24, 0, rng=np.random.default_rng(5))
    cluster.ingest(x, train_labels=y)
    return cluster


class TestEveryReplicaIsHalfWidth:
    def test_after_install(self, cluster):
        assert_half_width(replicas(cluster))

    def test_after_delta_and_resync(self, cluster):
        straggler = cluster.stores[2]
        straggler.fail()
        cluster.finetune(epochs=1)  # a delta to two stores, one missed
        assert cluster.tuner.distributions[-1].stores_missed == [
            straggler.store_id]
        cluster.recover(straggler)  # full resync
        assert straggler.model_version == cluster.tuner.version
        assert_half_width(replicas(cluster))
        for store in cluster.stores:
            for key, value in cluster.tuner.published.items():
                np.testing.assert_array_equal(
                    store.model.state_dict()[key], value)

    def test_after_restore(self, cluster):
        cluster.finetune(epochs=1)
        clone = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=2048, seed=2))
        clone.restore(cluster.checkpoint())
        assert_half_width(replicas(clone) + replicas(cluster))

    def test_serving_replicas(self, cluster):
        cluster.finetune(epochs=1)
        frontend = cluster.make_serving_frontend()
        assert_half_width(replicas(cluster) + [
            replica.model for replica in frontend.dispatcher.replicas])

    def test_after_ha_failover(self):
        from tests.ha.test_failover import crash_mid_finetune

        cluster, ha, _ids, report = crash_mid_finetune()
        assert report is not None and cluster.tuner.name == "tuner-standby"
        assert_half_width(replicas(cluster) + [ha.failover.primary.model])


class TestFreezeIsTheOneCast:
    def test_unfreeze_restores_float64(self):
        model = tiny_model("ResNet50").freeze_features()
        assert dtypes(model.stage(0)) == {F32}
        model.unfreeze()
        assert dtypes(model) == {F64}
        assert all(p.requires_grad for p in model.parameters())

    def test_full_train_after_freeze_trains_float64(self, small_world):
        model = tiny_model("ResNet50", num_classes=8, width=8)
        model.freeze_features()
        x, y = small_world.sample(16, 0, rng=np.random.default_rng(1))
        before = model.stage(0).state_dict()
        full_train(model, normalize_images(x), y, epochs=1)
        assert dtypes(model) == {F64}
        moved = model.stage(0).state_dict()
        assert any(not np.array_equal(moved[k], before[k]) for k in before)

    def test_freezing_twice_moves_nothing(self):
        model = tiny_model("ResNet50").freeze_features()
        state = model.state_dict()
        front = model.front
        model.freeze_features()
        assert model.front is front
        for key, value in model.state_dict().items():
            assert value.tobytes() == state[key].tobytes()


class TestHalfWidthBytes:
    def test_model_full_is_the_half_width_state(self, cluster):
        """Re-pinned when installs began shipping only the classifier
        and a fingerprint of the frozen stages: ``model-full`` 3 x
        147 633 = 442 899 -> 3 x (8 300 + 4) = 24 912 B.  The state
        check below (the front alone shrank) is unchanged."""
        state = cluster.tuner.model.state_dict()
        full = checknrun.state_dict_bytes(state)
        tail = checknrun.state_dict_bytes(
            {key: value for key, value in state.items()
             if key.startswith("stage_FC.")})
        assert cluster.network.bytes_of_kind("model-full") == 3 * (
            tail + checknrun.FINGERPRINT_BYTES) == 3 * 8304
        wide = checknrun.state_dict_bytes(
            {key: value.astype(np.float64) for key, value in state.items()})
        front = sum(value.nbytes for key, value in state.items()
                    if not key.startswith("stage_FC."))
        assert wide - full == front  # the front alone shrank, by half

    def test_feature_bytes_are_the_shipped_nbytes(self, cluster,
                                                  monkeypatch):
        """Re-pinned when rows began crossing at 8 bits: each message is
        a ``FeatureRows`` made from float32 rows, and the fabric and the
        report charge its ``wire_size()`` (was the float32 ``nbytes``)."""
        shipped = []
        send = cluster.network.send

        def spy(src, dst, num_bytes, kind, payload=None):
            if kind == "features":
                assert num_bytes == payload.wire_size()
                shipped.append(payload)
            return send(src, dst, num_bytes, kind, payload)

        monkeypatch.setattr(cluster.network, "send", spy)
        report = cluster.finetune(epochs=1, num_runs=2)
        cold = len(shipped)
        cluster.finetune(epochs=1)  # warm: rows read back from feat/
        assert {(rows.low.dtype, rows.step.dtype) for rows in shipped} == {
            (F32, F32)}
        assert {rows.codes.dtype for rows in shipped} == {np.dtype(np.uint8)}
        assert cluster.network.bytes_of_kind("features") == sum(
            rows.wire_size() for rows in shipped)
        assert report.feature_bytes == sum(
            rows.wire_size() for rows in shipped[:cold])

    def test_single_host_bills_nbytes(self, small_world):
        """Re-pinned with the 8-bit channel: the single host bills the
        wire size of the rows it trains on (was their float32 nbytes)."""
        model = tiny_model("ResNet50", num_classes=8, width=8)
        x, y = small_world.sample(20, 0, rng=np.random.default_rng(2))
        trainer = FTDMPTrainer(model)
        report = trainer.finetune(normalize_images(x), y, epochs=1)
        assert report.feature_bytes == FeatureRows.encode(
            trainer.extract_features(normalize_images(x))).wire_size()


class TestFloat32FrontAgainstTheFloat64Oracle:
    """Each zoo model's frozen front and whole forward, in float32, within
    ``FROZEN_GRAPH_RTOL`` (2e-6 of ``max|ref|``) of a float64-master
    twin's grad-enabled float64 forward, with identical top-1."""

    @pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
    def test_rows_and_logits(self, name):
        frozen = tiny_model(name).freeze_features().eval()
        oracle = tiny_model(name).eval()
        split = frozen.num_stages - 1
        x = np.random.default_rng(0).standard_normal(
            (6,) + frozen.input_shape).astype(np.float32)
        with inference_mode():
            rows = frozen.forward_until(Tensor(x), split).data
            logits = frozen(Tensor(x)).data
        assert rows.dtype == F32 and logits.dtype == F64
        wide = Tensor(x.astype(np.float64))
        assert_frozen_graph_close(oracle.forward_until(wide, split).data,
                                  rows)
        assert_frozen_graph_close(oracle(wide).data, logits)


class TestPoolKeepsItsDtype:
    def test_float32_pool_is_float32_and_exact_over_four_cells(self):
        x = np.random.default_rng(3).standard_normal(
            (5, 7, 2, 2)).astype(np.float32)
        with inference_mode():
            row = Tensor(x).mean(axis=(2, 3)).data
        assert row.dtype == F32
        # 1/4 is exact: the float64 row the old pool produced, same values
        np.testing.assert_array_equal(
            row.astype(np.float64), x.sum(axis=(2, 3)) * np.float64(0.25))

    def test_float64_is_untouched(self):
        x = np.random.default_rng(4).standard_normal((3, 5, 3, 3))
        got = Tensor(x).mean(axis=(2, 3)).data
        assert got.dtype == F64
        np.testing.assert_array_equal(got, x.sum(axis=(2, 3)) * (1.0 / 9))

    def test_scalar_operands_are_weak(self):
        x = Tensor(np.ones(3, np.float32))
        for out in (x * 0.5, 0.5 * x, x + 1, 1 - x, x / 2.0,
                    x * np.float64(0.5), 2.0 / x):
            assert out.dtype == F32
