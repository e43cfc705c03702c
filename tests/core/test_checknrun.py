"""Tests for Check-N-Run delta encoding: exactness and traffic reduction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checknrun import (
    LIVE_DELTA_BITS,
    DeltaError,
    apply_delta,
    delta_stats,
    encode_delta,
    publish,
    state_dict_bytes,
)


def make_state(rng, keys=("a", "b", "c"), size=64):
    return {k: rng.normal(size=(size,)) for k in keys}


class TestExactDelta:
    def test_roundtrip_reconstructs_bitexact(self, rng):
        old = make_state(rng)
        new = {k: v.copy() for k, v in old.items()}
        new["c"] = new["c"] + rng.normal(size=new["c"].shape)
        blob = encode_delta(old, new)
        rebuilt = apply_delta(old, blob)
        for key in new:
            assert np.allclose(rebuilt[key], new[key], atol=1e-12)

    def test_identical_states_give_tiny_delta(self, rng):
        state = make_state(rng)
        blob = encode_delta(state, {k: v.copy() for k, v in state.items()})
        assert len(blob) < 64

    def test_only_changed_tensors_shipped(self, rng):
        old = make_state(rng, size=4096)
        new = {k: v.copy() for k, v in old.items()}
        new["a"] = new["a"] + 1.0
        stats = delta_stats(old, new)
        assert stats.changed_tensors == 1
        assert stats.total_tensors == 3
        assert stats.delta_bytes < stats.full_model_bytes / 2

    def test_key_mismatch_rejected(self, rng):
        old = make_state(rng)
        new = make_state(rng, keys=("a", "b"))
        with pytest.raises(DeltaError, match="keys"):
            encode_delta(old, new)

    def test_shape_change_rejected(self, rng):
        old = make_state(rng)
        new = {k: v.copy() for k, v in old.items()}
        new["a"] = np.zeros(5)
        with pytest.raises(DeltaError, match="shape"):
            encode_delta(old, new)

    def test_bad_magic_rejected(self, rng):
        with pytest.raises(DeltaError):
            apply_delta(make_state(rng), b"XXXX" + b"0" * 16)

    def test_applying_to_wrong_base_keys(self, rng):
        old = make_state(rng)
        new = {k: v + 1 for k, v in old.items()}
        blob = encode_delta(old, new)
        wrong = make_state(rng, keys=("x", "y", "z"))
        with pytest.raises(DeltaError):
            apply_delta(wrong, blob)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), changed=st.integers(0, 3))
    def test_property_roundtrip(self, seed, changed):
        rng = np.random.default_rng(seed)
        old = make_state(rng)
        new = {k: v.copy() for k, v in old.items()}
        for key in list(new)[:changed]:
            new[key] = new[key] * rng.normal()
        rebuilt = apply_delta(old, encode_delta(old, new))
        for key in new:
            assert np.allclose(rebuilt[key], new[key], atol=1e-10)


class TestTrafficReduction:
    def test_classifier_only_delta_reduction_at_paper_scale(self, rng):
        """Check-N-Run claims up to 427x; a classifier-only fine-tune delta
        on a ResNet50-sized state should reduce traffic by >100x with 8-bit
        quantisation."""
        # ResNet50-ish: 23.5M frozen + 2.05M classifier params (float32)
        old = {
            "features": rng.normal(size=(2_000_000,)).astype(np.float32),
            "classifier.weight": rng.normal(size=(2048, 100)).astype(np.float32),
            "classifier.bias": np.zeros(100, dtype=np.float32),
        }
        new = {k: v.copy() for k, v in old.items()}
        new["classifier.weight"] = (new["classifier.weight"]
                                    + 0.01 * rng.normal(size=(2048, 100))
                                    .astype(np.float32))
        stats = delta_stats(old, new, quantize_bits=8)
        assert stats.reduction_factor > 30

    def test_quantised_delta_bounded_error(self, rng):
        old = {"w": rng.normal(size=(512,))}
        new = {"w": old["w"] + rng.normal(size=(512,)) * 0.1}
        blob = encode_delta(old, new, quantize_bits=8)
        rebuilt = apply_delta(old, blob)
        diff_range = (new["w"] - old["w"]).max() - (new["w"] - old["w"]).min()
        assert np.abs(rebuilt["w"] - new["w"]).max() <= diff_range / 255 + 1e-9

    def test_quantise_bits_validated(self, rng):
        old = {"w": rng.normal(size=(4,))}
        new = {"w": old["w"] + 1}
        with pytest.raises(DeltaError):
            encode_delta(old, new, quantize_bits=0)
        with pytest.raises(DeltaError):
            encode_delta(old, new, quantize_bits=32)

    def test_sixteen_bit_quantisation(self, rng):
        old = {"w": rng.normal(size=(64,))}
        new = {"w": old["w"] + rng.normal(size=(64,))}
        rebuilt = apply_delta(old, encode_delta(old, new, quantize_bits=16))
        assert np.allclose(rebuilt["w"], new["w"], atol=1e-3)

    def test_state_dict_bytes_counts_payload(self, rng):
        state = {"w": np.zeros(100, dtype=np.float64)}
        assert state_dict_bytes(state) >= 800

    def test_empty_delta_stats_raise_on_ratio(self, rng):
        from repro.core.checknrun import DeltaStats

        with pytest.raises(DeltaError):
            DeltaStats(100, 0, 0, 1).reduction_factor

    def test_real_model_delta_via_tuner_path(self, small_world):
        """End-to-end: fine-tune a tiny model; the delta beats full-state
        distribution by a large factor.

        The base is the state *after* freezing (what the Tuner last
        distributed): a float32 front, so the full model is half width
        and the factor is measured against it — 283 345 B / 7 436 B =
        38.1x at float64 masters, 147 633 B / 7 442 B = 19.8x exact.
        The live format (4-bit, :func:`publish`) ships 240 B: 615x.  One
        Adam step moves every element by about +-lr, so the codes are
        nearly two-valued and deflate to almost nothing.  Re-pinned when
        the tail began training on 8-bit feature rows (what the channel
        delivers): exact 7 442 -> 7 436 B, live 240 -> 241 B.
        """
        from repro.core.ftdmp import FTDMPTrainer
        from repro.data.loader import normalize_images
        from repro.models.registry import tiny_model

        model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
        old_state = model.freeze_features().state_dict()
        x, y = small_world.sample(64, 0)
        FTDMPTrainer(model, lr=5e-3).finetune(normalize_images(x), y, epochs=1)
        stats = delta_stats(old_state, model.state_dict())
        assert stats.changed_tensors <= 2  # classifier weight + bias
        assert (stats.full_model_bytes, stats.delta_bytes) == (147633, 7436)
        blob, _published = publish(old_state, model.state_dict())
        assert len(blob) == 241


class TestNativeDtype:
    """CNR2 regression tests: deltas are encoded in the tensor's native
    dtype, and the exact path is an XOR of bit patterns, so reconstruction
    is bit-identical where the old float64 arithmetic round-trip was not."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_is_bit_identical(self, rng, dtype):
        old = {"w": rng.normal(size=(257,)).astype(dtype)}
        new = {"w": old["w"] + rng.normal(size=(257,)).astype(dtype)}
        rebuilt = apply_delta(old, encode_delta(old, new))
        assert rebuilt["w"].dtype == np.dtype(dtype)
        assert rebuilt["w"].tobytes() == new["w"].tobytes()

    def test_float32_cancellation_roundtrip(self):
        """Adversarial values: a float32 arithmetic diff absorbs 1e-8
        against 1.0 (eps(float32) ~ 1.2e-7), so fl(fl(new-old)+old) != new.
        The XOR encoding must still reconstruct exactly."""
        old = {"w": np.array([1.0, 1e-8, -1.0, 0.25], dtype=np.float32)}
        new = {"w": np.array([1e-8, 1.0, -1.0 + 1e-8, 0.25 + 1e-8],
                             dtype=np.float32)}
        rebuilt = apply_delta(old, encode_delta(old, new))
        assert rebuilt["w"].tobytes() == new["w"].tobytes()

    def test_special_values_preserved_bitwise(self):
        old = {"w": np.array([0.0, -0.0, 1.0, np.inf], dtype=np.float32)}
        new = {"w": np.array([np.nan, 0.0, -np.inf, -0.0], dtype=np.float32)}
        rebuilt = apply_delta(old, encode_delta(old, new))
        assert rebuilt["w"].tobytes() == new["w"].tobytes()

    def test_integer_state_roundtrip(self, rng):
        old = {"steps": np.arange(16, dtype=np.int64)}
        new = {"steps": old["steps"] + 3}
        rebuilt = apply_delta(old, encode_delta(old, new))
        assert rebuilt["steps"].dtype == np.int64
        assert np.array_equal(rebuilt["steps"], new["steps"])

    def test_float32_delta_not_inflated_to_float64(self, rng):
        """The old encoder shipped float32 diffs at float64 width."""
        vals = rng.normal(size=(4096,))
        blob32 = encode_delta({"w": vals.astype(np.float32)},
                              {"w": (vals + 1.0).astype(np.float32)})
        blob64 = encode_delta({"w": vals}, {"w": vals + 1.0})
        assert len(blob32) < 0.75 * len(blob64)

    def test_quantized_roundtrip_preserves_dtype(self, rng):
        old = {"w": rng.normal(size=(128,)).astype(np.float32)}
        new = {"w": old["w"]
               + rng.normal(size=(128,)).astype(np.float32) * 0.1}
        rebuilt = apply_delta(old, encode_delta(old, new, quantize_bits=8))
        assert rebuilt["w"].dtype == np.float32

    def test_dtype_change_rejected_on_encode(self, rng):
        old = {"w": rng.normal(size=(8,)).astype(np.float32)}
        new = {"w": old["w"].astype(np.float64) + 1.0}
        with pytest.raises(DeltaError, match="dtype"):
            encode_delta(old, new)

    def test_apply_to_wrong_dtype_base_rejected(self, rng):
        old = {"w": rng.normal(size=(8,)).astype(np.float32)}
        new = {"w": old["w"] + np.float32(1.0)}
        blob = encode_delta(old, new)
        with pytest.raises(DeltaError, match="dtype mismatch"):
            apply_delta({"w": old["w"].astype(np.float64)}, blob)


class TestLiveFormat:
    """The live update path: quantised floats, exact everything else, and
    a published state that replicas rebuild bit for bit."""

    @pytest.mark.parametrize("bits", [8, 4])
    def test_integer_and_bool_tensors_ship_exact(self, bits):
        # a rounded integer diff decoded [1, 500, 991] as [1, 501, 991] at
        # 8 bits and [1, 529, 991] at 4
        old = {"steps": np.zeros(3, dtype=np.int64),
               "mask": np.zeros(4, dtype=bool),
               "w": np.zeros(5)}
        new = {"steps": np.array([1, 500, 991], dtype=np.int64),
               "mask": np.array([True, False, True, True]),
               "w": np.linspace(-1.0, 1.0, 5)}
        rebuilt = apply_delta(old, encode_delta(old, new, quantize_bits=bits))
        for key in ("steps", "mask"):
            assert rebuilt[key].dtype == new[key].dtype
            assert rebuilt[key].tobytes() == new[key].tobytes()

    def test_publish_is_what_a_replica_rebuilds(self, rng):
        published = {"w": rng.normal(size=(64, 8)), "b": rng.normal(size=8),
                     "front": rng.normal(size=32).astype(np.float32)}
        master = dict(published, w=published["w"] + rng.normal(size=(64, 8)))
        blob, state = publish(published, master)
        replica = apply_delta(published, blob)
        assert sorted(state) == sorted(replica)
        for key in state:
            assert state[key].dtype == replica[key].dtype
            assert state[key].tobytes() == replica[key].tobytes()
        # untouched tensors are shared, not copied
        assert state["front"] is published["front"]
        assert state["b"] is published["b"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), rounds=st.integers(1, 12))
    def test_error_feedback_keeps_the_residual_within_half_a_step(
            self, seed, rounds):
        """Each round ships ``master - published``; what quantisation
        dropped rides in the next one, so the residual never accumulates."""
        rng = np.random.default_rng(seed)
        master = {"w": rng.normal(size=(32, 4)), "b": np.zeros(4)}
        published = {k: v.copy() for k, v in master.items()}
        replica = {k: v.copy() for k, v in master.items()}
        for _ in range(rounds):
            master = {k: v + rng.normal(scale=rng.uniform(1e-4, 1e-1),
                                        size=v.shape)
                      for k, v in master.items()}
            diff = {k: master[k] - published[k] for k in master}
            blob, published = publish(published, master)
            replica = apply_delta(replica, blob)
            for key, value in published.items():
                assert value.tobytes() == replica[key].tobytes()
                step = np.ptp(diff[key]) / ((1 << LIVE_DELTA_BITS) - 1)
                slack = 4 * np.finfo(np.float64).eps * np.abs(value).max()
                assert (np.abs(master[key] - value).max()
                        <= step / 2 + slack), key
