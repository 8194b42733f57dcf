"""Unit tests for the GRU layer and sequence classifier (including BPTT),
its packed inference loop in both compute dtypes, and packed plans."""

import numpy as np
import pytest

from repro.nn.gru import (
    GRULayer,
    GRUSequenceClassifier,
    PackedPlanCache,
    build_packed_plan,
    decode_backend_name,
    encode_backend_name,
)


@pytest.fixture(scope="module")
def trained_backend():
    """A small GRU with non-trivial weights."""
    rng = np.random.default_rng(0)
    model = GRUSequenceClassifier(5, 8, 3, seed=1)
    for _ in range(25):
        inputs = rng.normal(size=(8, 9, 5))
        targets = rng.integers(0, 3, size=(8, 9))
        model.train_batch(inputs, targets)
    return model


@pytest.fixture(scope="module")
def sequences():
    rng = np.random.default_rng(42)
    return [rng.normal(size=(length, 5)) for length in (4, 17, 9, 1, 30, 9)]


def _f32_copy(model: GRUSequenceClassifier) -> GRUSequenceClassifier:
    """What ``Clap.with_backend("gru-f32")`` serves: a float32 state copy."""
    copy = GRUSequenceClassifier.from_state_dict(model.state_dict())
    copy.set_compute_dtype("float32")
    return copy


class TestGRULayerForward:
    def test_output_shapes(self):
        layer = GRULayer(4, 6, rng=np.random.default_rng(0))
        result = layer.forward(np.zeros((3, 5, 4)))
        assert result.hidden_states.shape == (3, 5, 6)
        assert result.update_gates.shape == (3, 5, 6)
        assert result.reset_gates.shape == (3, 5, 6)

    def test_gate_activations_in_zero_one(self):
        layer = GRULayer(4, 6, rng=np.random.default_rng(1))
        inputs = np.random.default_rng(2).normal(size=(2, 7, 4))
        result = layer.forward(inputs)
        assert np.all(result.update_gates > 0) and np.all(result.update_gates < 1)
        assert np.all(result.reset_gates > 0) and np.all(result.reset_gates < 1)

    def test_masked_steps_carry_hidden_state(self):
        layer = GRULayer(3, 4, rng=np.random.default_rng(3))
        inputs = np.random.default_rng(4).normal(size=(1, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        result = layer.forward(inputs, mask)
        assert np.allclose(result.hidden_states[0, 1], result.hidden_states[0, 2])
        assert np.allclose(result.hidden_states[0, 2], result.hidden_states[0, 3])

    def test_hidden_state_depends_on_history(self):
        layer = GRULayer(2, 4, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        prefix_a = rng.normal(size=(1, 3, 2))
        prefix_b = rng.normal(size=(1, 3, 2))
        final_step = rng.normal(size=(1, 1, 2))
        result_a = layer.forward(np.concatenate([prefix_a, final_step], axis=1))
        result_b = layer.forward(np.concatenate([prefix_b, final_step], axis=1))
        assert not np.allclose(result_a.hidden_states[0, -1], result_b.hidden_states[0, -1])


class TestGRUGradients:
    def test_bptt_matches_numerical_gradients(self):
        rng = np.random.default_rng(0)
        model = GRUSequenceClassifier(3, 5, 4, seed=1)
        inputs = rng.normal(size=(2, 4, 3))
        targets = rng.integers(0, 4, size=(2, 4))
        mask = np.ones((2, 4))
        mask[1, 3] = 0.0

        def loss_value() -> float:
            logits, _ = model.forward(inputs, mask)
            value, _ = model.loss.forward(logits, targets, mask)
            return value

        logits, result = model.forward(inputs, mask)
        _, probabilities = model.loss.forward(logits, targets, mask)
        grad_logits = model.loss.backward(probabilities, targets, mask)
        gradients = {}
        grad_hidden = model.head.backward(grad_logits, gradients)
        model.gru.backward(grad_hidden, result.caches, gradients)

        eps = 1e-6
        check_rng = np.random.default_rng(2)
        for key, parameter in model.parameters.items():
            for _ in range(3):
                index = tuple(check_rng.integers(0, dim) for dim in parameter.shape)
                original = parameter[index]
                parameter[index] = original + eps
                plus = loss_value()
                parameter[index] = original - eps
                minus = loss_value()
                parameter[index] = original
                numerical = (plus - minus) / (2 * eps)
                assert gradients[key][index] == pytest.approx(numerical, rel=1e-4, abs=1e-7), key


class TestGRUSequenceClassifier:
    def test_learns_a_simple_temporal_rule(self):
        """The class of step t is the value of the input at step t-1.

        A memoryless classifier cannot solve this; a working GRU gets it
        nearly perfect within a few hundred updates.
        """
        rng = np.random.default_rng(7)
        model = GRUSequenceClassifier(1, 12, 2, seed=3, learning_rate=0.02)
        for _ in range(700):
            bits = rng.integers(0, 2, size=(16, 6))
            inputs = bits[:, :, None].astype(np.float64)
            targets = np.zeros_like(bits)
            targets[:, 1:] = bits[:, :-1]
            model.train_batch(inputs, targets)
        bits = rng.integers(0, 2, size=(64, 6))
        inputs = bits[:, :, None].astype(np.float64)
        targets = np.zeros_like(bits)
        targets[:, 1:] = bits[:, :-1]
        mask = np.ones_like(bits, dtype=np.float64)
        mask[:, 0] = 0.0  # first step is unpredictable
        assert model.accuracy(inputs, targets, mask) > 0.85

    def test_gate_activations_shape_for_single_sequence(self):
        model = GRUSequenceClassifier(4, 6, 3, seed=0)
        update, reset = model.gate_activations(np.zeros((9, 4)))
        assert update.shape == (9, 6)
        assert reset.shape == (9, 6)

    def test_state_dict_round_trip(self):
        model = GRUSequenceClassifier(3, 4, 5, seed=9)
        inputs = np.random.default_rng(0).normal(size=(1, 6, 3))
        expected = model.predict_classes(inputs)
        restored = GRUSequenceClassifier.from_state_dict(model.state_dict())
        assert np.array_equal(restored.predict_classes(inputs), expected)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(11)
        model = GRUSequenceClassifier(2, 6, 3, seed=5, learning_rate=0.01)
        inputs = rng.normal(size=(16, 5, 2))
        targets = rng.integers(0, 3, size=(16, 5))
        first = model.train_batch(inputs, targets)
        for _ in range(60):
            last = model.train_batch(inputs, targets)
        assert last < first


# ---------------------------------------------------------------------------
# Packed inference loop against the masked training forward
# ---------------------------------------------------------------------------


class TestPackedGatesAgainstMaskedForward:
    """``gate_activations_concat`` runs ``gates_packed``; the oracle here is
    the masked :meth:`GRULayer.forward` that training uses, an independent
    implementation (per-step input projection, padded lanes, masking)."""

    @pytest.fixture(scope="class")
    def mixed(self, trained_backend):
        rng = np.random.default_rng(17)
        lengths = np.concatenate([[1, 200], rng.integers(1, 201, size=78)])
        rng.shuffle(lengths)
        sequences = [rng.normal(size=(int(length), 5)) for length in lengths]
        inputs = np.zeros((len(sequences), int(lengths.max()), 5))
        mask = np.zeros(inputs.shape[:2])
        for row, sequence in enumerate(sequences):
            inputs[row, : len(sequence)] = sequence
            mask[row, : len(sequence)] = 1.0
        oracle = trained_backend.gru.forward(inputs, mask, need_caches=False)
        expected_update = np.concatenate(
            [oracle.update_gates[row, :length] for row, length in enumerate(lengths)]
        )
        expected_reset = np.concatenate(
            [oracle.reset_gates[row, :length] for row, length in enumerate(lengths)]
        )
        return sequences, expected_update, expected_reset

    def test_float64_matches_the_training_forward(self, trained_backend, mixed):
        sequences, expected_update, expected_reset = mixed
        update, reset, bounds = trained_backend.gate_activations_concat(sequences)
        assert bounds[-1] == expected_update.shape[0]
        np.testing.assert_allclose(update, expected_update, atol=1e-12, rtol=0)
        np.testing.assert_allclose(reset, expected_reset, atol=1e-12, rtol=0)

    def test_float32_matches_the_training_forward(self, trained_backend, mixed):
        sequences, expected_update, expected_reset = mixed
        update, reset, _ = _f32_copy(trained_backend).gate_activations_concat(sequences)
        np.testing.assert_allclose(update, expected_update, atol=1e-5, rtol=0)
        np.testing.assert_allclose(reset, expected_reset, atol=1e-5, rtol=0)


class TestPackedGates:
    def test_batched_gates_match_the_sequential_oracle(self, trained_backend, sequences):
        """gate_activations_batch (packed, plan-cached) must stay
        1e-9-equivalent to the per-sequence gate_activations oracle."""
        batched = trained_backend.gate_activations_batch(sequences)
        for sequence, (update, reset) in zip(sequences, batched):
            oracle_update, oracle_reset = trained_backend.gate_activations(sequence)
            np.testing.assert_allclose(update, oracle_update, atol=1e-9, rtol=0)
            np.testing.assert_allclose(reset, oracle_reset, atol=1e-9, rtol=0)

    def test_concat_gates_match_batched_views(self, trained_backend, sequences):
        update, reset, bounds = trained_backend.gate_activations_concat(sequences)
        batched = trained_backend.gate_activations_batch(sequences)
        assert bounds[-1] == sum(len(s) for s in sequences)
        for index, (pair_update, pair_reset) in enumerate(batched):
            assert np.array_equal(update[bounds[index] : bounds[index + 1]], pair_update)
            assert np.array_equal(reset[bounds[index] : bounds[index + 1]], pair_reset)

    def test_float32_mode_stays_close_and_is_reversible(self, trained_backend, sequences):
        reference = trained_backend.gate_activations_batch(sequences)
        f32 = _f32_copy(trained_backend)
        assert f32.compute_dtype == np.float32
        # The persisted identity is unchanged by the compute mode.
        assert decode_backend_name(f32.state_dict()["meta/backend"]) == "gru"
        for (ref_u, ref_r), (got_u, got_r) in zip(
            reference, f32.gate_activations_batch(sequences)
        ):
            assert got_u.dtype == np.float64  # outputs stay float64 views
            np.testing.assert_allclose(got_u, ref_u, atol=1e-5, rtol=0)
            np.testing.assert_allclose(got_r, ref_r, atol=1e-5, rtol=0)
        f32.set_compute_dtype("float64")
        back = f32.gate_activations_batch(sequences)
        for (ref_u, ref_r), (got_u, got_r) in zip(reference, back):
            assert np.array_equal(got_u, ref_u) and np.array_equal(got_r, ref_r)

    def test_invalid_compute_dtype_is_rejected(self, trained_backend):
        with pytest.raises(ValueError, match="float16"):
            trained_backend.gru.set_compute_dtype("float16")

    def test_backend_name_encoding_round_trips(self):
        assert decode_backend_name(encode_backend_name("gru")) == "gru"
        assert decode_backend_name(None) == "gru"


# ---------------------------------------------------------------------------
# Packed plans
# ---------------------------------------------------------------------------


class TestPackedPlans:
    def test_plan_covers_every_nonempty_lane_once(self):
        lengths = np.array([3, 0, 12, 7, 0, 1, 12])
        plan = build_packed_plan(lengths, chunk_size=3)
        covered = [i for chunk in plan.chunks for i in chunk.indices]
        assert sorted(covered + list(plan.empty)) == list(range(len(lengths)))
        assert plan.total_steps == int(lengths.sum())
        for chunk in plan.chunks:
            assert list(chunk.lengths) == sorted(chunk.lengths)

    def test_cache_hits_on_repeated_length_multisets(self):
        cache = PackedPlanCache(maxsize=4)
        lengths = np.array([5, 2, 9])
        first = cache.get(lengths, 64)
        second = cache.get(np.array([5, 2, 9]), 64)
        assert first is second
        assert cache.info() == {"hits": 1, "misses": 1, "size": 1}
        cache.get(np.array([5, 2, 9]), 32)  # different chunking: a new plan
        assert cache.info()["misses"] == 2

    def test_cache_evicts_least_recently_used(self):
        cache = PackedPlanCache(maxsize=2)
        a = cache.get(np.array([1]), 64)
        cache.get(np.array([2]), 64)
        cache.get(np.array([3]), 64)  # evicts [1]
        assert cache.get(np.array([1]), 64) is not a
        assert cache.info()["size"] == 2

    def test_classifier_reuses_plans_across_batches(self, trained_backend, sequences):
        model = GRUSequenceClassifier.from_state_dict(trained_backend.state_dict())
        model.gate_activations_batch(sequences)
        before = model.plan_cache_info()
        model.gate_activations_batch([np.asarray(s) for s in sequences])
        after = model.plan_cache_info()
        assert after["hits"] > before["hits"]


# ---------------------------------------------------------------------------
# gates_packed diagnostics
# ---------------------------------------------------------------------------


class TestGatesPackedDiagnostics:
    def test_unsorted_lengths_name_the_offending_index(self):
        layer = GRULayer(3, 4, rng=np.random.default_rng(0))
        inputs = np.zeros((3, 9, 3))
        with pytest.raises(ValueError, match=r"lengths\[2\]=5 < lengths\[1\]=9"):
            layer.gates_packed(inputs, np.array([3, 9, 5]))

    def test_mismatched_count_reports_both_sizes(self):
        layer = GRULayer(3, 4, rng=np.random.default_rng(0))
        inputs = np.zeros((3, 9, 3))
        with pytest.raises(ValueError, match="got 2 lengths for 3 lanes"):
            layer.gates_packed(inputs, np.array([3, 9]))
