"""Unit tests for regret-minimization expert weights (§4.3.2)."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ExpertWeights, GlobalWeights, bitmap_of


def make_weights(n=2, history=100, lr=0.1, batch=10, seed=1):
    return ExpertWeights(
        num_experts=n, history_size=history, learning_rate=lr,
        batch_size=batch, rng=random.Random(seed),
    )


class TestExpertWeights:
    def test_starts_uniform(self):
        w = make_weights(n=4)
        assert w.weights == pytest.approx([0.25] * 4)

    def test_regret_decreases_penalized_expert(self):
        w = make_weights()
        w.apply_regret(0b01, age=0)  # penalize expert 0
        assert w.weights[0] < w.weights[1]

    def test_regret_on_both_cancels_out(self):
        w = make_weights()
        w.apply_regret(0b11, age=0)
        assert w.weights[0] == pytest.approx(w.weights[1])

    def test_older_regrets_penalize_less(self):
        fresh, stale = make_weights(), make_weights()
        fresh.apply_regret(0b01, age=0)
        stale.apply_regret(0b01, age=99)
        assert fresh.weights[0] < stale.weights[0]

    def test_discount_matches_lecar(self):
        w = make_weights(history=200)
        assert w.discount == pytest.approx(0.005 ** (1 / 200))

    def test_weights_stay_normalized(self):
        w = make_weights()
        for i in range(50):
            w.apply_regret(0b01 if i % 3 else 0b10, age=i % 7)
        assert sum(w.weights) == pytest.approx(1.0)

    def test_weight_floor_prevents_lockout(self):
        w = make_weights(lr=5.0)
        for _ in range(200):
            w.apply_regret(0b01, age=0)
        assert w.weights[0] > 0

    def test_batch_flush_signal(self):
        w = make_weights(batch=3)
        assert not w.apply_regret(0b01, 0)
        assert not w.apply_regret(0b01, 0)
        assert w.apply_regret(0b01, 0)  # third regret -> flush

    def test_take_pending_compresses_and_resets(self):
        w = make_weights(batch=100)
        w.apply_regret(0b01, age=0)
        w.apply_regret(0b01, age=0)
        w.apply_regret(0b10, age=0)
        pending = w.take_pending()
        assert pending[0] == pytest.approx(2.0)
        assert pending[1] == pytest.approx(1.0)
        assert w.take_pending() == [0.0, 0.0]

    def test_choose_respects_weights(self):
        w = make_weights(seed=42)
        w.weights = [0.99, 0.01]
        picks = [w.choose() for _ in range(1000)]
        assert picks.count(0) > 900

    def test_choose_single_expert(self):
        w = make_weights(n=1)
        assert w.choose() == 0

    def test_set_weights_normalizes(self):
        w = make_weights()
        w.set_weights([3.0, 1.0])
        assert w.weights == pytest.approx([0.75, 0.25])

    def test_set_weights_length_checked(self):
        with pytest.raises(ValueError):
            make_weights().set_weights([1.0])

    def test_rejects_zero_experts(self):
        with pytest.raises(ValueError):
            make_weights(n=0)

    @given(st.integers(1, 15), st.integers(0, 300))
    def test_normalization_invariant(self, bitmap, age):
        w = ExpertWeights(4, history_size=100, rng=random.Random(0))
        w.apply_regret(bitmap, age)
        assert sum(w.weights) == pytest.approx(1.0)
        assert all(x > 0 for x in w.weights)


class TestSelectionModes:
    def test_modes_share_regret_machinery(self):
        """The proportional choice, the one mode, penalizes through the
        regret update."""
        w = ExpertWeights(2, history_size=100, rng=random.Random(1))
        w.apply_regret(0b01, age=0)
        assert w.weights[0] < w.weights[1]


class TestGlobalWeights:
    def test_handle_update_applies_compressed_penalties(self):
        g = GlobalWeights(2, learning_rate=0.1)
        new = g.handle_update([5.0, 0.0])
        assert new[0] < new[1]
        assert sum(new) == pytest.approx(1.0)

    def test_matches_incremental_application(self):
        """Compression trick: sum of penalties == product of exponentials."""
        g_batch = GlobalWeights(2, learning_rate=0.1)
        g_batch.handle_update([3.0, 0.0])
        g_inc = GlobalWeights(2, learning_rate=0.1)
        for _ in range(3):
            g_inc.handle_update([1.0, 0.0])
        assert g_batch.weights == pytest.approx(g_inc.weights)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            GlobalWeights(2).handle_update([1.0])


class TestBitmapOf:
    def test_single_expert(self):
        assert bitmap_of([5, 7], victim_index=5) == 0b01

    def test_both_experts(self):
        assert bitmap_of([5, 5], victim_index=5) == 0b11

    def test_second_only(self):
        assert bitmap_of([3, 9], victim_index=9) == 0b10

    def test_no_match(self):
        assert bitmap_of([1, 2], victim_index=7) == 0
