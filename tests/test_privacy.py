import numpy as np
import pytest

from treefed.privacy import ClipState, DpConfig, add_noise, clip, update_bound
from treefed.tensors import l2_norm

from oracles import param_set


def ps(values):
    return param_set({"a": values})


class TestClip:
    def test_scales_down_to_bound(self):
        delta = ps([2.0, 0.0])
        out, pre = clip(delta, 1.0)
        assert pre == pytest.approx(2.0)
        np.testing.assert_allclose(out["a"].data, [1.0, 0.0], rtol=1e-6)
        assert l2_norm(out) == pytest.approx(1.0, rel=1e-6)

    def test_small_delta_unchanged(self):
        delta = ps([0.3])
        out, pre = clip(delta, 1.0)
        assert pre == pytest.approx(0.3)
        np.testing.assert_array_equal(out["a"].data, delta["a"].data)

    def test_post_clip_norm_never_exceeds_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            delta = ps(rng.normal(scale=rng.uniform(0.1, 10), size=32))
            bound = float(rng.uniform(0.05, 3.0))
            out, _ = clip(delta, bound)
            assert l2_norm(out) <= bound * (1 + 1e-6)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            clip(ps([1.0]), 0.0)


class TestAddNoise:
    def test_sigma_zero_identity(self):
        delta = ps([1.0, 2.0])
        out = add_noise(delta, 0.0, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out["a"].data, delta["a"].data)

    def test_noise_std_is_sigma_times_bound(self):
        n = 1_000_000
        delta = ps(np.zeros(n))
        out = add_noise(delta, 0.5, 1.0, np.random.default_rng(123))
        std = float(out["a"].data.std())
        assert 0.498 <= std <= 0.502

    def test_noise_scales_with_bound(self):
        n = 200_000
        delta = ps(np.zeros(n))
        out = add_noise(delta, 0.5, 4.0, np.random.default_rng(7))
        assert out["a"].data.std() == pytest.approx(2.0, rel=0.02)

    def test_fixed_seed_reproducible(self):
        delta = ps([0.0] * 64)
        a = add_noise(delta, 0.5, 1.0, np.random.default_rng(42))
        b = add_noise(delta, 0.5, 1.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a["a"].data, b["a"].data)


class TestUpdateBound:
    def test_odd_median(self):
        state = ClipState(bound=1.0, norms=[0.5, 1.0, 2.0])
        assert update_bound(state) == pytest.approx(1.0)

    def test_even_median_mean_of_middle_two(self):
        state = ClipState(bound=1.0, norms=[1.0, 3.0])
        assert update_bound(state) == pytest.approx(2.0)

    def test_empty_keeps_current(self):
        state = ClipState(bound=0.7, norms=[])
        assert update_bound(state) == pytest.approx(0.7)

    def test_round_zero_bound_is_initial(self):
        cfg = DpConfig(sigma=0.5, initial_bound=1.0, enabled_nodes=frozenset({3}))
        state = ClipState(bound=cfg.initial_bound)
        assert state.bound == 1.0

    def test_norms_reset_after_update(self):
        state = ClipState(bound=1.0, norms=[2.0])
        update_bound(state)
        assert state.norms == []
        assert state.bound == pytest.approx(2.0)


class TestDpOffEquivalence:
    def test_sigma_zero_infinite_bound_is_identity(self):
        rng = np.random.default_rng(5)
        delta = ps(rng.normal(size=128))
        clipped, _ = clip(delta, float("inf"))
        out = add_noise(clipped, 0.0, float("inf"), np.random.default_rng(0))
        for a, b in zip(out, delta):
            assert a.data.tobytes() == b.data.tobytes()


class TestDpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DpConfig(sigma=-0.1, initial_bound=1.0, enabled_nodes=frozenset())
        with pytest.raises(ValueError):
            DpConfig(sigma=0.5, initial_bound=0.0, enabled_nodes=frozenset())
