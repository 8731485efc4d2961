import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefed.privacy import DpConfig, add_noise, clip, next_bound
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


class TestNextBound:
    def test_odd_median(self):
        assert next_bound(1.0, [0.5, 1.0, 2.0]) == pytest.approx(1.0)

    def test_even_median_mean_of_middle_two(self):
        assert next_bound(1.0, [1.0, 3.0]) == pytest.approx(2.0)

    def test_empty_keeps_current(self):
        assert next_bound(0.7, []) == pytest.approx(0.7)

    def test_zero_median_keeps_current(self):
        # every update was zero, as when a round trains at learning rate 0;
        # a bound of 0 would make the next round's clip raise
        assert next_bound(0.7, [0.0, 0.0]) == 0.7
        assert next_bound(0.7, [0.0, 0.0, 5.0]) == 0.7
        assert next_bound(0.7, [0.0, 4.0]) == pytest.approx(2.0)

    def test_inputs_are_not_changed(self):
        norms = [2.0, 1.0]
        assert next_bound(1.0, norms) == pytest.approx(1.5)
        assert norms == [2.0, 1.0]

    @settings(max_examples=500, deadline=None)
    @given(bound=st.floats(1e-6, 1e6),
           norms=st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 1.0, 2.0])),
                          min_size=1, max_size=40))
    def test_median_has_np_median_bits(self, bound, norms):
        want = float(np.median(np.asarray(norms, dtype=np.float64)))
        want = want if want > 0 else bound
        assert next_bound(bound, norms).hex() == want.hex()

    def test_dp_runs_never_import_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma, which no other part of a run needs
        code = ("import sys\n"
                "from treefed.cli import main\n"
                "for method in ('worldlm', 'flat_fl', 'local', 'centralized'):\n"
                "    assert main(['run', '--preset', 'dp-cc-wk', '--rounds', '1', '--seed', '1',\n"
                "                 '--method', method, '--out', sys.argv[1] + '/' + method]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"


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
