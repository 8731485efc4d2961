import numpy as np
import pytest

from treefed.tensors import (
    CongruenceError,
    ParamSet,
    Tensor,
    axpy,
    cosine,
    dot,
    flatten,
    l2_norm,
)


def ps(*pairs, role="backbone"):
    return ParamSet((Tensor(n, np.array(v, dtype=np.float32)) for n, v in pairs), role)


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor("t", np.array([1.0, np.nan], dtype=np.float32))
        with pytest.raises(ValueError):
            Tensor("t", np.array([np.inf], dtype=np.float32))

    def test_shape_and_size(self):
        t = Tensor("t", np.zeros((2, 3), dtype=np.float32))
        assert t.shape == (2, 3)
        assert t.size == 6


class TestParamSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ps(("a", [1.0]), ("a", [2.0]))

    def test_congruence_requires_names_and_shapes(self):
        a = ps(("x", [1.0, 2.0]))
        b = ps(("y", [1.0, 2.0]))  # same shape, different name
        c = ps(("x", [1.0, 2.0, 3.0]))
        assert not a.congruent(b)
        assert not a.congruent(c)
        assert a.congruent(ps(("x", [9.0, 9.0])))

    def test_insertion_order_preserved(self):
        p = ps(("b", [1.0]), ("a", [2.0]))
        assert p.names() == ["b", "a"]

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            ParamSet([], role="bogus")


class TestAxpy:
    def test_pseudo_gradient_difference(self):
        # delta = child - parent via a=1, x=child, y=-parent
        child = ps(("w", [2.0, 5.0]))
        neg_parent = ps(("w", [-1.0, -1.0]))
        delta = axpy(1.0, child, neg_parent)
        np.testing.assert_array_equal(delta["w"].data, [1.0, 4.0])

    def test_zero_scale_identity(self):
        x = ps(("w", [123.0, -7.0]))
        y = ps(("w", [3.0, 4.0]))
        out = axpy(0.0, x, y)
        np.testing.assert_array_equal(out["w"].data, y["w"].data)

    def test_hand_arithmetic(self):
        out = axpy(2.0, ps(("w", [1.0, 2.0])), ps(("w", [3.0, 4.0])))
        np.testing.assert_array_equal(out["w"].data, [5.0, 8.0])

    def test_non_congruent_raises(self):
        with pytest.raises(CongruenceError):
            axpy(1.0, ps(("a", [1.0])), ps(("b", [1.0])))

    def test_axpy_roundtrip_identity(self):
        # axpy(1, x, axpy(-1, x, zeros)) reproduces x exactly
        rng = np.random.default_rng(0)
        x = ps(("w", rng.normal(size=8).astype(np.float32)))
        zeros = x.zeros_like()
        neg = axpy(-1.0, x, zeros)
        back = axpy(1.0, x, neg)
        # -x + x is exactly 0 in IEEE; adding x to the result is exact
        np.testing.assert_array_equal(back["w"].data, np.zeros(8, dtype=np.float32))


class TestFlatten:
    def test_row_major(self):
        t = Tensor("t", np.array([[1, 2], [3, 4]], dtype=np.float32))
        np.testing.assert_array_equal(flatten(t), [1, 2, 3, 4])

    def test_single(self):
        np.testing.assert_array_equal(flatten(Tensor("t", np.array([7.0]))), [7.0])

    def test_index_arithmetic_oracle(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 3)).astype(np.float32)
        flat = flatten(Tensor("t", data))
        assert len(flat) == 6
        for i in range(2):
            for j in range(3):
                assert flat[i * 3 + j] == data[i, j]


class TestNormsAndSimilarity:
    def test_cosine_identical_unit(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_cosine_zero_vector_is_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_l2_norm_three_four_five(self):
        p = ps(("a", [3.0]), ("b", [4.0]))
        assert l2_norm(p) == pytest.approx(5.0)

    def test_cosine_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            alpha = float(rng.uniform(0.1, 10.0))
            assert cosine(a, b) == pytest.approx(cosine(b, a), rel=1e-12)
            assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), rel=1e-6)

    def test_dot_shape_mismatch(self):
        with pytest.raises(CongruenceError):
            dot(np.zeros(2), np.zeros(3))

    def test_reduction_is_reproducible(self):
        rng = np.random.default_rng(3)
        p = ps(("a", rng.normal(size=64).astype(np.float32)),
               ("b", rng.normal(size=32).astype(np.float32)))
        assert l2_norm(p) == l2_norm(p.copy())
