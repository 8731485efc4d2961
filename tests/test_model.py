import numpy as np
import pytest

from treefed.aggregation import ScheduleConfig, lr_at
from treefed.model import (
    ModelConfig,
    Partition,
    TrainerConfig,
    backward,
    evaluate_perplexity,
    forward_loss,
    init_model,
    local_train,
    param_count,
    param_shapes,
    sample_batch,
)
from treefed.tensors import ParamSet, Tensor

from oracles import fd_gradient, oracle_loss

TINY = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=2, expansion_ratio=2,
                   key_block_count=1, context_len=2)


def zero_head(params: ParamSet) -> ParamSet:
    out = []
    for t in params:
        if t.name in ("head.w", "head.b"):
            out.append(Tensor(t.name, np.zeros(t.shape, dtype=np.float32)))
        else:
            out.append(t.copy())
    return ParamSet(out, params.role)


class TestInit:
    def test_same_seed_byte_identical(self):
        a, b = init_model(TINY, 7), init_model(TINY, 7)
        assert a.signature() == b.signature()
        for x, y in zip(a, b):
            assert x.data.tobytes() == y.data.tobytes(), x.name

    def test_param_count_matches_shape_enumeration(self):
        cfg = ModelConfig(vocab_size=16, embed_dim=8, num_blocks=2,
                          expansion_ratio=4, context_len=4)
        by_enum = sum(int(np.prod(s)) for _, s in param_shapes(cfg))
        assert param_count(cfg) == by_enum
        total = sum(t.size for t in init_model(cfg, 0))
        assert total == by_enum

    def test_seed_changes_some_tensor(self):
        a, b = init_model(TINY, 1), init_model(TINY, 2)
        assert any(not np.array_equal(x.data, y.data) for x, y in zip(a, b))


class TestPartition:
    def test_completeness_and_disjointness(self):
        part = Partition.for_config(TINY)
        all_names = [n for n, _ in param_shapes(TINY)]
        assert sorted(part.backbone_names + part.key_names) == sorted(all_names)
        assert not set(part.backbone_names) & set(part.key_names)

    def test_keys_are_final_blocks(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=3, key_block_count=2)
        part = Partition.for_config(cfg)
        assert set(part.key_names) == {
            "block1.fc1.w", "block1.fc1.b", "block1.fc2.w", "block1.fc2.b",
            "block2.fc1.w", "block2.fc1.b", "block2.fc2.w", "block2.fc2.b",
        }
        assert "head.w" in part.backbone_names

    def test_head_in_keys_flag(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=2,
                          key_block_count=1, include_head_in_keys=True)
        part = Partition.for_config(cfg)
        assert "head.w" in part.key_names and "head.b" in part.key_names

    def test_split_assemble_roundtrip(self):
        params = init_model(TINY, 3)
        part = Partition.for_config(TINY)
        b, k = part.split(params)
        back = part.assemble(b, k)
        assert back.names() == params.names()
        for x, y in zip(params, back):
            np.testing.assert_array_equal(x.data, y.data)

    def test_zero_key_blocks(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=2, key_block_count=0)
        part = Partition.for_config(cfg)
        assert part.key_names == []


class TestForwardLoss:
    def test_zero_head_gives_log_vocab(self):
        params = zero_head(init_model(TINY, 0))
        batch = np.array([[0, 1, 2], [3, 4, 5]])
        loss, _ = forward_loss(params, batch)
        assert loss == pytest.approx(np.log(TINY.vocab_size), rel=1e-12)

    def test_two_token_uniform(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=4, num_blocks=1, context_len=2)
        params = zero_head(init_model(cfg, 0))
        loss, _ = forward_loss(params, np.array([[0, 1, 0]]))
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(11)
        params = init_model(TINY, 5)
        batch = rng.integers(0, TINY.vocab_size, size=(6, TINY.context_len + 1))
        loss, _ = forward_loss(params, batch, wide=True)
        assert loss == pytest.approx(oracle_loss(params, batch), rel=1e-6)

    def test_out_of_range_token(self):
        params = init_model(TINY, 0)
        with pytest.raises(ValueError):
            forward_loss(params, np.array([[0, 1, TINY.vocab_size]]))

    def test_wrong_width(self):
        params = init_model(TINY, 0)
        with pytest.raises(ValueError):
            forward_loss(params, np.array([[0, 1, 2, 3]]))


class TestBackward:
    def test_finite_differences_all_coordinates(self):
        rng = np.random.default_rng(21)
        params = init_model(TINY, 9)
        batch = rng.integers(0, TINY.vocab_size, size=(5, TINY.context_len + 1))
        loss, cache = forward_loss(params, batch, wide=True)
        grads = backward(params, cache)
        worst = 0.0
        for t in grads:
            for idx in range(t.size):
                fd = fd_gradient(params, batch, t.name, idx)
                g = float(t.data.flat[idx])
                err = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
                worst = max(worst, err)
        assert worst < 1e-4

    def test_zero_head_zeroes_embedding_gradient(self):
        params = zero_head(init_model(TINY, 2))
        batch = np.array([[0, 1, 2], [3, 4, 5]])
        _, cache = forward_loss(params, batch)
        grads = backward(params, cache)
        np.testing.assert_array_equal(grads["embed"].data, 0.0)
        np.testing.assert_array_equal(grads["in_proj.w"].data, 0.0)
        # the head itself still gets gradient
        assert np.abs(grads["head.w"].data).max() > 0

    def test_batch_duplication_invariance(self):
        rng = np.random.default_rng(31)
        params = init_model(TINY, 4)
        batch = rng.integers(0, TINY.vocab_size, size=(4, TINY.context_len + 1))
        doubled = np.concatenate([batch, batch])
        _, c1 = forward_loss(params, batch, wide=True)
        _, c2 = forward_loss(params, doubled, wide=True)
        g1, g2 = backward(params, c1), backward(params, c2)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-8)

    def test_stale_cache(self):
        params = init_model(TINY, 0)
        _, cache = forward_loss(params, np.array([[0, 1, 2]]))
        other = init_model(TINY, 0)
        with pytest.raises(ValueError, match="stale"):
            backward(other, cache)


def alternating_tokens(length=512):
    return np.arange(length) % 2


class TestLocalTrain:
    def trainer(self, steps, eta=0.05, total=None):
        sched = ScheduleConfig(alpha=0.1, eta_max=eta, total_steps=total or max(1, steps))
        return TrainerConfig(local_steps=steps, batch_size=8, schedule=sched)

    def test_zero_steps_unchanged(self):
        params = init_model(TINY, 0)
        out = local_train(params, alternating_tokens() % TINY.vocab_size,
                          self.trainer(0), rng_seed=0, global_step=0)
        assert out.params is params
        assert out.steps_taken == 0

    def test_learns_alternating_corpus(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=4, num_blocks=1, context_len=2)
        params = init_model(cfg, 0)
        out = local_train(params, alternating_tokens(), self.trainer(200),
                          rng_seed=1, global_step=0)
        final_loss, _ = forward_loss(out.params, sample_batch(
            alternating_tokens(), 2, 64, np.random.default_rng(2)))
        assert final_loss < 0.05

    def test_adam_matches_hand_recurrence(self):
        # independently step the Adam recurrence in float64 for three steps
        cfg = ModelConfig(vocab_size=4, embed_dim=4, num_blocks=1, context_len=2)
        tokens = np.array([0, 1, 2, 3] * 32)
        trainer = TrainerConfig(beta1=0.9, beta2=0.95, local_steps=3, batch_size=4,
                                schedule=ScheduleConfig(alpha=0.2, eta_max=0.01,
                                                        total_steps=10))
        params = init_model(cfg, 6)
        got = local_train(params, tokens, trainer, rng_seed=42, global_step=2)

        rng = np.random.default_rng(42)
        work = {t.name: t.data.astype(np.float32).copy() for t in params}
        m = {k: np.zeros(v.shape) for k, v in work.items()}
        v = {k: np.zeros(vv.shape) for k, vv in work.items()}
        for t in range(1, 4):
            lr = lr_at(2 + t - 1, trainer.schedule)
            batch = np.stack([tokens[s : s + 3] for s in
                              rng.integers(0, len(tokens) - 2, size=4)])
            current = ParamSet((Tensor(k, work[k]) for k in work), "backbone")
            _, cache = forward_loss(current, batch)
            grads = backward(current, cache)
            for g in grads:
                gd = g.data.astype(np.float64)
                m[g.name] = 0.9 * m[g.name] + 0.1 * gd
                v[g.name] = 0.95 * v[g.name] + 0.05 * gd * gd
                mhat = m[g.name] / (1 - 0.9 ** t)
                vhat = v[g.name] / (1 - 0.95 ** t)
                work[g.name] = (work[g.name].astype(np.float64)
                                - lr * mhat / (np.sqrt(vhat) + 1e-8)).astype(np.float32)
        for t in got.params:
            np.testing.assert_allclose(t.data, work[t.name], rtol=1e-6, atol=1e-9)

    def test_empty_shard_errors(self):
        params = init_model(TINY, 0)
        with pytest.raises(ValueError):
            local_train(params, np.array([], dtype=np.int64), self.trainer(1),
                        rng_seed=0, global_step=0)

    def test_deterministic_given_seed(self):
        params = init_model(TINY, 0)
        tokens = np.arange(256) % TINY.vocab_size
        a = local_train(params, tokens, self.trainer(5), rng_seed=9, global_step=0)
        b = local_train(params, tokens, self.trainer(5), rng_seed=9, global_step=0)
        for x, y in zip(a.params, b.params):
            np.testing.assert_array_equal(x.data, y.data)


class TestEvaluatePerplexity:
    def test_uniform_predictor(self):
        cfg = ModelConfig(vocab_size=50, embed_dim=4, num_blocks=1, context_len=2)
        params = zero_head(init_model(cfg, 0))
        tokens = np.random.default_rng(0).integers(0, 50, size=500)
        assert evaluate_perplexity(params, tokens) == pytest.approx(50.0, rel=1e-9)

    def test_converged_cycle_approaches_one(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=4, num_blocks=1, context_len=2)
        sched = ScheduleConfig(alpha=0.1, eta_max=0.05, total_steps=200)
        trainer = TrainerConfig(local_steps=200, batch_size=8, schedule=sched)
        out = local_train(init_model(cfg, 0), alternating_tokens(), trainer,
                          rng_seed=3, global_step=0)
        assert evaluate_perplexity(out.params, alternating_tokens(128)) < 1.06

    def test_empty_shard_errors(self):
        with pytest.raises(ValueError):
            evaluate_perplexity(init_model(TINY, 0), np.array([0, 1]))
