import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treefed.model as model_mod
from treefed.aggregation import ScheduleConfig, lr_at
from treefed.datagen import ContextIndex, make_clustered_sources, sample_tokens
from treefed.model import (
    ModelConfig,
    Partition,
    StepWorkspace,
    TrainerConfig,
    backward,
    context_len,
    forward_loss,
    init_model,
    local_train,
    mean_nll,
    param_shapes,
    sample_batch,
    stack_width,
    window_nlls,
)
from treefed.tensors import CongruenceError, Layout, ParamSet, ParamStack

from oracles import (
    fd_gradient,
    forward_backward,
    oracle_loss,
    param_count,
    param_set,
    reference_forward_backward,
    reference_local_train,
    reference_mean_nll,
)

TINY = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=2, expansion_ratio=2,
                   key_block_count=1, context_len=2)
TINY_LAYOUT = init_model(TINY, 0).layout


def zero_head(params: ParamSet) -> ParamSet:
    return param_set((t.name, np.zeros(t.shape) if t.name in ("head.w", "head.b") else t.data)
                     for t in params)


def index_of(tokens, n: int) -> ContextIndex:
    """A stream's ContextIndex, built alone."""
    return ContextIndex.of_streams([tokens], n)[0]


def scored_alone(params: ParamSet, tokens, chunk: int = 8192) -> float:
    """mean_nll of a stream whose window NLLs window_nlls scored alone."""
    (nll,) = window_nlls(params, [index_of(tokens, context_len(params.layout))], chunk)
    return mean_nll(params, tokens, nll, chunk)


class TestInit:
    def test_same_seed_byte_identical(self):
        a, b = init_model(TINY, 7), init_model(TINY, 7)
        assert a.layout.signature == b.layout.signature
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
        backbone, keys = part.backbone_layout.names, part.key_layout.names
        assert sorted(backbone + keys) == sorted(all_names)
        assert not set(backbone) & set(keys)

    def test_keys_are_final_blocks(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=3, key_block_count=2)
        part = Partition.for_config(cfg)
        assert set(part.key_layout.names) == {
            "block1.fc1.w", "block1.fc1.b", "block1.fc2.w", "block1.fc2.b",
            "block2.fc1.w", "block2.fc1.b", "block2.fc2.w", "block2.fc2.b",
        }
        assert "head.w" in part.backbone_layout.names

    def test_head_in_keys_flag(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=2,
                          key_block_count=1, include_head_in_keys=True)
        part = Partition.for_config(cfg)
        assert "head.w" in part.key_layout.names and "head.b" in part.key_layout.names

    def test_split_assemble_roundtrip(self):
        params = init_model(TINY, 3)
        part = Partition.for_config(TINY)
        b, k = part.split(params)
        back = part.assemble(b, k)
        assert back.layout.names == params.layout.names
        for x, y in zip(params, back):
            np.testing.assert_array_equal(x.data, y.data)

    def test_zero_key_blocks(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=2, key_block_count=0)
        part = Partition.for_config(cfg)
        assert part.key_layout.names == ()


class TestForwardLoss:
    def test_zero_head_gives_log_vocab(self):
        params = zero_head(init_model(TINY, 0))
        batch = np.array([[0, 1, 2], [3, 4, 5]])
        loss, _ = forward_backward(params, batch)
        assert loss == pytest.approx(np.log(TINY.vocab_size), rel=1e-12)

    def test_two_token_uniform(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=4, num_blocks=1, context_len=2)
        params = zero_head(init_model(cfg, 0))
        loss, _ = forward_backward(params, np.array([[0, 1, 0]]))
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(11)
        params = init_model(TINY, 5)
        batch = rng.integers(0, TINY.vocab_size, size=(6, TINY.context_len + 1))
        loss, _ = forward_backward(params, batch, wide=True)
        assert loss == pytest.approx(oracle_loss(params, batch), rel=1e-6)


class TestBackward:
    def test_finite_differences_all_coordinates(self):
        rng = np.random.default_rng(21)
        params = init_model(TINY, 9)
        batch = rng.integers(0, TINY.vocab_size, size=(5, TINY.context_len + 1))
        _, grads = forward_backward(params, batch, wide=True)
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
        _, grads = forward_backward(params, batch)
        np.testing.assert_array_equal(grads["embed"].data, 0.0)
        np.testing.assert_array_equal(grads["in_proj.w"].data, 0.0)
        # the head itself still gets gradient
        assert np.abs(grads["head.w"].data).max() > 0

    def test_batch_duplication_invariance(self):
        rng = np.random.default_rng(31)
        params = init_model(TINY, 4)
        batch = rng.integers(0, TINY.vocab_size, size=(4, TINY.context_len + 1))
        doubled = np.concatenate([batch, batch])
        _, g1 = forward_backward(params, batch, wide=True)
        _, g2 = forward_backward(params, doubled, wide=True)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-8)

    def test_stale_cache(self):
        stack, other = (ParamStack(TINY_LAYOUT, init_model(TINY, 0).buf[None]) for _ in range(2))
        _, cache = forward_loss(stack, np.array([[[0, 1, 2]]]), StepWorkspace(TINY_LAYOUT, 1, 1))
        with pytest.raises(ValueError, match="stale"):
            backward(other, cache)

    @settings(max_examples=300, deadline=None)
    @given(nodes=st.integers(1, 4), batch_size=st.integers(1, 128), blocks=st.integers(1, 4),
           context=st.integers(1, 3), vocab=st.integers(2, 40), embed=st.integers(2, 12),
           ratio=st.integers(1, 4), wide=st.booleans(), data=st.data())
    def test_byte_identical_to_the_reference_kernels(self, nodes, batch_size, blocks, context,
                                                     vocab, embed, ratio, wide, data):
        # every layer is at least 2 wide: a 1-wide bias gradient adds its
        # batch in another order than the reference's np.sum (see backward)
        cfg = ModelConfig(vocab_size=vocab, embed_dim=embed, num_blocks=blocks,
                          expansion_ratio=ratio, key_block_count=0, context_len=context)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layout = init_model(cfg, 0).layout
        scale = data.draw(st.sampled_from([0.1, 1.0, 3.0]), label="scale")
        stack = ParamStack(layout, (scale * rng.standard_normal((nodes, layout.size)))
                           .astype(np.float32))
        batch = rng.integers(0, vocab, size=(nodes, batch_size, context + 1))
        want_loss, want_grad = reference_forward_backward(stack, batch, wide)
        loss, cache = forward_loss(stack, batch, StepWorkspace(layout, nodes, batch_size), wide)
        assert loss.tobytes() == want_loss.tobytes()
        assert backward(stack, cache).buf.tobytes() == want_grad.tobytes()

    def test_every_gradient_entry_is_written(self):
        # the gradient stack comes from np.empty, so an entry no layer writes
        # would hand the optimizer stale memory
        layout = init_model(TINY, 0).layout
        stack = ParamStack(layout, np.stack([init_model(TINY, s).buf for s in (1, 2, 3)]))
        batch = np.random.default_rng(5).integers(0, TINY.vocab_size,
                                                  size=(3, 7, TINY.context_len + 1))
        ws = StepWorkspace(layout, 3, 7)
        ws.grad.buf.fill(np.nan)
        _, cache = forward_loss(stack, batch, ws)
        assert np.isfinite(backward(stack, cache).buf).all()


def alternating_tokens(length=512):
    return np.arange(length) % 2


class TestLocalTrain:
    def trainer(self, steps, eta=0.05, total=None):
        sched = ScheduleConfig(alpha=0.1, eta_max=eta, total_steps=total or max(1, steps))
        return TrainerConfig(local_steps=steps, batch_size=8, schedule=sched)

    def test_zero_steps_unchanged(self):
        params = init_model(TINY, 0)
        [out] = local_train([(params, alternating_tokens() % TINY.vocab_size, 0)],
                            self.trainer(0), global_step=0)
        assert out.params is params and np.isnan(out.mean_loss)

    def test_learns_alternating_corpus(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=4, num_blocks=1, context_len=2)
        params = init_model(cfg, 0)
        [out] = local_train([(params, alternating_tokens(), 1)], self.trainer(200),
                            global_step=0)
        windows = np.lib.stride_tricks.sliding_window_view(alternating_tokens(), 3)
        final_loss, _ = forward_backward(out.params, sample_batch(
            windows, 64, np.random.default_rng(2)))
        assert final_loss < 0.05

    def test_adam_matches_hand_recurrence(self):
        # independently step the Adam recurrence in float64 for three steps
        cfg = ModelConfig(vocab_size=4, embed_dim=4, num_blocks=1, context_len=2)
        tokens = np.array([0, 1, 2, 3] * 32)
        trainer = TrainerConfig(beta1=0.9, beta2=0.95, local_steps=3, batch_size=4,
                                schedule=ScheduleConfig(alpha=0.2, eta_max=0.01,
                                                        total_steps=10))
        params = init_model(cfg, 6)
        [got] = local_train([(params, tokens, 42)], trainer, global_step=2)

        rng = np.random.default_rng(42)
        work = {t.name: t.data.astype(np.float32).copy() for t in params}
        m = {k: np.zeros(v.shape) for k, v in work.items()}
        v = {k: np.zeros(vv.shape) for k, vv in work.items()}
        for t in range(1, 4):
            lr = lr_at(2 + t - 1, trainer.schedule)
            batch = np.stack([tokens[s : s + 3] for s in
                              rng.integers(0, len(tokens) - 2, size=4)])
            _, grads = forward_backward(param_set(work), batch)
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

    def test_float32_moments_track_the_float64_recurrence_for_96_steps(self):
        # one fig2-shaped call (the fig2 model, 96 steps of 32 windows from a
        # fig2-like source) against Adam with float64 moments on the same
        # batches: each tensor ends within rtol 1e-4 of it in norm (about
        # 1.5e-5 at worst with numpy 2.4 on x86-64)
        cfg = ModelConfig(vocab_size=32, embed_dim=16, num_blocks=3, expansion_ratio=4,
                          key_block_count=1, context_len=2)
        source = make_clustered_sources(2, 2, 0.8, 32, seed=1, concentration=0.1)[0]
        tokens = sample_tokens(source, 4000, np.random.default_rng(3))
        trainer = TrainerConfig(local_steps=96, batch_size=32,
                                schedule=ScheduleConfig(alpha=0.05, eta_max=0.03,
                                                        total_steps=288))
        params = init_model(cfg, 1)
        [got] = local_train([(params, tokens, 7)], trainer, global_step=0)

        batches = sample_batch(np.lib.stride_tricks.sliding_window_view(tokens, 3),
                               (96, 32), np.random.default_rng(7))
        work, m, v = params.buf.copy(), np.zeros(params.layout.size), np.zeros(params.layout.size)
        for t in range(1, 97):
            _, grads = forward_backward(ParamSet.from_buffer(params.layout, work), batches[t - 1])
            g = grads.buf.astype(np.float64)
            m = 0.9 * m + 0.1 * g
            v = 0.95 * v + 0.05 * g * g
            step = lr_at(t - 1, trainer.schedule) * (m / (1 - 0.9 ** t)) / (
                np.sqrt(v / (1 - 0.95 ** t)) + 1e-8)
            work = (work.astype(np.float64) - step).astype(np.float32)
        for name, s in params.layout.slices.items():
            diff = np.linalg.norm(got.params.buf[s].astype(np.float64) - work[s])
            assert diff <= 1e-4 * np.linalg.norm(work[s].astype(np.float64)), name

    def test_empty_shard_errors(self):
        params = init_model(TINY, 0)
        with pytest.raises(ValueError, match="a shard of 0 tokens is shorter than one context"):
            local_train([(params, np.array([], dtype=np.int64), 0)], self.trainer(1),
                        global_step=0)

    @pytest.mark.parametrize("bad", [TINY.vocab_size, -1])
    @pytest.mark.parametrize("where", [0, 100, -1])
    def test_token_out_of_range_raises_before_the_first_step(self, monkeypatch, bad, where):
        # a bad token anywhere in a stream fails the call, even one that no
        # batch would have drawn
        good = np.arange(200) % TINY.vocab_size
        tokens = good.copy()
        tokens[where] = bad
        drawn = []
        orig = model_mod.sample_batch
        monkeypatch.setattr(model_mod, "sample_batch",
                            lambda *args, **kwargs: drawn.append(1) or orig(*args, **kwargs))
        with pytest.raises(ValueError, match="token id out of range"):
            local_train([(init_model(TINY, 0), good, 0), (init_model(TINY, 1), tokens, 1)],
                        self.trainer(3), global_step=0)
        assert drawn == []

    def test_null_total_steps_raises_before_the_first_step(self, monkeypatch):
        stepped = []
        orig = model_mod.forward_loss
        monkeypatch.setattr(model_mod, "forward_loss",
                            lambda *args, **kwargs: stepped.append(1) or orig(*args, **kwargs))
        trainer = TrainerConfig(local_steps=3, batch_size=8,
                                schedule=ScheduleConfig(total_steps=None))
        tokens = np.arange(200) % TINY.vocab_size
        with pytest.raises(ValueError, match=r"schedule\.total_steps.*presets\.resolve"):
            local_train([(init_model(TINY, 0), tokens, 0)], trainer, global_step=0)
        assert stepped == []

    @pytest.mark.parametrize("steps", [1, 5])
    def test_each_job_draws_all_its_batches_in_one_call(self, monkeypatch, steps):
        # the benchmark trace counts sample_batch calls through the module
        # namespace: one per job and call, each for every step's batch
        sizes = []
        orig = model_mod.sample_batch

        def spy(windows, size, rng):
            sizes.append(size)
            return orig(windows, size, rng)

        monkeypatch.setattr(model_mod, "sample_batch", spy)
        tokens = np.arange(200) % TINY.vocab_size
        local_train([(init_model(TINY, k), tokens, k) for k in range(3)], self.trainer(steps),
                    global_step=0)
        assert sizes == [(steps, 8)] * 3

    @pytest.mark.parametrize("n", [15_998, 2**31 + 1, 2**33 + 7])
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_one_draw_of_every_step_equals_a_draw_per_step(self, n, batch_size):
        # local_train's batches are byte-identical to drawing one per step
        # only because numpy's Generator.integers has this property: the
        # spare half of a 64-bit draw stays in the bit generator, not the call
        steps = 9
        once, per_step = np.random.default_rng(17), np.random.default_rng(17)
        got = once.integers(0, n, size=(steps, batch_size))
        want = np.stack([per_step.integers(0, n, size=batch_size) for _ in range(steps)])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(once.integers(0, n, size=batch_size),
                                      per_step.integers(0, n, size=batch_size))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_byte_identical_to_per_tensor_loop(self, optimizer):
        cfg = ModelConfig(vocab_size=12, embed_dim=6, num_blocks=3, expansion_ratio=2,
                          context_len=3, include_head_in_keys=True)
        tokens = np.random.default_rng(5).integers(0, 12, size=400)
        sched = ScheduleConfig(alpha=0.2, eta_max=0.05, total_steps=30)
        trainer = TrainerConfig(optimizer=optimizer, local_steps=12, batch_size=8,
                                schedule=sched)
        params = init_model(cfg, 3)
        [got] = local_train([(params, tokens, 11)], trainer, global_step=4)
        want, want_loss = reference_local_train(params, tokens, trainer, 11, 4)
        assert got.params.layout.names == want.layout.names
        for x, y in zip(got.params, want):
            assert x.data.tobytes() == y.data.tobytes(), x.name
        assert np.float64(got.mean_loss).tobytes() == np.float64(want_loss).tobytes()

    def test_divergence_still_raises(self):
        # sgd at eta_max=50 overflows within ten steps; the flat loop must
        # raise exactly as the per-tensor loop does
        trainer = TrainerConfig(optimizer="sgd", local_steps=10, batch_size=8,
                                schedule=ScheduleConfig(alpha=0.1, eta_max=50.0,
                                                        total_steps=10))
        tokens = np.arange(256) % TINY.vocab_size
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                reference_local_train(init_model(TINY, 0), tokens, trainer, 0, 0)
            with pytest.raises(ValueError, match="tensor 'embed' contains non-finite"):
                local_train([(init_model(TINY, 0), tokens, 0)], trainer, global_step=0)

    def test_deterministic_given_seed(self):
        params = init_model(TINY, 0)
        tokens = np.arange(256) % TINY.vocab_size
        [a] = local_train([(params, tokens, 9)], self.trainer(5), global_step=0)
        [b] = local_train([(params, tokens, 9)], self.trainer(5), global_step=0)
        for x, y in zip(a.params, b.params):
            np.testing.assert_array_equal(x.data, y.data)


class TestStackedTraining:
    """local_train stacks its jobs as rows of one array; no row may see
    another, so each job must end byte for byte where training it alone,
    and where the per-tensor reference loop, ends."""

    CFG = ModelConfig(vocab_size=9, embed_dim=5, num_blocks=2, expansion_ratio=2,
                      context_len=2, include_head_in_keys=True)

    @settings(max_examples=25, deadline=None)
    @given(optimizer=st.sampled_from(["adam", "sgd"]),
           jobs=st.lists(st.tuples(st.integers(0, 2**16), st.integers(20, 300),
                                   st.integers(0, 2**16)), min_size=1, max_size=5),
           steps=st.integers(1, 6), global_step=st.integers(0, 20))
    def test_each_job_equals_training_it_alone(self, optimizer, jobs, steps, global_step):
        trainer = TrainerConfig(optimizer=optimizer, local_steps=steps, batch_size=6,
                                schedule=ScheduleConfig(alpha=0.2, eta_max=0.05,
                                                        total_steps=30))
        group = [(init_model(self.CFG, init_seed),
                  np.random.default_rng(init_seed + 1).integers(0, 9, size=length), rng_seed)
                 for init_seed, length, rng_seed in jobs]
        stacked = local_train(group, trainer, global_step)
        assert len(stacked) == len(group)
        for job, got in zip(group, stacked):
            [alone] = local_train([job], trainer, global_step)
            params, tokens, rng_seed = job
            want, want_loss = reference_local_train(params, tokens, trainer, rng_seed,
                                                    global_step)
            assert got.params.buf.tobytes() == alone.params.buf.tobytes() == want.buf.tobytes()
            assert (np.float64(got.mean_loss).tobytes() == np.float64(alone.mean_loss).tobytes()
                    == np.float64(want_loss).tobytes())

    @settings(max_examples=15, deadline=None)
    @given(calls=st.lists(st.tuples(st.sampled_from(["adam", "sgd"]), st.integers(1, 4),
                                    st.integers(2, 9), st.integers(1, 4),
                                    st.integers(0, 2**16)), min_size=2, max_size=4))
    def test_back_to_back_calls_share_no_state(self, calls):
        # every call builds its own step workspace: calls of other widths,
        # batch sizes and optimizers before it change none of its bytes
        for optimizer, width, batch_size, steps, seed in calls:
            trainer = TrainerConfig(optimizer=optimizer, local_steps=steps,
                                    batch_size=batch_size,
                                    schedule=ScheduleConfig(alpha=0.2, eta_max=0.05,
                                                            total_steps=30))
            rng = np.random.default_rng(seed)
            group = [(init_model(self.CFG, seed + k),
                      rng.integers(0, 9, size=int(rng.integers(20, 200))), seed + 100 + k)
                     for k in range(width)]
            for (params, tokens, rng_seed), got in zip(group, local_train(group, trainer, 3)):
                want, want_loss = reference_local_train(params, tokens, trainer, rng_seed, 3)
                assert got.params.buf.tobytes() == want.buf.tobytes()
                assert np.float64(got.mean_loss).tobytes() == np.float64(want_loss).tobytes()

    def test_underflowing_row_stays_finite_and_apart(self):
        # a zero head.w and a head.b of 60 on the only token a stream holds
        # give gradients of about 1e-27, whose squares are 0 in float32: the
        # row's v2 stays 0, so its step rests on the eps term of the
        # denominator alone, and it must stay finite without moving its
        # stack-mate
        healthy = (init_model(TINY, 0), np.arange(256) % TINY.vocab_size, 0)
        layout, buf = healthy[0].layout, init_model(TINY, 1).buf.copy()
        head = layout.views(buf)
        head["head.w"][...] = 0.0
        head["head.b"][3] = 60.0
        tiny = (ParamSet.from_buffer(layout, buf), np.full(256, 3), 1)
        g = forward_backward(tiny[0], np.full((8, TINY.context_len + 1), 3))[1].buf
        assert np.any(g != 0) and np.all(g * g == 0) and np.abs(g).max() < 1e-23

        trainer = TestLocalTrain().trainer(5)
        got = local_train([healthy, tiny], trainer, global_step=0)
        for job, row in zip((healthy, tiny), got):
            [alone] = local_train([job], trainer, global_step=0)
            assert row.params.buf.tobytes() == alone.params.buf.tobytes()
        assert np.isfinite(got[1].params.buf).all()
        assert np.abs(got[1].params.buf - tiny[0].buf).max() < 1e-6

    def test_stack_forward_equals_each_row(self):
        sets = [init_model(TINY, k) for k in range(3)]
        batch = np.random.default_rng(0).integers(0, TINY.vocab_size, size=(3, 5, 3))
        losses, _ = forward_loss(ParamStack(TINY_LAYOUT, np.stack([p.buf for p in sets])), batch,
                                 StepWorkspace(TINY_LAYOUT, 3, 5))
        for params, rows, loss in zip(sets, batch, losses):
            assert (np.float64(loss).tobytes()
                    == np.float64(forward_backward(params, rows)[0]).tobytes())

    def test_jobs_must_share_a_layout(self):
        other = ModelConfig(vocab_size=8, embed_dim=4, num_blocks=3, context_len=2)
        tokens = np.arange(64) % 8
        with pytest.raises(CongruenceError):
            local_train([(init_model(TINY, 0), tokens, 0), (init_model(other, 0), tokens, 1)],
                        TestLocalTrain().trainer(1), global_step=0)
        with pytest.raises(ValueError, match="at least one job"):
            local_train([], TestLocalTrain().trainer(1), global_step=0)

    def test_width_follows_the_step_memory_budget(self):
        # about 2 MiB of step state at 24 B per parameter per node: the fig2
        # model (7,968 parameters) stacks 10 nodes, one of 37,568 stacks 2
        assert stack_width(Layout.of([("w", (7968,))])) == 10
        assert stack_width(Layout.of([("w", (37568,))])) == 2
        assert stack_width(Layout.of([("w", (10**7,))])) == 1


class TestPerplexity:
    # a row's perplexity is exp of its mean_nll (engine._row)
    def test_uniform_predictor(self):
        cfg = ModelConfig(vocab_size=50, embed_dim=4, num_blocks=1, context_len=2)
        params = zero_head(init_model(cfg, 0))
        tokens = np.random.default_rng(0).integers(0, 50, size=500)
        assert np.exp(scored_alone(params, tokens)) == pytest.approx(50.0, rel=1e-9)

    def test_converged_cycle_approaches_one(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=4, num_blocks=1, context_len=2)
        sched = ScheduleConfig(alpha=0.1, eta_max=0.05, total_steps=200)
        trainer = TrainerConfig(local_steps=200, batch_size=8, schedule=sched)
        [out] = local_train([(init_model(cfg, 0), alternating_tokens(), 3)], trainer,
                            global_step=0)
        assert np.exp(scored_alone(out.params, alternating_tokens(128))) < 1.06

    @pytest.mark.parametrize("tokens", [[], [0], [0, 1]])
    def test_too_short_shard_errors(self, tokens):
        with pytest.raises(ValueError, match="^empty or too-short evaluation shard$"):
            mean_nll(init_model(TINY, 0), np.array(tokens), np.zeros(0))


class TestMeanNll:
    """mean_nll scores each distinct context once; reference_mean_nll runs
    forward_loss on every chunk of windows, and window_nlls scores several
    streams in one pass over the union of their contexts. All take BLAS's
    matrix-matrix kernel, which on OpenBLAS's SkylakeX kernels gives a row
    the same bits in any batch of two or more rows, so a stream's mean is
    the same bytes alone or scored with others. On its Haswell kernels that
    does not hold, and test_joint_scoring_equals_each_stream_alone fails
    there (see model.window_nlls). A one-row batch, or an embed_dim of 1
    (one-column products), takes the matrix-vector kernel instead, which
    rounds differently and depends on the batch: there the loop's figure is
    not a function of the windows alone, and the two agree only to rounding.
    mean_nll and window_nlls run a one-row batch as two copies of the row,
    so on SkylakeX only an embed_dim of 1 lies outside their byte-identity."""

    @settings(max_examples=80, deadline=None)
    @given(vocab=st.integers(2, 64), context=st.integers(1, 4), embed=st.integers(2, 8),
           blocks=st.integers(1, 2), ratio=st.integers(1, 4), chunk=st.integers(2, 6),
           data=st.data())
    def test_equals_the_per_window_loop_byte_for_byte(self, vocab, context, embed, blocks,
                                                      ratio, chunk, data):
        cfg = ModelConfig(vocab_size=vocab, embed_dim=embed, num_blocks=blocks,
                          expansion_ratio=ratio, key_block_count=0, context_len=context)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layout = init_model(cfg, 0).layout
        scale = data.draw(st.sampled_from([0.1, 1.0, 3.0]), label="scale")
        params = ParamSet.from_buffer(
            layout, (scale * rng.standard_normal(layout.size)).astype(np.float32))
        windows = data.draw(st.integers(1, 4 * chunk + 1), label="windows")
        # a small alphabet repeats contexts, a full one rarely does
        alphabet = data.draw(st.integers(1, vocab), label="alphabet")
        tokens = rng.integers(0, alphabet, size=windows + context)
        got, want = scored_alone(params, tokens, chunk), reference_mean_nll(params, tokens, chunk)
        if windows % chunk == 1:  # the loop scores its last window alone
            assert got == pytest.approx(want, rel=1e-5, abs=1e-4)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_contexts_beyond_int64_codes(self):
        # 70,000 ** 4 exceeds 2 ** 63: contexts are compared column by
        # column, never packed into one integer
        cfg = ModelConfig(vocab_size=70_000, embed_dim=2, num_blocks=1, context_len=4)
        params = init_model(cfg, 0)
        tokens = np.array([69_999, 1, 69_999, 1, 69_999, 1, 0, 69_999, 1, 69_999, 1, 69_999])
        assert (np.float64(scored_alone(params, tokens, 4)).tobytes()
                == np.float64(reference_mean_nll(params, tokens, 4)).tobytes())

    def test_token_out_of_range_rejected(self):
        for bad in (TINY.vocab_size, -1):
            with pytest.raises(ValueError, match="token id out of range"):
                scored_alone(init_model(TINY, 0), np.array([0, 1, bad, 2]))

    @settings(max_examples=60, deadline=None)
    @given(vocab=st.integers(2, 64), context=st.integers(1, 4), embed=st.integers(2, 8),
           chunk=st.integers(1, 6), data=st.data())
    def test_joint_scoring_equals_each_stream_alone(self, vocab, context, embed, chunk, data):
        cfg = ModelConfig(vocab_size=vocab, embed_dim=embed, num_blocks=1, expansion_ratio=2,
                          key_block_count=0, context_len=context)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layout = init_model(cfg, 0).layout
        params = ParamSet.from_buffer(layout, rng.standard_normal(layout.size).astype(np.float32))
        # an alphabet of one token gives one context; one window per stream
        # is the shortest stream
        alphabet = data.draw(st.integers(1, min(vocab, 4)), label="alphabet")
        sizes = data.draw(st.lists(st.integers(1, 3 * chunk + 2), min_size=1, max_size=3),
                          label="windows")
        streams = [rng.integers(0, alphabet, size=w + context) for w in sizes]
        indexes = ContextIndex.of_streams(streams, context)
        union = indexes[0].distinct
        assert all(index.distinct is union for index in indexes)
        # lexsort's order: by the last context token, then the one before
        assert all(tuple(a[::-1]) < tuple(b[::-1]) for a, b in zip(union[:-1], union[1:]))
        windows = [np.lib.stride_tricks.sliding_window_view(t, context + 1) for t in streams]
        assert {tuple(c) for w in windows for c in w[:, :context]} == {tuple(c) for c in union}
        for w, index in zip(windows, indexes):
            assert sorted(index.order) == list(range(len(w)))
            assert (union[index.rank] == w[index.order, :context]).all()
            assert (index.targets == w[index.order, context]).all()
        for tokens, nll in zip(streams, window_nlls(params, indexes, chunk)):
            joint = mean_nll(params, tokens, nll, chunk)
            alone = scored_alone(params, tokens, chunk)
            assert np.float64(joint).tobytes() == np.float64(alone).tobytes()

    def test_nlls_of_another_stream_rejected(self):
        params = init_model(TINY, 0)
        tokens = np.arange(12) % TINY.vocab_size
        val, test = tokens[:5], tokens[5:]
        (nll,) = window_nlls(params, [index_of(val, TINY.context_len)])
        with pytest.raises(ValueError, match="nll has 3 windows, but the 7-token stream "
                                             "has 5 windows"):
            mean_nll(params, test, nll)
        assert mean_nll(params, val, nll) == pytest.approx(reference_mean_nll(params, val))

    def test_indexes_of_separate_builds_are_not_scored_together(self):
        a, b = (index_of(np.arange(k, k + 6) % 8, TINY.context_len) for k in (0, 1))
        with pytest.raises(ValueError, match="share one distinct-context array"):
            window_nlls(init_model(TINY, 0), [a, b])
