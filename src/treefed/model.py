"""Tiny causal fixed-window language model with hand-written gradients.

The architecture is deliberately minimal: the last `context_len` token
embeddings are concatenated, projected to the model width, passed through a
stack of residual tanh MLP blocks, and read out by a linear head. The final
`key_block_count` blocks form the personalized key layers; everything else is
backbone. Gradients are derived by hand so training is exact, fast, and
checkable against finite differences on float64 step views.

The forward pass, the backward pass and local_train carry a leading node
axis: N models of one layout, the rows of one (N, P) array, train as one
(N, B, ...) computation whose rows never mix, so each node's bytes are those
of training it alone.

A training step is bound by per-call overhead at these sizes, so it makes
few numpy calls and few temporaries. The views a step reads of the rows,
transposed weights and broadcast biases among them (step_views), are built
once per local_train call, and the passes compute in their dtype. The trunk
adds each bias, and each block its input, into its product's buffer.
backward has BLAS write every weight gradient straight into the step's
gradient stack, takes each bias gradient, the batch sum of a layer's output
gradient, as a BLAS product with a ones block, and scatters the embedding
gradient into the stack. Adam works in one scratch array and the gradient
buffer. Where every layer is at least 2 wide, each result keeps the bits of
the plain form (see backward).

Parameter order (canonical, shared by every instance of a config):
    embed, in_proj.w, in_proj.b,
    block{h}.fc1.w, block{h}.fc1.b, block{h}.fc2.w, block{h}.fc2.b  (h = 0..H-1),
    head.w, head.b
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .aggregation import ScheduleConfig, lr_at
from .datagen import ContextIndex
from .tensors import Layout, ParamSet, check_finite


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int
    num_blocks: int
    expansion_ratio: int = 4
    key_block_count: int = 1
    context_len: int = 3
    include_head_in_keys: bool = False

    def __post_init__(self):
        for key in ("vocab_size", "embed_dim", "num_blocks", "expansion_ratio", "context_len"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not (0 <= self.key_block_count <= self.num_blocks):
            raise ValueError(f"key_block_count must lie in [0, num_blocks = {self.num_blocks}], "
                             f"got {self.key_block_count}")


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, e, n = cfg.embed_dim, cfg.expansion_ratio, cfg.context_len
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("embed", (cfg.vocab_size, d)),
        ("in_proj.w", (n * d, d)),
        ("in_proj.b", (d,)),
    ]
    for h in range(cfg.num_blocks):
        shapes += [
            (f"block{h}.fc1.w", (d, e * d)),
            (f"block{h}.fc1.b", (e * d,)),
            (f"block{h}.fc2.w", (e * d, d)),
            (f"block{h}.fc2.b", (d,)),
        ]
    shapes += [("head.w", (d, cfg.vocab_size)), ("head.b", (cfg.vocab_size,))]
    return shapes


def init_model(cfg: ModelConfig, seed: int) -> ParamSet:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases zero.

    The embedding table uses fan_in = embed_dim. Same (cfg, seed) gives a
    bit-identical ParamSet.
    """
    rng = np.random.default_rng(seed)
    layout = Layout.of(param_shapes(cfg))
    buf = np.zeros(layout.size, dtype=np.float32)
    for name, view in layout.views(buf).items():
        if not name.endswith(".b"):
            fan_in = cfg.embed_dim if name == "embed" else view.shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            view[...] = rng.uniform(-bound, bound, size=view.shape)
    return ParamSet.from_buffer(layout, buf)


@dataclass
class Partition:
    """Backbone/key split of a model's layout. The key layers (the last
    key_block_count blocks, plus the head with include_head_in_keys) are one
    contiguous range of it: a model's keys are a view of its buffer and its
    backbone is the rest, in layout order."""

    layout: Layout
    backbone_layout: Layout
    key_layout: Layout
    key_range: slice

    @classmethod
    def for_config(cls, cfg: ModelConfig) -> "Partition":
        layout = Layout.of(param_shapes(cfg))
        key_blocks = range(cfg.num_blocks - cfg.key_block_count, cfg.num_blocks)
        prefixes = tuple(f"block{h}." for h in key_blocks)
        key_names = [n for n in layout.names if n.startswith(prefixes)]
        if cfg.include_head_in_keys:
            key_names += ["head.w", "head.b"]
        backbone = [n for n in layout.names if n not in key_names]
        key_layout = layout.sub(key_names)
        start = layout.slices[key_names[0]].start if key_names else layout.size
        return cls(layout, layout.sub(backbone), key_layout,
                   slice(start, start + key_layout.size))

    def keys(self, params: ParamSet) -> ParamSet:
        """A model's key layers: a view of its buffer."""
        return ParamSet.from_buffer(self.key_layout, params.buf[self.key_range])

    def split(self, params: ParamSet) -> tuple[ParamSet, ParamSet]:
        """(a copy of the backbone, a view of the keys) of a model."""
        r = self.key_range
        backbone = np.concatenate([params.buf[:r.start], params.buf[r.stop:]])
        return ParamSet.from_buffer(self.backbone_layout, backbone), self.keys(params)

    def assemble(self, base: ParamSet, keys: ParamSet) -> ParamSet:
        """The model of `keys` and the backbone of `base`: a backbone set, or
        a whole model whose key layers `keys` replace."""
        r = self.key_range
        rest = r.stop if base.layout is self.layout else r.start
        return ParamSet.from_buffer(
            self.layout, np.concatenate([base.buf[:r.start], keys.buf, base.buf[rest:]]))


@dataclass
class TrainerConfig:
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.95
    local_steps: int = 20
    batch_size: int = 16
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ValueError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        if self.local_steps < 0:
            raise ValueError(f"local_steps must be >= 0, got {self.local_steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


# One training step holds about this many bytes per parameter per node:
# float32 parameters and gradient, float32 Adam moments and one float32
# scratch vector.
_STEP_BYTES_PER_PARAM = 20
# A stacked step pays only while it is bound by per-call overhead, so a
# local_train call stacks nodes until their step state reaches this size.
STACK_BYTES = 2 << 20


def stack_width(layout: Layout) -> int:
    """How many nodes of this layout one local_train call may stack."""
    return max(1, STACK_BYTES // (_STEP_BYTES_PER_PARAM * layout.size))


def _dims(layout: Layout) -> tuple[int, int, int]:
    """(vocab, embed_dim, context_len) recovered from parameter shapes."""
    V, d = layout.shapes["embed"]
    n = layout.shapes["in_proj.w"][0] // d
    return V, d, n


def context_len(layout: Layout) -> int:
    """How many context tokens a model of this layout reads."""
    return _dims(layout)[2]


def _num_blocks(layout: Layout) -> int:
    return sum(1 for name in layout.names if name.endswith(".fc1.w"))


def _t(a: np.ndarray) -> np.ndarray:
    """Each node's matrix transposed."""
    return a.transpose(0, 2, 1)


def step_views(layout: Layout, rows: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> view of the (N, P) `rows` as the passes read them: each
    weight (N, K, M), each bias (N, 1, M) to broadcast over a batch, and,
    under its name + ".T", each weight matrix but the embedding transposed,
    as backward multiplies by it. They view `rows`, so they follow an
    in-place update of them."""
    w = layout.views(rows)
    for name in layout.names:
        if name.endswith(".b"):
            w[name] = w[name][:, None]
        elif name != "embed":
            w[name + ".T"] = _t(w[name])
    return w


class StepWorkspace:
    """What every step of one (layout, N nodes, B windows) shape shares: the
    layout, the context length and block count, the (N, 1, 1) node index,
    each window's offset into the flat logits, each node's offset into the
    flat gradient stack, _batch_sum's ones block, and the (N, P) float32
    gradient stack and its views.

    backward writes every entry of the gradient stack, which comes from
    np.empty: BLAS writes each weight gradient straight into its view, each
    bias gradient is copied in, and the embedding gradient is scattered into
    its zeroed view. local_train builds one workspace per call, so every
    backward pass of the call overwrites one gradient buffer.
    """

    def __init__(self, layout: Layout, nodes: int, batch_size: int):
        V, d, n = _dims(layout)
        self.layout, self.context_len, self.num_blocks = layout, n, _num_blocks(layout)
        self.node = np.arange(nodes)[:, None, None]  # (N, 1, 1)
        # node k's window b scores its target t at entry (k * B + b) * V + t
        # of the flat (N, B, V) logits: this is (k * B + b) * V
        self.logit_offset = (self.node[..., 0] * batch_size + np.arange(batch_size)) * V
        # entry c of node k's token t is entry k * P + e + t * d + c of the
        # flat (N * P) gradient stack, with e the embedding's offset in a
        # row: this is k * P + e + c
        self.embed_offset = (layout.size * self.node + layout.slices["embed"].start
                             + np.arange(d))
        self.ones = np.ones((1, batch_size, 2), dtype=np.float32)
        self.grad = np.empty((nodes, layout.size), dtype=np.float32)
        self.grads = layout.views(self.grad)


class _ForwardCache(NamedTuple):
    w: dict[str, np.ndarray]  # the step views the forward pass read
    ids: np.ndarray
    x: np.ndarray
    blocks: list[tuple[np.ndarray, np.ndarray]]  # (block input, tanh output)
    h_final: np.ndarray
    probs: np.ndarray  # in the step dtype; backward overwrites it
    target_at: np.ndarray  # each window's target entry in the flat probs
    ws: StepWorkspace


def _trunk(w: dict[str, np.ndarray], ids: np.ndarray, node: np.ndarray, num_blocks: int,
           blocks=None):
    """The network on each node's (N, B, n) context ids, from the step
    views `w`: embedding, in_proj, num_blocks blocks, head. `node` is the
    (N, 1, 1) row index of each node. Returns (x, h, z, ez, denom): the
    concatenated embeddings, the final hidden states, the float64 logits
    shifted by their row maxima, their exps and each row's sum of exps.
    Appends each block's (input, tanh output) to `blocks` when given."""
    N, B, _ = ids.shape
    x = w["embed"][node, ids].reshape(N, B, -1)
    h = x @ w["in_proj.w"]
    h += w["in_proj.b"]
    for i in range(num_blocks):
        u = h @ w[f"block{i}.fc1.w"]
        u += w[f"block{i}.fc1.b"]
        np.tanh(u, out=u)
        if blocks is not None:
            blocks.append((h, u))
        out = u @ w[f"block{i}.fc2.w"]
        out += w[f"block{i}.fc2.b"]
        out += h
        h = out
    logits = h @ w["head.w"]
    logits += w["head.b"]
    z = logits.astype(np.float64)
    z -= z.max(axis=2, keepdims=True)
    ez = np.exp(z)
    return x, h, z, ez, ez.sum(axis=2)


def forward_loss(w: dict[str, np.ndarray], batch: np.ndarray, ws: StepWorkspace):
    """Mean next-token cross-entropy (nats) of each node's token windows.

    The N models whose step_views are `w` take an (N, B, n+1) batch: the
    first n columns are inputs, the last column is the target. Every node's
    windows meet only its own row of weights. The pass computes in the
    views' dtype: float32 rows train, float64 ones check the gradients.
    `ws`, a StepWorkspace of this shape, supplies the step's constants. The
    batch is not checked: local_train checks its streams once, before the
    first step. Returns ((N,) losses, cache); the cache feeds backward().
    """
    n = ws.context_len
    ids, target_at = batch[..., :n], ws.logit_offset + batch[..., n]
    blocks = []
    x, h, z, ez, denom = _trunk(w, ids, ws.node, ws.num_blocks, blocks)
    probs = np.divide(ez, denom[..., None],
                      out=np.empty(ez.shape, w["head.w"].dtype))
    nll = np.log(denom) - z.reshape(-1)[target_at]
    loss = np.add.reduce(nll, axis=1) / nll.shape[1]  # np.mean's own arithmetic
    return loss, _ForwardCache(w, ids, x, blocks, h, probs, target_at, ws)


def _batch_sum(d_out: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Each node's (B, M) d_out summed over its B rows, in row order: the
    first column of BLAS's (M, 2) product d_out.T @ ones, in about half of
    np.sum's time at a few dozen rows. A one-column product takes the
    matrix-vector kernel, which adds the rows in another order from about
    50 rows on; so does the (2, M) product ones.T @ d_out on OpenBLAS's
    AVX-512 kernels from 32 rows on, unless M is a multiple of 16."""
    return (_t(d_out) @ ones)[..., 0]


def backward(cache: _ForwardCache) -> np.ndarray:
    """Exact gradients of each node's mean cross-entropy w.r.t. its
    parameters, written into one (N, P) float32 array laid out like the
    rows: the gradient stack of the forward pass's workspace, which the next
    step of a training call overwrites. The logit gradient is built in the
    cache's probabilities, so a cache feeds one backward pass. The gradient
    is not checked for non-finite values: local_train checks the parameters
    it updates.

    Each bias gradient is its layer's output gradient summed over the batch
    in row order (_batch_sum), which has np.sum's bits wherever the layer is
    at least 2 wide. np.sum adds a 1-wide column pairwise, so where
    vocab_size or embed_dim is 1 a bias gradient can differ from np.sum's in
    its last bits (in float32 from 4 windows on)."""
    w, ws, grads = cache.w, cache.ws, cache.ws.grads
    N, B, n = cache.ids.shape

    dlogits = cache.probs
    dlogits.reshape(-1)[cache.target_at] -= 1
    dlogits /= B
    np.matmul(_t(cache.h_final), dlogits, out=grads["head.w"])
    grads["head.b"][...] = _batch_sum(dlogits, ws.ones)
    dh = dlogits @ w["head.w.T"]

    for i in reversed(range(len(cache.blocks))):
        h_in, u = cache.blocks[i]
        np.matmul(_t(u), dh, out=grads[f"block{i}.fc2.w"])
        grads[f"block{i}.fc2.b"][...] = _batch_sum(dh, ws.ones)
        du = dh @ w[f"block{i}.fc2.w.T"]
        da = u * u  # du * (1 - u * u), in one buffer
        np.subtract(1.0, da, out=da)
        da *= du
        np.matmul(_t(h_in), da, out=grads[f"block{i}.fc1.w"])
        grads[f"block{i}.fc1.b"][...] = _batch_sum(da, ws.ones)
        dh += da @ w[f"block{i}.fc1.w.T"]

    np.matmul(_t(cache.x), dh, out=grads["in_proj.w"])
    grads["in_proj.b"][...] = _batch_sum(dh, ws.ones)
    dx = dh @ w["in_proj.w.T"]
    # every entry adds its windows' terms in batch order, scattered into the
    # zeroed embedding view through the flat gradient stack (np.add.at is
    # several times faster on 1-D operands); a float64 pass adds in a float64
    # stack and rounds each entry once
    at = (cache.ids.reshape(N, B * n, 1) * w["embed"].shape[2] + ws.embed_offset).reshape(-1)
    if dx.dtype == ws.grad.dtype:
        grads["embed"][...] = 0
        np.add.at(ws.grad.reshape(-1), at, dx.reshape(-1))
    else:
        wide = np.zeros(ws.grad.shape, dx.dtype)
        np.add.at(wide.reshape(-1), at, dx.reshape(-1))
        grads["embed"][...] = ws.layout.views(wide)["embed"]
    return ws.grad


@dataclass
class TrainResult:
    params: ParamSet
    mean_loss: float


class TrainJob(NamedTuple):
    """One node's part of a local_train call."""

    params: ParamSet
    tokens: np.ndarray
    rng_seed: object  # anything np.random.default_rng accepts


def sample_batch(windows: np.ndarray, size: int | tuple[int, ...], rng) -> np.ndarray:
    """Rows of `windows`, a stream's stride-1 (n+1)-token window view, at
    uniform random starts drawn from `rng`; `size` is numpy's, so the result
    has shape size + (n+1,). One (S, B) draw gives the starts of S
    consecutive B-row draws and leaves `rng` where they would."""
    return windows[rng.integers(0, len(windows), size=size)]


def local_train(
    jobs: Sequence[TrainJob],
    trainer: TrainerConfig,
    global_step: int,
) -> list[TrainResult]:
    """Run local_steps optimizer steps for every job together.

    The jobs' parameters share one layout and are stacked as the rows of one
    (N, P) array. Before the first step each job draws the batches of all
    its steps from its own RNG and token stream, in one sample_batch call;
    each step then runs one forward pass, one backward pass and one
    optimizer update over the whole stack. The batches are those of one
    draw per step, and rows never mix, so every job ends bit for bit where
    training it alone ends; one job is the N = 1 stack.

    The LR schedule is evaluated at global_step + i so schedules stay
    synchronized across nodes that share a sequential-step position.
    Optimizer state is fresh per call (one federated round). Parameters,
    gradients and the float32 Adam moments are each one (N, P) array, so an
    update is a few element-wise array ops, in one scratch array and the
    gradient buffer. Every token stream is checked once, before the first
    step, and what the steps share is built once: one StepWorkspace, and the
    step_views of the rows, which are updated in place, so the views serve
    every step. Returns one result per job.
    """
    jobs = [TrainJob(*job) for job in jobs]
    if not jobs:
        raise ValueError("local_train needs at least one job")
    layout = jobs[0].params.layout
    for job in jobs[1:]:
        jobs[0].params.require_congruent(job.params)
    V, _, n = _dims(layout)
    streams = [np.asarray(job.tokens) for job in jobs]
    for tokens in streams:
        if len(tokens) < n + 1:
            raise ValueError(f"a shard of {len(tokens)} tokens is shorter than one context "
                             f"window ({n + 1} tokens)")
        if tokens.min() < 0 or tokens.max() >= V:
            raise ValueError("token id out of range")
    if trainer.local_steps == 0:
        return [TrainResult(job.params, float("nan")) for job in jobs]
    rngs = [np.random.default_rng(job.rng_seed) for job in jobs]
    # the workspace, the batches, the moments and the scratch are allocated
    # before `work`, whose rows outlive this call as the trained models, so
    # the freed scratch sits below them in the heap and the next call reuses
    # it instead of faulting in fresh pages
    ws = StepWorkspace(layout, len(jobs), trainer.batch_size)
    # every step's batch in one draw per node: (steps, N, B, n+1)
    size = (trainer.local_steps, trainer.batch_size)
    batches = np.stack([sample_batch(sliding_window_view(tokens, n + 1), size, rng)
                        for tokens, rng in zip(streams, rngs)], axis=1)
    shape = (len(jobs), layout.size)
    m, v2 = np.zeros(shape, np.float32), np.zeros(shape, np.float32)  # Adam moments
    tmp = np.empty(shape, np.float32)  # scratch
    work = np.stack([job.params.buf for job in jobs])
    w = step_views(layout, work)
    losses = np.empty((len(jobs), trainer.local_steps))
    # every step's scalars, before the first step: its learning rate and, for
    # Adam, lr*(m/c1)/(sqrt(v2/c2)+eps) as alpha*m/(sqrt(v2)+eps_hat), with
    # the bias corrections c1 and c2 folded into the two scalars
    b1, b2, eps = trainer.beta1, trainer.beta2, 1e-8
    lrs = [lr_at(global_step + i, trainer.schedule) for i in range(trainer.local_steps)]
    adam = [(np.float32(lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)),
             np.float32(eps * math.sqrt(1.0 - b2 ** t))) for t, lr in enumerate(lrs, 1)]
    beta1, beta2, one_minus_b1, one_minus_b2 = map(np.float32, (b1, b2, 1 - b1, 1 - b2))
    for i in range(trainer.local_steps):
        losses[:, i], cache = forward_loss(w, batches[i], ws)
        grad = backward(cache)
        if trainer.optimizer == "sgd":
            work -= np.float32(lrs[i]) * grad
        else:
            # op for op in the scratch array and, once the moments have read
            # it, the gradient buffer: full-size temporaries cost more than
            # the math
            alpha, eps_hat = adam[i]
            m *= beta1
            m += np.multiply(grad, one_minus_b1, out=tmp)
            v2 *= beta2
            v2 += np.multiply(np.multiply(grad, one_minus_b2, out=tmp), grad, out=tmp)
            den = np.add(np.sqrt(v2, out=grad), eps_hat, out=grad)
            work -= np.divide(np.multiply(m, alpha, out=tmp), den, out=tmp)
        check_finite(layout, work)
    return [TrainResult(ParamSet.from_buffer(layout, row), float(np.mean(row_losses)))
            for row, row_losses in zip(work, losses)]


def window_nlls(params: ParamSet, indexes: Sequence[ContextIndex],
                chunk: int = 8192) -> list[np.ndarray]:
    """Each index's window NLLs (nats), in its stream's window order, from
    one pass of the model over the distinct contexts the indexes share
    (ContextIndex.of_streams), at most `chunk` contexts at a time. Every
    window takes its NLL from its context's row.

    On OpenBLAS's SkylakeX kernels, where this was measured, a row's bits
    do not depend on the other rows of its pass while every product takes
    BLAS's matrix-matrix kernel, so a stream's NLLs are the same scored
    alone or with others: from an embed_dim of 2 on, as a pass of one
    context runs it as two identical rows. At an embed_dim of 1 the
    products take the batch-dependent matrix-vector kernel instead. On the
    Haswell kernels (OPENBLAS_CORETYPE=Haswell) the property fails even for
    matrix-matrix products, at an embed_dim of 8 among others. In both cases
    a stream scored with others can differ from it scored alone in its last
    bits; reruns stay byte-identical on every kernel.
    """
    V = _dims(params.layout)[0]
    distinct = indexes[0].distinct
    for index in indexes:
        if index.distinct is not distinct:
            raise ValueError("indexes scored in one pass must share one distinct-context array")
        if index.token_range[0] < 0 or index.token_range[1] >= V:
            raise ValueError("token id out of range")
    w, num_blocks = step_views(params.layout, params.buf[None]), _num_blocks(params.layout)
    node = np.zeros((1, 1, 1), dtype=np.intp)
    nlls = [np.empty(len(index.order)) for index in indexes]
    for lo in range(0, len(distinct), chunk):
        ids = distinct[lo : lo + chunk]
        # one row would take BLAS's matrix-vector kernel, which rounds
        # differently from the matrix-matrix one a batch of windows takes
        _, _, z, _, denom = _trunk(w, np.concatenate([ids, ids])[None]
                                   if len(ids) == 1 else ids[None], node, num_blocks)
        log_denom = np.log(denom[0])
        for index, nll in zip(indexes, nlls):
            a, b = np.searchsorted(index.rank, [lo, lo + chunk])
            row = index.rank[a:b] - lo
            nll[index.order[a:b]] = log_denom[row] - z[0, row, index.targets[a:b]]
    return nlls


def mean_nll(params: ParamSet, tokens: np.ndarray, nll: np.ndarray, chunk: int = 8192) -> float:
    """Mean token NLL (nats) over all stride-1 windows of the token stream,
    from `nll`, the stream's window NLLs as window_nlls scored them: one
    entry per window of `tokens`.

    They are averaged `chunk` windows at a time and the means weighted by
    their window counts, so the result is byte-identical to scoring the
    stream with forward_loss, `chunk` windows a call, wherever both take
    BLAS's matrix-matrix kernel and a row's bits do not depend on its batch:
    measured on SkylakeX kernels, not on Haswell's (see window_nlls).
    """
    tokens, n = np.asarray(tokens), context_len(params.layout)
    windows = len(tokens) - n
    if windows < 1:
        raise ValueError("empty or too-short evaluation shard")
    if len(nll) != windows:
        raise ValueError(f"nll has {len(nll)} windows, but the {len(tokens)}-token "
                         f"stream has {windows} windows of {n} context tokens")
    total = 0.0
    for start in range(0, len(nll), chunk):
        part = nll[start : start + chunk]
        total += float(part.mean()) * len(part)
    return total / len(nll)
