"""Tiny causal fixed-window language model with hand-written gradients.

The architecture is deliberately minimal: the last `context_len` token
embeddings are concatenated, projected to the model width, passed through a
stack of residual tanh MLP blocks, and read out by a linear head. The final
`key_block_count` blocks form the personalized key layers; everything else is
backbone. Gradients are derived by hand so training is exact, fast, and
checkable against finite differences in the float64 shadow mode.

Parameter order (canonical, shared by every instance of a config):
    embed, in_proj.w, in_proj.b,
    block{h}.fc1.w, block{h}.fc1.b, block{h}.fc2.w, block{h}.fc2.b  (h = 0..H-1),
    head.w, head.b
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .aggregation import ScheduleConfig, lr_at
from .tensors import Layout, ParamSet, regroup


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
        if min(self.vocab_size, self.embed_dim, self.num_blocks,
               self.expansion_ratio, self.context_len) < 1:
            raise ValueError("model dimensions must be positive")
        if not (0 <= self.key_block_count <= self.num_blocks):
            raise ValueError("key_block_count must lie in [0, num_blocks]")


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


def param_count(cfg: ModelConfig) -> int:
    V, d, H = cfg.vocab_size, cfg.embed_dim, cfg.num_blocks
    e, n = cfg.expansion_ratio, cfg.context_len
    return V * d + (n * d * d + d) + H * (2 * e * d * d + e * d + d) + (d * V + V)


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
    return ParamSet.from_buffer(layout, buf, "backbone")


@dataclass
class Partition:
    """Backbone/key split of a model's parameter names, plus the full
    model's layout that `assemble` rebuilds."""

    backbone_names: list[str]
    key_names: list[str]
    layout: Layout

    @classmethod
    def for_config(cls, cfg: ModelConfig) -> "Partition":
        layout = Layout.of(param_shapes(cfg))
        key_blocks = range(cfg.num_blocks - cfg.key_block_count, cfg.num_blocks)
        prefixes = tuple(f"block{h}." for h in key_blocks)
        key_names = [n for n in layout.names if n.startswith(prefixes)]
        if cfg.include_head_in_keys:
            key_names += ["head.w", "head.b"]
        backbone = [n for n in layout.names if n not in key_names]
        return cls(backbone_names=backbone, key_names=key_names, layout=layout)

    def split(self, params: ParamSet) -> tuple[ParamSet, ParamSet]:
        return (regroup(self.layout.sub(self.backbone_names), [params], "backbone"),
                regroup(self.layout.sub(self.key_names), [params], "keys"))

    def assemble(self, backbone: ParamSet, keys: ParamSet) -> ParamSet:
        return regroup(self.layout, [backbone, keys], "backbone")


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
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1, beta2 must lie in [0, 1)")
        if self.local_steps < 0 or self.batch_size < 1:
            raise ValueError("bad local_steps/batch_size")


def _weights(params: ParamSet, wide: bool) -> dict[str, np.ndarray]:
    """Views of the float32 buffer, or of one float64 copy in wide mode."""
    if wide:
        return params.layout.views(params.buf.astype(np.float64))
    return params.arrays()


def _dims(params: ParamSet) -> tuple[int, int, int]:
    """(vocab, embed_dim, context_len) recovered from parameter shapes."""
    V, d = params.layout.shapes["embed"]
    n = params.layout.shapes["in_proj.w"][0] // d
    return V, d, n


def _num_blocks(params: ParamSet) -> int:
    return sum(1 for name in params.layout.names if name.endswith(".fc1.w"))


class _ForwardCache(NamedTuple):
    params: ParamSet
    ids: np.ndarray
    x: np.ndarray
    blocks: list[tuple[np.ndarray, np.ndarray]]  # (block input, tanh output)
    h_final: np.ndarray
    probs: np.ndarray
    targets: np.ndarray
    wide: bool


def forward_loss(params: ParamSet, batch: np.ndarray, wide: bool = False):
    """Mean next-token cross-entropy (nats) over a (B, n+1) token matrix.

    The first n columns are inputs, the last column is the target. Returns
    (loss, cache); the cache feeds backward().
    """
    V, d, n = _dims(params)
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != n + 1:
        raise ValueError(f"batch must have {n + 1} columns, got {batch.shape}")
    if batch.min() < 0 or batch.max() >= V:
        raise ValueError("token id out of range")
    w = _weights(params, wide)
    ids, targets = batch[:, :n], batch[:, n]
    B = batch.shape[0]
    x = w["embed"][ids].reshape(B, n * d)
    h = x @ w["in_proj.w"] + w["in_proj.b"]
    blocks = []
    for i in range(_num_blocks(params)):
        u = np.tanh(h @ w[f"block{i}.fc1.w"] + w[f"block{i}.fc1.b"])
        blocks.append((h, u))
        h = h + (u @ w[f"block{i}.fc2.w"] + w[f"block{i}.fc2.b"])
    logits = h @ w["head.w"] + w["head.b"]
    z = logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1)
    probs = ez / denom[:, None]
    nll = np.log(denom) - z[np.arange(B), targets]
    loss = float(nll.mean())
    return loss, _ForwardCache(params, ids, x, blocks, h, probs, targets, wide)


def backward(params: ParamSet, cache: _ForwardCache) -> ParamSet:
    """Exact gradients of the mean cross-entropy w.r.t. every parameter,
    written into one float32 buffer laid out like `params`."""
    if cache.params is not params:
        raise ValueError("stale cache: params do not match the forward pass")
    dtype = np.float64 if cache.wide else np.float32
    w = _weights(params, cache.wide)
    B = cache.ids.shape[0]
    V, d, n = _dims(params)
    buf = np.empty(params.layout.size, dtype=np.float32)
    grads = params.layout.views(buf)

    dlogits = cache.probs.astype(dtype)
    dlogits[np.arange(B), cache.targets] -= 1
    dlogits /= B
    grads["head.w"][...] = cache.h_final.T @ dlogits
    grads["head.b"][...] = dlogits.sum(axis=0)
    dh = dlogits @ w["head.w"].T

    for i in reversed(range(len(cache.blocks))):
        h_in, u = cache.blocks[i]
        grads[f"block{i}.fc2.w"][...] = u.T @ dh
        grads[f"block{i}.fc2.b"][...] = dh.sum(axis=0)
        du = dh @ w[f"block{i}.fc2.w"].T
        da = du * (1.0 - u * u)
        grads[f"block{i}.fc1.w"][...] = h_in.T @ da
        grads[f"block{i}.fc1.b"][...] = da.sum(axis=0)
        dh = dh + da @ w[f"block{i}.fc1.w"].T

    grads["in_proj.w"][...] = cache.x.T @ dh
    grads["in_proj.b"][...] = dh.sum(axis=0)
    dx = (dh @ w["in_proj.w"].T).reshape(B, n, d)
    de = np.zeros((V, d), dtype=dtype)
    np.add.at(de, cache.ids.reshape(-1), dx.reshape(-1, d))
    grads["embed"][...] = de

    return ParamSet.from_buffer(params.layout, buf, "pseudo_gradient")


@dataclass
class TrainResult:
    params: ParamSet
    steps_taken: int
    mean_loss: float


def sample_batch(tokens: np.ndarray, n: int, batch_size: int, rng) -> np.ndarray:
    if len(tokens) < n + 1:
        raise ValueError("shard too short for one context window")
    starts = rng.integers(0, len(tokens) - n, size=batch_size)
    return tokens[starts[:, None] + np.arange(n + 1)]


def local_train(
    params: ParamSet,
    tokens: np.ndarray,
    trainer: TrainerConfig,
    rng_seed,
    global_step: int,
) -> TrainResult:
    """Run local_steps optimizer steps on windows sampled from `tokens`.

    The LR schedule is evaluated at global_step + i so schedules stay
    synchronized across nodes that share a sequential-step position.
    Optimizer state is fresh per call (one federated round). Parameters,
    gradients and the float64 Adam moments are each one flat vector, so an
    update is a few element-wise vector ops.
    """
    tokens = np.asarray(tokens)
    if tokens.size == 0:
        raise ValueError("empty shard")
    _, _, n = _dims(params)
    if len(tokens) < n + 1:
        raise ValueError("shard too short for one context window")
    if trainer.local_steps == 0:
        return TrainResult(params, 0, float("nan"))
    rng = np.random.default_rng(rng_seed)
    layout = params.layout
    work = params.buf.copy()
    m, v2 = np.zeros(layout.size), np.zeros(layout.size)  # float64 Adam moments
    gd, tmp = np.empty(layout.size), np.empty(layout.size)  # float64 scratch
    b1, b2, eps = trainer.beta1, trainer.beta2, 1e-8
    losses = []
    current = ParamSet.from_buffer(layout, work, "backbone")
    for i in range(trainer.local_steps):
        lr = lr_at(global_step + i, trainer.schedule)
        batch = sample_batch(tokens, n, trainer.batch_size, rng)
        loss, cache = forward_loss(current, batch)
        losses.append(loss)
        grad = backward(current, cache).buf
        if trainer.optimizer == "sgd":
            work -= np.float32(lr) * grad
        else:
            # work - lr*(m/c1)/(sqrt(v2/c2)+eps), op for op, in the scratch
            # vectors: full-size float64 temporaries cost more than the math
            c1, c2 = 1.0 - b1 ** (i + 1), 1.0 - b2 ** (i + 1)
            np.copyto(gd, grad)
            m *= b1
            m += np.multiply(gd, 1 - b1, out=tmp)
            v2 *= b2
            v2 += np.multiply(np.multiply(gd, 1 - b2, out=tmp), gd, out=tmp)
            den = np.add(np.sqrt(np.divide(v2, c2, out=gd), out=gd), eps, out=gd)
            step = np.divide(np.multiply(np.divide(m, c1, out=tmp), lr, out=tmp), den, out=tmp)
            work[...] = np.subtract(work, step, out=tmp)
        current = ParamSet.from_buffer(layout, work, "backbone")
    return TrainResult(current, trainer.local_steps, float(np.mean(losses)))


def mean_nll(params: ParamSet, tokens: np.ndarray, chunk: int = 8192) -> float:
    """Mean token NLL (nats) over all stride-1 windows of the token stream."""
    tokens = np.asarray(tokens)
    _, _, n = _dims(params)
    if len(tokens) < n + 1:
        raise ValueError("empty or too-short evaluation shard")
    windows = np.lib.stride_tricks.sliding_window_view(tokens, n + 1)
    total = 0.0
    for start in range(0, len(windows), chunk):
        part = np.ascontiguousarray(windows[start : start + chunk])
        loss, _ = forward_loss(params, part)
        total += loss * len(part)
    return total / len(windows)


def evaluate_perplexity(params: ParamSet, tokens: np.ndarray, chunk: int = 8192) -> float:
    """exp(mean token NLL); may overflow to inf for diverged models."""
    with np.errstate(over="ignore"):
        return float(np.exp(mean_nll(params, tokens, chunk)))
