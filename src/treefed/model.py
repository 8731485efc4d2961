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

import numpy as np

from .aggregation import ScheduleConfig, lr_at
from .tensors import ParamSet, Tensor


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
    tensors = []
    for name, shape in param_shapes(cfg):
        if name.endswith(".b"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = cfg.embed_dim if name == "embed" else shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        tensors.append(Tensor(name, data))
    return ParamSet(tensors, "backbone")


@dataclass
class Partition:
    """Backbone/key split of a model's parameter names."""

    backbone_names: list[str]
    key_names: list[str]

    @classmethod
    def for_config(cls, cfg: ModelConfig) -> "Partition":
        all_names = [name for name, _ in param_shapes(cfg)]
        key_blocks = range(cfg.num_blocks - cfg.key_block_count, cfg.num_blocks)
        prefixes = tuple(f"block{h}." for h in key_blocks)
        key_names = [n for n in all_names if n.startswith(prefixes)] if prefixes else []
        if cfg.include_head_in_keys:
            key_names += ["head.w", "head.b"]
        backbone = [n for n in all_names if n not in set(key_names)]
        part = cls(backbone_names=backbone, key_names=key_names)
        part.check_complete(all_names)
        return part

    def check_complete(self, all_names: list[str]) -> None:
        union = set(self.backbone_names) | set(self.key_names)
        if set(self.backbone_names) & set(self.key_names) or union != set(all_names):
            raise ValueError("partition must cover every parameter exactly once")

    def split(self, params: ParamSet) -> tuple[ParamSet, ParamSet]:
        return (params.subset(self.backbone_names, "backbone"),
                params.subset(self.key_names, "keys"))

    def assemble(self, backbone: ParamSet, keys: ParamSet) -> ParamSet:
        pool = {t.name: t for t in backbone}
        pool.update({t.name: t for t in keys})
        order = self._canonical_order()
        return ParamSet((pool[n].copy() for n in order), "backbone")

    def _canonical_order(self) -> list[str]:
        combined = set(self.backbone_names) | set(self.key_names)

        def sort_key(name: str):
            if name == "embed":
                return (0, 0)
            if name.startswith("in_proj"):
                return (1, 0 if name.endswith(".w") else 1)
            if name.startswith("block"):
                idx = int(name.split(".")[0][5:])
                sub = {"fc1.w": 0, "fc1.b": 1, "fc2.w": 2, "fc2.b": 3}[name.split(".", 1)[1]]
                return (2, idx * 4 + sub)
            return (3, 0 if name == "head.w" else 1)
        return sorted(combined, key=sort_key)


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


def _arrays(params: ParamSet, dtype) -> dict[str, np.ndarray]:
    return {t.name: t.data.astype(dtype) for t in params}


def _dims(params: ParamSet) -> tuple[int, int, int]:
    """(vocab, embed_dim, context_len) recovered from parameter shapes."""
    V, d = params["embed"].shape
    n = params["in_proj.w"].shape[0] // d
    return V, d, n


def _num_blocks(params: ParamSet) -> int:
    return sum(1 for name in params.names() if name.endswith(".fc1.w"))


class _ForwardCache:
    __slots__ = ("params", "ids", "x", "blocks", "h_final", "probs", "targets", "wide")

    def __init__(self, params, ids, x, blocks, h_final, probs, targets, wide):
        self.params = params
        self.ids = ids
        self.x = x
        self.blocks = blocks
        self.h_final = h_final
        self.probs = probs
        self.targets = targets
        self.wide = wide


def _run_blocks(w, h, num_blocks, keep):
    blocks = []
    for i in range(num_blocks):
        a = h @ w[f"block{i}.fc1.w"] + w[f"block{i}.fc1.b"]
        u = np.tanh(a)
        r = u @ w[f"block{i}.fc2.w"] + w[f"block{i}.fc2.b"]
        if keep:
            blocks.append((h, u))
        h = h + r
    return h, blocks


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
    dtype = np.float64 if wide else np.float32
    w = _arrays(params, dtype)
    ids, targets = batch[:, :n], batch[:, n]
    B = batch.shape[0]
    x = w["embed"][ids].reshape(B, n * d)
    h = x @ w["in_proj.w"] + w["in_proj.b"]
    h_final, blocks = _run_blocks(w, h, _num_blocks(params), keep=True)
    logits = h_final @ w["head.w"] + w["head.b"]
    z = logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1)
    probs = ez / denom[:, None]
    nll = np.log(denom) - z[np.arange(B), targets]
    loss = float(nll.mean())
    cache = _ForwardCache(params, ids, x, blocks, h_final, probs, targets, wide)
    return loss, cache


def backward(params: ParamSet, cache: _ForwardCache) -> ParamSet:
    """Exact gradients of the mean cross-entropy w.r.t. every parameter."""
    if cache.params is not params:
        raise ValueError("stale cache: params do not match the forward pass")
    dtype = np.float64 if cache.wide else np.float32
    w = _arrays(params, dtype)
    B = cache.ids.shape[0]
    V, d, n = _dims(params)
    grads: dict[str, np.ndarray] = {}

    dlogits = cache.probs.astype(dtype)
    dlogits[np.arange(B), cache.targets] -= 1
    dlogits /= B
    grads["head.w"] = cache.h_final.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dh = dlogits @ w["head.w"].T

    for i in reversed(range(len(cache.blocks))):
        h_in, u = cache.blocks[i]
        dr = dh
        grads[f"block{i}.fc2.w"] = u.T @ dr
        grads[f"block{i}.fc2.b"] = dr.sum(axis=0)
        du = dr @ w[f"block{i}.fc2.w"].T
        da = du * (1.0 - u * u)
        grads[f"block{i}.fc1.w"] = h_in.T @ da
        grads[f"block{i}.fc1.b"] = da.sum(axis=0)
        dh = dh + da @ w[f"block{i}.fc1.w"].T

    grads["in_proj.w"] = cache.x.T @ dh
    grads["in_proj.b"] = dh.sum(axis=0)
    dx = (dh @ w["in_proj.w"].T).reshape(B, n, d)
    de = np.zeros((V, d), dtype=dtype)
    np.add.at(de, cache.ids.reshape(-1), dx.reshape(-1, d))
    grads["embed"] = de

    return ParamSet(
        (Tensor(t.name, grads[t.name].astype(np.float32)) for t in params),
        "pseudo_gradient",
    )


@dataclass
class TrainResult:
    params: ParamSet
    steps_taken: int
    mean_loss: float


def sample_batch(tokens: np.ndarray, n: int, batch_size: int, rng) -> np.ndarray:
    if len(tokens) < n + 1:
        raise ValueError("shard too short for one context window")
    starts = rng.integers(0, len(tokens) - n, size=batch_size)
    return np.stack([tokens[s : s + n + 1] for s in starts])


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
    Optimizer state is fresh per call (one federated round).
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
    work = {t.name: t.data.astype(np.float32).copy() for t in params}
    names = params.names()
    m = {k: np.zeros(v.shape, dtype=np.float64) for k, v in work.items()}
    v2 = {k: np.zeros(v.shape, dtype=np.float64) for k, v in work.items()}
    eps = 1e-8
    losses = []
    current = ParamSet((Tensor(k, work[k]) for k in names), "backbone")
    for i in range(trainer.local_steps):
        lr = lr_at(global_step + i, trainer.schedule)
        batch = sample_batch(tokens, n, trainer.batch_size, rng)
        loss, cache = forward_loss(current, batch)
        losses.append(loss)
        grads = backward(current, cache)
        if trainer.optimizer == "sgd":
            for g in grads:
                work[g.name] = work[g.name] - np.float32(lr) * g.data
        else:
            t = i + 1
            c1 = 1.0 - trainer.beta1 ** t
            c2 = 1.0 - trainer.beta2 ** t
            for g in grads:
                gd = g.data.astype(np.float64)
                m[g.name] = trainer.beta1 * m[g.name] + (1 - trainer.beta1) * gd
                v2[g.name] = trainer.beta2 * v2[g.name] + (1 - trainer.beta2) * gd * gd
                step = lr * (m[g.name] / c1) / (np.sqrt(v2[g.name] / c2) + eps)
                work[g.name] = (work[g.name].astype(np.float64) - step).astype(np.float32)
        current = ParamSet((Tensor(k, work[k]) for k in names), "backbone")
    return TrainResult(current, trainer.local_steps, float(np.mean(losses)))


def mean_nll(params: ParamSet, tokens: np.ndarray, chunk: int = 8192) -> float:
    """Mean token NLL (nats) over all stride-1 windows of the token stream."""
    tokens = np.asarray(tokens)
    _, _, n = _dims(params)
    if len(tokens) < n + 1:
        raise ValueError("empty or too-short evaluation shard")
    windows = np.lib.stride_tricks.sliding_window_view(tokens, n + 1)
    total, count = 0.0, 0
    for start in range(0, len(windows), chunk):
        part = np.ascontiguousarray(windows[start : start + chunk])
        loss, _ = forward_loss(params, part)
        total += loss * len(part)
        count += len(part)
    return total / count


def evaluate_perplexity(params: ParamSet, tokens: np.ndarray, chunk: int = 8192) -> float:
    """exp(mean token NLL); may overflow to inf for diverged models."""
    with np.errstate(over="ignore"):
        return float(np.exp(mean_nll(params, tokens, chunk)))
