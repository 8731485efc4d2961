"""Independent oracles shared by the test modules.

These deliberately re-derive results with the plainest possible float64
code so they never share a code path with the implementation they check.
The exceptions are `reference_local_train` and `reference_mean_nll`. The
first keeps the per-tensor optimizer loop that the flat-buffer `local_train`
replaced, the second the per-window scoring loop that the distinct-context
`mean_nll` replaced. Both run on the model's own forward pass, so each pair
of loops can be compared byte for byte. `reference_sample_tokens` keeps the
per-token `searchsorted` loop that the list-bisecting `sample_tokens`
replaced.

`reference_forward_backward` keeps the forward and backward kernels that
the in-place trunk and the BLAS-written gradients replaced. Because
`reference_local_train` trains with the model's own forward and backward,
comparing the two training loops cannot catch a change in those kernels;
this copy can.

`forward_backward` runs the model's own forward and backward pass on one
model, as the one-row stack that local_train would train it in.

`param_set` is how tests build a ParamSet from values, `param_count` gives a
config's parameter count in closed form, and `node_series` and
`trailing_best` are the per-round diagnostics the acceptance checks read.
`tree_faults` gives fig2's config with one malformed tree each.
"""

import copy

import numpy as np

from treefed.aggregation import lr_at
from treefed.model import StepWorkspace, backward, forward_loss
from treefed.presets import preset_config
from treefed.tensors import Layout, ParamSet, ParamStack


def param_set(entries) -> ParamSet:
    """A ParamSet of the entries, a name -> values mapping or (name, values)
    pairs, in order: each cast to float32, laid out by Layout.of and copied
    into one buffer."""
    pairs = [(name, np.asarray(values, dtype=np.float32))
             for name, values in (entries.items() if isinstance(entries, dict) else entries)]
    layout = Layout.of((name, a.shape) for name, a in pairs)
    buf = np.concatenate([np.empty(0, np.float32)] + [a.ravel() for _, a in pairs])
    return ParamSet.from_buffer(layout, buf)


def forward_backward(params: ParamSet, batch: np.ndarray,
                     wide: bool = False) -> tuple[float, ParamSet]:
    """forward_loss and backward on `params` as a one-row stack and its
    (B, n+1) `batch`: (mean loss, gradient set)."""
    stack, batch = ParamStack(params.layout, params.buf[None]), np.asarray(batch)[None]
    ws = StepWorkspace(params.layout, 1, batch.shape[1])
    loss, cache = forward_loss(stack, batch, ws, wide)
    return float(loss[0]), ParamSet.from_buffer(params.layout, backward(stack, cache).buf[0])


def param_count(cfg) -> int:
    """A model config's parameter count in closed form."""
    V, d, H = cfg.vocab_size, cfg.embed_dim, cfg.num_blocks
    e, n = cfg.expansion_ratio, cfg.context_len
    return V * d + (n * d * d + d) + H * (2 * e * d * d + e * d + d) + (d * V + V)


def node_series(result, node: int, split: str = "test") -> list[float]:
    """A RunResult's per-round perplexity for one node: its last row of
    each round on `split`."""
    per_round: dict[int, float] = {}
    for row in result.rows:
        if row.node == node and row.split == split:
            per_round[row.round] = row.perplexity
    return [per_round[k] for k in sorted(per_round)]


def trailing_best(series: list[float], width: int = 3) -> list[float]:
    """Min over a trailing window: non-increasing on a convergent series."""
    out = []
    for i in range(len(series)):
        out.append(min(series[max(0, i - width + 1) : i + 1]))
    return out


def oracle_loss(params: ParamSet, batch: np.ndarray,
                overrides: dict[str, np.ndarray] | None = None) -> float:
    """Straightforward float64 forward pass over the MLP-block LM."""
    w = {t.name: t.data.astype(np.float64) for t in params}
    if overrides:
        w.update(overrides)
    ids, targets = batch[:, :-1], batch[:, -1]
    B, n = ids.shape
    d = w["embed"].shape[1]
    h = w["embed"][ids].reshape(B, n * d) @ w["in_proj.w"] + w["in_proj.b"]
    i = 0
    while f"block{i}.fc1.w" in w:
        u = np.tanh(h @ w[f"block{i}.fc1.w"] + w[f"block{i}.fc1.b"])
        h = h + u @ w[f"block{i}.fc2.w"] + w[f"block{i}.fc2.b"]
        i += 1
    logits = h @ w["head.w"] + w["head.b"]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float((lse - z[np.arange(B), targets]).mean())


def fd_gradient(params: ParamSet, batch: np.ndarray, name: str, idx: int,
                step: float = 1e-3) -> float:
    """Central finite difference of oracle_loss w.r.t. one coordinate."""
    base = {t.name: t.data.astype(np.float64) for t in params}
    plus = base[name].copy()
    plus.flat[idx] += step
    minus = base[name].copy()
    minus.flat[idx] -= step
    up = oracle_loss(params, batch, {name: plus})
    down = oracle_loss(params, batch, {name: minus})
    return (up - down) / (2 * step)


def reference_local_train(params: ParamSet, tokens: np.ndarray, trainer,
                          rng_seed, global_step: int) -> tuple[ParamSet, float]:
    """The per-tensor local_train loop: a set built anew from per-tensor
    arrays at every step, batches stacked window by window, float32 Adam
    moments per tensor. Returns (params, mean_loss)."""
    _, d = params["embed"].shape
    n = params["in_proj.w"].shape[0] // d
    rng = np.random.default_rng(rng_seed)
    work = {t.name: t.data.astype(np.float32).copy() for t in params}
    m = {k: np.zeros(v.shape, dtype=np.float32) for k, v in work.items()}
    v2 = {k: np.zeros(v.shape, dtype=np.float32) for k, v in work.items()}
    b1, b2 = np.float32(trainer.beta1), np.float32(trainer.beta2)
    one_minus_b1, one_minus_b2 = np.float32(1 - trainer.beta1), np.float32(1 - trainer.beta2)
    losses = []
    current = param_set(work)
    for i in range(trainer.local_steps):
        lr = lr_at(global_step + i, trainer.schedule)
        starts = rng.integers(0, len(tokens) - n, size=trainer.batch_size)
        batch = np.stack([tokens[s : s + n + 1] for s in starts])
        loss, grads = forward_backward(current, batch)
        losses.append(loss)
        if trainer.optimizer == "sgd":
            for g in grads:
                work[g.name] = work[g.name] - np.float32(lr) * g.data
        else:
            # float32 Adam with the bias corrections in two scalars:
            # lr*(m/c1)/(sqrt(v2/c2)+eps) = alpha*m/(sqrt(v2)+eps_hat)
            t = i + 1
            c1 = 1.0 - trainer.beta1 ** t
            c2 = 1.0 - trainer.beta2 ** t
            alpha = np.float32(lr * np.sqrt(c2) / c1)
            eps_hat = np.float32(1e-8 * np.sqrt(c2))
            for g in grads:
                m[g.name] = m[g.name] * b1 + g.data * one_minus_b1
                v2[g.name] = v2[g.name] * b2 + (g.data * one_minus_b2) * g.data
                step = (m[g.name] * alpha) / (np.sqrt(v2[g.name]) + eps_hat)
                work[g.name] = work[g.name] - step
        current = param_set(work)
    return current, float(np.mean(losses))


def reference_mean_nll(params: ParamSet, tokens: np.ndarray, chunk: int = 8192) -> float:
    """The per-window mean_nll loop: forward_loss on every `chunk` stride-1
    windows in turn, the chunk means weighted by their window counts."""
    _, d = params["embed"].shape
    n = params["in_proj.w"].shape[0] // d
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(tokens), n + 1)
    total = 0.0
    for start in range(0, len(windows), chunk):
        part = np.ascontiguousarray(windows[start : start + chunk])
        loss, _ = forward_backward(params, part)
        total += loss * len(part)
    return total / len(windows)


def reference_sample_tokens(src, length: int, rng) -> np.ndarray:
    """The per-token sample_tokens loop: one searchsorted on the cumulative
    row of the previous token per token, clamped to the last token."""
    if length < 1:
        raise ValueError("length must be positive")
    cum_init = np.cumsum(src.initial)
    cum = np.cumsum(src.transition, axis=1)
    u = rng.random(length)
    out = np.empty(length, dtype=np.int64)
    cur = int(np.searchsorted(cum_init, u[0], side="right"))
    out[0] = min(cur, src.vocab_size - 1)
    for t in range(1, length):
        cur = int(np.searchsorted(cum[out[t - 1]], u[t], side="right"))
        out[t] = min(cur, src.vocab_size - 1)
    return out


def reference_forward_backward(stack: ParamStack, batch: np.ndarray,
                               wide: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The stacked forward pass and backward pass as written before the
    trunk worked in place and BLAS wrote the gradients: each bias gradient a
    `sum` over the batch, each gradient a temporary copied into the stack.
    Takes N models and an (N, B, n+1) batch; returns ((N,) float64 losses,
    (N, P) float32 gradient stack)."""
    layout = stack.layout
    V, d = layout.shapes["embed"]
    n = layout.shapes["in_proj.w"][0] // d
    num_blocks = sum(1 for name in layout.names if name.endswith(".fc1.w"))
    N, B, _ = batch.shape
    node, row = np.arange(N)[:, None], np.arange(B)
    w = layout.views(stack.buf.astype(np.float64)) if wide else stack.arrays()
    t = lambda a: a.transpose(0, 2, 1)  # noqa: E731
    ids, targets = batch[..., :n], batch[..., n]

    x = w["embed"][node[..., None], ids].reshape(N, B, -1)
    h = x @ w["in_proj.w"] + w["in_proj.b"][:, None]
    blocks = []
    for i in range(num_blocks):
        u = np.tanh(h @ w[f"block{i}.fc1.w"] + w[f"block{i}.fc1.b"][:, None])
        blocks.append((h, u))
        h = h + (u @ w[f"block{i}.fc2.w"] + w[f"block{i}.fc2.b"][:, None])
    logits = h @ w["head.w"] + w["head.b"][:, None]
    z = logits.astype(np.float64)
    z -= z.max(axis=2, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=2)
    probs = ez / denom[..., None]
    loss = (np.log(denom) - z[node, row, targets]).mean(axis=1)

    dtype = np.float64 if wide else np.float32
    grad = np.empty((N, layout.size), dtype=np.float32)
    grads = layout.views(grad)
    dlogits = probs.astype(dtype)
    dlogits[node, row, targets] -= 1
    dlogits /= B
    grads["head.w"][...] = t(h) @ dlogits
    grads["head.b"][...] = dlogits.sum(axis=1)
    dh = dlogits @ t(w["head.w"])
    for i in reversed(range(num_blocks)):
        h_in, u = blocks[i]
        grads[f"block{i}.fc2.w"][...] = t(u) @ dh
        grads[f"block{i}.fc2.b"][...] = dh.sum(axis=1)
        du = dh @ t(w[f"block{i}.fc2.w"])
        da = du * (1.0 - u * u)
        grads[f"block{i}.fc1.w"][...] = t(h_in) @ da
        grads[f"block{i}.fc1.b"][...] = da.sum(axis=1)
        dh = dh + da @ t(w[f"block{i}.fc1.w"])
    grads["in_proj.w"][...] = t(x) @ dh
    grads["in_proj.b"][...] = dh.sum(axis=1)
    dx = dh @ t(w["in_proj.w"])
    de = np.zeros(N * V * d, dtype=dtype)
    offset = V * d * node[..., None] + np.arange(d)
    np.add.at(de, (ids.reshape(N, B * n, 1) * d + offset).reshape(-1), dx.reshape(-1))
    grads["embed"][...] = de.reshape(N, V, d)
    return loss, grad


def tree_faults() -> dict[str, tuple[dict, str]]:
    """fault -> (fig2's config with that tree fault, the message that must
    reject it before any data is sampled). The first three configs would
    run without the check: a second entry for node 3 used to replace the
    first, a child listed twice trained and merged twice a round, and a
    negative id failed in shard sampling with a message that named no node.
    The last two are a child id with no node and a node its parent does not
    list among its children."""
    fig2 = preset_config("fig2")
    node_twice = copy.deepcopy(fig2)
    node_twice["tree"]["nodes"].append({**fig2["tree"]["nodes"][3], "trains_locally": False})
    child_twice = copy.deepcopy(fig2)
    child_twice["tree"]["nodes"][1]["children"] = [3, 4, 3]
    negative = copy.deepcopy(fig2)
    negative["tree"]["nodes"][6]["id"] = -6
    negative["tree"]["nodes"][2]["children"] = [5, -6]
    for key in ("leaf_budgets", "leaf_sources"):
        negative["data"][key]["-6"] = negative["data"][key].pop("6")
    unknown_child = copy.deepcopy(fig2)
    unknown_child["tree"]["nodes"][2]["children"] = [5, 6, 9]
    missing = copy.deepcopy(fig2)
    missing["tree"]["nodes"][2]["children"] = [5]
    return {"node listed twice": (node_twice, "tree node 3: listed twice in tree nodes"),
            "child listed twice": (child_twice,
                                   "invalid tree: node 1: children listed twice: [3]"),
            "negative id": (negative, "invalid tree: node -6: id must be >= 0"),
            "unknown child": (unknown_child, "invalid tree: node 2: unknown child 9"),
            "missing from parent": (missing,
                                    "invalid tree: node 6: missing from parent 2 children")}
