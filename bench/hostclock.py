"""Times pieces of a run against a fixed probe of the host's speed.

The benchmark shares a few cores of a host with other work, and the host's
speed changes by up to 1.8x for seconds to minutes at a time, for CPU time as
much as for wall time (on a 2-vCPU x86-64 VM a 0.29 s round of fig2-flat_fl
took 0.50 s for the whole of an 18 s repetition, and set-up slowed by the
same factor). No statistic over one run can remove a slowdown that lasts the
whole run, so every timed piece is rescaled by the host's speed at the time:

- a probe, a fixed piece of work owned by the benchmark (a few training
  steps of a tiny MLP, one thread, about 10 ms), runs between the
  pieces, at most every PROBE_EVERY_S, outside any timed interval;
- a piece's speed factor is PROBE_REF_S over the mean time of the probes
  just before and just after it (the nearest probes in time follow the
  host's changes best);
- a piece's reported time is its measured time times that factor: seconds at
  the speed at which the probe takes PROBE_REF_S, about what the piece takes
  on a quiet host of that kind.

RoundClock cuts cli.execute into pieces at every return of
treefed.engine.evaluate_round (once per round or stage), so the rescaling
follows changes within a repetition. On that VM, over ten seeds, the spread
(IQR/median) of run_s went from 0.09-0.31 as measured to 0.02-0.05 rescaled.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.2
# The probe's time on a quiet 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS).
PROBE_REF_S = 0.0100


def _init_probe():
    """Weights of a tiny next-token MLP and a token stream, the probe's inputs."""
    rng = np.random.default_rng(0)
    shapes = {"embed": (32, 16), "in_proj.w": (32, 16), "in_proj.b": (16,),
              "head.w": (16, 32), "head.b": (32,)}
    for i in range(3):
        shapes |= {f"block{i}.fc1.w": (16, 64), f"block{i}.fc1.b": (64,),
                   f"block{i}.fc2.w": (64, 16), f"block{i}.fc2.b": (16,)}
    weights = {k: (rng.standard_normal(shape) * 0.1).astype(np.float32)
               for k, shape in shapes.items()}
    return weights, rng.integers(0, 32, size=16000)


_WEIGHTS, _TOKENS = _init_probe()


def _probe_work(steps: int = 20) -> float:
    """The fixed work: Adam steps of a tiny MLP on batches of 32 windows.

    It is made of the same kinds of operation as the program (small matrix
    products below OpenBLAS's threading threshold, gathers, np.add.at,
    dictionaries of small arrays), so a host slowdown hits both alike, but it
    is the benchmark's own copy: no change to the program changes it.
    """
    rng = np.random.default_rng(1)
    w = {k: v.copy() for k, v in _WEIGHTS.items()}
    m = {k: np.zeros(v.shape) for k, v in w.items()}
    v2 = {k: np.zeros(v.shape) for k, v in w.items()}
    loss = 0.0
    for t in range(1, steps + 1):
        starts = rng.integers(0, len(_TOKENS) - 2, size=32)
        batch = np.stack([_TOKENS[s:s + 3] for s in starts])
        ids, targets = batch[:, :2], batch[:, 2]
        x = w["embed"][ids].reshape(32, 32)
        h = x @ w["in_proj.w"] + w["in_proj.b"]
        kept = []
        for i in range(3):
            u = np.tanh(h @ w[f"block{i}.fc1.w"] + w[f"block{i}.fc1.b"])
            kept.append((h, u))
            h = h + u @ w[f"block{i}.fc2.w"] + w[f"block{i}.fc2.b"]
        z = (h @ w["head.w"] + w["head.b"]).astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        loss += float(-np.log(p[np.arange(32), targets]).mean())
        p[np.arange(32), targets] -= 1
        d = (p / 32).astype(np.float32)
        g = {"head.w": h.T @ d, "head.b": d.sum(axis=0)}
        dh = d @ w["head.w"].T
        for i in reversed(range(3)):
            h_in, u = kept[i]
            g[f"block{i}.fc2.w"], g[f"block{i}.fc2.b"] = u.T @ dh, dh.sum(axis=0)
            da = (dh @ w[f"block{i}.fc2.w"].T) * (1.0 - u * u)
            g[f"block{i}.fc1.w"], g[f"block{i}.fc1.b"] = h_in.T @ da, da.sum(axis=0)
            dh = dh + da @ w[f"block{i}.fc1.w"].T
        g["in_proj.w"], g["in_proj.b"] = x.T @ dh, dh.sum(axis=0)
        g["embed"] = np.zeros_like(w["embed"])
        np.add.at(g["embed"], ids.reshape(-1), (dh @ w["in_proj.w"].T).reshape(-1, 16))
        for k, gk in g.items():
            gd = gk.astype(np.float64)
            m[k] = 0.9 * m[k] + 0.1 * gd
            v2[k] = 0.95 * v2[k] + 0.05 * gd * gd
            step = 0.01 * (m[k] / (1 - 0.9 ** t)) / (np.sqrt(v2[k] / (1 - 0.95 ** t)) + 1e-8)
            w[k] = (w[k].astype(np.float64) - step).astype(np.float32)
    return loss


class HostClock:
    """Probe times on one timeline, and the speed factor they give."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.last_end = -float("inf")

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.probes.append(((start + end) / 2, end - start))
        self.last_end = end

    def probe_if_due(self) -> None:
        if time.perf_counter() - self.last_end >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean of the probes just before and just after."""
        mids = [mid for mid, _ in self.probes]
        before, after = bisect.bisect_left(mids, start) - 1, bisect.bisect_right(mids, end)
        near = [self.probes[i][1] for i in (before, after) if 0 <= i < len(self.probes)]
        return PROBE_REF_S / statistics.fmean(near)

    def scale(self, pieces: list[tuple[float, float, float]]) -> tuple[list[float], list[float]]:
        """Wall and CPU seconds of each (start, end, cpu) piece at the reference speed."""
        factors = [self.factor(start, end) for start, end, _ in pieces]
        return ([(end - start) * f for (start, end, _), f in zip(pieces, factors)],
                [cpu * f for (_, _, cpu), f in zip(pieces, factors)])


class RoundClock:
    """Wall and CPU time of each round of a cli.execute call.

    Once installed, a piece runs from the end of one evaluate_round call (or
    the start of the run) to the end of the next; a probe that falls between
    two pieces is in neither. Not installed, the whole call is one piece.
    """

    def __init__(self, host: HostClock):
        self.host = host
        self.pieces: list[tuple[float, float, float]] = []  # (start, end, cpu seconds)
        self._open: tuple[float, float] | None = None

    def install(self, engine) -> None:
        inner = engine.evaluate_round

        def timed(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self._open is not None:
                self._cut()
                self.host.probe_if_due()
                self._open = (time.perf_counter(), time.process_time())
            return out

        engine.evaluate_round = timed

    def start(self) -> None:
        self.pieces = []
        self._open = (time.perf_counter(), time.process_time())

    def stop(self) -> list[tuple[float, float, float]]:
        self._cut()
        self._open = None
        return self.pieces

    def _cut(self) -> None:
        end, cpu = time.perf_counter(), time.process_time()
        start, cpu_start = self._open
        self.pieces.append((start, end, cpu - cpu_start))
