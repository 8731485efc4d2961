"""Dense named tensors and parameter sets.

Storage is float32; every reduction (dot, norms, weighted sums) accumulates
in float64, walking entries in insertion order so results are bit-reproducible
across runs. Binary operations require *congruence*: identical (name, shape)
sequences. A name mismatch is an error even when shapes agree, so that a
misconfigured backbone/key partition fails fast.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

ROLES = ("backbone", "keys", "pseudo_gradient", "residual")


class CongruenceError(ValueError):
    """Two ParamSets (or tensors) disagree in names or shapes."""


class Tensor:
    """A named dense float32 array. Values must stay finite."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: np.ndarray | Iterable[float], shape=None):
        arr = np.asarray(data, dtype=np.float32)
        if shape is not None:
            arr = arr.reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name!r} contains non-finite values")
        self.name = name
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def copy(self) -> "Tensor":
        return Tensor(self.name, self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor({self.name!r}, shape={self.shape})"


def flatten(t: Tensor) -> np.ndarray:
    """Row-major flat copy of a tensor's values."""
    return np.ravel(t.data, order="C").copy()


class ParamSet:
    """Ordered collection of uniquely named tensors with a role tag.

    Iteration order is insertion order and is identical across all sets
    derived from the same model configuration, which fixes the reduction
    order of every aggregate operation downstream.
    """

    __slots__ = ("_entries", "role")

    def __init__(self, tensors: Iterable[Tensor] = (), role: str = "backbone"):
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")
        self._entries: dict[str, Tensor] = {}
        self.role = role
        for t in tensors:
            if t.name in self._entries:
                raise ValueError(f"duplicate tensor name {t.name!r}")
            self._entries[t.name] = t

    def names(self) -> list[str]:
        return list(self._entries.keys())

    def tensors(self) -> list[Tensor]:
        return list(self._entries.values())

    def signature(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(t.name, t.shape) for t in self._entries.values()]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tensor]:
        return iter(self._entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def num_values(self) -> int:
        return sum(t.size for t in self._entries.values())

    def congruent(self, other: "ParamSet") -> bool:
        return self.signature() == other.signature()

    def require_congruent(self, other: "ParamSet") -> None:
        if not self.congruent(other):
            raise CongruenceError(
                f"param sets not congruent: {self.signature()} vs {other.signature()}"
            )

    def copy(self, role: str | None = None) -> "ParamSet":
        return ParamSet((t.copy() for t in self), role or self.role)

    def zeros_like(self, role: str | None = None) -> "ParamSet":
        return ParamSet(
            (Tensor(t.name, np.zeros(t.shape, dtype=np.float32)) for t in self),
            role or self.role,
        )

    def subset(self, names: Iterable[str], role: str | None = None) -> "ParamSet":
        return ParamSet((self._entries[n].copy() for n in names), role or self.role)

    def __repr__(self) -> str:
        return f"ParamSet(role={self.role!r}, tensors={self.names()})"


def axpy(a: float, x: ParamSet, y: ParamSet, role: str | None = None) -> ParamSet:
    """Elementwise a*x + y over congruent sets. Returns a new ParamSet."""
    x.require_congruent(y)
    out = []
    for tx, ty in zip(x, y):
        v = np.float32(a) * tx.data + ty.data
        out.append(Tensor(tx.name, v))
    return ParamSet(out, role or y.role)


def scale(a: float, x: ParamSet, role: str | None = None) -> ParamSet:
    return ParamSet((Tensor(t.name, np.float32(a) * t.data) for t in x), role or x.role)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product accumulated in float64."""
    if a.shape != b.shape:
        raise CongruenceError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return float(np.dot(a.astype(np.float64), b.astype(np.float64)))


def l2_norm(p: ParamSet) -> float:
    """L2 norm over the concatenation of all entries, float64 accumulation."""
    acc = 0.0
    for t in p:
        v = t.data.ravel().astype(np.float64)
        acc += float(np.dot(v, v))
    return float(np.sqrt(acc))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero vectors map to 0 instead of NaN."""
    na = np.sqrt(dot(a, a))
    nb = np.sqrt(dot(b, b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    c = dot(a, b) / (na * nb)
    return float(min(1.0, max(-1.0, c)))
