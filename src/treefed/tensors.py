"""Parameter sets backed by one flat float32 buffer, and Tensor views of them.

A ParamSet is one contiguous float32 buffer plus a Layout: the immutable
(name, shape, slice) table of its entries, in insertion order. Layouts are
interned, so every set with the same (name, shape) sequence, in particular
every set derived from one model configuration, shares one Layout object.
Binary operations require *congruence*, which is therefore a layout identity
test. A name mismatch is an error even when shapes agree, so that a
misconfigured backbone/key partition fails fast. `ps[name]` and iteration
yield Tensor views: a name plus a shaped view of the set's buffer. An entry's
slice of the buffer holds its values in row-major order.

N sets of one layout train together as the rows of one (N, size) array;
`Layout.views` gives the views of every row at once.

Values must stay finite. `ParamSet.from_buffer` checks a set's buffer once,
and the error names the first non-finite entry in layout order. Stacked rows
are not checked when they are stacked: `check_finite` checks them, with the
same message, where they are trained.

No code writes into a ParamSet's buffer once the set is built, so a set's
values never change: sets may share memory (one set may be a view of another
set's buffer, and many holders may share one set) and no holder needs a
defensive copy. Building a set makes its buffer array read-only, so a write
into a built set raises; when that array is a view of a larger one (as
model.local_train's trained rows are), the larger array stays writable.

Element-wise operations (axpy, and the scaling in privacy.clip) run over the
whole buffer in float32. Every reduction accumulates in float64 in a fixed
order, so results are bit-reproducible across runs: `l2_norm` adds one
float64 partial dot per tensor, in layout order (a single dot over the flat
buffer rounds differently).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np


class CongruenceError(ValueError):
    """Two ParamSets (or vectors) disagree in names or shapes."""


class Tensor:
    """The view of one ParamSet entry: its name and a shaped view of the
    set's buffer, as `ps[name]` and iteration yield it."""

    __slots__ = ("name", "data")

    @classmethod
    def view(cls, name: str, data: np.ndarray) -> "Tensor":
        """A Tensor over `data` itself, the view `ps[name]` yields: no
        conversion, no copy."""
        t = cls.__new__(cls)
        t.name, t.data = name, data
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)


class Layout:
    """Immutable (name, shape, slice) table of a flat buffer, in order.

    Build layouts with `Layout.of`, which interns them: equal (name, shape)
    sequences give the same object.
    """

    __slots__ = ("signature", "names", "shapes", "slices", "size")
    _interned: dict[tuple, "Layout"] = {}

    @classmethod
    def of(cls, signature: Iterable[tuple[str, Iterable[int]]]) -> "Layout":
        sig = tuple((name, tuple(map(int, shape))) for name, shape in signature)
        if sig not in cls._interned:
            cls._interned[sig] = cls(sig)
        return cls._interned[sig]

    def __init__(self, signature: tuple[tuple[str, tuple[int, ...]], ...]):
        self.slices: dict[str, slice] = {}
        offset = 0
        for name, shape in signature:
            if name in self.slices:
                raise ValueError(f"duplicate tensor name {name!r}")
            self.slices[name] = slice(offset, offset + math.prod(shape))
            offset += math.prod(shape)
        self.signature, self.names, self.shapes = signature, tuple(self.slices), dict(signature)
        self.size = offset

    def sub(self, names: Iterable[str]) -> "Layout":
        """The layout of the named entries alone, in the given order."""
        return Layout.of((n, self.shapes[n]) for n in names)

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> shaped view of `buf`, in layout order. Leading axes of
        `buf` (one per stacked set) lead every view."""
        lead = buf.shape[:-1]
        return {name: buf[..., self.slices[name]].reshape(lead + shape)
                for name, shape in self.signature}


def check_finite(layout: Layout, buf: np.ndarray) -> None:
    """Raise naming the first entry, in layout order, that holds a
    non-finite value in any row of `buf`."""
    finite = np.isfinite(buf)
    if not finite.all():
        bad = next(n for n, s in layout.slices.items() if not finite[..., s].all())
        raise ValueError(f"tensor {bad!r} contains non-finite values")


class ParamSet:
    """Uniquely named tensors stored in one float32 buffer.

    Iteration order is insertion order and is identical across all sets
    derived from the same model configuration, which fixes the reduction
    order of every aggregate operation downstream.
    """

    __slots__ = ("layout", "buf")

    @classmethod
    def from_buffer(cls, layout: Layout, buf: np.ndarray) -> "ParamSet":
        """A set over `buf` itself (no copy), laid out by `layout`: the one
        way to build a set."""
        if buf.dtype != np.float32 or buf.shape != (layout.size,):
            raise ValueError(f"buffer {buf.dtype}{buf.shape} does not fit a "
                             f"float32 layout of {layout.size} values")
        check_finite(layout, buf)
        buf.flags.writeable = False
        ps = cls.__new__(cls)
        ps.layout, ps.buf = layout, buf
        return ps

    def __iter__(self) -> Iterator[Tensor]:
        return (Tensor.view(name, a) for name, a in self.layout.views(self.buf).items())

    def __getitem__(self, name: str) -> Tensor:
        layout = self.layout
        return Tensor.view(name, self.buf[layout.slices[name]].reshape(layout.shapes[name]))

    def require_congruent(self, other: "ParamSet") -> None:
        """Raise unless the sets share one layout: the same names and shapes
        in the same order."""
        if self.layout is not other.layout:
            raise CongruenceError(f"param sets not congruent: {list(self.layout.signature)} "
                                  f"vs {list(other.layout.signature)}")

    def zeros_like(self) -> "ParamSet":
        return ParamSet.from_buffer(self.layout, np.zeros_like(self.buf))

    def __repr__(self) -> str:
        return f"ParamSet(tensors={list(self.layout.names)})"


def axpy(a: float, x: ParamSet, y: ParamSet) -> ParamSet:
    """Elementwise a*x + y over congruent sets. Returns a new ParamSet."""
    x.require_congruent(y)
    return ParamSet.from_buffer(x.layout, np.float32(a) * x.buf + y.buf)


def l2_norm(p: ParamSet) -> float:
    """L2 norm over all entries: float64 partial sums per tensor, added in
    layout order."""
    acc = 0.0
    for s in p.layout.slices.values():
        v = p.buf[s].astype(np.float64)
        acc += float(np.dot(v, v))
    return float(np.sqrt(acc))

