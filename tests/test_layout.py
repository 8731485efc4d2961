"""Property tests for the flat-buffer layout: every parameter has exactly one
slice, views alias the buffer, the backbone/key split is lossless, and each
whole-buffer operation equals the per-tensor loop it replaced, byte for
byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefed.aggregation import average_pseudograds
from treefed.model import ModelConfig, Partition, init_model, param_shapes
from treefed.privacy import add_noise, clip
from treefed.tensors import Layout, ParamSet, axpy, l2_norm

from oracles import param_count, param_set

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def model_configs(draw):
    blocks = draw(st.integers(1, 3))
    return ModelConfig(
        vocab_size=draw(st.integers(2, 9)),
        embed_dim=draw(st.integers(1, 5)),
        num_blocks=blocks,
        expansion_ratio=draw(st.integers(1, 3)),
        key_block_count=draw(st.integers(0, blocks)),
        context_len=draw(st.integers(1, 3)),
        include_head_in_keys=draw(st.booleans()),
    )


@st.composite
def congruent_sets(draw, count):
    """`count` congruent sets over one random layout, values spanning six
    orders of magnitude."""
    shapes = draw(st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return [
        param_set((f"t{i}", scale * rng.standard_normal(s)) for i, s in enumerate(shapes))
        for _ in range(count)
    ]


@PROPS
@given(model_configs())
def test_layout_covers_every_parameter_once_in_canonical_order(cfg):
    params = init_model(cfg, 0)
    layout = params.layout
    assert [(n, s) for n, s in layout.signature] == param_shapes(cfg)
    slices = list(layout.slices.values())
    assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]  # contiguous
    for (_, shape), s in zip(layout.signature, slices):
        assert s.stop - s.start == math.prod(shape)
    assert layout.size == param_count(cfg) == params.buf.size
    # one shared layout per config
    assert init_model(cfg, 1).layout is layout
    assert Partition.for_config(cfg).layout is layout


@PROPS
@given(model_configs(), st.integers(0, 2**32 - 1))
def test_named_views_alias_the_buffer(cfg, seed):
    params = init_model(cfg, seed)
    for t, s in zip(params, params.layout.slices.values()):
        assert np.shares_memory(t.data, params.buf)
        assert params[t.name].data.tobytes() == params.buf[s].tobytes()
    # a built set is never written: a write through a view raises
    with pytest.raises(ValueError, match="read-only"):
        params["head.b"].data[...] = 7.0


@PROPS
@given(model_configs(), st.integers(0, 2**32 - 1))
def test_split_then_assemble_is_byte_identical(cfg, seed):
    part = Partition.for_config(cfg)
    params = init_model(cfg, seed)
    backbone_names, key_names = part.backbone_layout.names, part.key_layout.names
    names = backbone_names + key_names
    assert sorted(names) == sorted(params.layout.names) and len(set(names)) == len(names)
    backbone, keys = part.split(params)
    assert backbone.layout.names == backbone_names and keys.layout.names == key_names
    # the keys are one contiguous run of the layout, and split views them in place
    at = [params.layout.names.index(n) for n in key_names]
    if at:
        assert at == list(range(at[0], at[0] + len(at)))
        assert np.shares_memory(keys.buf, params.buf)
    # the backbone is every other entry, in layout order
    rest = [n for n in params.layout.names if n not in key_names]
    assert list(backbone.layout.names) == rest
    assert backbone.buf.tobytes() == b"".join(params[n].data.tobytes() for n in rest)
    for t in backbone:
        assert t.data.tobytes() == params[t.name].data.tobytes()
    for t in keys:
        assert t.data.tobytes() == params[t.name].data.tobytes()
    again = part.assemble(backbone, keys)
    assert again.layout is params.layout
    assert again.buf.tobytes() == params.buf.tobytes()


@PROPS
@given(congruent_sets(2), st.floats(-4.0, 4.0))
def test_axpy_equals_per_tensor_loop(sets, a):
    x, y = sets
    want = [np.float32(a) * tx.data + ty.data for tx, ty in zip(x, y)]
    assert axpy(a, x, y).buf.tobytes() == b"".join(w.tobytes() for w in want)


@PROPS
@given(st.integers(1, 5).flatmap(congruent_sets))
def test_average_pseudograds_equals_per_tensor_loop(deltas):
    want = []
    for i, t in enumerate(deltas[0]):
        acc = t.data.astype(np.float64).copy()
        for d in deltas[1:]:
            acc += list(d)[i].data.astype(np.float64)
        want.append((acc / len(deltas)).astype(np.float32))
    assert average_pseudograds(deltas).buf.tobytes() == b"".join(w.tobytes() for w in want)


def per_tensor_l2(p: ParamSet) -> float:
    acc = 0.0
    for t in p:
        v = t.data.ravel().astype(np.float64)
        acc += float(np.dot(v, v))
    return float(np.sqrt(acc))


@PROPS
@given(congruent_sets(1), st.floats(1e-3, 1e4))
def test_l2_norm_and_clip_equal_per_tensor_loop(sets, bound):
    (delta,) = sets
    norm = per_tensor_l2(delta)
    assert np.float64(l2_norm(delta)).tobytes() == np.float64(norm).tobytes()
    factor = 1.0 if norm <= bound else bound / norm
    clipped, pre = clip(delta, bound)
    assert pre == norm
    assert clipped.buf.tobytes() == b"".join((np.float32(factor) * t.data).tobytes()
                                             for t in delta)


@PROPS
@given(congruent_sets(1), st.floats(0.01, 3.0), st.integers(0, 2**32 - 1))
def test_add_noise_equals_per_tensor_draws(sets, sigma, seed):
    (delta,) = sets
    rng = np.random.default_rng(seed)
    want = [t.data + rng.normal(0.0, sigma * 0.5, size=t.shape).astype(np.float32)
            for t in delta]
    got = add_noise(delta, sigma, 0.5, np.random.default_rng(seed))
    assert got.buf.tobytes() == b"".join(np.asarray(w, np.float32).tobytes() for w in want)


def test_layouts_are_interned_and_reject_duplicates():
    a = Layout.of([("w", (2, 3)), ("b", (3,))])
    assert Layout.of([("w", [2, 3]), ("b", [3])]) is a
    assert Layout.of([("w", (3, 2)), ("b", (3,))]) is not a
    with pytest.raises(ValueError, match="duplicate tensor name 'w'"):
        Layout.of([("w", (1,)), ("w", (1,))])
