import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenet.blocks import bottleneck_forward
from bottlenet.costs import model_cost
from bottlenet.errors import InvalidShapeError, ShapeMismatchError
from bottlenet.model import (
    BottleneckLayer,
    ConvLayer,
    ModelSpec,
    PoolLayer,
    build_model,
    layer_walk,
    scale_channels,
)
from bottlenet.tensor import Rng, new_tensor, random_gaussian


class TestScaleChannels:
    @pytest.mark.parametrize(
        "channels,alpha,expected",
        [
            (32, 1.0, 32),
            (32, 1.4, 48),     # 44.8 -> nearest multiple of 8
            (16, 0.35, 8),     # 5.6 -> floor of 8
            (32, 0.35, 16),    # 11.2 rounds to 8, below 90%, bumped to 16
            (1280, 1.4, 1792),
            (64, 1.4, 88),     # 89.6 -> 88 (within 90%)
        ],
    )
    def test_reference_values(self, channels, alpha, expected):
        assert scale_channels(channels, alpha) == expected

    @settings(max_examples=200, deadline=None)
    @given(channels=st.integers(1, 2048), alpha=st.floats(0.1, 2.0))
    def test_rounding_properties(self, channels, alpha):
        scaled = scale_channels(channels, alpha)
        assert scaled % 8 == 0
        assert scaled >= 8
        assert scaled >= 0.9 * channels * alpha
        # Never more than one rounding step above the request.
        assert scaled <= max(8, channels * alpha + 8)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.35, 1.4),
        a=st.integers(1, 1024),
        b=st.integers(1, 1024),
    )
    def test_monotone(self, alpha, a, b):
        if a <= b:
            assert scale_channels(a, alpha) <= scale_channels(b, alpha)


class TestStructure:
    def test_block_count_and_repeats(self):
        m = build_model(ModelSpec())
        blocks = m.bottleneck_layers()
        assert len(blocks) == 17
        strides = [b.params.stride for b in blocks]
        # Repeat pattern (1, 2, 3, 4, 3, 3, 1): a stage starts at each
        # configured stride and continues with stride-1 layers.
        assert strides == [1, 2, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1]

    def test_shortcut_census(self):
        m = build_model(ModelSpec())
        assert sum(b.params.use_shortcut for b in m.bottleneck_layers()) == 10

    def test_penultimate_feature_map(self):
        walk = list(layer_walk(ModelSpec()))
        head = next(r for r in walk if r.name == "head")
        assert head.out_shape == (7, 7, 1280)
        assert [r for r in walk if r.kind == "block"][-1].out_shape == (7, 7, 320)

    def test_head_unscaled_below_one(self):
        rows = model_cost(ModelSpec(width_multiplier=0.35)).rows
        head = next(r for r in rows if r.name == "head")
        assert head.out_shape[2] == 1280

    def test_head_scales_above_one(self):
        rows = model_cost(ModelSpec(width_multiplier=1.4)).rows
        head = next(r for r in rows if r.name == "head")
        assert head.out_shape[2] == 1792

    @pytest.mark.parametrize(
        "res,expected",
        [(224, [112, 56, 28, 14, 7]), (96, [48, 24, 12, 6, 3])],
    )
    def test_spatial_schedule(self, res, expected):
        seen = []
        for layer in layer_walk(ModelSpec(resolution=res)):
            r = layer.out_shape[0]
            if not seen or seen[-1] != r:
                seen.append(r)
        assert seen == expected + [1]

    def test_first_block_is_fused(self):
        m = build_model(ModelSpec())
        assert m.bottleneck_layers()[0].params.expand is None

    @pytest.mark.parametrize("alpha", [0.34, 1.41, 0.0, -1.0])
    def test_alpha_range_rejected(self, alpha):
        with pytest.raises(InvalidShapeError):
            ModelSpec(width_multiplier=alpha)

    @pytest.mark.parametrize("res", [95, 100, 256, 64])
    def test_resolution_rejected(self, res):
        with pytest.raises(InvalidShapeError):
            ModelSpec(resolution=res)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(width_multiplier=0.34), "width_multiplier"),
        (dict(width_multiplier=float("nan")), "width_multiplier"),
        (dict(resolution=64), "resolution"),
        (dict(resolution=100), "resolution"),
        (dict(classes=0), "classes"),
        (dict(classes=2**16 + 1), "classes"),
        # Several fields out of range: width multiplier, resolution, classes.
        (dict(width_multiplier=2.0, resolution=100, classes=0), "width_multiplier"),
        (dict(resolution=100, classes=0), "resolution"),
        # Counts are exact: a float or bool is refused, even at an allowed value.
        (dict(resolution=224.0), "resolution"),
        (dict(resolution=True), "resolution"),
        (dict(classes=10.5), "classes"),
        (dict(classes=True), "classes"),
    ])
    def test_error_names_the_first_field_out_of_range(self, kwargs, field):
        with pytest.raises(InvalidShapeError) as info:
            ModelSpec(**kwargs)
        assert info.value.field == field


class TestForward:
    def test_zero_everything_gives_zero_logits(self):
        m = build_model(ModelSpec(resolution=96, width_multiplier=0.35, classes=10))
        y = m.forward(new_tensor((1, 96, 96, 3), 0.0))
        assert y.shape == (1, 1, 1, 10)
        assert np.all(y == 0.0)

    def test_batch_rows_independent_bit_exact(self):
        m = build_model(ModelSpec(resolution=96, width_multiplier=0.35, classes=10))
        m.randomize(Rng(2))
        one = random_gaussian((1, 96, 96, 3), Rng(3))
        two = np.concatenate([one, one], axis=0)
        y = m.forward(two)
        assert np.array_equal(y[0], y[1])

    def test_full_model_shapes_and_finiteness(self):
        m = build_model(ModelSpec()).randomize(Rng(42))
        x = random_gaussian((1, 224, 224, 3), Rng(43))
        y = m.forward(x)
        assert y.shape == (1, 1, 1, 1000)
        assert np.all(np.isfinite(y))

    def test_stem_writes_block01_plane_with_the_copy_paths_bytes(self):
        # block01 has no expansion conv, so the stem writes its output
        # straight into block01's depthwise plane, one matmul per image, and
        # the depthwise reads it in place.  A contiguous copy of that output
        # takes the padded-copy path and must give the same logits bytes.
        m = build_model(ModelSpec(resolution=96, width_multiplier=0.35)).randomize(Rng(5))
        x = random_gaussian((8, 96, 96, 3), Rng(6))
        planes = []

        def copied(t, p):
            if not planes:
                planes.append(t.base is not None and t.base.ndim == 1)
            return bottleneck_forward(np.ascontiguousarray(t), p)

        assert m.forward(x).tobytes() == m.forward(x, block_runner=copied).tobytes()
        assert planes == [True]

    def test_resolution_mismatch_rejected(self):
        m = build_model(ModelSpec(resolution=128, width_multiplier=0.35))
        with pytest.raises(ShapeMismatchError):
            m.forward(new_tensor((1, 96, 96, 3), 0.0))

    def test_randomize_is_seed_deterministic(self):
        spec = ModelSpec(resolution=96, width_multiplier=0.35, classes=10)
        a = build_model(spec).randomize(Rng(7))
        b = build_model(spec).randomize(Rng(7))
        x = random_gaussian((1, 96, 96, 3), Rng(8))
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_randomize_draw_order(self):
        # Every weight in schema order from N(0, sqrt(2 / fan_in)), then
        # every bias from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), where fan_in is
        # the product of the weights' shape without its last axis.
        spec = ModelSpec(resolution=96, width_multiplier=0.35)
        names, arrays = zip(*build_model(spec).parameters())
        assert all(n.endswith(".weight") for n in names[0::2])
        assert all(n.endswith(".bias") for n in names[1::2])
        weights, biases = arrays[0::2], arrays[1::2]
        fans = [math.prod(w.shape[:-1]) for w in weights]
        rng = Rng(7)
        drawn_weights = [rng.normal(w.shape, stddev=np.sqrt(2.0 / fan))
                         for w, fan in zip(weights, fans)]
        drawn_biases = [rng.uniform(b.shape, -1.0 / np.sqrt(fan), 1.0 / np.sqrt(fan))
                        for b, fan in zip(biases, fans)]
        expected = [a.tobytes() for pair in zip(drawn_weights, drawn_biases) for a in pair]
        got = [a.tobytes() for _, a in build_model(spec).randomize(Rng(7)).parameters()]
        assert got == expected


WALK_ALPHAS = (0.35, 0.5, 0.75, 1.0, 1.3, 1.4)
WALK_RESOLUTIONS = (96, 128, 160, 192, 224)


def schema_from_walk(walk):
    """Parameter names and shapes the records imply, in schema order."""
    schema = []
    for r in walk:
        if r.kind == "conv":
            schema.append((f"{r.name}.weight", (r.kernel, r.kernel, r.in_channels, r.out_channels)))
            schema.append((f"{r.name}.bias", (r.out_channels,)))
        elif r.kind == "block":
            if r.expand:
                schema.append((f"{r.name}.expand.weight", (1, 1, r.in_channels, r.inner)))
                schema.append((f"{r.name}.expand.bias", (r.inner,)))
            schema.append((f"{r.name}.depthwise.weight", (r.kernel, r.kernel, r.inner)))
            schema.append((f"{r.name}.depthwise.bias", (r.inner,)))
            schema.append((f"{r.name}.project.weight", (1, 1, r.inner, r.out_channels)))
            schema.append((f"{r.name}.project.bias", (r.out_channels,)))
    return schema


class TestLayerWalk:
    @pytest.mark.parametrize("alpha", WALK_ALPHAS)
    @pytest.mark.parametrize("res", WALK_RESOLUTIONS)
    def test_build_model_materializes_the_walk(self, alpha, res):
        spec = ModelSpec(resolution=res, width_multiplier=alpha)
        walk = list(layer_walk(spec))
        model = build_model(spec)
        assert [l.name for l in model.layers] == [r.name for r in walk]
        assert [r.out_shape for r in model_cost(spec).rows] == [r.out_shape for r in walk]
        assert [(n, a.shape) for n, a in model.parameters()] == schema_from_walk(walk)
        assert walk[0].in_shape == (res, res, 3)
        assert all(a.out_shape == b.in_shape for a, b in zip(walk, walk[1:]))
        kinds = {ConvLayer: "conv", BottleneckLayer: "block", PoolLayer: "pool"}
        for layer, r in zip(model.layers, walk):
            assert kinds[type(layer)] == r.kind
            if r.kind == "conv":
                p = layer.params
                assert (p.kernel, p.stride, p.in_channels, p.out_channels) == (
                    r.kernel, r.stride, r.in_channels, r.out_channels)
                assert layer.activation == r.activation
            elif r.kind == "block":
                p = layer.params
                assert (p.stride, p.in_channels, p.out_channels) == (
                    r.stride, r.in_channels, r.out_channels)
                assert p.expanded_channels == r.inner
                assert (p.expand is not None) == r.expand
