import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert model.parameter_schema() == schema_from_walk(walk)
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
                assert (p.stride, p.in_channels, p.out_channels, p.expansion) == (
                    r.stride, r.in_channels, r.out_channels, r.expansion)
                assert p.expanded_channels == r.inner
                assert (p.expand is not None) == r.expand

    def test_unfused_spec_keeps_every_expansion(self):
        spec = ModelSpec(resolution=96, width_multiplier=0.35, fuse_single_expansion=False)
        blocks = [r for r in layer_walk(spec) if r.kind == "block"]
        assert all(r.expand for r in blocks)
        assert build_model(spec).parameter_schema() == schema_from_walk(layer_walk(spec))
