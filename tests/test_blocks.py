import numpy as np
import pytest

from bottlenet.blocks import (
    BottleneckParams,
    bottleneck_forward,
    expanded_width,
)
from bottlenet.errors import InvalidShapeError
from bottlenet.kernels import relu6
from bottlenet.model import make_bottleneck
from bottlenet.tensor import Rng, max_abs_rel_diff, new_tensor

from conftest import bottleneck_madds, executed_madds, naive_conv2d, naive_depthwise


def fill_positive(p: BottleneckParams, rng: Rng, scale: float = 0.05):
    for stage in (p.expand, p.depthwise, p.project):
        if stage is None:
            continue
        stage.weights[...] = rng.uniform(stage.weights.shape, 0.0, scale)
        stage.bias[...] = rng.uniform(stage.bias.shape, 0.0, scale)
    return p


class TestStructure:
    @pytest.mark.parametrize(
        "cin,cout,stride,expected",
        [(16, 16, 1, True), (16, 24, 1, False), (16, 16, 2, False), (16, 24, 2, False)],
    )
    def test_shortcut_condition(self, cin, cout, stride, expected):
        p = make_bottleneck(cin, cout, 6, stride)
        assert p.use_shortcut is expected

    def test_fused_single_expansion(self):
        p = make_bottleneck(32, 16, 1, 1)
        assert p.expand is None
        assert p.expanded_channels == 32

    def test_unfused_when_disabled(self):
        p = make_bottleneck(32, 16, 1, 1, fuse_single_expansion=False)
        assert p.expand is not None

    def test_expanded_width_rounding(self):
        assert expanded_width(64, 6) == 384
        assert expanded_width(10, 1.25) == 12  # round(12.5) banker's -> 12

    def test_stage_disagreement_rejected(self):
        p = make_bottleneck(8, 8, 6, 1)
        bad_dwise = p.depthwise
        bad_dwise = type(bad_dwise)(3, 1, 40, np.zeros((3, 3, 40), np.float32),
                                    np.zeros(40, np.float32))
        with pytest.raises(InvalidShapeError):
            BottleneckParams(8, 8, 6, 1, p.expand, bad_dwise, p.project)

    def test_missing_expand_rejected_for_real_expansion(self):
        p = make_bottleneck(8, 8, 6, 1)
        with pytest.raises(InvalidShapeError):
            BottleneckParams(8, 8, 6, 1, None, p.depthwise, p.project)


class TestForward:
    def test_identity_pipeline_with_shortcut_doubles(self):
        # ratio-1 fused block, delta depthwise, identity projection: the
        # branch reproduces the input and the shortcut doubles it.
        p = make_bottleneck(4, 4, 1, 1)
        p.depthwise.weights[1, 1, :] = 1.0
        p.project.weights[0, 0] = np.eye(4, dtype=np.float32)
        x = Rng(1).uniform((1, 5, 5, 4), 0.0, 6.0)
        y = bottleneck_forward(x, p)
        assert np.array_equal(y, 2.0 * x)

    def test_stride2_never_shortcuts(self):
        p = make_bottleneck(8, 8, 6, 2)
        assert not p.use_shortcut
        x = new_tensor((1, 6, 6, 8), 1.0)
        assert bottleneck_forward(x, p).shape == (1, 3, 3, 8)

    @pytest.mark.parametrize("stride,cin,cout", [(1, 8, 8), (1, 8, 12), (2, 8, 12)])
    def test_matches_naive_recomputation(self, stride, cin, cout):
        rng = Rng(40 + stride * 7 + cout)
        p = fill_positive(make_bottleneck(cin, cout, 4, stride), rng)
        x = rng.uniform((1, 6, 6, cin), 0.0, 1.0)
        got = bottleneck_forward(x, p)
        ref = relu6(naive_conv2d(x, p.expand))
        ref = relu6(naive_depthwise(ref, p.depthwise))
        ref = naive_conv2d(ref, p.project)
        if p.use_shortcut:
            ref = ref + x
        assert max_abs_rel_diff(got, ref) < 1e-5

    def test_projection_is_linear(self):
        # Scaling the projection parameters by 2 exactly doubles the branch
        # output (no shortcut, so the output is the branch).
        rng = Rng(50)
        p = fill_positive(make_bottleneck(8, 12, 6, 1), rng)
        x = rng.uniform((1, 5, 5, 8), 0.0, 1.0)
        base = bottleneck_forward(x, p)
        p.project.weights[...] *= 2.0
        p.project.bias[...] *= 2.0
        doubled = bottleneck_forward(x, p)
        assert max_abs_rel_diff(doubled, 2.0 * base) <= 1e-6


class TestMadds:
    def test_reference_value(self):
        assert bottleneck_madds(14, 14, 64, 128, expansion=6, stride=1) == 15_128_064

    def test_linear_in_expansion_at_stride1(self):
        one = bottleneck_madds(14, 14, 32, 48, expansion=3, stride=1)
        two = bottleneck_madds(14, 14, 32, 48, expansion=6, stride=1)
        assert two == 2 * one

    def test_stride2_stagewise_recount(self):
        h = w = 14
        cin, cout, t = 16, 24, 6
        inner = expanded_width(cin, t)
        oh = ow = 7
        expected = h * w * cin * inner + oh * ow * 9 * inner + oh * ow * inner * cout
        assert bottleneck_madds(h, w, cin, cout, expansion=t, stride=2) == expected

    def test_instrumented_matches_formula(self):
        for stride in (1, 2):
            rng = Rng(60 + stride)
            p = fill_positive(make_bottleneck(8, 12, 6, stride), rng)
            x = rng.uniform((1, 10, 10, 8), 0.0, 1.0)
            with executed_madds() as madds:
                bottleneck_forward(x, p)
            assert madds.total == bottleneck_madds(
                10, 10, 8, 12, expansion=6, stride=stride
            )
