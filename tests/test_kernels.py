import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenet import kernels
from bottlenet.errors import ChannelMismatchError, InvalidShapeError, ShapeMismatchError
from bottlenet.kernels import (
    Conv2dParams,
    DepthwiseParams,
    add_residual,
    conv2d,
    depthwise_conv,
    global_avgpool,
    relu6,
    same_pad_amounts,
)
from bottlenet.tensor import Rng, max_abs_rel_diff, new_tensor, random_gaussian

from conftest import (
    naive_conv2d,
    naive_depthwise,
    positive_conv,
    executed_madds,
    positive_depthwise,
    seed_conv2d,
    seed_depthwise,
)


def identity_conv_1x1(channels: int) -> Conv2dParams:
    w = np.eye(channels, dtype=np.float32).reshape(1, 1, channels, channels)
    return Conv2dParams(1, w, np.zeros(channels, np.float32))


class TestStageParams:
    VALID = {Conv2dParams: (3, 3, 5, 7), DepthwiseParams: (1, 1, 6)}
    # Each case breaks one rule of a valid stage of weights shape s:
    # (weights shape, stride, bias length).
    MALFORMED = {
        "wrong-rank": lambda s: (s + (2,), 1, 2),
        "non-square": lambda s: ((3, 1) + s[2:], 1, s[-1]),
        "kernel-2": lambda s: ((2, 2) + s[2:], 1, s[-1]),
        "stride-3": lambda s: (s, 3, s[-1]),
        "bias-length": lambda s: (s, 1, s[-1] + 1),
    }

    @pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
    def test_kernel_and_widths_are_the_weights_shape(self, cls):
        shape = self.VALID[cls]
        p = cls(2, np.zeros(shape), np.zeros(shape[-1]))
        assert [f.name for f in dataclasses.fields(p)] == ["stride", "weights", "bias"]
        assert p.weights.dtype == p.bias.dtype == np.float32
        widths = (p.in_channels, p.out_channels) if cls is Conv2dParams else (p.channels,)
        assert (p.kernel, p.kernel, *widths) == shape

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
    def test_malformed_stage_rejected(self, cls, case):
        shape, stride, bias = self.MALFORMED[case](self.VALID[cls])
        with pytest.raises(InvalidShapeError):
            cls(stride, np.zeros(shape, np.float32), np.zeros(bias, np.float32))


class TestConv2d:
    def test_identity_1x1(self):
        x = random_gaussian((2, 5, 5, 4), Rng(1))
        y = conv2d(x, identity_conv_1x1(4))
        assert np.array_equal(x, y)

    def test_hand_convolution_same_padding(self):
        # 3x3 all-ones kernel on a 3x3 all-ones single-channel image: each
        # output counts the in-bounds taps.
        x = new_tensor((1, 3, 3, 1), 1.0)
        p = Conv2dParams(1, np.ones((3, 3, 1, 1), np.float32), np.zeros(1, np.float32))
        y = conv2d(x, p)[0, :, :, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        assert np.array_equal(y, expected)

    @pytest.mark.parametrize("kernel,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_matches_naive_oracle(self, kernel, stride):
        rng = Rng(20 + kernel * 10 + stride)
        x = rng.uniform((2, 6, 5, 3), 0.0, 1.0)
        p = positive_conv(rng, kernel, stride, 3, 4)
        assert max_abs_rel_diff(conv2d(x, p), naive_conv2d(x, p)) < 1e-5

    def test_channel_mismatch(self):
        x = new_tensor((1, 4, 4, 3), 1.0)
        with pytest.raises(ChannelMismatchError):
            conv2d(x, identity_conv_1x1(4))

    def test_repeated_evaluation_bit_identical(self):
        rng = Rng(9)
        x = random_gaussian((1, 8, 8, 5), rng)
        p = Conv2dParams(2, rng.normal((3, 3, 5, 7)), rng.normal((7,)))
        assert conv2d(x, p).tobytes() == conv2d(x, p).tobytes()

    def test_madds_charged_exactly(self):
        x = new_tensor((2, 7, 5, 3), 1.0)
        p = positive_conv(Rng(0), 3, 2, 3, 4)
        with executed_madds() as madds:
            kernels.conv2d(x, p)
        oh, ow = -(-7 // 2), -(-5 // 2)
        assert madds.total == 2 * oh * ow * 9 * 3 * 4


def sliced_input(rng, b, h, w, c, lo, hi, zeros):
    """A (b, h, w, c) channel slice of a wider array: a strided view whenever
    lo or hi is nonzero.  ``zeros`` plants +0.0 and -0.0."""
    x = random_gaussian((b, h, w, lo + c + hi), rng)
    if zeros:
        x[..., ::2] = 0.0
        x[:, ::2, :, 1::2] = -0.0
    return x[..., lo : lo + c]


@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(1, 3), h=st.integers(1, 17), w=st.integers(1, 17),
    cin=st.integers(1, 5), cout=st.integers(1, 8), stride=st.sampled_from([1, 2]),
    lo=st.integers(0, 3), hi=st.integers(0, 3), zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stem_conv_bytes_match_seed_im2col(b, h, w, cin, cout, stride, lo, hi, zeros, seed):
    rng = Rng(seed)
    xs = sliced_input(rng, b, h, w, cin, lo, hi, zeros)
    p = Conv2dParams(stride, rng.normal((3, 3, cin, cout)), rng.normal((cout,)))
    assert conv2d(xs, p).tobytes() == seed_conv2d(xs, p).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 17),
    w=st.integers(1, 17),
    kernel=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
)
def test_same_padding_shape_law(h, w, kernel, stride):
    x = new_tensor((1, h, w, 2), 1.0)
    p = positive_conv(Rng(5), kernel, stride, 2, 3)
    y = conv2d(x, p)
    assert y.shape == (1, -(-h // stride), -(-w // stride), 3)
    d = positive_depthwise(Rng(6), kernel, stride, 2)
    z = depthwise_conv(x, d)
    assert z.shape == (1, -(-h // stride), -(-w // stride), 2)


def test_same_padding_extra_goes_bottom_right():
    # Even input with a 3-tap stride-2 kernel needs one pad row/col, which
    # must land at the end.
    out, beg, end = same_pad_amounts(4, 3, 2)
    assert (out, beg, end) == (2, 0, 1)
    out, beg, end = same_pad_amounts(224, 3, 2)
    assert (out, beg, end) == (112, 0, 1)


def sliced_depthwise_case(b, h, w, c, kernel, stride, lo, hi, zeros, seed):
    """Input, weights and bias that are all channel slices of wider arrays."""
    rng = Rng(seed)
    xs = sliced_input(rng, b, h, w, c, lo, hi, zeros)
    wide = lo + c + hi
    weights = rng.normal((kernel, kernel, wide))
    p = DepthwiseParams(stride, weights[..., lo : lo + c],
                        rng.normal((wide,))[lo : lo + c])
    assert np.shares_memory(p.weights, weights)
    return xs, p


class TestDepthwise:
    def test_delta_kernel_identity(self):
        x = random_gaussian((2, 6, 6, 3), Rng(2))
        w = np.zeros((3, 3, 3), np.float32)
        w[1, 1, :] = 1.0
        p = DepthwiseParams(1, w, np.zeros(3, np.float32))
        assert np.array_equal(depthwise_conv(x, p), x)

    def test_channel_isolation_bit_exact(self):
        rng = Rng(3)
        x = random_gaussian((1, 8, 8, 4), rng)
        p = DepthwiseParams(1, rng.normal((3, 3, 4)), rng.normal((4,)))
        base = depthwise_conv(x, p)
        perturbed = x.copy()
        perturbed[:, :, :, 0] += 1.0
        moved = depthwise_conv(perturbed, p)
        assert np.array_equal(base[..., 1:], moved[..., 1:])
        assert not np.array_equal(base[..., 0], moved[..., 0])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_naive_oracle(self, stride):
        rng = Rng(30 + stride)
        x = rng.uniform((2, 7, 6, 5), 0.0, 1.0)
        p = positive_depthwise(rng, 3, stride, 5)
        assert max_abs_rel_diff(depthwise_conv(x, p), naive_depthwise(x, p)) < 1e-5

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatchError):
            depthwise_conv(new_tensor((1, 4, 4, 3), 1.0), positive_depthwise(Rng(0), 3, 1, 5))

    @settings(max_examples=300, deadline=None)
    @given(
        b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
        c=st.integers(1, 9), kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
        lo=st.integers(0, 3), hi=st.integers(0, 3), zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_seed_loop(self, b, h, w, c, kernel, stride, lo, hi, zeros, seed):
        xs, p = sliced_depthwise_case(b, h, w, c, kernel, stride, lo, hi, zeros, seed)
        assert depthwise_conv(xs, p).tobytes() == seed_depthwise(xs, p).tobytes()

    @pytest.mark.parametrize("shape,stride,lo,hi", [
        ((1, 112, 112, 32), 1, 0, 0),
        ((1, 112, 112, 96), 2, 0, 0),
        ((1, 56, 56, 144), 1, 0, 0),
        ((8, 48, 48, 16), 1, 0, 0),
        ((1, 112, 112, 12), 1, 12, 72),  # a channel group, as in a cascade
        ((8, 112, 112, 1), 1, 3, 12),  # one channel: widened with a zero channel
        ((3, 112, 112, 2), 1, 2, 14),  # two channels: no widening
        ((1, 112, 112, 12), 2, 12, 72),  # a split-8 group of block02
        ((8, 48, 48, 48), 2, 0, 0),  # block02 at alpha 0.35, 96 px, batch 8
        ((8, 48, 48, 1), 2, 5, 10),  # one channel at stride 2
    ])
    def test_bytes_match_seed_loop_model_shapes(self, shape, stride, lo, hi):
        b, h, w, c = shape
        xs, p = sliced_depthwise_case(b, h, w, c, 3, stride, lo, hi, True, sum(shape))
        assert depthwise_conv(xs, p).tobytes() == seed_depthwise(xs, p).tobytes()

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("c", [1, 2, 3, 8])
    def test_einsum_adds_row_window_taps_in_order(self, b, c):
        # The kernel's bytes rest on numpy's einsum zero-filling its output
        # and adding each tap's float32 product in (ky, kx) order while the
        # run axis runs innermost.  The window is the kernel's: output rows
        # s padded rows apart over a run of ow*s pixels, and one channel
        # widened with a zero second channel.  An einsum that fuses the
        # multiply-add or sums the taps in registers first fails here, not
        # in the kernel.
        k, oh, ow, cw = 3, 7, 8, max(c, 2)
        for s in (1, 2):
            rows, cols, run = (oh - 1) * s + k, ow * s + k - 1, ow * s * cw
            rng = Rng(40 + 10 * b + c + 100 * s)
            plane = np.zeros((b, rows, cols, cw), dtype=np.float32)
            plane[..., :c] = rng.normal((b, rows, cols, c), stddev=3.0)
            plane[:, ::5, ::3, :c] = -0.0
            taps = np.zeros((k, k, ow * s, cw), dtype=np.float32)
            taps[..., :c] = rng.normal((k, k, 1, c))
            taps = taps.reshape(k, k, run)
            sb, sy, sx, e = plane.strides
            win = np.lib.stride_tricks.as_strided(
                plane, (k, k, b, oh, run), (sy, sx, sb, s * sy, e))
            want = np.zeros((b, oh, run), dtype=np.float32)
            for ky in range(k):
                for kx in range(k):
                    want += win[ky, kx] * taps[ky, kx]
            got = np.einsum("ijbyn,ijn->byn", win, taps)
            assert got.tobytes() == want.tobytes(), f"stride {s}"


class TestActivations:
    def test_relu6_definition_cases(self):
        x = np.array([-1, 0, 3, 6, 9], np.float32).reshape(1, 1, 1, 5)
        assert relu6(x).reshape(-1).tolist() == [0, 0, 3, 6, 6]

    def test_relu6_zero_fixed_point(self):
        z = new_tensor((1, 2, 2, 2), 0.0)
        assert np.array_equal(relu6(z), z)

    def test_relu6_idempotent_bit_exact(self):
        x = random_gaussian((1, 5, 5, 3), Rng(4), stddev=4.0)
        once = relu6(x)
        assert relu6(once).tobytes() == once.tobytes()

    def test_relu6_leaves_input_unchanged(self):
        x = random_gaussian((1, 5, 5, 3), Rng(7), stddev=4.0)
        before = x.tobytes()
        relu6(x)
        assert x.tobytes() == before

    def test_relu6_in_place_same_bytes(self):
        x = np.array([-1, -0.0, 0, np.nan, 3, 6, 9, -np.inf, np.inf],
                     np.float32).reshape(1, 1, 1, 9)
        pure = relu6(x)
        # max then min maps -0.0 to +0.0; np.clip would keep the sign bit.
        assert pure.tobytes() == np.minimum(np.maximum(x, 0), 6).astype(np.float32).tobytes()
        assert not np.signbit(pure[0, 0, 0, 1])
        y = x.copy()
        assert relu6(y, out=y) is y
        assert y.tobytes() == pure.tobytes()


def planted_stage(rng, cls, stride, shape, wide, lo, zeros, bias):
    """Stage parameters whose weights and bias are last-axis slices of wider
    arrays.  ``zeros`` plants +0.0 and -0.0 in the weights; ``bias`` is
    "random", "planted" (+0.0 and -0.0 among random values), "+0" or "-0"."""
    c = shape[-1]
    weights = rng.normal((*shape[:-1], wide))
    if zeros:
        weights[..., ::3] = 0.0
        weights.reshape(-1)[1::4] = -0.0
    b = rng.normal((wide,))
    if bias == "planted":
        b[lo::2] = 0.0
        b[lo + 1::4] = -0.0
    elif bias != "random":
        b[...] = float(bias)
    return cls(stride, weights[..., lo : lo + c], b[lo : lo + c])


def assert_fused_epilogue(kernel, seed_kernel, xs, p):
    # Unclamped: the seed's bytes, and never -0.0, which is what makes one
    # clamp equal relu6's max-then-min.  Clamped: relu6 of the unclamped.
    plain = kernel(xs, p)
    if seed_kernel is not None:
        assert plain.tobytes() == seed_kernel(xs, p).tobytes()
    assert not (np.signbit(plain) & (plain == 0)).any()
    assert kernel(xs, p, activation="none").tobytes() == plain.tobytes()
    assert kernel(xs, p, activation="relu6").tobytes() == relu6(plain).tobytes()


BIASES = st.sampled_from(["random", "planted", "+0", "-0"])


class TestFusedEpilogue:
    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
        cin=st.integers(1, 6), cout=st.integers(1, 9), kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]), lo=st.integers(0, 3), hi=st.integers(0, 3),
        zeros=st.booleans(), bias=BIASES, seed=st.integers(0, 2**32 - 1),
    )
    def test_conv2d_bytes(self, b, h, w, cin, cout, kernel, stride, lo, hi, zeros, bias, seed):
        rng = Rng(seed)
        xs = sliced_input(rng, b, h, w, cin, lo, hi, zeros)
        p = planted_stage(rng, Conv2dParams, stride, (kernel, kernel, cin, cout),
                          lo + cout + hi, lo, zeros, bias)
        # A 1x1 conv multiplies a view of its input, not the seed's column
        # copy, and numpy's matmul leaves BLAS for a strided view, which can
        # move an ulp.  The engine's 1x1 convs are stride 1 on whole tensors.
        if kernel == 1:
            xs = np.ascontiguousarray(xs)
        seeded = kernel == 3 or stride == 1
        assert_fused_epilogue(conv2d, seed_conv2d if seeded else None, xs, p)

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
        c=st.integers(1, 11), kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
        lo=st.integers(0, 3), hi=st.integers(0, 3), zeros=st.booleans(), bias=BIASES,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_depthwise_bytes(self, b, h, w, c, kernel, stride, lo, hi, zeros, bias, seed):
        rng = Rng(seed)
        xs = sliced_input(rng, b, h, w, c, lo, hi, zeros)
        p = planted_stage(rng, DepthwiseParams, stride, (kernel, kernel, c),
                          lo + c + hi, lo, zeros, bias)
        assert_fused_epilogue(depthwise_conv, seed_depthwise, xs, p)

    @pytest.mark.parametrize("kernel,stage", [
        (conv2d, Conv2dParams(1, np.ones((1, 1, 2, 3)), np.zeros(3))),
        (depthwise_conv, DepthwiseParams(1, np.ones((3, 3, 2)), np.zeros(2))),
    ])
    def test_activation_is_keyword_only(self, kernel, stage):
        # perfbench's cost functions take exactly (x, p) from the positionals.
        with pytest.raises(TypeError):
            kernel(new_tensor((1, 4, 4, 2), 1.0), stage, "relu6")


class TestAvgpool:
    def test_constant(self):
        x = new_tensor((2, 7, 7, 3), 0.75)
        y = global_avgpool(x)
        assert y.shape == (2, 1, 1, 3)
        assert np.all(y == np.float32(0.75))

    def test_arithmetic_mean_1_to_49(self):
        x = np.arange(1, 50, dtype=np.float32).reshape(1, 7, 7, 1)
        assert float(global_avgpool(x)[0, 0, 0, 0]) == 25.0

    def test_channel_permutation_permutes_output(self):
        x = random_gaussian((1, 7, 7, 6), Rng(7))
        perm = np.array([3, 1, 5, 0, 2, 4])
        a = global_avgpool(x)[:, :, :, perm]
        b = global_avgpool(np.ascontiguousarray(x[:, :, :, perm]))
        assert np.array_equal(a, b)

    def test_accumulates_in_float64(self):
        # float32 running addition would swallow the +1 terms entirely.
        x = np.zeros((1, 7, 7, 1), np.float32)
        x[0, :, :, 0] = 2.0**25
        x[0, 0, 0, 0] = 1.0
        exact = (2.0**25 * 48 + 1.0) / 49.0
        assert float(global_avgpool(x)[0, 0, 0, 0]) == np.float32(exact)


class TestAddResidual:
    def test_additive_identity(self):
        x = random_gaussian((1, 3, 3, 2), Rng(8))
        assert np.array_equal(add_residual(x, np.zeros_like(x)), x)

    def test_inverse(self):
        x = random_gaussian((1, 3, 3, 2), Rng(9))
        assert np.all(add_residual(x, -x) == 0.0)

    def test_commutes_bit_exact(self):
        a = random_gaussian((1, 4, 4, 3), Rng(10))
        b = random_gaussian((1, 4, 4, 3), Rng(11))
        assert add_residual(a, b).tobytes() == add_residual(b, a).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            add_residual(new_tensor((1, 2, 2, 2)), new_tensor((1, 2, 2, 3)))
