import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenet import kernels
from bottlenet.errors import ChannelMismatchError, ShapeMismatchError
from bottlenet.kernels import (
    Conv2dParams,
    DepthwiseParams,
    add_residual,
    conv2d,
    depthwise_conv,
    global_avgpool,
    relu,
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
    return Conv2dParams(1, 1, channels, channels, w, np.zeros(channels, np.float32))


class TestConv2d:
    def test_identity_1x1(self):
        x = random_gaussian((2, 5, 5, 4), Rng(1))
        y = conv2d(x, identity_conv_1x1(4))
        assert np.array_equal(x, y)

    def test_hand_convolution_same_padding(self):
        # 3x3 all-ones kernel on a 3x3 all-ones single-channel image: each
        # output counts the in-bounds taps.
        x = new_tensor((1, 3, 3, 1), 1.0)
        p = Conv2dParams(3, 1, 1, 1, np.ones((3, 3, 1, 1), np.float32),
                         np.zeros(1, np.float32))
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
        p = Conv2dParams(3, 2, 5, 7, rng.normal((3, 3, 5, 7)), rng.normal((7,)))
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
    p = Conv2dParams(3, stride, cin, cout, rng.normal((3, 3, cin, cout)), rng.normal((cout,)))
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
    p = DepthwiseParams(kernel, stride, c, weights[..., lo : lo + c],
                        rng.normal((wide,))[lo : lo + c])
    assert np.shares_memory(p.weights, weights)
    return xs, p


class TestDepthwise:
    def test_delta_kernel_identity(self):
        x = random_gaussian((2, 6, 6, 3), Rng(2))
        w = np.zeros((3, 3, 3), np.float32)
        w[1, 1, :] = 1.0
        p = DepthwiseParams(3, 1, 3, w, np.zeros(3, np.float32))
        assert np.array_equal(depthwise_conv(x, p), x)

    def test_channel_isolation_bit_exact(self):
        rng = Rng(3)
        x = random_gaussian((1, 8, 8, 4), rng)
        p = DepthwiseParams(3, 1, 4, rng.normal((3, 3, 4)), rng.normal((4,)))
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

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
        c=st.integers(1, 9), kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
        lo=st.integers(0, 3), hi=st.integers(0, 3), zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1), band_rows=st.sampled_from([1, 2, 3]),
    )
    def test_bytes_match_seed_loop_across_bands(self, b, h, w, c, kernel, stride, lo, hi,
                                                zeros, seed, band_rows):
        # Shrink the band so these small maps run 1, 2 or 3 output rows at
        # a time: an accumulator row is (ow + (k-1)//s) * c floats per image.
        xs, p = sliced_depthwise_case(b, h, w, c, kernel, stride, lo, hi, zeros, seed)
        row_bytes = b * (-(-w // stride) + (kernel - 1) // stride) * c * 4
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_BAND_BYTES", band_rows * row_bytes)
            got = depthwise_conv(xs, p)
        assert got.tobytes() == seed_depthwise(xs, p).tobytes()

    @pytest.mark.parametrize("shape,stride,lo,hi", [
        ((1, 112, 112, 32), 1, 0, 0),
        ((1, 112, 112, 96), 2, 0, 0),
        ((1, 56, 56, 144), 1, 0, 0),
        ((8, 48, 48, 16), 1, 0, 0),
        ((1, 112, 112, 12), 1, 12, 72),  # a channel group, as in a cascade
    ])
    def test_bytes_match_seed_loop_default_bands(self, shape, stride, lo, hi):
        b, h, w, c = shape
        # These accumulators span several bands of the default size.
        assert b * -(-h // stride) * (-(-w // stride) + 2 // stride) * c * 4 > kernels._BAND_BYTES
        xs, p = sliced_depthwise_case(b, h, w, c, 3, stride, lo, hi, True, sum(shape))
        assert depthwise_conv(xs, p).tobytes() == seed_depthwise(xs, p).tobytes()


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

    def test_relu_definition(self):
        x = np.array([-2, 0, 5], np.float32).reshape(1, 1, 1, 3)
        assert relu(x).reshape(-1).tolist() == [0, 0, 5]

    def test_relu_nonnegative_fixed_point(self):
        x = np.abs(random_gaussian((1, 4, 4, 2), Rng(5)))
        assert relu(x).tobytes() == x.tobytes()

    def test_relu_agrees_with_relu6_below_clamp(self):
        x = np.clip(random_gaussian((1, 6, 6, 3), Rng(6), stddev=2.0), -10.0, 6.0)
        assert np.array_equal(relu(x), relu6(x))


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
