"""Primitive operators: convolutions, activations, pooling, residual add.

All operators are pure functions over (b, h, w, c) float32 tensors and are
deterministic: every result is a fixed sequence of float32 numpy ufunc
passes, one plain (unoptimized) ``einsum`` or a single matmul, so repeated
evaluation on identical inputs is bit-identical.

A convolution stage is its stride, weights and bias; its kernel size and
channel widths are read from the weights' shape.

Depthwise convolution copies its input once into a zero-padded plane
and sums all k*k taps with one plain ``einsum`` over a window view of it:
output rows sit s padded rows apart, and each row's innermost axis is a
run of ow*s stride-1 pixels, so tap (ky, kx) reads the run shifted ky
rows and kx pixels.  numpy zero-fills the output and adds each tap's
product in (ky, kx) order, as a tap loop does.  Every s-th pixel of the
run is an output pixel; the rest are dropped when the bias is added.  A
one-channel input gets a zero second channel: at one channel a pixel
step equals an element step, and einsum then sums a row's kx taps in a
register first, which changes the bytes.
The 3x3 dense convolution (the stem) builds its im2col columns with one
copy of a strided window view over the padded input, in (ky, kx, c) order.
Both convolutions finish their own output in place: the bias add (skipped
for an all-zero bias), then, with ``activation="relu6"``, one pass of the
``clip`` ufunc, bound at import (``np.clip``'s wrapper costs microseconds).
It equals ``relu6``'s max-then-min except on -0.0, which never reaches it:
matmul and einsum sums start at +0.0, +0.0 + -0.0 is +0.0, and adding a
bias to a value that is not -0.0 never gives -0.0; a zero bias changes nothing.

Padding convention
------------------
SAME padding with ceil division: out = ceil(in / stride) along each
spatial axis.  When the total pad is odd the extra row/column goes on the
bottom/right.  Padded positions contribute zeros, and the multiply-add
count (``costs``) charges them like any other tap (one MAdd per kernel
tap per output element), which is the convention every published
operation count uses.

Convolution is cross-correlation: no kernel flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatchError, InvalidShapeError, ShapeMismatchError
from .tensor import assert_activation

try:  # the clip ufunc itself: see the module docstring
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip


@dataclass
class _StageParams:
    """Stride, weights (k, k, ..., width) and bias (width,) of a convolution
    stage; the weights' shape is the only record of the kernel and widths.
    A subclass sets the weights' ``rank``."""

    stride: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)
        shape = self.weights.shape
        if (len(shape) != self.rank or shape[0] != shape[1] or shape[0] not in (1, 3)
                or self.stride not in (1, 2) or self.bias.shape != shape[-1:]):
            raise InvalidShapeError(
                f"{type(self).__name__} needs rank-{self.rank} weights with a square 1x1 "
                f"or 3x3 kernel, stride 1 or 2 and one bias per last-axis channel; got "
                f"weights {shape}, stride {self.stride}, bias {self.bias.shape}"
            )

    @property
    def kernel(self) -> int:
        return self.weights.shape[0]


class Conv2dParams(_StageParams):
    """Dense convolution: weights (k, k, d_in, d_out), per-output-channel bias.

    Any normalization is assumed pre-folded: the folded scale lives inside
    the weights, so the bias vector is the only extra per-channel term.
    """

    rank = 4

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[3]


class DepthwiseParams(_StageParams):
    """Depthwise convolution: weights (k, k, c), one filter per channel, no
    channel mixing."""

    rank = 3

    @property
    def channels(self) -> int:
        return self.weights.shape[2]


def same_pad_amounts(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(out_size, pad_begin, pad_end) for SAME padding along one axis."""
    out = -(-size // stride)  # ceil division
    total = max((out - 1) * stride + kernel - size, 0)
    beg = total // 2
    return out, beg, total - beg


def _pad_same(x: np.ndarray, kernel: int, stride: int):
    b, h, w, c = x.shape
    oh, pt, pb = same_pad_amounts(h, kernel, stride)
    ow, pl, pr = same_pad_amounts(w, kernel, stride)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    return x, oh, ow


def conv2d(x: np.ndarray, p: Conv2dParams, *, activation: str = "none") -> np.ndarray:
    """Cross-correlation with SAME padding; output (b, ceil(h/s), ceil(w/s), d_out)."""
    assert_activation(x, "conv2d input")
    b, h, w, c = x.shape
    if c != p.in_channels:
        raise ChannelMismatchError(
            f"conv2d expects {p.in_channels} input channels, got {c}"
        )
    k, s = p.kernel, p.stride
    if k == 1:
        view = np.ascontiguousarray(x[:, ::s, ::s, :])  # a strided operand changes the bytes
        oh, ow = view.shape[1:3]
        out = view.reshape(-1, c) @ p.weights.reshape(c, p.out_channels)
    else:
        xp, oh, ow = _pad_same(x, k, s)  # k=3 always pads: xp is C-contiguous
        # im2col: window (oy, ox) row ky is one contiguous run of k*c floats.
        # The copy is explicit: a reshape may return an overlapping view.
        sb, sy, sx, _ = xp.strides
        win = np.lib.stride_tricks.as_strided(
            xp, (b, oh, ow, k, k * c), (sb, s * sy, s * sx, sy, xp.itemsize))
        cols = np.ascontiguousarray(win).reshape(-1, k * k * c)
        out = cols @ p.weights.reshape(k * k * c, p.out_channels)
    if p.bias.any():
        out += p.bias
    if activation == "relu6":
        _clip(out, 0.0, 6.0, out=out)
    return out.reshape(b, oh, ow, p.out_channels)


def depthwise_conv(x: np.ndarray, p: DepthwiseParams, *, activation: str = "none") -> np.ndarray:
    """Per-channel spatial filter; output channel c depends only on input channel c."""
    assert_activation(x, "depthwise input")
    b, h, w, c = x.shape
    if c != p.channels:
        raise ChannelMismatchError(
            f"depthwise_conv expects {p.channels} channels, got {c}"
        )
    k, s = p.kernel, p.stride
    oh, pt, pb = same_pad_amounts(h, k, s)
    ow, pl, _ = same_pad_amounts(w, k, s)
    # One channel gets a zero second channel: see the module docstring.
    cw = max(c, 2)
    plane = np.zeros((b, h + pt + pb, ow * s + k - 1, cw), dtype=np.float32)
    plane[:, pt : pt + h, pl : pl + w, :c] = x
    # Window (ky, kx, image, output row, run element): tap (ky, kx) of
    # output row y is padded row y*s + ky shifted kx pixels, over a run of
    # ow*s stride-1 pixels of which every s-th is an output pixel.
    run = ow * s * cw
    sb, sy, sx, e = plane.strides
    win = np.ndarray((k, k, b, oh, run), np.float32, plane, 0, (sy, sx, sb, s * sy, e))
    weights = p.weights if c > 1 else np.concatenate((p.weights, np.zeros_like(p.weights)), 2)
    taps = weights.reshape(k, k, 1, cw).repeat(ow * s, axis=2).reshape(k, k, run)
    acc = np.einsum("ijbyn,ijn->byn", win, taps)
    del plane, win  # scratch goes before the output
    out = np.empty((b, oh, ow, c), dtype=np.float32)
    bias = p.bias.reshape(1, c).repeat(ow, axis=0)
    np.add(acc.reshape(b, oh, ow, s * cw)[..., :c], bias, out=out)
    if activation == "relu6":
        _clip(out, 0.0, 6.0, out=out)
    return out


def relu6(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise min(max(x, 0), 6), the low-precision-friendly clamp.

    The reference definition, which the convolution kernels fuse.  Pure by
    default; ``out=x`` clamps in place.  max-then-min, not ``np.clip``: the
    bytes differ on -0.0.
    """
    y = np.maximum(x, np.float32(0.0), out=out)
    return np.minimum(y, np.float32(6.0), out=y)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Mean over the full spatial extent, accumulated in float64; (b, 1, 1, c)."""
    assert_activation(x, "avgpool input")
    b, h, w, c = x.shape
    acc = x.astype(np.float64).sum(axis=(1, 2), keepdims=True)
    return (acc / float(h * w)).astype(np.float32)


def add_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum of two same-shape tensors (shortcut join)."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"residual add shape mismatch: {a.shape} vs {b.shape}")
    return a + b
