"""Primitive operators: convolutions, activations, pooling, residual add.

All operators are pure functions over (b, h, w, c) float32 tensors and are
deterministic: every result is a fixed sequence of float32 numpy ufunc
passes, one plain (unoptimized) ``einsum`` or one matmul per call (per
image into a plane), so repeated evaluation on identical inputs is
bit-identical.

A convolution stage is its stride, weights and bias; its kernel size and
channel widths are read from the weights' shape.

Depthwise convolution sums all k*k taps with one plain ``einsum`` over a
window view of a zero-padded input plane; numpy zero-fills the output and
adds each tap's product in (ky, kx) order, as a tap loop does.  The
window's inner axis is a run of ow*s stride-1 pixels, every s-th an output
pixel; a stride-2 call of at least ``WIDE_STRIDE2`` channels steps over
output pixels only (on fewer, that inner loop is too short to pay).  The
input is copied into a plane with padding rows and columns, unless it is
the interior of a ``depthwise_plane``, which only this module allocates:
``conv2d(..., feeds=stage)`` writes its output there when the size rule
gives the depthwise stage it feeds a plane.  That plane has zero rows
above and below each image and no padding columns, so each image is one
block, with pl*c zeros before the first and (pr+s-1)*c after the last.
A window row there reads on across the row's end, and the taps
that would read a padding column are zeroed instead.  On finite input the
bytes stay the tap loop's: a zeroed tap or a padding zero adds a signed
zero to an accumulator that starts at +0.0 and so is never -0.0.  Only a
call of at least ``PLANE_FLOATS`` floats and two channels gets a plane:
on smaller ones its extra numpy calls cost more than the copy saves.
A one-channel input gets a zero second channel: at one channel a pixel
step equals an element step, and einsum then sums a row's kx taps in a
register first, which changes the bytes.
The 3x3 dense convolution (the stem) builds its im2col columns with one
copy of a strided window view over the padded input, in (ky, kx, c) order.
Both convolutions finish their own output in place: the bias add (which
``conv2d`` skips for an all-zero bias), then, with ``activation="relu6"``,
one pass of the ``clip`` ufunc, bound at import (``np.clip``'s wrapper
costs microseconds).  It equals ``relu6``'s max-then-min except on -0.0,
which never reaches it: matmul and einsum sums start at +0.0, +0.0 + -0.0
is +0.0, and adding a bias to a value that is not -0.0 never gives -0.0.

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

# Size rule and window choice, read from a call's shape: see the module docstring.
PLANE_FLOATS = 1 << 17
WIDE_STRIDE2 = 96


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


def _check_activation(activation: str) -> None:
    if activation not in ("none", "relu6"):
        raise ValueError(f"activation must be 'none' or 'relu6', got {activation!r}")


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


def conv2d(x: np.ndarray, p: Conv2dParams, *, activation: str = "none",
           feeds: DepthwiseParams | None = None) -> np.ndarray:
    """Cross-correlation with SAME padding; output (b, ceil(h/s), ceil(w/s), d_out).
    ``feeds`` is the depthwise stage that reads the output: when the size
    rule gives that stage a ``depthwise_plane``, the output is its interior,
    written by one matmul per image."""
    _check_activation(activation)
    assert_activation(x, "conv2d input")
    b, h, w, c = x.shape
    if c != p.in_channels:
        raise ChannelMismatchError(
            f"conv2d expects {p.in_channels} input channels, got {c}"
        )
    k, s, d = p.kernel, p.stride, p.out_channels
    if k == 1:
        rows = np.ascontiguousarray(x[:, ::s, ::s, :])  # a strided operand changes the bytes
        oh, ow = rows.shape[1:3]
    else:
        xp, oh, ow = _pad_same(x, k, s)  # k=3 always pads: xp is C-contiguous
        # im2col: window (oy, ox) row ky is one contiguous run of k*c floats.
        # The copy is explicit: a reshape may return an overlapping view.
        sb, sy, sx, _ = xp.strides
        win = np.lib.stride_tricks.as_strided(
            xp, (b, oh, ow, k, k * c), (sb, s * sy, s * sx, sy, xp.itemsize))
        rows = np.ascontiguousarray(win)
    weights = p.weights.reshape(k * k * c, d)
    out = None if feeds is None else depthwise_plane((b, oh, ow, d), feeds.kernel, feeds.stride)
    if out is None:
        out = (rows.reshape(-1, k * k * c) @ weights).reshape(b, oh, ow, d)
    else:
        np.matmul(rows.reshape(b, oh * ow, k * k * c), weights, out=out.reshape(b, oh * ow, d))
    if p.bias.any():
        out += p.bias
    if activation == "relu6":
        _clip(out, 0.0, 6.0, out=out)
    return out


def _plane_layout(b: int, h: int, w: int, c: int, k: int, s: int):
    """(floats, interior offset in bytes, interior strides) of an in-place plane."""
    _, pt, pb = same_pad_amounts(h, k, s)
    _, pl, pr = same_pad_amounts(w, k, s)
    image = (h + pt + pb) * w * c
    return (pl * c + b * image + (pr + s - 1) * c, 4 * (pl * c + pt * w * c),
            (4 * image, 4 * w * c, 4 * c, 4))


def depthwise_plane(shape: tuple[int, int, int, int], kernel: int, stride: int):
    """The (b, h, w, c) interior of an input plane, zero outside it, that a
    producer writes whole (``conv2d(feeds=...)``) and ``depthwise_conv`` reads
    in place; None for a call under ``PLANE_FLOATS`` floats or of one channel."""
    b, h, w, c = shape
    if c < 2 or b * h * w * c < PLANE_FLOATS:
        return None
    size, offset, strides = _plane_layout(b, h, w, c, kernel, stride)
    buf = np.empty(size, np.float32)
    # Zero all but the interiors: before the first, between two, after the last.
    start, step, n = offset // 4, strides[0] // 4, h * w * c
    buf[:start] = buf[start + (b - 1) * step + n :] = 0
    np.ndarray((b - 1, step - n), np.float32, buf, 4 * (start + n), (4 * step, 4))[...] = 0
    return np.ndarray(shape, np.float32, buf, offset, strides)


def depthwise_conv(x: np.ndarray, p: DepthwiseParams, *, activation: str = "none") -> np.ndarray:
    """Per-channel spatial filter; output channel c depends only on input channel c."""
    _check_activation(activation)
    assert_activation(x, "depthwise input")
    b, h, w, c = x.shape
    if c != p.channels:
        raise ChannelMismatchError(
            f"depthwise_conv expects {p.channels} channels, got {c}"
        )
    k, s = p.kernel, p.stride
    oh, pt, pb = same_pad_amounts(h, k, s)
    ow, pl, _ = same_pad_amounts(w, k, s)
    buf = x.base
    if c > 1 and buf is not None and buf.ndim == 1 and _plane_layout(b, h, w, c, k, s) == (
            buf.size, x.ctypes.data - buf.ctypes.data, x.strides):
        cw, cols = c, w  # x is a depthwise_plane interior: read in place
    else:  # one channel gets a zero second channel: see the module docstring
        cw, cols = max(c, 2), ow * s + k - 1
        buf = np.zeros((b, h + pt + pb, cols, cw), dtype=np.float32)
        buf[:, pt : pt + h, pl : pl + w, :c] = x
    # Window (ky, kx, image, output row, step, span): tap (ky, kx) of output
    # row y reads plane row y*s + ky from column kx - pl on.  A wide stride-2
    # call steps over output pixels, each a span of cw channels; the rest
    # take one step over a run of ow*s stride-1 pixels.
    q = s if s == 2 and c >= WIDE_STRIDE2 else 1
    npix = ow * s // q
    steps, span = (ow, cw) if q == 2 else (1, npix * cw)
    row = cols * cw * 4
    win = np.ndarray((k, k, b, oh, steps, span), np.float32, buf, 0,
                     (row, cw * 4, (h + pt + pb) * row, s * row, q * cw * 4, 4))
    weights = p.weights if c > 1 else np.concatenate((p.weights, np.zeros_like(p.weights)), 2)
    taps = weights[:, :, None, :].repeat(npix, axis=2)
    if cols == w:  # no padding columns: a tap that would read one is zero
        col = np.arange(k)[:, None] + q * np.arange(npix) - pl  # read by (kx, pixel)
        taps[:, (col < 0) | (col >= w)] = 0
    taps = taps.reshape(k, k, steps, span)
    bias = p.bias.reshape(1, c).repeat(ow, axis=0)
    if q == s and cw == c:
        out = np.empty((b, oh, ow, c), dtype=np.float32)
        np.einsum("ijbyxc,ijxc->byxc", win, taps, out=out.reshape(b, oh, steps, span))
        out += bias
    else:  # every s-th pixel of the run is an output pixel
        acc = np.einsum("ijbyxc,ijxc->byxc", win, taps)
        del buf, win  # scratch goes before the output
        out = np.add(acc.reshape(b, oh, ow, s * cw)[..., :c], bias)
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
