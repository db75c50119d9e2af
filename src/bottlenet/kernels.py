"""Primitive operators: convolutions, activations, pooling, residual add.

All operators are pure functions over (b, h, w, c) float32 tensors and are
deterministic: every result is a fixed sequence of float32 numpy ufunc
passes or a single matmul, so repeated evaluation on identical inputs is
bit-identical.

Depthwise convolution copies its input once into zero-extended
stride-phase planes: plane (py, px) holds padded rows py, py+s, ... and
columns px, px+s, ..., so every kernel tap reads one contiguous slice of
one flattened plane.  Each slice is multiplied by the tap's weights tiled
across the plane width into a reused scratch buffer and added in place,
so the inner loops run over whole rows however few channels there are.
The taps run one band of output rows at a time, the band sized so its
accumulator slice and product buffer stay in L2 cache across all k*k
taps; every output element sees the same operations in the same order.
The extra columns this computes are dropped when the bias is added.
The 3x3 dense convolution (the stem) builds its im2col columns with one
copy of a strided window view over the padded input, in (ky, kx, c) order.
Elementwise epilogues that follow a freshly produced tensor (the bias add
in ``conv2d``, ``relu6(..., out=...)``) write in place.

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

# Depthwise accumulator bytes per band of output rows: 1/8 of a 2 MiB L2.
_BAND_BYTES = 256 * 1024


@dataclass
class Conv2dParams:
    """Dense convolution: weights (k, k, d_in, d_out), per-output-channel bias.

    Any normalization is assumed pre-folded: the folded scale lives inside
    the weights, so the bias vector is the only extra per-channel term.
    """

    kernel: int
    stride: int
    in_channels: int
    out_channels: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise InvalidShapeError(f"conv kernel must be 1 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise InvalidShapeError(f"conv stride must be 1 or 2, got {self.stride}")
        expect = (self.kernel, self.kernel, self.in_channels, self.out_channels)
        if tuple(self.weights.shape) != expect:
            raise InvalidShapeError(
                f"conv weights must have shape {expect}, got {self.weights.shape}"
            )
        if self.bias.shape != (self.out_channels,):
            raise InvalidShapeError(
                f"conv bias must have shape ({self.out_channels},), got {self.bias.shape}"
            )
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)


@dataclass
class DepthwiseParams:
    """Depthwise convolution: one (k, k) filter per channel, no channel mixing."""

    kernel: int
    stride: int
    channels: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise InvalidShapeError(f"depthwise kernel must be 1 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise InvalidShapeError(f"depthwise stride must be 1 or 2, got {self.stride}")
        expect = (self.kernel, self.kernel, self.channels)
        if tuple(self.weights.shape) != expect:
            raise InvalidShapeError(
                f"depthwise weights must have shape {expect}, got {self.weights.shape}"
            )
        if self.bias.shape != (self.channels,):
            raise InvalidShapeError(
                f"depthwise bias must have shape ({self.channels},), got {self.bias.shape}"
            )
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)


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


def conv2d(x: np.ndarray, p: Conv2dParams) -> np.ndarray:
    """Cross-correlation with SAME padding; output (b, ceil(h/s), ceil(w/s), d_out)."""
    assert_activation(x, "conv2d input")
    b, h, w, c = x.shape
    if c != p.in_channels:
        raise ChannelMismatchError(
            f"conv2d expects {p.in_channels} input channels, got {c}"
        )
    k, s = p.kernel, p.stride
    if k == 1:
        view = x[:, ::s, ::s, :]
        oh, ow = view.shape[1], view.shape[2]
        flat = view.reshape(-1, c)
        out = flat @ p.weights.reshape(c, p.out_channels)
    else:
        xp, oh, ow = _pad_same(x, k, s)  # k=3 always pads: xp is C-contiguous
        # im2col: window (oy, ox) row ky is one contiguous run of k*c floats.
        # The copy is explicit: a reshape may return an overlapping view.
        sb, sy, sx, _ = xp.strides
        win = np.lib.stride_tricks.as_strided(
            xp, (b, oh, ow, k, k * c), (sb, s * sy, s * sx, sy, xp.itemsize))
        cols = np.ascontiguousarray(win).reshape(-1, k * k * c)
        out = cols @ p.weights.reshape(k * k * c, p.out_channels)
    out += p.bias
    return out.reshape(b, oh, ow, p.out_channels)


def depthwise_conv(x: np.ndarray, p: DepthwiseParams) -> np.ndarray:
    """Per-channel spatial filter; output channel c depends only on input channel c."""
    assert_activation(x, "depthwise input")
    b, h, w, c = x.shape
    if c != p.channels:
        raise ChannelMismatchError(
            f"depthwise_conv expects {p.channels} channels, got {c}"
        )
    k, s = p.kernel, p.stride
    oh, pt, _ = same_pad_amounts(h, k, s)
    ow, pl, _ = same_pad_amounts(w, k, s)
    # Plane (py, px)[r, j] is padded element (r*s + py, j*s + px).  Tap
    # (ky, kx) reads rows ky//s .. ky//s + oh - 1 and columns kx//s ..
    # kx//s + ow - 1 of plane (ky%s, kx%s); the plane is q = (k-1)//s
    # columns wider than the output, plus one spare row so the flattened
    # slice of the last tap stays in bounds.
    q = (k - 1) // s
    wq = ow + q
    rows = oh + q + 1
    phases = min(s, k)
    planes = np.zeros((phases, phases, b, rows, wq, c), dtype=np.float32)
    for py in range(phases):
        r0, y0 = _phase_start(py - pt, s)
        for px in range(phases):
            j0, x0 = _phase_start(px - pl, s)
            src = x[:, y0::s, x0::s, :][:, : rows - r0, : wq - j0, :]
            planes[py, px, :, r0 : r0 + src.shape[1], j0 : j0 + src.shape[2], :] = src
    flat = planes.reshape(phases, phases, b, rows * wq * c)
    # Output rows in (b, oh, wq*c) layout; columns ow..wq are discarded.
    row = wq * c
    taps = np.empty((k, k, wq, c), dtype=np.float32)
    taps[...] = p.weights.reshape(k, k, 1, c)
    taps = taps.reshape(k, k, row)
    acc = np.zeros((b, oh, row), dtype=np.float32)
    band = max(1, min(oh, _BAND_BYTES // (b * row * acc.itemsize)))
    prod = np.empty((b, band, row), dtype=np.float32)
    for y in range(0, oh, band):
        a = acc[:, y : y + band]
        pr = prod[:, : a.shape[1]]
        for ky in range(k):
            for kx in range(k):
                start = ((ky // s + y) * wq + kx // s) * c
                tap = flat[ky % s, kx % s, :, start : start + a.shape[1] * row]
                np.multiply(tap.reshape(a.shape), taps[ky, kx], out=pr)
                a += pr
    del planes, flat, tap, prod, pr, a  # scratch goes before the output
    out = np.empty((b, oh, ow, c), dtype=np.float32)
    np.add(acc[:, :, : ow * c], np.tile(p.bias, ow), out=out.reshape(b, oh, ow * c))
    return out


def _phase_start(first: int, stride: int) -> tuple[int, int]:
    """(plane index, input index) of the first in-bounds element of a phase
    whose plane index 0 sits at input index ``first`` (negative in the pad)."""
    r = max(-(first // stride), 0)  # ceil(-first / stride), at least 0
    return r, r * stride + first


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0); the unclamped rectifier used by the theory lab."""
    return np.maximum(x, np.float32(0.0))


def relu6(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise min(max(x, 0), 6), the low-precision-friendly clamp.

    Pure by default; ``out=x`` clamps a tensor the caller just produced in
    place.  max-then-min, not ``np.clip``: the bytes differ on -0.0.
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
