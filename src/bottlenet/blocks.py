"""The inverted-residual bottleneck block.

Structure: 1x1 expansion conv + ReLU6, 3x3 depthwise (stride s) + ReLU6,
then a linear 1x1 projection back down to the output width.  No activation
ever follows the projection; the thin tensors at the block boundary stay
linear.  The shortcut exists exactly when stride == 1 and the input and
output widths match, and it connects those thin tensors.

When the expansion ratio is 1 the expansion conv would be a square 1x1
layer; builders may drop it entirely (``expand=None``), which mirrors the
usual released topology for the first block of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChannelMismatchError, InvalidShapeError
from .kernels import (
    Conv2dParams,
    DepthwiseParams,
    add_residual,
    conv2d,
    depthwise_conv,
    relu6,
)
from .tensor import assert_activation

# tap(stage_name, tensor) observation hook; stages: "expand", "depthwise".
Tap = Callable[[str, np.ndarray], None]


def expanded_width(in_channels: int, expansion: float) -> int:
    """Inner width of a block: round(t * k) to the nearest integer."""
    return int(round(expansion * in_channels))


@dataclass
class BottleneckParams:
    in_channels: int
    out_channels: int
    expansion: float
    stride: int
    expand: Optional[Conv2dParams]
    depthwise: DepthwiseParams
    project: Conv2dParams

    def __post_init__(self):
        if self.expansion < 1:
            raise InvalidShapeError(f"expansion must be >= 1, got {self.expansion}")
        if self.stride not in (1, 2):
            raise InvalidShapeError(f"stride must be 1 or 2, got {self.stride}")
        inner = expanded_width(self.in_channels, self.expansion)
        if self.expand is None:
            if inner != self.in_channels:
                raise InvalidShapeError(
                    f"expansion conv may be omitted only when the expanded width "
                    f"({inner}) equals the input width ({self.in_channels})"
                )
        else:
            if self.expand.kernel != 1 or self.expand.stride != 1:
                raise InvalidShapeError("expansion stage must be a 1x1 stride-1 conv")
            if (self.expand.in_channels, self.expand.out_channels) != (self.in_channels, inner):
                raise InvalidShapeError(
                    f"expansion stage maps {self.expand.in_channels}->"
                    f"{self.expand.out_channels}, expected {self.in_channels}->{inner}"
                )
        if self.depthwise.channels != inner:
            raise InvalidShapeError(
                f"depthwise stage has {self.depthwise.channels} channels, expected {inner}"
            )
        if self.depthwise.stride != self.stride:
            raise InvalidShapeError("depthwise stride must equal the block stride")
        if self.project.kernel != 1 or self.project.stride != 1:
            raise InvalidShapeError("projection stage must be a 1x1 stride-1 conv")
        if (self.project.in_channels, self.project.out_channels) != (inner, self.out_channels):
            raise InvalidShapeError(
                f"projection stage maps {self.project.in_channels}->"
                f"{self.project.out_channels}, expected {inner}->{self.out_channels}"
            )

    @property
    def expanded_channels(self) -> int:
        return expanded_width(self.in_channels, self.expansion)

    @property
    def use_shortcut(self) -> bool:
        # Never across a stride, never across a width change.
        return self.stride == 1 and self.in_channels == self.out_channels


def bottleneck_forward(x: np.ndarray, p: BottleneckParams, tap: Tap | None = None) -> np.ndarray:
    """Run one block; output shape (b, ceil(h/s), ceil(w/s), out_channels)."""
    assert_activation(x, "bottleneck input")
    if x.shape[3] != p.in_channels:
        raise ChannelMismatchError(
            f"block expects {p.in_channels} input channels, got {x.shape[3]}"
        )
    inner = x
    if p.expand is not None:
        inner = conv2d(inner, p.expand)
        inner = relu6(inner, out=inner)
        if tap is not None:
            tap("expand", inner)
    inner = depthwise_conv(inner, p.depthwise)
    inner = relu6(inner, out=inner)
    if tap is not None:
        tap("depthwise", inner)
    out = conv2d(inner, p.project)
    if p.use_shortcut:
        out = add_residual(out, x)
    return out


def bottleneck_madds(
    h: int,
    w: int,
    in_channels: int,
    out_channels: int,
    expansion: float = 6,
    kernel: int = 3,
    stride: int = 1,
) -> int:
    """Multiply-adds of the three-stage block.

    At stride 1 this collapses to h*w*k*t*(k + kernel^2 + k'): expansion,
    depthwise and projection all run at the same resolution.  With a
    stride the expansion still runs at the input resolution while the
    depthwise and projection run at ceil(h/s) x ceil(w/s).
    """
    inner = expanded_width(in_channels, expansion)
    oh = -(-h // stride)
    ow = -(-w // stride)
    expand = h * w * in_channels * inner
    dwise = oh * ow * kernel * kernel * inner
    project = oh * ow * inner * out_channels
    return expand + dwise + project
