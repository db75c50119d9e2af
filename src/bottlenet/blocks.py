"""The inverted-residual bottleneck block.

Structure: 1x1 expansion conv + ReLU6, 3x3 depthwise (stride s) + ReLU6,
then a linear 1x1 projection back down to the output width.  No activation
ever follows the projection; the thin tensors at the block boundary stay
linear.  The shortcut exists exactly when stride == 1 and the input and
output widths match, and it connects those thin tensors.

The three stage parameters hold every width and the stride; the block
reads them from there.  A block without an expansion conv
(``expand=None``) runs the depthwise stage on its input directly; the
builder omits it exactly when the expanded width equals the input width,
which is the ratio-1 first block of the network.

``bottleneck_forward`` also runs a block one group of expanded channels
at a time, the memory-efficient execution that ``memplan`` plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChannelMismatchError, InvalidShapeError
# add_residual and relu6 are not called here; perfbench/tracing.py patches them.
from .kernels import (  # noqa: F401
    Conv2dParams,
    DepthwiseParams,
    add_residual,
    conv2d,
    depthwise_conv,
    depthwise_plane,
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
    expand: Optional[Conv2dParams]
    depthwise: DepthwiseParams
    project: Conv2dParams

    def __post_init__(self):
        inner = self.depthwise.channels
        if self.expand is not None:
            if self.expand.kernel != 1 or self.expand.stride != 1:
                raise InvalidShapeError("expansion stage must be a 1x1 stride-1 conv")
            if self.expand.out_channels != inner:
                raise InvalidShapeError(
                    f"expansion stage outputs {self.expand.out_channels} channels, "
                    f"depthwise stage has {inner}"
                )
        if self.project.kernel != 1 or self.project.stride != 1:
            raise InvalidShapeError("projection stage must be a 1x1 stride-1 conv")
        if self.project.in_channels != inner:
            raise InvalidShapeError(
                f"projection stage takes {self.project.in_channels} channels, "
                f"depthwise stage has {inner}"
            )

    @property
    def in_channels(self) -> int:
        return self.depthwise.channels if self.expand is None else self.expand.in_channels

    @property
    def out_channels(self) -> int:
        return self.project.out_channels

    @property
    def stride(self) -> int:
        return self.depthwise.stride

    @property
    def expanded_channels(self) -> int:
        return self.depthwise.channels

    @property
    def use_shortcut(self) -> bool:
        # Never across a stride, never across a width change.
        return self.stride == 1 and self.in_channels == self.out_channels


def _group_stages(p: BottleneckParams, start: int, stop: int):
    """(expand, depthwise, project) of expanded channels start..stop, as
    views of the block's weights.  The projection bias is zero: the block
    adds its own bias once, after the group sum."""
    expand = None
    if p.expand is not None:
        expand = Conv2dParams(1, p.expand.weights[..., start:stop], p.expand.bias[start:stop])
    depthwise = DepthwiseParams(p.stride, p.depthwise.weights[..., start:stop],
                                p.depthwise.bias[start:stop])
    project = Conv2dParams(1, p.project.weights[:, :, start:stop],
                           np.zeros(p.out_channels, dtype=np.float32))
    return expand, depthwise, project


def _group_forward(x, expand, depthwise, project, tap):
    """Projection of one group: expand and depthwise, each ending in ReLU6,
    then project.  Without an expansion conv ``x`` is the group's own channels.
    A large expansion writes straight into the depthwise input plane."""
    inner = x
    if expand is not None:
        plane = depthwise_plane((*x.shape[:3], expand.out_channels),
                                depthwise.kernel, depthwise.stride)
        inner = conv2d(x, expand, activation="relu6", out=plane)
        if tap is not None:
            tap("expand", inner)
    inner = depthwise_conv(inner, depthwise, activation="relu6")
    if tap is not None:
        tap("depthwise", inner)
    return conv2d(inner, project)


def bottleneck_forward(
    x: np.ndarray,
    p: BottleneckParams,
    tap: Tap | None = None,
    groups: tuple[tuple[int, int], ...] | None = None,
) -> np.ndarray:
    """Run one block; output shape (b, ceil(h/s), ceil(w/s), out_channels).

    ``groups`` is a contiguous partition of the expanded channels into
    ``(start, stop)`` ranges; the default is one range over all of them.
    The inner stages act per channel, so the block equals the sum over
    groups of each group's projection, and only one group-sized inner
    tensor is alive at a time.  One group runs the block's own stage
    parameters, so its projection adds the bias itself; several sum their
    projections in group order in float32 and add the projection bias once
    after the sum.  The shortcut joins last.  ``tap`` fires once per group.
    """
    assert_activation(x, "bottleneck input")
    if x.shape[3] != p.in_channels:
        raise ChannelMismatchError(
            f"block expects {p.in_channels} input channels, got {x.shape[3]}"
        )
    if groups is None or len(groups) == 1:
        out = _group_forward(x, p.expand, p.depthwise, p.project, tap)
    else:
        b, h, w, _ = x.shape
        s = p.stride
        out = np.zeros((b, -(-h // s), -(-w // s), p.out_channels), dtype=np.float32)
        for start, stop in groups:
            expand, depthwise, project = _group_stages(p, start, stop)
            group_x = x if expand is not None else x[:, :, :, start:stop]
            # The projection is a temporary: it is freed before the next group.
            out += _group_forward(group_x, expand, depthwise, project, tap)
        out += p.project.bias
    if p.use_shortcut:
        out += x
    return out
