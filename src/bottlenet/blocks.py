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

A block owns its execution plan: ``bottleneck_forward`` runs every block
as a ``CascadePlan``, the paper's t: its expanded channels split into t
groups of channels // t (the last takes the remainder), one group at a
time.  The default plan is t = 1; a split plan is the memory-efficient
execution whose working set ``memplan`` bounds.
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


@dataclass(frozen=True)
class CascadePlan:
    """The paper's t: a block's expanded channels run as ``split`` groups of
    channels // split, the last group taking the remainder."""

    channels: int
    split: int = 1

    def __post_init__(self):
        if not (type(self.channels) is type(self.split) is int
                and 1 <= self.split <= self.channels):
            raise InvalidShapeError(f"need int channels and split in [1, channels], got {self}")

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        starts = [i * (self.channels // self.split) for i in range(self.split)]
        return tuple(zip(starts, [*starts[1:], self.channels]))

    @property
    def max_group(self) -> int:
        return self.channels - (self.split - 1) * (self.channels // self.split)

    @classmethod
    def from_split(cls, channels: int, split: int) -> "CascadePlan":
        """A ``split``-way plan, at most one group per channel."""
        return cls(channels, min(split, channels))


def _group_forward(x, p: BottleneckParams, start: int, stop: int, tap):
    """Projection of expanded channels start..stop, without its bias: expand
    and depthwise, each ending in ReLU6, then project, all over views of the
    block's weights.  Without an expansion conv the group reads its own input
    channels.  The expansion names the depthwise stage it feeds, so a large
    one writes straight into that stage's input plane."""
    depthwise = DepthwiseParams(p.stride, p.depthwise.weights[..., start:stop],
                                p.depthwise.bias[start:stop])
    if p.expand is None:
        inner = x[..., start:stop]
    else:
        expand = Conv2dParams(1, p.expand.weights[..., start:stop], p.expand.bias[start:stop])
        inner = conv2d(x, expand, activation="relu6", feeds=depthwise)
        if tap is not None:
            tap("expand", inner)
    inner = depthwise_conv(inner, depthwise, activation="relu6")
    if tap is not None:
        tap("depthwise", inner)
    project = Conv2dParams(1, p.project.weights[:, :, start:stop],
                           np.zeros(p.out_channels, dtype=np.float32))
    return conv2d(inner, project)


def bottleneck_forward(
    x: np.ndarray,
    p: BottleneckParams,
    tap: Tap | None = None,
    plan: CascadePlan | None = None,
) -> np.ndarray:
    """Run one block as the channel groups of ``plan``; output shape
    (b, ceil(h/s), ceil(w/s), out_channels).

    The default plan is one group of all the expanded channels, and a plan
    must end at the block's expanded width.  The inner stages act per
    channel, so the block equals the sum over groups of each group's
    projection, at the same MAdds, and only one group-sized inner tensor is
    alive at a time.  The first group's projection starts the float32 sum
    and the later ones are added in group order; the projection bias is
    added once after the sum, then the shortcut.  ``tap`` fires once per group.
    """
    assert_activation(x, "bottleneck input")
    if x.shape[3] != p.in_channels:
        raise ChannelMismatchError(
            f"block expects {p.in_channels} input channels, got {x.shape[3]}"
        )
    if plan is None:
        plan = CascadePlan(p.expanded_channels)
    elif plan.channels != p.expanded_channels:
        raise InvalidShapeError(
            f"plan covers {plan.channels} channels, block has {p.expanded_channels}"
        )
    groups = iter(plan.groups)
    out = _group_forward(x, p, *next(groups), tap)
    for start, stop in groups:
        # The projection is a temporary: it is freed before the next group.
        out += _group_forward(x, p, start, stop, tap)
    out += p.project.bias
    if p.use_shortcut:
        out += x
    return out
