"""Network builder: stem conv, 17 bottleneck blocks in 7 stages, 1x1 head,
global average pool, linear classifier.

The architecture is fixed: the MobileNetV2 stage table, a 32-channel
stem and a 1280-channel head, stated once as module constants that
``layer_walk`` turns into the layer sequence.  Each stage row is
(expansion t, output channels c, repeats n, first stride s); layers 2..n
of a stage use stride 1 with equal input/output widths, so they carry
shortcuts.  A block whose expanded width equals its input width (the
ratio-1 first block) has no expansion conv.  Two knobs trade cost for
accuracy: the input resolution and a width multiplier applied to every
channel count, with the published convention that the head keeps its
full 1280 channels for multipliers below one.  A built layer stores no
widths of its own: each stage's weights hold its kernel and widths in
their shape, and a block reads its widths from its stages.

Channel counts are rounded to the nearest multiple of eight with a floor
of eight, bumped up one step whenever rounding would lose more than 10%
of the requested width.  This matches the released model family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, NamedTuple, Union

import numpy as np

from .blocks import (
    BottleneckParams,
    Tap,
    bottleneck_forward,
    expanded_width,
)
from .errors import InvalidShapeError, ShapeMismatchError
# relu6 is not called here; perfbench/tracing.py patches it by this name.
from .kernels import Conv2dParams, DepthwiseParams, conv2d, global_avgpool, relu6  # noqa: F401
from .tensor import Rng, assert_activation


@dataclass(frozen=True)
class StageSpec:
    expansion: float
    channels: int
    repeats: int
    stride: int


#      t   c    n  s
STAGES = (
    StageSpec(1, 16, 1, 1),
    StageSpec(6, 24, 2, 2),
    StageSpec(6, 32, 3, 2),
    StageSpec(6, 64, 4, 2),
    StageSpec(6, 96, 3, 1),
    StageSpec(6, 160, 3, 2),
    StageSpec(6, 320, 1, 1),
)
STEM_CHANNELS = 32
HEAD_CHANNELS = 1280

MIN_RESOLUTION = 96
MAX_RESOLUTION = 224
MIN_WIDTH_MULTIPLIER = 0.35
MAX_WIDTH_MULTIPLIER = 1.4
# Keeps the classifier's float32 weights under half a gigabyte at width 1.4.
MAX_CLASSES = 2**16


def scale_channels(channels: int, multiplier: float) -> int:
    """Width-multiplied channel count, rounded to a multiple of 8 (floor 8).

    If rounding down would drop below 90% of the requested width, take the
    next multiple up instead.
    """
    if channels < 1 or multiplier <= 0:
        raise InvalidShapeError(
            f"bad channel scale request: {channels} x {multiplier}"
        )
    target = channels * multiplier
    scaled = max(8, int(target + 4) // 8 * 8)
    if scaled < 0.9 * target:
        scaled += 8
    return scaled


@dataclass(frozen=True)
class ModelSpec:
    resolution: int = 224
    width_multiplier: float = 1.0
    classes: int = 1000
    # Not a field: the stage table is fixed, readable from any spec.
    stages: ClassVar[tuple[StageSpec, ...]] = STAGES

    def __post_init__(self):
        if not MIN_RESOLUTION <= self.resolution <= MAX_RESOLUTION:
            raise InvalidShapeError(
                f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
                f"got {self.resolution}"
            )
        if self.resolution % 32 != 0:
            raise InvalidShapeError(
                f"resolution must be a multiple of 32, got {self.resolution}"
            )
        if not MIN_WIDTH_MULTIPLIER <= self.width_multiplier <= MAX_WIDTH_MULTIPLIER:
            raise InvalidShapeError(
                f"width multiplier must be in [{MIN_WIDTH_MULTIPLIER}, "
                f"{MAX_WIDTH_MULTIPLIER}], got {self.width_multiplier}"
            )
        if not 1 <= self.classes <= MAX_CLASSES:
            raise InvalidShapeError(f"classes must be in [1, {MAX_CLASSES}], got {self.classes}")

    @property
    def scaled_stem_channels(self) -> int:
        return scale_channels(STEM_CHANNELS, self.width_multiplier)

    @property
    def scaled_head_channels(self) -> int:
        # The very last conv layer is exempt from multipliers below one.
        if self.width_multiplier < 1.0:
            return HEAD_CHANNELS
        return scale_channels(HEAD_CHANNELS, self.width_multiplier)


@dataclass
class ConvLayer:
    name: str
    params: Conv2dParams
    activation: str  # "relu6" or "none"


@dataclass
class BottleneckLayer:
    name: str
    params: BottleneckParams


@dataclass
class PoolLayer:
    name: str


Layer = Union[ConvLayer, BottleneckLayer, PoolLayer]

# Optional override for how a bottleneck layer is executed (e.g. the
# channel-split path); signature (input, params) -> output.
BlockRunner = Callable[[np.ndarray, BottleneckParams], np.ndarray]


@dataclass
class Model:
    spec: ModelSpec
    layers: list[Layer] = field(default_factory=list)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.spec.resolution, self.spec.resolution, 3)

    def bottleneck_layers(self) -> list[BottleneckLayer]:
        return [l for l in self.layers if isinstance(l, BottleneckLayer)]

    def forward(
        self,
        x: np.ndarray,
        tap: Tap | None = None,
        block_runner: BlockRunner | None = None,
    ) -> np.ndarray:
        """Logits of shape (b, 1, 1, classes)."""
        assert_activation(x, "model input")
        if x.shape[1:] != self.input_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape[1:]} does not match model input {self.input_shape}"
            )
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                x = conv2d(x, layer.params, activation=layer.activation)
                if tap is not None and layer.activation == "relu6":
                    tap(layer.name, x)
            elif isinstance(layer, BottleneckLayer):
                if block_runner is not None:
                    x = block_runner(x, layer.params)
                else:
                    scoped = None
                    if tap is not None:
                        scoped = lambda stage, t, _n=layer.name: tap(f"{_n}.{stage}", t)
                    x = bottleneck_forward(x, layer.params, tap=scoped)
            else:
                x = global_avgpool(x)
        return x

    def parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        """All parameter arrays in schema order."""
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                yield f"{layer.name}.weight", layer.params.weights
                yield f"{layer.name}.bias", layer.params.bias
            elif isinstance(layer, BottleneckLayer):
                p = layer.params
                if p.expand is not None:
                    yield f"{layer.name}.expand.weight", p.expand.weights
                    yield f"{layer.name}.expand.bias", p.expand.bias
                yield f"{layer.name}.depthwise.weight", p.depthwise.weights
                yield f"{layer.name}.depthwise.bias", p.depthwise.bias
                yield f"{layer.name}.project.weight", p.project.weights
                yield f"{layer.name}.project.bias", p.project.bias

    def parameter_schema(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, tuple(arr.shape)) for name, arr in self.parameters()]

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter array in place; keys must cover the schema."""
        for name, arr in self.parameters():
            arr[...] = values[name]

    def randomize(self, rng: Rng) -> "Model":
        """Standard fresh-start state: fan-in-scaled Gaussian weights and
        small sign-symmetric uniform biases (the usual framework default;
        exactly-zero biases would make dead depthwise patches land on 0.0
        and skew sign statistics)."""
        fan_ins: dict[str, int] = {}
        for name, arr in self.parameters():
            if name.endswith(".weight"):
                fan = int(np.prod(arr.shape[:-1]))
                fan_ins[name.removesuffix(".weight")] = fan
                arr[...] = rng.normal(arr.shape, stddev=np.sqrt(2.0 / fan))
        for name, arr in self.parameters():
            if name.endswith(".bias"):
                bound = 1.0 / np.sqrt(fan_ins[name.removesuffix(".bias")])
                arr[...] = rng.uniform(arr.shape, -bound, bound)
        return self


def _zero_stage(cls, stride: int, shape: tuple[int, ...]):
    """A ``Conv2dParams`` or ``DepthwiseParams`` with zero weights of ``shape``."""
    return cls(stride, np.zeros(shape, np.float32), np.zeros(shape[-1], np.float32))


def make_bottleneck(
    in_channels: int,
    out_channels: int,
    expansion: float,
    stride: int,
) -> BottleneckParams:
    """Zero-initialized block parameters with the standard stage layout; no
    expansion conv when the expanded width equals the input width."""
    inner = expanded_width(in_channels, expansion)
    return BottleneckParams(
        expand=None if inner == in_channels else _zero_stage(
            Conv2dParams, 1, (1, 1, in_channels, inner)),
        depthwise=_zero_stage(DepthwiseParams, stride, (3, 3, inner)),
        project=_zero_stage(Conv2dParams, 1, (1, 1, inner, out_channels)),
    )


class LayerRecord(NamedTuple):
    """One layer as shapes and widths only; no parameter arrays."""

    name: str
    kind: str  # "conv", "block" or "pool"
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    kernel: int
    stride: int
    in_channels: int
    out_channels: int
    expansion: float
    inner: int  # expanded width of a block, else out_channels
    expand: bool  # a block has a 1x1 expansion conv
    activation: str  # "relu6" or "none"; blocks end linear


def layer_walk(spec: ModelSpec) -> Iterator[LayerRecord]:
    """The layer sequence of ``spec`` in execution order, without weights."""
    res, cur = spec.resolution, 3

    def layer(name, kind, kernel, stride, cout, expansion=1, activation="relu6"):
        nonlocal res, cur
        inner = expanded_width(cur, expansion) if kind == "block" else cout
        expand = kind == "block" and inner != cur
        out = -(-res // stride)
        record = LayerRecord(name, kind, (res, res, cur), (out, out, cout), kernel,
                             stride, cur, cout, expansion, inner, expand, activation)
        res, cur = out, cout
        return record

    yield layer("stem", "conv", 3, 2, spec.scaled_stem_channels)
    index = 0
    for stage in STAGES:
        cout = scale_channels(stage.channels, spec.width_multiplier)
        for rep in range(stage.repeats):
            index += 1
            stride = stage.stride if rep == 0 else 1
            yield layer(f"block{index:02d}", "block", 3, stride, cout, stage.expansion, "none")
    head = spec.scaled_head_channels
    yield layer("head", "conv", 1, 1, head)
    # Global average pooling: one window over the whole map.
    yield layer("avgpool", "pool", res, res, head, activation="none")
    yield layer("classifier", "conv", 1, 1, spec.classes, activation="none")


def build_model(spec: ModelSpec) -> Model:
    """Materialize the layer sequence (zero weights) for ``spec``."""
    model = Model(spec=spec)
    for r in layer_walk(spec):
        if r.kind == "conv":
            shape = (r.kernel, r.kernel, r.in_channels, r.out_channels)
            params = _zero_stage(Conv2dParams, r.stride, shape)
            model.layers.append(ConvLayer(r.name, params, r.activation))
        elif r.kind == "block":
            params = make_bottleneck(r.in_channels, r.out_channels, r.expansion, r.stride)
            model.layers.append(BottleneckLayer(r.name, params))
        else:
            model.layers.append(PoolLayer(r.name))
    return model
