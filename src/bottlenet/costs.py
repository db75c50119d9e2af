"""Exact multiply-add and parameter accounting.

Conventions: one multiply-accumulate is one MAdd; bias additions,
pooling, activations and shortcut adds are free.  Parameter counts are
what the inference engine actually stores: folded weights plus one bias
per output channel (the ``bias_params`` column separates the bias share
so weight-only totals can be read off).  All counts are per image
(batch 1) and exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import LayerRecord, ModelSpec, layer_walk


def _out_hw(h: int, w: int, stride: int) -> tuple[int, int]:
    return -(-h // stride), -(-w // stride)


def madds_standard_conv(h: int, w: int, d_in: int, d_out: int, kernel: int, stride: int = 1) -> int:
    """Dense conv cost: out_h * out_w * d_in * d_out * k^2."""
    oh, ow = _out_hw(h, w, stride)
    return oh * ow * d_in * d_out * kernel * kernel


def madds_depthwise(h: int, w: int, channels: int, kernel: int, stride: int = 1) -> int:
    oh, ow = _out_hw(h, w, stride)
    return oh * ow * channels * kernel * kernel


def madds_depthwise_separable(
    h: int, w: int, d_in: int, d_out: int, kernel: int, stride: int = 1
) -> int:
    """Factorized conv cost: out_h * out_w * d_in * (k^2 + d_out).

    Sum of the depthwise stage and the 1x1 pointwise stage; cheaper than a
    dense conv by a factor k^2 * d_out / (k^2 + d_out).
    """
    oh, ow = _out_hw(h, w, stride)
    return oh * ow * d_in * (kernel * kernel + d_out)


def separable_speedup(d_out: int, kernel: int = 3) -> float:
    """How many times cheaper the factorized form is, for one output width."""
    k2 = kernel * kernel
    return k2 * d_out / (k2 + d_out)


@dataclass
class CostRow:
    name: str
    out_shape: tuple[int, int, int]
    madds: int
    params: int
    bias_params: int


@dataclass
class CostReport:
    resolution: int
    width_multiplier: float
    rows: list[CostRow]

    @property
    def total_madds(self) -> int:
        return sum(r.madds for r in self.rows)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_bias_params(self) -> int:
        return sum(r.bias_params for r in self.rows)


def _cost_row(r: LayerRecord) -> CostRow:
    """MAdds and stored parameters of one layer, from its shapes alone."""
    h, w = r.in_shape[:2]
    oh, ow = r.out_shape[:2]
    k2 = r.kernel * r.kernel
    if r.kind == "conv":
        madds = madds_standard_conv(h, w, r.in_channels, r.out_channels, r.kernel, r.stride)
        return CostRow(r.name, r.out_shape, madds,
                       k2 * r.in_channels * r.out_channels + r.out_channels,
                       r.out_channels)
    if r.kind == "pool":
        return CostRow(r.name, r.out_shape, 0, 0, 0)
    inner = r.inner
    # Depthwise plus projection, then the expansion conv when the block has one.
    madds = oh * ow * (k2 * inner + inner * r.out_channels)
    params = k2 * inner + inner + inner * r.out_channels + r.out_channels
    bias = inner + r.out_channels
    if r.expand:
        madds += h * w * r.in_channels * inner
        params += r.in_channels * inner + inner
        bias += inner
    return CostRow(r.name, r.out_shape, madds, params, bias)


def model_cost(spec: ModelSpec) -> CostReport:
    """Per-layer table plus totals for the network ``spec`` describes."""
    rows = [_cost_row(r) for r in layer_walk(spec)]
    return CostReport(spec.resolution, spec.width_multiplier, rows)

