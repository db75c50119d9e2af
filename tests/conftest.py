"""Shared test helpers: naive reference oracles and graph utilities.

The convolution oracles are deliberately dumb direct summations (python
loops, float64 accumulators) so they share nothing with the production
im2col/slice implementations they check.

Comparison data note: oracle-equivalence tests draw inputs and weights
from positive uniform ranges.  Sums of positive terms cannot cancel, so
every output stays well away from zero and the max-relative-difference
metric is meaningful; with sign-symmetric data the metric explodes on
near-zero outputs regardless of implementation quality.
"""

from __future__ import annotations

import numpy as np
import pytest

from bottlenet.kernels import Conv2dParams, DepthwiseParams, same_pad_amounts
from bottlenet.memplan import ComputeGraph
from bottlenet.tensor import Rng


def naive_conv2d(x: np.ndarray, p: Conv2dParams) -> np.ndarray:
    """Six-loop direct cross-correlation with SAME zero padding."""
    b, h, w, cin = x.shape
    k, s = p.kernel, p.stride
    oh, pt, _ = same_pad_amounts(h, k, s)
    ow, pl, _ = same_pad_amounts(w, k, s)
    out = np.zeros((b, oh, ow, p.out_channels), dtype=np.float64)
    for bi in range(b):
        for oy in range(oh):
            for ox in range(ow):
                for co in range(p.out_channels):
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy * s - pt + ky
                            ix = ox * s - pl + kx
                            if 0 <= iy < h and 0 <= ix < w:
                                for ci in range(cin):
                                    acc += float(x[bi, iy, ix, ci]) * float(
                                        p.weights[ky, kx, ci, co]
                                    )
                    out[bi, oy, ox, co] = acc + float(p.bias[co])
    return out.astype(np.float32)


def naive_depthwise(x: np.ndarray, p: DepthwiseParams) -> np.ndarray:
    b, h, w, c = x.shape
    k, s = p.kernel, p.stride
    oh, pt, _ = same_pad_amounts(h, k, s)
    ow, pl, _ = same_pad_amounts(w, k, s)
    out = np.zeros((b, oh, ow, c), dtype=np.float64)
    for bi in range(b):
        for oy in range(oh):
            for ox in range(ow):
                for ci in range(c):
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy * s - pt + ky
                            ix = ox * s - pl + kx
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += float(x[bi, iy, ix, ci]) * float(
                                    p.weights[ky, kx, ci]
                                )
                    out[bi, oy, ox, ci] = acc + float(p.bias[ci])
    return out.astype(np.float32)


def seed_depthwise(x: np.ndarray, p: DepthwiseParams) -> np.ndarray:
    """The original depthwise loop, kept as the byte-exactness reference.

    np.pad, then one strided broadcast multiply per tap added into a zeroed
    float32 output in (ky, kx) order, bias last.  The production kernel
    must reproduce these float32 operations, and so these bytes, exactly.
    """
    b, h, w, c = x.shape
    k, s = p.kernel, p.stride
    oh, pt, pb = same_pad_amounts(h, k, s)
    ow, pl, pr = same_pad_amounts(w, k, s)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = np.zeros((b, oh, ow, c), dtype=np.float32)
    for ky in range(k):
        for kx in range(k):
            tap = xp[:, ky : ky + (oh - 1) * s + 1 : s, kx : kx + (ow - 1) * s + 1 : s, :]
            out += tap * p.weights[ky, kx, :]
    out += p.bias
    return out


def positive_conv(rng: Rng, kernel: int, stride: int, cin: int, cout: int,
                  scale: float = 0.1) -> Conv2dParams:
    return Conv2dParams(
        kernel=kernel, stride=stride, in_channels=cin, out_channels=cout,
        weights=rng.uniform((kernel, kernel, cin, cout), 0.0, scale),
        bias=rng.uniform((cout,), 0.0, scale),
    )


def positive_depthwise(rng: Rng, kernel: int, stride: int, channels: int,
                       scale: float = 0.1) -> DepthwiseParams:
    return DepthwiseParams(
        kernel=kernel, stride=stride, channels=channels,
        weights=rng.uniform((kernel, kernel, channels), 0.0, scale),
        bias=rng.uniform((channels,), 0.0, scale),
    )


def exhaustive_schedules(g: ComputeGraph):
    """Yield every topological order of the graph's ops (names)."""
    n = len(g.ops)
    remaining = [len(p) for p in g.preds]
    succs = [[] for _ in g.ops]
    for i, preds in enumerate(g.preds):
        for p in preds:
            succs[p].append(i)
    order: list[int] = []
    done = [False] * n

    def rec():
        if len(order) == n:
            yield tuple(g.ops[i].name for i in order)
            return
        for i in range(n):
            if done[i] or remaining[i] != 0:
                continue
            done[i] = True
            order.append(i)
            for j in succs[i]:
                remaining[j] -= 1
            yield from rec()
            for j in succs[i]:
                remaining[j] += 1
            order.pop()
            done[i] = False

    yield from rec()


@pytest.fixture(scope="session")
def repo_root():
    import pathlib

    return pathlib.Path(__file__).resolve().parent.parent
