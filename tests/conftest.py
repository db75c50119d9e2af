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

import contextlib
import struct
import types

import numpy as np
import pytest
from hypothesis import strategies as st

from bottlenet.blocks import BottleneckParams, expanded_width
from bottlenet.errors import ChannelMismatchError, InvalidShapeError
from bottlenet.kernels import (
    Conv2dParams,
    DepthwiseParams,
    add_residual,
    conv2d,
    depthwise_conv,
    relu6,
    same_pad_amounts,
)
from bottlenet.memplan import CascadePlan, ComputeGraph, cascade_peak_bytes
from bottlenet.tensor import Rng, assert_activation


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


def seed_conv2d(x: np.ndarray, p: Conv2dParams) -> np.ndarray:
    """The original k=3 im2col, kept as the byte-exactness reference.

    np.pad, then one strided slice per tap copied into a (b, oh, ow, k*k, c)
    column buffer, one matmul, bias last.  The production kernel must build
    the same columns, and so get these bytes, exactly.
    """
    b, h, w, c = x.shape
    k, s = p.kernel, p.stride
    oh, pt, pb = same_pad_amounts(h, k, s)
    ow, pl, pr = same_pad_amounts(w, k, s)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    cols = np.empty((b, oh, ow, k * k, c), dtype=np.float32)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, :, ky * k + kx, :] = xp[
                :, ky : ky + (oh - 1) * s + 1 : s, kx : kx + (ow - 1) * s + 1 : s, :
            ]
    out = cols.reshape(-1, k * k * c) @ p.weights.reshape(k * k * c, p.out_channels)
    out += p.bias
    return out.reshape(b, oh, ow, p.out_channels)


def seed_bottleneck_forward(x: np.ndarray, p: BottleneckParams) -> np.ndarray:
    """The original monolithic block, kept as the byte-exactness reference
    for a single-group run: the block's own stages, the projection adding
    its bias, the shortcut as a fresh sum."""
    assert_activation(x, "bottleneck input")
    if x.shape[3] != p.in_channels:
        raise ChannelMismatchError(
            f"block expects {p.in_channels} input channels, got {x.shape[3]}"
        )
    inner = x
    if p.expand is not None:
        inner = conv2d(inner, p.expand)
        inner = relu6(inner, out=inner)
    inner = depthwise_conv(inner, p.depthwise)
    inner = relu6(inner, out=inner)
    out = conv2d(inner, p.project)
    if p.use_shortcut:
        out = add_residual(out, x)
    return out


def seed_cascade_execute(
    x: np.ndarray, p: BottleneckParams, plan: CascadePlan
) -> tuple[np.ndarray, int]:
    """The original split execution, kept as the byte-exactness and memory
    reference for a multi-group run: a zeroed float32 accumulator, groups
    added in order with a zero-bias projection, the projection bias once
    after all groups, the shortcut last."""
    assert_activation(x, "cascade input")
    inner_total = p.expanded_channels
    if plan.total_channels != inner_total:
        raise InvalidShapeError(
            f"plan covers {plan.total_channels} channels, block has {inner_total}"
        )
    b, h, w, _ = x.shape
    oh = -(-h // p.stride)
    ow = -(-w // p.stride)
    acc = np.zeros((b, oh, ow, p.out_channels), dtype=np.float32)
    for start, stop in plan.groups:
        if p.expand is not None:
            sub = Conv2dParams(
                stride=1,
                weights=p.expand.weights[:, :, :, start:stop],
                bias=p.expand.bias[start:stop],
            )
            g = conv2d(x, sub)
            g = relu6(g, out=g)
        else:
            g = x[:, :, :, start:stop]
        sub_dw = DepthwiseParams(
            stride=p.stride,
            weights=p.depthwise.weights[:, :, start:stop],
            bias=p.depthwise.bias[start:stop],
        )
        g = depthwise_conv(g, sub_dw)
        g = relu6(g, out=g)
        sub_proj = Conv2dParams(
            stride=1,
            weights=p.project.weights[:, :, start:stop, :],
            bias=np.zeros(p.out_channels, dtype=np.float32),
        )
        acc += conv2d(g, sub_proj)
    acc += p.project.bias
    if p.use_shortcut:
        acc += x
    peak = cascade_peak_bytes(p, h, w, plan, bytes_per_activation=4, batch=b)
    return acc, peak


def bottleneck_madds(
    h: int,
    w: int,
    in_channels: int,
    out_channels: int,
    expansion: float = 6,
    kernel: int = 3,
    stride: int = 1,
) -> int:
    """Multiply-adds of the three-stage block, the paper's closed form.

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


@contextlib.contextmanager
def executed_madds():
    """Tally the multiply-adds that convolution calls execute inside the
    ``with`` block: one MAdd per kernel tap per output element, padding
    taps included, charged from each call's input and parameter shapes.

    ``conv2d`` and ``depthwise_conv`` are patched on every module that
    binds them (call them as ``kernels.conv2d`` so the patch applies) and
    restored on exit::

        with executed_madds() as madds:
            model.forward(x)
        assert madds.total == model_cost(spec).total_madds
    """
    from bottlenet import blocks, kernels, memplan, model

    tally = types.SimpleNamespace(total=0)
    conv, dwise = kernels.conv2d, kernels.depthwise_conv

    def taps(x, p):
        b, h, w, _ = x.shape
        return b * -(-h // p.stride) * -(-w // p.stride) * p.kernel * p.kernel

    def counted_conv(x, p, **kw):
        tally.total += taps(x, p) * p.in_channels * p.out_channels
        return conv(x, p, **kw)

    def counted_dwise(x, p, **kw):
        tally.total += taps(x, p) * p.channels
        return dwise(x, p, **kw)

    with pytest.MonkeyPatch.context() as mp:
        for module in (kernels, blocks, model, memplan):
            for name, counted in (("conv2d", counted_conv), ("depthwise_conv", counted_dwise)):
                if hasattr(module, name):
                    mp.setattr(module, name, counted)
        yield tally


# The MobileNetV2 stage table (t, c, n, s), restated here so the parameter
# oracle below shares nothing with bottlenet.model.
MOBILENETV2_STAGES = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def naive_param_count(alpha: float, norm_values: int = 1,
                      classes: int = 1000) -> tuple[int, int]:
    """(total, non-weight share) parameters of MobileNetV2 at width ``alpha``.

    Plain arithmetic over the stage table: 32-channel 3x3 stem, 1280-channel
    head (scaled only for alpha >= 1), channels rounded to the nearest
    multiple of 8 (floor 8, one step up if that loses more than 10%), inner
    width t * c_in, no expansion conv when t == 1.  Every conv except the
    classifier carries ``norm_values`` values per output channel (1: folded
    bias, 2: batch-norm scale and shift, 4: plus the moving mean and
    variance); the classifier always carries a single bias.
    """
    def width(c: int) -> int:
        target = c * alpha
        rounded = max(8, int(target / 8 + 0.5) * 8)
        return rounded + 8 if rounded < 0.9 * target else rounded

    weights = extra = 0

    def conv(kernel: int, cin: int, cout: int) -> None:
        nonlocal weights, extra
        weights += kernel * kernel * cin * cout
        extra += norm_values * cout

    cin = width(32)
    conv(3, 3, cin)
    for t, c, n, _ in MOBILENETV2_STAGES:
        cout = width(c)
        for _ in range(n):
            inner = t * cin
            if t != 1:
                conv(1, cin, inner)
            weights += 9 * inner  # depthwise 3x3
            extra += norm_values * inner
            conv(1, inner, cout)
            cin = cout
    head = width(1280) if alpha >= 1.0 else 1280
    conv(1, cin, head)
    weights += head * classes
    extra += classes
    return weights + extra, extra


def positive_conv(rng: Rng, kernel: int, stride: int, cin: int, cout: int,
                  scale: float = 0.1) -> Conv2dParams:
    return Conv2dParams(
        stride=stride,
        weights=rng.uniform((kernel, kernel, cin, cout), 0.0, scale),
        bias=rng.uniform((cout,), 0.0, scale),
    )


def positive_depthwise(rng: Rng, kernel: int, stride: int, channels: int,
                       scale: float = 0.1) -> DepthwiseParams:
    return DepthwiseParams(
        stride=stride,
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


class _SeedSearchState:
    """The original dict-and-undo liveness state of the schedule searches."""

    def __init__(self, g: ComputeGraph):
        self.g = g
        self.refcount = {t: len(g.consumers[t]) for t in g.tensors}
        self.live = {t: g.tensors[t].nbytes for t in g.sources() if self.refcount[t] > 0}
        self.live_bytes = sum(self.live.values())
        self.remaining_preds = [len(p) for p in g.preds]
        self.succs: list[list[int]] = [[] for _ in g.ops]
        for i, preds in enumerate(g.preds):
            for p in preds:
                self.succs[p].append(i)

    def step_cost(self, i: int) -> int:
        op = self.g.ops[i]
        fresh = sum(self.g.tensors[t].nbytes for t in op.outputs)
        return self.live_bytes + fresh + op.workspace

    def execute(self, i: int):
        op = self.g.ops[i]
        freed: list[tuple[str, int]] = []
        added: list[str] = []
        for t in op.outputs:
            self.live[t] = self.g.tensors[t].nbytes
            self.live_bytes += self.g.tensors[t].nbytes
            added.append(t)
        for t in op.inputs:
            self.refcount[t] -= 1
        for t in list(op.inputs) + list(op.outputs):
            if self.refcount[t] == 0 and t in self.live:
                freed.append((t, self.live.pop(t)))
                self.live_bytes -= freed[-1][1]
        for j in self.succs[i]:
            self.remaining_preds[j] -= 1
        return (op, freed, added)

    def undo(self, i: int, record) -> None:
        op, freed, added = record
        for j in self.succs[i]:
            self.remaining_preds[j] += 1
        for t, nbytes in freed:
            self.live[t] = nbytes
            self.live_bytes += nbytes
        for t in op.inputs:
            self.refcount[t] += 1
        for t in added:
            if t in self.live:
                self.live_bytes -= self.live[t]
                del self.live[t]


def seed_min_memory_schedule(g: ComputeGraph) -> tuple[tuple[str, ...], int, bool]:
    """The original branch-and-bound, kept as the reference the integer
    search must reproduce: (order, peak, optimal)."""
    n = len(g.ops)
    if n == 0:
        return (), 0, True
    state = _SeedSearchState(g)
    best_peak = None
    best_order = None
    order: list[int] = []
    memo: dict[int, int] = {}

    def dfs(mask: int, running_peak: int) -> None:
        nonlocal best_peak, best_order
        if best_peak is not None and running_peak >= best_peak:
            return
        seen = memo.get(mask)
        if seen is not None and seen <= running_peak:
            return
        memo[mask] = running_peak
        if len(order) == n:
            if best_peak is None or running_peak < best_peak:
                best_peak = running_peak
                best_order = list(order)
            return
        for i in range(n):
            if mask & (1 << i) or state.remaining_preds[i] != 0:
                continue
            new_peak = max(running_peak, state.step_cost(i))
            if best_peak is not None and new_peak >= best_peak:
                continue
            record = state.execute(i)
            order.append(i)
            dfs(mask | (1 << i), new_peak)
            order.pop()
            state.undo(i, record)

    dfs(0, 0)
    return tuple(g.ops[i].name for i in best_order), best_peak, True


def seed_greedy_memory_schedule(g: ComputeGraph) -> tuple[tuple[str, ...], int, bool]:
    """The original cheapest-next-step order: (order, peak, optimal)."""
    state = _SeedSearchState(g)
    n = len(g.ops)
    done = [False] * n
    order: list[int] = []
    peak = 0
    for _ in range(n):
        candidates = [i for i in range(n) if not done[i] and state.remaining_preds[i] == 0]
        i = min(candidates, key=lambda i: (state.step_cost(i), i))
        peak = max(peak, state.step_cost(i))
        state.execute(i)
        done[i] = True
        order.append(i)
    return tuple(g.ops[i].name for i in order), peak, False


def seed_schedule_steps(g: ComputeGraph, order: tuple[str, ...]) -> list[tuple[str, int, int]]:
    """The original per-step rescan of every tensor: (op, live, workspace)."""
    pos = {name: k for k, name in enumerate(order)}
    produced_at: dict[str, int] = {}
    last_use: dict[str, int] = {}
    for t in g.tensors:
        prod = g.producer.get(t)
        produced_at[t] = -1 if prod is None else pos[g.ops[prod].name]
        uses = [pos[g.ops[c].name] for c in g.consumers[t]]
        if prod is not None:
            uses.append(produced_at[t])
        last_use[t] = max(uses) if uses else -2
    steps = []
    for k, name in enumerate(order):
        live = sum(g.tensors[t].nbytes for t in g.tensors
                   if produced_at[t] <= k <= last_use[t])
        steps.append((name, live, g.ops[g.op_index[name]].workspace))
    return steps


# A one-entry weight container with dims 65536**4 = 2**64 elements and no
# payload: an int64 element count wraps to 0 and would match the empty payload.
WRAPPING_CONTAINER = (b"BWGT" + struct.pack("<IH", 1, 1) + b"x"
                      + struct.pack("<B4I", 4, *[65536] * 4))


def corruptions(size: int, head: int):
    """(flips, cut) for a file of ``size`` bytes: up to four (offset, xor
    mask) byte flips, drawn from the first ``head`` bytes or from anywhere,
    and an optional truncation length; at least one of the two is drawn."""
    at = st.one_of(st.integers(0, head - 1), st.integers(0, size - 1))
    flips = st.lists(st.tuples(at, st.integers(1, 255)), max_size=4)
    cut = st.none() | st.integers(0, size - 1)
    return st.tuples(flips, cut).filter(lambda fc: fc[0] or fc[1] is not None)


def corrupt(raw: bytes, flips, cut) -> bytes:
    data = bytearray(raw)
    for at, mask in flips:
        data[at] ^= mask
    return bytes(data[:cut])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory for fuzzed files; module-scoped, as Hypothesis requires."""
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="session")
def repo_root():
    import pathlib

    return pathlib.Path(__file__).resolve().parent.parent
