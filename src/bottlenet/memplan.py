"""Peak-memory analysis and memory-efficient execution.

Three related tools live here:

* ``schedule_memory`` evaluates the peak of one execution order of a
  compute graph: at every step the cost is the sum of all live tensors
  plus the running op's workspace, and the peak is the max over steps.
  A tensor is live from the step that produces it (graph inputs from the
  start) through its last consuming step.

* ``min_memory_schedule`` searches all topological orders for the one
  with the smallest peak, by depth-first branch-and-bound with the
  running peak as the bound and a dominance memo on the executed set.
  Exact up to a configurable op-count limit; beyond it the caller should
  fall back to ``greedy_memory_schedule``, which is clearly labeled
  non-optimal.  Both searches run on integer tables built per call: an
  op-set is a bitmask, each op carries its predecessor mask, the bytes
  its step adds and keeps live, and per input the mask of that tensor's
  consumers, so the live bytes after a step follow from the executed
  mask alone and are passed down as an int with nothing to undo.
  Candidates are tried in ascending op index; the exact search keeps
  the first order that reaches the smallest peak, and the greedy one
  breaks equal step costs toward the lower index.

* ``CascadePlan`` partitions a bottleneck block's expanded channels into
  groups, and ``cascade_peak_bytes`` bounds the working set of running
  the block one group at a time.  ``blocks.bottleneck_forward`` executes
  the plan (``cascade_execute`` hands it the groups): because the inner
  stages act per-channel, the block output equals the sum over groups of
  (project o inner o expand) applied to each group's slice, so only one
  group-sized inner tensor is ever materialized.  The multiply-add count
  is independent of the group count.

``memory_table`` reproduces the per-resolution materialization summary
for a model: bottleneck blocks are treated as single operations with
disposable inner tensors, grouped by the resolution they consume, and
each resolution reports the widest output any of its blocks must hold.
The highest-resolution group (adjacent to the stem) can be executed in
channel-split streaming fashion and is reported as a single materialized
channel, excluded from the overall peak.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .blocks import BottleneckParams, bottleneck_forward
from .errors import GraphError, GraphTooLargeError, InvalidShapeError
# Not called here; perfbench/tracing.py patches these names on this module.
from .kernels import conv2d, depthwise_conv, relu6  # noqa: F401
from .model import LayerRecord, ModelSpec, layer_walk


@dataclass(frozen=True)
class TensorNode:
    name: str
    nbytes: int


@dataclass(frozen=True)
class OpNode:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    workspace: int = 0


class ComputeGraph:
    """DAG of operations over sized tensors; every non-source tensor has
    exactly one producer."""

    def __init__(self, tensors: Iterable[TensorNode], ops: Iterable[OpNode]):
        self.tensors: dict[str, TensorNode] = {}
        for t in tensors:
            if t.name in self.tensors:
                raise GraphError(f"duplicate tensor {t.name!r}")
            if t.nbytes < 0:
                raise GraphError(f"tensor {t.name!r} has negative size")
            self.tensors[t.name] = t
        self.ops: list[OpNode] = list(ops)
        names = set()
        self.producer: dict[str, int] = {}
        self.consumers: dict[str, list[int]] = {n: [] for n in self.tensors}
        for i, op in enumerate(self.ops):
            if op.name in names:
                raise GraphError(f"duplicate op {op.name!r}")
            names.add(op.name)
            if op.workspace < 0:
                raise GraphError(f"op {op.name!r} has negative workspace")
            if len(set(op.inputs)) != len(op.inputs):
                raise GraphError(f"op {op.name!r} lists an input twice")
            for t in op.inputs + op.outputs:
                if t not in self.tensors:
                    raise GraphError(f"op {op.name!r} references unknown tensor {t!r}")
            for t in op.outputs:
                if t in self.producer:
                    raise GraphError(f"tensor {t!r} has two producers")
                self.producer[t] = i
            for t in op.inputs:
                self.consumers[t].append(i)
        self.op_index = {op.name: i for i, op in enumerate(self.ops)}
        # Predecessor ops (producers of non-source inputs) and successors.
        self.preds: list[set[int]] = []
        self.succs: list[list[int]] = [[] for _ in self.ops]
        for i, op in enumerate(self.ops):
            self.preds.append(
                {self.producer[t] for t in op.inputs if t in self.producer}
            )
            for p in self.preds[i]:
                self.succs[p].append(i)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        indeg = [len(p) for p in self.preds]
        ready = [i for i, d in enumerate(indeg) if d == 0]
        seen = 0
        while ready:
            i = ready.pop()
            seen += 1
            for j in self.succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if seen != len(self.ops):
            raise GraphError("compute graph contains a cycle")

    def sources(self) -> list[str]:
        return [n for n in self.tensors if n not in self.producer]

    def is_topological(self, order: Iterable[str]) -> bool:
        pos = {name: k for k, name in enumerate(order)}
        if len(pos) != len(self.ops) or set(pos) != set(self.op_index):
            return False
        for i, op in enumerate(self.ops):
            for p in self.preds[i]:
                if pos[self.ops[p].name] >= pos[op.name]:
                    return False
        return True

    def dump_jsonl(self, fp) -> None:
        for t in self.tensors.values():
            fp.write(json.dumps({"kind": "tensor", "name": t.name, "bytes": t.nbytes}) + "\n")
        for op in self.ops:
            fp.write(json.dumps({
                "kind": "op", "name": op.name, "inputs": list(op.inputs),
                "outputs": list(op.outputs), "workspace": op.workspace,
            }) + "\n")

    @classmethod
    def load_jsonl(cls, fp) -> "ComputeGraph":
        tensors, ops = [], []
        for line in fp:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec["kind"] == "tensor":
                tensors.append(TensorNode(rec["name"], int(rec["bytes"])))
            elif rec["kind"] == "op":
                ops.append(OpNode(rec["name"], tuple(rec["inputs"]),
                                  tuple(rec["outputs"]), int(rec.get("workspace", 0))))
            else:
                raise GraphError(f"unknown record kind {rec['kind']!r}")
        return cls(tensors, ops)


@dataclass
class Schedule:
    order: tuple[str, ...]
    optimal: bool = True


@dataclass
class StepCost:
    op: str
    live_bytes: int
    workspace: int

    @property
    def total(self) -> int:
        return self.live_bytes + self.workspace


@dataclass
class ResolutionRow:
    resolution: int
    channels: int
    nbytes: int
    streamed: bool = False

    @property
    def kilobytes(self) -> float:
        return self.nbytes / 1000.0


@dataclass
class MemoryReport:
    peak_bytes: int
    steps: Optional[list[StepCost]] = None
    rows: Optional[list[ResolutionRow]] = None

    @property
    def peak_kilobytes(self) -> float:
        return self.peak_bytes / 1000.0


def schedule_memory(g: ComputeGraph, schedule: Schedule | tuple[str, ...]) -> MemoryReport:
    """Per-step live bytes and their max for one fixed topological order."""
    order = schedule.order if isinstance(schedule, Schedule) else tuple(schedule)
    if not g.is_topological(order):
        raise GraphError("schedule is not a topological order of the graph")
    pos = {name: k for k, name in enumerate(order)}
    # A tensor is live from its producing step (sources: step 0) through
    # its last use; an unconsumed output is live at its own step and an
    # unused source never.  One delta per start and per end, then a sweep.
    delta = [0] * (len(order) + 1)
    for t, node in g.tensors.items():
        prod = g.producer.get(t)
        start = 0 if prod is None else pos[g.ops[prod].name]
        uses = [pos[g.ops[c].name] for c in g.consumers[t]]
        if prod is not None:
            uses.append(start)
        if uses:
            delta[start] += node.nbytes
            delta[max(uses) + 1] -= node.nbytes
    steps: list[StepCost] = []
    peak = live = 0
    for k, name in enumerate(order):
        live += delta[k]
        workspace = g.ops[g.op_index[name]].workspace
        steps.append(StepCost(name, live, workspace))
        peak = max(peak, live + workspace)
    return MemoryReport(peak_bytes=peak, steps=steps)


def _search_tables(g: ComputeGraph):
    """Integer tables the searches run on, one row per op:
    (index, bit, predecessor mask, bytes the step adds (outputs plus
    workspace), bytes its outputs keep live, ((consumer mask, bytes) per
    input)), plus the live bytes before any op runs.

    A tensor is live while any of its consumers has not run, so the live
    bytes of an executed set follow from the masks alone.
    """
    size = {name: t.nbytes for name, t in g.tensors.items()}
    cons = dict.fromkeys(size, 0)
    for i, op in enumerate(g.ops):
        for t in op.inputs:
            cons[t] |= 1 << i
    rows = []
    for i, op in enumerate(g.ops):
        preds = 0
        for p in g.preds[i]:
            preds |= 1 << p
        out = keep = 0
        for t in op.outputs:
            out += size[t]
            if cons[t]:
                keep += size[t]
        frees = tuple([(cons[t], size[t]) for t in op.inputs])
        rows.append((i, 1 << i, preds, out + op.workspace, keep, frees))
    live = sum([size[t] for t in g.sources() if cons[t]])
    return rows, live


def min_memory_schedule(g: ComputeGraph, exact_limit: int = 16) -> tuple[Schedule, int]:
    """Exact minimum-peak schedule via branch-and-bound.

    Ties between equal-peak schedules break toward the lexicographically
    smallest op-index sequence (depth-first exploration visits those
    first and only strictly better peaks replace the incumbent).
    Raises GraphTooLargeError above ``exact_limit`` ops; callers fall
    back to ``greedy_memory_schedule``.
    """
    n = len(g.ops)
    if n == 0:
        return Schedule(order=(), optimal=True), 0
    if n > exact_limit:
        raise GraphTooLargeError(
            f"graph has {n} ops, exact search limited to {exact_limit}"
        )
    rows, live0 = _search_tables(g)
    full = (1 << n) - 1
    # Above any step cost, so the first complete order always replaces it.
    best_peak = live0 + sum(r[3] for r in rows) + 1
    best_order: list[int] = []
    order: list[int] = []
    # Dominance memo: executed-set -> smallest running peak that reached it.
    memo: dict[int, int] = {}

    def dfs(mask: int, live: int, running_peak: int) -> None:
        nonlocal best_peak, best_order
        if running_peak >= best_peak:
            return
        memo[mask] = running_peak
        if mask == full:
            best_peak = running_peak
            best_order = list(order)
            return
        for i, bit, preds, add, keep, frees in rows:
            if mask & bit or preds & ~mask:
                continue
            new_peak = live + add
            if new_peak < running_peak:
                new_peak = running_peak
            if new_peak >= best_peak:
                continue
            done = mask | bit
            # The memo is read before descending: a dominated child costs no call.
            seen = memo.get(done)
            if seen is not None and seen <= new_peak:
                continue
            after = live + keep
            for consumers, nbytes in frees:
                if not consumers & ~done:
                    after -= nbytes
            order.append(i)
            dfs(done, after, new_peak)
            order.pop()

    dfs(0, live0, 0)
    names = tuple(g.ops[i].name for i in best_order)
    return Schedule(order=names, optimal=True), best_peak


def greedy_memory_schedule(g: ComputeGraph) -> tuple[Schedule, int]:
    """Cheapest-next-step heuristic order; peak is an upper bound only.

    Ties between equally cheap steps go to the lowest op index.
    """
    rows, live = _search_tables(g)
    ready = [row for row in rows if not row[2]]
    mask = 0
    order: list[int] = []
    peak = 0
    while ready:
        row = min(ready, key=lambda r: (live + r[3], r[0]))
        ready.remove(row)
        i, bit, _, add, keep, frees = row
        peak = max(peak, live + add)
        mask |= bit
        live += keep
        for consumers, nbytes in frees:
            if not consumers & ~mask:
                live -= nbytes
        order.append(i)
        ready += [rows[j] for j in g.succs[i] if not rows[j][2] & ~mask]
    names = tuple(g.ops[i].name for i in order)
    return Schedule(order=names, optimal=False), peak


def unique_topological_order(g: ComputeGraph) -> tuple[str, ...]:
    """The single feasible order, or GraphError if the graph branches."""
    remaining = [len(p) for p in g.preds]
    done = [False] * len(g.ops)
    order: list[str] = []
    for _ in range(len(g.ops)):
        ready = [i for i in range(len(g.ops)) if not done[i] and remaining[i] == 0]
        if len(ready) != 1:
            raise GraphError(
                f"graph has non-trivial parallel structure ({len(ready)} ops ready)"
            )
        i = ready[0]
        done[i] = True
        order.append(g.ops[i].name)
        for j in g.succs[i]:
            remaining[j] -= 1
    return tuple(order)


def linear_bound_memory(g: ComputeGraph) -> int:
    """Peak of the unique schedule of a graph whose only parallelism is
    shortcuts: ``schedule_memory`` evaluated on ``unique_topological_order``
    (GraphError if the graph branches).

    On block-granular chains nothing is carried across an op, so this is
    the max combined input/output size (plus workspace) over operations.
    """
    order = unique_topological_order(g)
    return schedule_memory(g, order).peak_bytes


@dataclass(frozen=True)
class CascadePlan:
    """Contiguous partition of the expanded channels into execution groups."""

    groups: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.groups:
            raise InvalidShapeError("cascade plan needs at least one group")
        prev = 0
        for start, stop in self.groups:
            if start != prev or stop <= start:
                raise InvalidShapeError(
                    f"cascade groups must be contiguous and non-empty, got {self.groups}"
                )
            prev = stop

    @property
    def total_channels(self) -> int:
        return self.groups[-1][1]

    @property
    def max_group(self) -> int:
        return max(stop - start for start, stop in self.groups)

    @classmethod
    def from_split(cls, channels: int, split: int) -> "CascadePlan":
        """``split`` equal groups of channels // split; the last group absorbs
        the remainder."""
        if split < 1:
            raise InvalidShapeError(f"split must be >= 1, got {split}")
        if split > channels:
            raise InvalidShapeError(
                f"split {split} exceeds the {channels} expanded channels"
            )
        base = channels // split
        bounds = [(i * base, (i + 1) * base) for i in range(split - 1)]
        bounds.append(((split - 1) * base, channels))
        return cls(tuple(bounds))


def cascade_peak_bytes(
    p: BottleneckParams | LayerRecord,
    h: int,
    w: int,
    plan: CascadePlan,
    bytes_per_activation: int = 4,
    batch: int = 1,
) -> int:
    """Working-set bound of the split execution: input + output + one
    group-sized inner tensor at each resolution it passes through.

    ``p`` is a built block or its ``layer_walk`` record; only its
    ``in_channels``, ``out_channels`` and ``stride`` are read.
    """
    oh = -(-h // p.stride)
    ow = -(-w // p.stride)
    bpa = bytes_per_activation
    in_bytes = batch * h * w * p.in_channels * bpa
    out_bytes = batch * oh * ow * p.out_channels * bpa
    inner = batch * plan.max_group * (h * w + oh * ow) * bpa
    return in_bytes + out_bytes + inner


def cascade_execute(
    x: np.ndarray, p: BottleneckParams, plan: CascadePlan
) -> tuple[np.ndarray, int]:
    """Split execution of one block; returns (output, planned peak
    working-set bytes from ``cascade_peak_bytes``).

    ``blocks.bottleneck_forward`` runs the block over the plan's groups, so
    a single-group plan is exactly the monolithic result.
    """
    if plan.total_channels != p.expanded_channels:
        raise InvalidShapeError(
            f"plan covers {plan.total_channels} channels, block has {p.expanded_channels}"
        )
    out = bottleneck_forward(x, p, groups=plan.groups)
    b, h, w, _ = x.shape
    return out, cascade_peak_bytes(p, h, w, plan, bytes_per_activation=4, batch=b)


def memory_table(spec: ModelSpec, bytes_per_activation: int = 2) -> MemoryReport:
    """Max materialized channels/bytes per spatial resolution.

    Blocks count as single ops with disposable inner tensors; each block
    charges its output width at the resolution it consumes, and every
    resolution reports the widest such charge.  The pooled head feature
    appears as the final 1x1 row.  The stem-adjacent resolution is
    executed channel-by-channel and reports a single materialized
    channel, excluded from the overall peak.
    """
    if bytes_per_activation not in (2, 4):
        raise InvalidShapeError(
            f"bytes_per_activation must be 2 or 4, got {bytes_per_activation}"
        )
    per_res: dict[int, int] = {}
    first_block_res = None
    for layer in layer_walk(spec):
        if layer.kind == "block":
            res = layer.in_shape[0]
            if first_block_res is None:
                first_block_res = res
            per_res[res] = max(per_res.get(res, 0), layer.out_channels)
    rows = []
    for res in sorted(per_res, reverse=True):
        streamed = res == first_block_res
        channels = 1 if streamed else per_res[res]
        rows.append(ResolutionRow(
            resolution=res,
            channels=channels,
            nbytes=res * res * channels * bytes_per_activation,
            streamed=streamed,
        ))
    head = spec.scaled_head_channels
    rows.append(ResolutionRow(1, head, head * bytes_per_activation))
    peak = max(r.nbytes for r in rows if not r.streamed)
    return MemoryReport(peak_bytes=peak, rows=rows)


def block_graph(
    spec: ModelSpec,
    bytes_per_activation: int = 2,
    first_block: int = 0,
) -> ComputeGraph:
    """Block-granular compute graph (each block one op, shortcuts internal),
    followed by the head conv, the average pool and the classifier.

    ``first_block`` drops that many leading blocks, modelling the case
    where the high-resolution prefix is handled by streamed execution and
    the planner only sees the materialized tail.
    """
    blocks = [layer for layer in layer_walk(spec) if layer.kind == "block"]
    if not 0 <= first_block < len(blocks):
        raise GraphError(f"first_block {first_block} out of range")
    bpa = bytes_per_activation

    def nbytes(shape: tuple[int, int, int]) -> int:
        return shape[0] * shape[1] * shape[2] * bpa

    tensors = [TensorNode("in", nbytes(blocks[first_block].in_shape))]
    ops = []
    prev = "in"
    for layer in blocks[first_block:]:
        out_name = f"{layer.name}_out"
        tensors.append(TensorNode(out_name, nbytes(layer.out_shape)))
        ops.append(OpNode(layer.name, (prev,), (out_name,)))
        prev = out_name
    res = blocks[-1].out_shape[0]
    head = spec.scaled_head_channels
    tensors.append(TensorNode("head_out", res * res * head * bpa))
    ops.append(OpNode("head", (prev,), ("head_out",)))
    tensors.append(TensorNode("pooled", head * bpa))
    ops.append(OpNode("avgpool", ("head_out",), ("pooled",)))
    tensors.append(TensorNode("logits", spec.classes * bpa))
    ops.append(OpNode("classifier", ("pooled",), ("logits",)))
    return ComputeGraph(tensors, ops)
