"""Peak-memory analysis and memory-efficient execution.

Three related tools live here:

* One walk evaluates, orders and checks schedules.  It runs the ops in
  the order a chooser picks among the ready ones and charges each step
  the live tensors plus the op's outputs and workspace; a tensor is live
  from the step that produces it (graph inputs from the start) through
  its last consuming step, and a schedule's peak is its costliest step.
  ``schedule_memory`` follows a given order, ``greedy_memory_schedule``
  takes the cheapest step (ties to the lowest op index), and
  ``unique_topological_order`` and ``linear_bound_memory`` refuse to
  choose between two ready ops.

* ``min_memory_schedule`` searches all topological orders for the one
  with the smallest peak, by depth-first branch-and-bound with the
  running peak as the bound.  An executed set whose every completion
  peaks at or above the incumbent is unbeatable, and a later visit to it
  is cut.  Exact up to a configurable op-count limit; beyond it the
  caller should fall back to the non-optimal greedy order.

* ``cascade_peak_bytes`` bounds the working set of running a bottleneck
  block one group of expanded channels at a time.  The block owns the
  plan: ``CascadePlan``, the paper's t (t groups of channels // t, the
  last taking the remainder), lives in ``blocks`` and is imported here, and
  ``blocks.bottleneck_forward`` checks and executes it, so
  ``cascade_execute`` is that run plus the bound.  Because the inner
  stages act per-channel, the block output equals the sum over groups of
  (project o inner o expand) applied to each group's slice, so only one
  group-sized inner tensor is ever materialized.  The multiply-add count
  is independent of the group count.

The walk and the search read integer tables that ``ComputeGraph`` builds
once, when the graph is made: an op-set is a bitmask, each op carries its
predecessor mask, its successors, the bytes its step adds and keeps live,
and per input the mask of that tensor's consumers.  The live bytes after a
step follow from the executed mask alone, and the ready set (the ops whose
predecessors have all run) is a bitmask that gains only successors of the
op just run, so both are passed down as ints with nothing to undo and a
step looks only at ready ops.  Ready ops are tried in ascending op index,
and the search keeps the first order that reaches the smallest peak.

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
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .blocks import BottleneckParams, CascadePlan, bottleneck_forward
from .errors import GraphError, GraphTooLargeError, InvalidShapeError
# Not called here; perfbench/tracing.py patches these names on this module.
from .kernels import conv2d, depthwise_conv, relu6  # noqa: F401
from .model import LayerRecord, ModelSpec, layer_walk


class TensorNode(NamedTuple):
    """A tensor of ``nbytes`` bytes.  Nodes compare equal to the plain tuple of their fields."""
    name: str
    nbytes: int


class OpNode(NamedTuple):
    """An op over named tensors, with ``workspace`` bytes live during its step only."""
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    workspace: int = 0


# Each JSON-lines record kind: its node and its keys, in the node's field order.
_RECORDS = {"tensor": (TensorNode, ("name", "bytes")),
            "op": (OpNode, ("name", "inputs", "outputs", "workspace"))}


class ComputeGraph:
    """DAG of operations over sized tensors; every non-source tensor has
    exactly one producer.

    The constructor checks each field's type (no bool for int), then the
    graph rules, and builds, once, the integer tables the walk and the
    search read, so ``ops`` and ``tensors`` are read-only: ``op_index``
    (op name to index); ``rows``, one per op: (index, bit, predecessor
    mask, bytes the step adds (outputs plus workspace), bytes its outputs
    keep live, ((consumer mask, bytes) per input)); ``succs``, each op's
    successors, each listed once; and ``live0``, the bytes of the consumed
    graph inputs, live before any op runs.  Each walk or search seeds its
    ready mask with the ops of no predecessor and, after an op runs, adds
    each successor whose predecessor mask has all run.
    """

    def __init__(self, tensors: Iterable[TensorNode], ops: Iterable[OpNode]):
        named: dict[str, TensorNode] = {}
        for j, t in enumerate(tensors):
            if type(t.name) is not str or type(t.nbytes) is not int:
                raise GraphError(f"tensor {t.name!r} needs a str name and int size", ("tensor", j))
            if t.name in named:
                raise GraphError(f"duplicate tensor {t.name!r}", ("tensor", j))
            if t.nbytes < 0:
                raise GraphError(f"tensor {t.name!r} has negative size", ("tensor", j))
            named[t.name] = t
        self.tensors = MappingProxyType(named)
        self.ops: tuple[OpNode, ...] = tuple(ops)
        self.op_index: dict[str, int] = {}
        producer: dict[str, int] = {}
        cons = dict.fromkeys(named, 0)
        for i, op in enumerate(self.ops):
            if not (type(op.name) is str and type(op.inputs) is type(op.outputs) is tuple
                    and all(type(t) is str for t in op.inputs + op.outputs)
                    and type(op.workspace) is int):
                raise GraphError(f"op {op.name!r} needs str names and int workspace", ("op", i))
            if op.name in self.op_index:
                raise GraphError(f"duplicate op {op.name!r}", ("op", i))
            self.op_index[op.name] = i
            if op.workspace < 0:
                raise GraphError(f"op {op.name!r} has negative workspace", ("op", i))
            if len(set(op.inputs)) != len(op.inputs):
                raise GraphError(f"op {op.name!r} lists an input twice", ("op", i))
            for t in op.inputs + op.outputs:
                if t not in named:
                    raise GraphError(f"op {op.name!r} references unknown tensor {t!r}", ("op", i))
            for t in op.outputs:
                if t in producer:
                    raise GraphError(f"tensor {t!r} has two producers", ("op", i))
                producer[t] = i
            for t in op.inputs:
                cons[t] |= 1 << i
        size = {name: t.nbytes for name, t in named.items()}
        rows = self.rows = []
        succs = self.succs = [[] for _ in self.ops]
        for i, op in enumerate(self.ops):
            # Plain loops: per-op comprehensions made construction ~40% slower.
            preds = out = keep = 0
            frees = []
            for t in op.inputs:
                frees.append((cons[t], size[t]))
                p = producer.get(t)
                if p is not None and not preds >> p & 1:
                    preds |= 1 << p
                    succs[p].append(i)
            for t in op.outputs:
                out += size[t]
                if cons[t]:
                    keep += size[t]
            rows.append((i, 1 << i, preds, out + op.workspace, keep, tuple(frees)))
        self.live0 = sum([size[t] for t in size if cons[t] and t not in producer])
        # Kahn's order over the predecessor masks; an op never run is on a cycle.
        done, ready = 0, [i for i, row in enumerate(rows) if not row[2]]
        while ready:
            i = ready.pop()
            done |= 1 << i
            for j in succs[i]:
                if not rows[j][2] & ~done:
                    ready.append(j)
        if done != (1 << len(self.ops)) - 1:
            raise GraphError("compute graph contains a cycle")

    def dump_jsonl(self, fp) -> None:
        for kind, nodes in (("tensor", self.tensors.values()), ("op", self.ops)):
            for node in nodes:
                fp.write(json.dumps({"kind": kind, **dict(zip(_RECORDS[kind][1], node))}) + "\n")

    @classmethod
    def load_jsonl(cls, fp) -> "ComputeGraph":
        """Read what ``dump_jsonl`` writes, lists as tuples and an op's ``workspace``
        0 if absent.  GraphError first names, as the file is read, a line that is
        not a JSON object of a ``_RECORDS`` kind with all its keys; then the
        constructor judges type and graph rules, tensors before ops, naming the
        breaking record's line (of two duplicates, the second; a cycle has none)."""
        nodes = {kind: [] for kind in _RECORDS}
        lines = {}  # (kind, index) of each record: its line
        for lineno, line in enumerate(fp, 1):
            if not line.strip():
                continue
            try:
                rec = {"workspace": 0, **json.loads(line)}
                node, keys = _RECORDS[rec["kind"]]
                values = [tuple(rec[k]) if type(rec[k]) is list else rec[k] for k in keys]
            except (ValueError, TypeError, KeyError):
                raise GraphError(f"line {lineno}: not a JSON tensor or op record") from None
            lines[rec["kind"], len(nodes[rec["kind"]])] = lineno
            nodes[rec["kind"]].append(node(*values))
        try:
            return cls(nodes["tensor"], nodes["op"])
        except GraphError as exc:
            if exc.record is None:  # a cycle has no one line
                raise
            raise GraphError(f"line {lines[exc.record]}: {exc}") from None



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


def min_memory_schedule(g: ComputeGraph, exact_limit: int = 16) -> tuple[Schedule, int]:
    """Exact minimum-peak schedule via branch-and-bound.

    Each search node carries the executed set, the ready set (ops whose
    predecessors have all run, as a bitmask updated from the successors of
    each op run), the live bytes and the running peak, and tries the ready
    ops lowest index first.  Ties between equal-peak schedules break toward
    the lexicographically smallest op-index sequence (depth-first
    exploration visits those first and only strictly better peaks replace
    the incumbent).

    The live bytes after a set of ops do not depend on the order they ran
    in.  So once a node has tried every child while the incumbent stayed
    strictly above its running peak, every completion of that set peaks at
    or above the incumbent: the set is unbeatable, and every later visit
    is cut before it descends.  If instead a completion reached exactly
    the node's running peak, the set gets no entry: the bound already cuts
    every later visit at that peak or above, and a cheaper prefix through
    the same set may still win.

    Raises GraphTooLargeError above ``exact_limit`` ops; callers fall
    back to ``greedy_memory_schedule``.
    """
    n = len(g.ops)
    if n > exact_limit:
        raise GraphTooLargeError(
            f"graph has {n} ops, exact search limited to {exact_limit}"
        )
    rows = g.rows
    # Per op, by its bit: index, bytes added and kept, frees and its
    # successors as (bit, predecessor mask).
    step = {bit: (i, add, keep, frees, [rows[j][1:3] for j in g.succs[i]])
            for i, bit, _, add, keep, frees in rows}
    ready0 = sum([row[1] for row in rows if not row[2]])
    # Above any step cost, so the first complete order always replaces it.
    best_peak = g.live0 + sum(r[3] for r in rows) + 1
    best_order: list[int] = []
    order: list[int] = []
    unbeatable: set[int] = set()

    def dfs(mask: int, ready: int, live: int, running_peak: int) -> None:
        nonlocal best_peak, best_order
        if not ready:  # an acyclic graph has run every op
            best_peak = running_peak
            best_order = list(order)
            return
        left = ready
        while left:
            bit = left & -left
            left ^= bit
            i, add, keep, frees, succs = step[bit]
            new_peak = live + add
            if new_peak < running_peak:
                new_peak = running_peak
            if new_peak >= best_peak:
                continue
            done = mask | bit
            # Read before descending: an unbeatable child costs no call.
            if done in unbeatable:
                continue
            after = live + keep
            for consumers, nbytes in frees:
                if not consumers & ~done:
                    after -= nbytes
            now = ready ^ bit
            for sbit, preds in succs:
                if not preds & ~done:
                    now |= sbit
            order.append(i)
            dfs(done, now, after, new_peak)
            order.pop()
        if best_peak > running_peak:
            unbeatable.add(mask)

    dfs(0, ready0, g.live0, 0)
    names = tuple(g.ops[i].name for i in best_order)
    return Schedule(order=names, optimal=True), best_peak


def _walk(g: ComputeGraph, choose) -> tuple[list[int], list[int]]:
    """Run ``g``'s ops, each the op index that ``choose(ready mask)`` picks
    from the ready set, until none is ready; return the op indices run and
    each step's cost (live + outputs + workspace)."""
    rows, live = g.rows, g.live0
    ready = sum([row[1] for row in rows if not row[2]])
    mask = 0
    ran: list[int] = []
    costs: list[int] = []
    while ready:
        i, bit, _, add, keep, frees = rows[choose(ready)]
        ready ^= bit
        costs.append(live + add)
        mask |= bit
        live += keep
        for consumers, nbytes in frees:
            if not consumers & ~mask:
                live -= nbytes
        ran.append(i)
        for j in g.succs[i]:
            if not rows[j][2] & ~mask:
                ready |= rows[j][1]
    return ran, costs


def schedule_memory(g: ComputeGraph, schedule: Schedule | tuple[str, ...]) -> MemoryReport:
    """Per-step live bytes and their max for one fixed topological order.

    GraphError if the order is not one: a name is missing, repeated,
    extra or unknown, or an op comes before one it reads from.
    """
    order = schedule.order if isinstance(schedule, Schedule) else tuple(schedule)
    names = iter(order)

    def follow(ready):
        i = g.op_index.get(next(names, None))
        if i is None or not ready >> i & 1:
            raise GraphError("schedule is not a topological order of the graph")
        return i

    ran, costs = _walk(g, follow)
    if len(ran) != len(order):
        raise GraphError("schedule is not a topological order of the graph")
    steps = []
    for i, cost in zip(ran, costs):
        op = g.ops[i]
        steps.append(StepCost(op.name, cost - op.workspace, op.workspace))
    return MemoryReport(peak_bytes=max(costs, default=0), steps=steps)


def greedy_memory_schedule(g: ComputeGraph) -> tuple[Schedule, int]:
    """Cheapest-next-step heuristic order; peak is an upper bound only.

    Ties between equally cheap steps go to the lowest op index.
    """
    adds = [row[3] for row in g.rows]

    def cheapest(ready):
        best = None
        while ready:  # lowest index first; only a cheaper step replaces it
            low = ready & -ready
            ready ^= low
            i = low.bit_length() - 1
            if best is None or adds[i] < adds[best]:
                best = i
        return best

    ran, costs = _walk(g, cheapest)
    names = tuple(g.ops[i].name for i in ran)
    return Schedule(order=names, optimal=False), max(costs, default=0)


def _only(ready):
    if ready & (ready - 1):
        raise GraphError(
            f"graph has non-trivial parallel structure ({ready.bit_count()} ops ready)"
        )
    return ready.bit_length() - 1


def unique_topological_order(g: ComputeGraph) -> tuple[str, ...]:
    """The single feasible order, or GraphError if the graph branches."""
    return tuple(g.ops[i].name for i in _walk(g, _only)[0])


def linear_bound_memory(g: ComputeGraph) -> int:
    """Peak of the unique schedule of a graph whose only parallelism is
    shortcuts (GraphError if the graph branches).

    On block-granular chains nothing is carried across an op, so this is
    the max combined input/output size (plus workspace) over operations.
    """
    return max(_walk(g, _only)[1], default=0)


def _activation_bytes(bytes_per_activation: int) -> int:
    """The bytes of one activation, which every byte model takes as 16 or 32 bits."""
    if type(bytes_per_activation) is not int or bytes_per_activation not in (2, 4):
        raise InvalidShapeError(f"bytes_per_activation must be 2 or 4, got {bytes_per_activation}")
    return bytes_per_activation


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
    bpa = _activation_bytes(bytes_per_activation)
    in_bytes = batch * h * w * p.in_channels * bpa
    out_bytes = batch * oh * ow * p.out_channels * bpa
    inner = batch * plan.max_group * (h * w + oh * ow) * bpa
    return in_bytes + out_bytes + inner


def cascade_execute(
    x: np.ndarray, p: BottleneckParams, plan: CascadePlan
) -> tuple[np.ndarray, int]:
    """Split execution of one block; returns (output, planned peak
    working-set bytes from ``cascade_peak_bytes``).

    ``blocks.bottleneck_forward`` runs the block over the plan's groups and
    checks the plan's width, so a single-group plan is exactly the
    monolithic result.
    """
    out = bottleneck_forward(x, p, plan=plan)
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
    bpa = _activation_bytes(bytes_per_activation)
    per_res: dict[int, int] = {}
    for layer in layer_walk(spec):
        if layer.kind == "block":
            res = layer.in_shape[0]
            per_res[res] = max(per_res.get(res, 0), layer.out_channels)
        elif layer.kind == "pool":
            pooled = layer
    rows = []
    for res in sorted(per_res, reverse=True):
        streamed = res == max(per_res)  # the first block's: strides only shrink
        channels = 1 if streamed else per_res[res]
        rows.append(ResolutionRow(
            resolution=res,
            channels=channels,
            nbytes=res * res * channels * bpa,
            streamed=streamed,
        ))
    h, w, c = pooled.out_shape
    rows.append(ResolutionRow(h, c, h * w * c * bpa))
    peak = max(r.nbytes for r in rows if not r.streamed)
    return MemoryReport(peak_bytes=peak, rows=rows)


def block_graph(
    spec: ModelSpec,
    bytes_per_activation: int = 2,
    first_block: int = 0,
) -> ComputeGraph:
    """Block-granular compute graph: a chain of the ``layer_walk`` records
    after the stem, one op each (a block's shortcut is internal), and each
    output ``bytes_per_activation`` times its record's shape.

    ``first_block`` drops that many leading blocks, modelling the case
    where the high-resolution prefix is handled by streamed execution and
    the planner only sees the materialized tail.
    """
    bpa = _activation_bytes(bytes_per_activation)
    chain = list(layer_walk(spec))[1:]  # after the stem
    if not 0 <= first_block < sum(layer.kind == "block" for layer in chain):
        raise GraphError(f"first_block {first_block} out of range")
    chain = chain[first_block:]
    outputs = {"head": "head_out", "avgpool": "pooled", "classifier": "logits"}
    tensors = [TensorNode("in", bpa * math.prod(chain[0].in_shape))]
    ops = []
    prev = "in"
    for layer in chain:
        out_name = outputs.get(layer.name, f"{layer.name}_out")
        tensors.append(TensorNode(out_name, bpa * math.prod(layer.out_shape)))
        ops.append(OpNode(layer.name, (prev,), (out_name,)))
        prev = out_name
    return ComputeGraph(tensors, ops)
