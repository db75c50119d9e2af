import gc
import importlib
import io
import json
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bottlenet import kernels
from bottlenet.blocks import bottleneck_forward
from bottlenet.errors import GraphError, GraphTooLargeError, InvalidShapeError
from bottlenet.memplan import (
    CascadePlan,
    _RECORDS,
    ComputeGraph,
    OpNode,
    TensorNode,
    block_graph,
    cascade_execute,
    cascade_peak_bytes,
    greedy_memory_schedule,
    linear_bound_memory,
    memory_table,
    min_memory_schedule,
    schedule_memory,
    unique_topological_order,
)
from bottlenet.model import ModelSpec, build_model, layer_walk, make_bottleneck
from bottlenet.tensor import Rng, max_abs_rel_diff, random_gaussian

from conftest import (
    dp_min_memory_schedule,
    executed_madds,
    exhaustive_schedules,
    seed_bottleneck_forward,
    seed_cascade_execute,
    seed_greedy_memory_schedule,
    seed_min_memory_schedule,
    seed_schedule_steps,
)


def chain_graph():
    # A(100) -> op1 -> B(200) -> op2 -> C(50)
    return ComputeGraph(
        [TensorNode("A", 100), TensorNode("B", 200), TensorNode("C", 50)],
        [OpNode("op1", ("A",), ("B",)), OpNode("op2", ("B",), ("C",))],
    )


def diamond_graph():
    # Two branch orders with peaks 300 vs 260 (op1 carries workspace 40).
    return ComputeGraph(
        [TensorNode("S", 50), TensorNode("X", 150), TensorNode("Y", 60),
         TensorNode("Z", 50)],
        [OpNode("op1", ("S",), ("X",), workspace=40),
         OpNode("op2", ("S",), ("Y",)),
         OpNode("op3", ("X", "Y"), ("Z",))],
    )


def residual_graph():
    # x -> branch -> y; add(x, y) -> z: the only parallelism is the shortcut.
    return ComputeGraph(
        [TensorNode("x", 80), TensorNode("h", 120), TensorNode("y", 80),
         TensorNode("z", 80)],
        [OpNode("expand", ("x",), ("h",)),
         OpNode("project", ("h",), ("y",)),
         OpNode("add", ("x", "y"), ("z",))],
    )


class TestScheduleMemory:
    def test_single_op(self):
        g = ComputeGraph(
            [TensorNode("in", 100), TensorNode("out", 50)],
            [OpNode("op", ("in",), ("out",))],
        )
        assert schedule_memory(g, ("op",)).peak_bytes == 150

    def test_linear_chain_peak_at_first_op(self):
        report = schedule_memory(chain_graph(), ("op1", "op2"))
        assert [s.total for s in report.steps] == [300, 250]
        assert report.peak_bytes == 300

    @pytest.mark.parametrize("order", [
        ("op2", "op1"),
        ("op1", "op1", "op2"),
        ("op1", "op2", "op1"),
        ("op1",),
        ("op1", "op2", "op3"),
        ("op1", "nope"),
        ("op2", "op1", "op2"),
    ], ids=["reversed", "duplicated", "duplicated-last", "missing", "extra", "unknown",
            "also-early"])
    def test_non_topological_rejected(self, order):
        with pytest.raises(GraphError, match="not a topological order"):
            schedule_memory(chain_graph(), order)

    def test_diamond_orders_differ(self):
        g = diamond_graph()
        a = schedule_memory(g, ("op1", "op2", "op3")).peak_bytes
        b = schedule_memory(g, ("op2", "op1", "op3")).peak_bytes
        assert sorted([a, b]) == [260, 300]

    def test_residual_carried_tensor_is_charged(self):
        g = residual_graph()
        report = schedule_memory(g, ("expand", "project", "add"))
        # During "project" the shortcut input x is still live.
        assert report.steps[1].live_bytes == 80 + 120 + 80


class TestMinMemorySchedule:
    def test_chain_returns_unique_order(self):
        sched, peak = min_memory_schedule(chain_graph())
        assert sched.order == ("op1", "op2")
        assert peak == 300
        assert sched.optimal

    def test_diamond_picks_cheaper_branch_order(self):
        sched, peak = min_memory_schedule(diamond_graph())
        assert peak == 260
        assert sched.order == ("op1", "op2", "op3")

    def test_matches_exhaustive_on_fixtures(self):
        for g in (chain_graph(), diamond_graph(), residual_graph()):
            _, peak = min_memory_schedule(g)
            brute = min(
                schedule_memory(g, order).peak_bytes
                for order in exhaustive_schedules(g)
            )
            assert peak == brute

    def test_too_large_raises_and_greedy_covers(self):
        tensors = [TensorNode(f"t{i}", 10) for i in range(18)]
        ops = [OpNode(f"o{i}", (f"t{i}",), (f"t{i + 1}",)) for i in range(17)]
        g = ComputeGraph(tensors, ops)
        with pytest.raises(GraphTooLargeError):
            min_memory_schedule(g)
        sched, peak = greedy_memory_schedule(g)
        assert not sched.optimal
        assert schedule_memory(g, sched).peak_bytes == peak == 20

    def test_lexicographic_tie_break(self):
        # Two independent identical chains; all orders tie, the op-index
        # order must win.
        g = ComputeGraph(
            [TensorNode("a", 10), TensorNode("b", 10),
             TensorNode("c", 10), TensorNode("d", 10)],
            [OpNode("first", ("a",), ("b",)), OpNode("second", ("c",), ("d",))],
        )
        sched, _ = min_memory_schedule(g)
        assert sched.order == ("first", "second")


def solved(search, g):
    sched, peak = search(g)
    return sched.order, peak, sched.optimal


@st.composite
def general_dags(draw, max_ops=12, min_ops=0):
    """Up to three sources (possibly unused), then ops reading zero to three
    earlier tensors and writing zero to two new ones, so unconsumed
    outputs, workspace-only ops and multi-output ops all occur; small
    sizes and a frequent zero workspace make equal-peak ties common."""
    tensors = [TensorNode(f"s{k}", draw(st.integers(0, 64)))
               for k in range(draw(st.integers(0, 3)))]
    ops = []
    for i in range(draw(st.integers(min_ops, max_ops))):
        names = [t.name for t in tensors]
        ins = draw(st.lists(st.sampled_from(names), max_size=3, unique=True)) if names else []
        outs = [TensorNode(f"t{i}_{k}", draw(st.integers(0, 64)))
                for k in range(draw(st.integers(0, 2)))]
        tensors += outs
        ops.append(OpNode(f"op{i}", tuple(ins), tuple(t.name for t in outs),
                          workspace=draw(st.one_of(st.sampled_from((0, 0, 8, 40)),
                                                   st.integers(0, 30)))))
    return ComputeGraph(tensors, ops)


@st.composite
def shortcut_chains(draw, max_ops=7):
    """Each op writes one tensor and reads up to two earlier ones as
    shortcuts; nine in ten also read the previous op's output.  The order
    is unique exactly when every op keeps that link."""
    tensors = [TensorNode("x0", draw(st.integers(0, 64)))]
    ops = []
    for i in range(draw(st.integers(1, max_ops))):
        earlier = [t.name for t in tensors[:-1]]
        ins = draw(st.lists(st.sampled_from(earlier), max_size=2, unique=True)) if earlier else []
        if draw(st.integers(0, 9)):
            ins.append(tensors[-1].name)
        tensors.append(TensorNode(f"x{i + 1}", draw(st.integers(0, 64))))
        ops.append(OpNode(f"op{i}", tuple(ins), (tensors[-1].name,)))
    return ComputeGraph(tensors, ops)


def feature_graph():
    # Unused source "u", multi-output "split", workspace-only "probe",
    # unconsumed outputs "aux" and "out".
    return ComputeGraph(
        [TensorNode("s", 40), TensorNode("u", 25), TensorNode("a", 30),
         TensorNode("b", 10), TensorNode("c", 20), TensorNode("d", 15),
         TensorNode("aux", 5), TensorNode("out", 20)],
        [OpNode("split", ("s",), ("a", "b")),
         OpNode("probe", ("a",), (), workspace=50),
         OpNode("left", ("a",), ("c",)),
         OpNode("right", ("b",), ("d", "aux")),
         OpNode("join", ("c", "d"), ("out",))],
    )


def ladder_graph(n_ops):
    # Op i reads the outputs of ops i-3 and i-2 (the source for the first
    # ones), so neighbouring ops may run in either order: a narrow DAG
    # of any length with many feasible orders.
    names = ["src"] + [f"o{i}" for i in range(n_ops)]
    return ComputeGraph(
        [TensorNode("src", 7)] + [TensorNode(f"o{i}", 3 + i % 4) for i in range(n_ops)],
        [OpNode(f"op{i}", tuple(names[max(0, i - 2):max(1, i)]), (f"o{i}",),
                workspace=i % 3) for i in range(n_ops)],
    )


class TestSeedSearchEquivalence:
    """The integer searches return exactly what the original dict-based
    branch-and-bound and greedy (kept in conftest) return."""

    @pytest.mark.parametrize("g", [
        ComputeGraph([], []),
        ComputeGraph([TensorNode("unused", 9)], []),
        feature_graph(),
        ladder_graph(16),
    ], ids=["empty", "source-only", "features", "ladder16"])
    def test_fixtures(self, g):
        assert solved(min_memory_schedule, g) == seed_min_memory_schedule(g)
        assert solved(greedy_memory_schedule, g) == seed_greedy_memory_schedule(g)

    def test_limit_still_16_ops(self):
        g = ladder_graph(17)
        with pytest.raises(GraphTooLargeError):
            min_memory_schedule(g)
        assert solved(greedy_memory_schedule, g) == seed_greedy_memory_schedule(g)

    @settings(max_examples=300, deadline=None)
    @given(g=general_dags())
    def test_random_dags_match_seed(self, g):
        assert solved(min_memory_schedule, g) == seed_min_memory_schedule(g)
        assert solved(greedy_memory_schedule, g) == seed_greedy_memory_schedule(g)

    @settings(max_examples=100, deadline=None)
    @given(g=general_dags(min_ops=13, max_ops=16))
    def test_dags_up_to_the_limit_match_seed(self, g):
        assert solved(min_memory_schedule, g) == seed_min_memory_schedule(g)

    @settings(max_examples=100, deadline=None)
    @given(g=general_dags(min_ops=17, max_ops=22))
    def test_dags_past_the_limit_match_seed_when_raised(self, g):
        # The dict-and-undo seed takes seconds on some of these graphs; the
        # executed-set reference gives the same peak and tie-break order.
        sched, peak = min_memory_schedule(g, exact_limit=22)
        assert (sched.order, peak, sched.optimal) == dp_min_memory_schedule(g)

    def test_cheaper_prefix_through_an_explored_set_wins(self):
        # The first prefix to run {x_big, y_mid, x_small} is the index order
        # (x_big, y_mid, x_small), peak 151 while X and Y are both live,
        # and its best completion also peaks at 151.  The same set is then
        # reached by (x_big, x_small, y_mid) at 101: the set must not be
        # cut as unbeatable, and that cheaper prefix wins.
        g = ComputeGraph(
            [TensorNode("X", 100), TensorNode("x", 1), TensorNode("Y", 50),
             TensorNode("y", 1), TensorNode("out", 1)],
            [OpNode("x_big", (), ("X",)), OpNode("y_mid", (), ("Y",)),
             OpNode("x_small", ("X",), ("x",)), OpNode("y_small", ("Y",), ("y",)),
             OpNode("join", ("x", "y"), ("out",))],
        )
        first = ("x_big", "y_mid", "x_small", "y_small", "join")
        order = ("x_big", "x_small", "y_mid", "y_small", "join")
        assert schedule_memory(g, first).peak_bytes == 151
        assert solved(min_memory_schedule, g) == (order, 101, True)
        assert seed_min_memory_schedule(g) == (order, 101, True)

    @settings(max_examples=100, deadline=None)
    @given(g=general_dags(max_ops=7))
    def test_small_dags_match_exhaustive(self, g):
        order, peak, _ = solved(min_memory_schedule, g)
        brute = min(schedule_memory(g, o).peak_bytes for o in exhaustive_schedules(g))
        assert peak == brute == schedule_memory(g, order).peak_bytes
        assert dp_min_memory_schedule(g) == (order, peak, True)
        order, greedy_peak, _ = solved(greedy_memory_schedule, g)
        assert greedy_peak == schedule_memory(g, order).peak_bytes >= peak

    @settings(max_examples=150, deadline=None)
    @given(g=general_dags())
    def test_schedule_memory_matches_seed_rescan(self, g):
        for search in (min_memory_schedule, greedy_memory_schedule):
            order = search(g)[0].order
            report = schedule_memory(g, order)
            steps = seed_schedule_steps(g, order)
            assert [(s.op, s.live_bytes, s.workspace) for s in report.steps] == steps
            assert report.peak_bytes == max((live + ws for _, live, ws in steps), default=0)


class TestReadySetWalk:
    """The walk keeps the ready ops as a bitmask updated from each op's
    successors; a given order must still name exactly the ready ops."""

    @pytest.mark.parametrize("kind", ["miss", "repeat", "add", "misorder", "also-early"])
    @settings(max_examples=60, deadline=None)
    @given(g=general_dags(min_ops=2), data=st.data())
    def test_broken_orders_rejected_on_random_dags(self, kind, g, data):
        order = list(greedy_memory_schedule(g)[0].order)
        k = data.draw(st.integers(0, len(order) - 1))
        if kind == "miss":
            del order[k]
        elif kind == "repeat":
            order.insert(data.draw(st.integers(k + 1, len(order))), order[k])
        elif kind == "add":
            order.insert(data.draw(st.integers(0, len(order))), "nope")
        else:  # move (or copy) an op in front of an op that makes one of its inputs
            made_by = {t: op.name for op in g.ops for t in op.outputs}
            pairs = [(order.index(made_by[t]), j) for j, name in enumerate(order)
                     for t in g.ops[g.op_index[name]].inputs if t in made_by]
            assume(pairs)
            before, j = data.draw(st.sampled_from(pairs))
            order.insert(before, order[j] if kind == "also-early" else order.pop(j))
        with pytest.raises(GraphError, match="not a topological order"):
            schedule_memory(g, tuple(order))

    @pytest.mark.parametrize("head, fan", [(0, 3), (2, 4), (5, 2)])
    def test_parallel_structure_names_the_ready_ops(self, head, fan):
        # A chain of `head` ops, then `fan` ops that all read its last tensor.
        tensors = [TensorNode(f"c{i}", 4) for i in range(head + 1)]
        ops = [OpNode(f"chain{i}", (f"c{i}",), (f"c{i + 1}",)) for i in range(head)]
        tensors += [TensorNode(f"f{k}", 2) for k in range(fan)]
        ops += [OpNode(f"fan{k}", (f"c{head}",), (f"f{k}",)) for k in range(fan)]
        g = ComputeGraph(tensors, ops)
        for walk in (unique_topological_order, linear_bound_memory):
            with pytest.raises(GraphError, match=rf"parallel structure \({fan} ops ready\)"):
                walk(g)


class TestLinearBound:
    def test_single_op_equals_schedule(self):
        g = ComputeGraph(
            [TensorNode("in", 100), TensorNode("out", 50)],
            [OpNode("op", ("in",), ("out",), workspace=7)],
        )
        assert linear_bound_memory(g) == 157

    def test_chain_equals_combined_io_max(self):
        g = chain_graph()
        closed_form = max(100 + 200, 200 + 50)
        assert linear_bound_memory(g) == closed_form

    def test_rejects_nontrivial_parallelism(self):
        with pytest.raises(GraphError):
            linear_bound_memory(diamond_graph())

    @settings(max_examples=200, deadline=None)
    @given(g=st.one_of(general_dags(max_ops=7), shortcut_chains()))
    def test_unique_order_matches_exhaustive(self, g):
        orders = list(exhaustive_schedules(g))
        if len(orders) == 1:
            assert unique_topological_order(g) == orders[0]
        else:
            with pytest.raises(GraphError, match="parallel structure"):
                unique_topological_order(g)

    def test_residual_equals_min_schedule(self):
        g = residual_graph()
        assert linear_bound_memory(g) == min_memory_schedule(g)[1]

    def test_matches_planner_on_model_block_graphs(self):
        for alpha, res in ((0.35, 96), (1.0, 224)):
            g = block_graph(ModelSpec(resolution=res, width_multiplier=alpha),
                            bytes_per_activation=2, first_block=4)
            bound = linear_bound_memory(g)
            _, peak = min_memory_schedule(g, exact_limit=32)
            assert bound == peak

    def test_published_tail_peak(self):
        # Block-granular graph downstream of the streamed high-resolution
        # prefix, 16-bit activations: the peak is the 56x56 stage
        # transition at 200,704 bytes.
        g = block_graph(ModelSpec(), bytes_per_activation=2, first_block=3)
        assert linear_bound_memory(g) == 200_704
        report = schedule_memory(g, unique_topological_order(g))
        worst = max(report.steps, key=lambda s: s.total)
        assert worst.op == "block04"


@pytest.fixture(scope="module")
def perfbench(repo_root):
    """perfbench's ``reference`` (independent of bottlenet) and ``workloads``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(repo_root / "perfbench"))
        yield types.SimpleNamespace(reference=importlib.import_module("reference"),
                                    workloads=importlib.import_module("workloads"))


class TestBlockGraph:
    def test_sizes_match_the_independent_reference(self, perfbench):
        # Every alpha x resolution of the plan stream, 16- and 32-bit, and
        # every first_block: the chain drops that many leading tensors.
        wl = perfbench.workloads
        for alpha in wl.PLAN_ALPHAS:
            for res in wl.PLAN_RESOLUTIONS:
                spec = ModelSpec(resolution=res, width_multiplier=alpha, classes=wl.CLASSES)
                for bpa in (2, 4):
                    want = perfbench.reference.block_graph_sizes(alpha, res, wl.CLASSES, bpa)
                    for first in range(17):
                        g = block_graph(spec, bytes_per_activation=bpa, first_block=first)
                        got = [t.nbytes for t in g.tensors.values()]
                        assert got == want[first:], (alpha, res, bpa, first)

    def test_names_follow_the_chain(self):
        g = block_graph(ModelSpec(resolution=96, width_multiplier=0.35), first_block=15)
        assert list(g.tensors) == ["in", "block16_out", "block17_out", "head_out",
                                   "pooled", "logits"]
        assert [(op.name, op.inputs, op.outputs) for op in g.ops] == [
            ("block16", ("in",), ("block16_out",)),
            ("block17", ("block16_out",), ("block17_out",)),
            ("head", ("block17_out",), ("head_out",)),
            ("avgpool", ("head_out",), ("pooled",)),
            ("classifier", ("pooled",), ("logits",)),
        ]

    @pytest.mark.parametrize("first", [-1, 17])
    def test_first_block_out_of_range(self, first):
        with pytest.raises(GraphError, match="out of range"):
            block_graph(ModelSpec(), first_block=first)


class TestMemoryTable:
    def test_rows_match_the_independent_reference(self, perfbench):
        for alpha in perfbench.workloads.PLAN_ALPHAS:
            for res in perfbench.workloads.PLAN_RESOLUTIONS:
                spec = ModelSpec(resolution=res, width_multiplier=alpha)
                for bpa in (2, 4):
                    report = memory_table(spec, bytes_per_activation=bpa)
                    want = perfbench.reference.memory_table_peak(alpha, res, bpa)
                    assert (len(report.rows), report.peak_bytes) == want
                    pooled = report.rows[-1]
                    head = perfbench.reference.head_width(alpha)
                    assert (pooled.resolution, pooled.channels) == (1, head)
                    assert pooled.nbytes == head * bpa

    def test_published_column_within_tolerance(self):
        report = memory_table(ModelSpec(), bytes_per_activation=2)
        rows = {r.resolution: r for r in report.rows}
        published = {56: (32, 200.0), 28: (64, 100.0), 14: (160, 62.0),
                     7: (320, 32.0), 1: (1280, 2.5)}
        for res, (channels, kb) in published.items():
            assert rows[res].channels == channels
            assert rows[res].kilobytes == pytest.approx(kb, rel=0.05)
        assert report.peak_kilobytes == pytest.approx(200.0, rel=0.05)

    def test_first_row_streamed(self):
        report = memory_table(ModelSpec())
        first = report.rows[0]
        assert first.resolution == 112
        assert first.streamed and first.channels == 1
        assert report.peak_bytes == max(
            r.nbytes for r in report.rows if not r.streamed
        )

    def test_32bit_doubles_every_row(self):
        half = memory_table(ModelSpec(), bytes_per_activation=2)
        full = memory_table(ModelSpec(), bytes_per_activation=4)
        for a, b in zip(half.rows, full.rows):
            assert b.nbytes == 2 * a.nbytes
        assert full.peak_bytes == 2 * half.peak_bytes

    def test_other_bytes_rejected(self):
        # One activation-width rule for every byte model: 16 or 32 bits.
        spec = ModelSpec()
        block01 = next(r for r in layer_walk(spec) if r.kind == "block")
        for bpa in (0, 3, -1, 4.0, 2.0):
            for model in (lambda: memory_table(spec, bytes_per_activation=bpa),
                          lambda: block_graph(spec, bytes_per_activation=bpa),
                          lambda: cascade_peak_bytes(block01, 112, 112, CascadePlan(32, 1),
                                                     bytes_per_activation=bpa)):
                with pytest.raises(InvalidShapeError, match=f"must be 2 or 4, got {bpa}"):
                    model()


def positive_block(cin=64, cout=64, t=6, stride=1, seed=77):
    rng = Rng(seed)
    p = make_bottleneck(cin, cout, t, stride)
    for stage in (p.expand, p.depthwise, p.project):
        if stage is None:
            continue
        stage.weights[...] = rng.uniform(stage.weights.shape, 0.0, 0.05)
        stage.bias[...] = rng.uniform(stage.bias.shape, 0.0, 0.1)
    return p, rng.uniform((1, 14, 14, cin), 0.0, 1.0)


class TestCascade:
    def test_plan_from_split(self):
        plan = CascadePlan.from_split(384, 5)
        sizes = [stop - start for start, stop in plan.groups]
        assert sizes == [76, 76, 76, 76, 80]
        assert plan.max_group == 80
        assert plan.channels == 384
        assert plan.split == 5
        # More groups than channels clamps to one channel per group.
        assert CascadePlan.from_split(8, 9).groups == tuple((i, i + 1) for i in range(8))

    def test_plan_validation(self):
        for channels, split in ((8, 0), (8, -1), (8, 9), (8, 2.5), (8.0, 2), (8, True)):
            with pytest.raises(InvalidShapeError):
                CascadePlan(channels, split)

    def test_single_group_is_monolithic(self):
        p, x = positive_block()
        ref = bottleneck_forward(x, p)
        got, _ = cascade_execute(x, p, CascadePlan.from_split(384, 1))
        assert np.array_equal(ref, got)

    def test_per_channel_split(self):
        p, x = positive_block()
        plan = CascadePlan.from_split(384, 384)
        assert plan.max_group == 1
        got, _ = cascade_execute(x, p, plan)
        assert max_abs_rel_diff(bottleneck_forward(x, p), got) < 1e-5

    @pytest.mark.parametrize("split", [2, 3, 5])
    def test_split_equivalence_and_madd_invariance(self, split):
        p, x = positive_block()
        with executed_madds() as mono_madds:
            ref = bottleneck_forward(x, p)
        with executed_madds() as madds:
            got, _ = cascade_execute(x, p, CascadePlan.from_split(384, split))
        assert madds.total == mono_madds.total
        assert max_abs_rel_diff(ref, got) < 1e-5

    def test_peak_nonincreasing_in_split(self):
        p, x = positive_block()
        peaks = [
            cascade_execute(x, p, CascadePlan.from_split(384, s))[1]
            for s in (1, 2, 3, 4, 6, 384)
        ]
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))

    def test_wrong_plan_width_rejected(self):
        p, x = positive_block()
        with pytest.raises(InvalidShapeError):
            cascade_execute(x, p, CascadePlan.from_split(380, 2))

    def test_fused_block_supported(self):
        rng = Rng(81)
        p = make_bottleneck(16, 24, 1, 1)
        for stage in (p.depthwise, p.project):
            stage.weights[...] = rng.uniform(stage.weights.shape, 0.0, 0.1)
            stage.bias[...] = rng.uniform(stage.bias.shape, 0.0, 0.1)
        x = rng.uniform((1, 8, 8, 16), 0.0, 1.0)
        ref = bottleneck_forward(x, p)
        got, _ = cascade_execute(x, p, CascadePlan.from_split(16, 4))
        assert max_abs_rel_diff(ref, got) < 1e-5

    def test_stride2_split_equivalence(self):
        p, x = positive_block(cin=32, cout=48, stride=2, seed=91)
        ref = bottleneck_forward(x, p)
        got, _ = cascade_execute(x, p, CascadePlan.from_split(192, 3))
        assert max_abs_rel_diff(ref, got) < 1e-5


class TestGroupExecutor:
    """``bottleneck_forward`` over channel groups reproduces the seed paths
    byte for byte: one group the monolithic block, several the cascade."""

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
        t=st.sampled_from([1, 6]), stride=st.sampled_from([1, 2]),
        cin=st.integers(3, 6), widen=st.booleans(),
        split=st.sampled_from([1, 2, 3, "inner"]),
        seed=st.integers(0, 2**16), zeros=st.integers(0, 8),
    )
    def test_bytes_match_seed_paths(self, b, h, w, t, stride, cin, widen, split, seed, zeros):
        rng = Rng(seed)
        p = make_bottleneck(cin, cin + 2 if widen else cin, t, stride)
        for stage in (p.expand, p.depthwise, p.project):
            if stage is not None:
                stage.weights[...] = rng.normal(stage.weights.shape, stddev=0.5)
                stage.bias[...] = rng.normal(stage.bias.shape, stddev=0.1)
        x = random_gaussian((b, h, w, cin), rng)
        flat = x.reshape(-1)
        for i in range(zeros):
            flat[(i * 7919 + seed) % flat.size] = -0.0 if i % 2 else 0.0
        inner = p.expanded_channels
        plan = CascadePlan.from_split(inner, inner if split == "inner" else split)
        got, peak = cascade_execute(x, p, plan)
        grouped = bottleneck_forward(x, p, plan=plan)
        if len(plan.groups) == 1:
            want = seed_bottleneck_forward(x, p)
            assert bottleneck_forward(x, p).tobytes() == want.tobytes()
        else:
            want, want_peak = seed_cascade_execute(x, p, plan)
            assert peak == want_peak
        assert got.tobytes() == want.tobytes()
        assert grouped.tobytes() == want.tobytes()

    def test_split8_peak_not_above_seed_cascade(self):
        # One group's projection is released before the next group runs,
        # so the working set never holds two group-sized projections.
        p, _ = positive_block(cin=24, cout=24, seed=95)
        x = Rng(96).uniform((1, 56, 56, 24), 0.0, 1.0)
        plan = CascadePlan.from_split(p.expanded_channels, 8)

        def traced_peak(run):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(x, p, plan)
            return tracemalloc.get_traced_memory()[1] - base

        # Interleaved repeats under one trace; the minimum drops the tens of
        # bytes of Python objects that allocator free lists sometimes absorb.
        peaks = {cascade_execute: [], seed_cascade_execute: []}
        tracemalloc.start()
        try:
            for _ in range(4):
                for run in peaks:
                    peaks[run].append(traced_peak(run))
        finally:
            tracemalloc.stop()
        assert min(peaks[cascade_execute]) <= min(peaks[seed_cascade_execute]), peaks


def cascade_runner(split):
    def run(x, p):
        plan = CascadePlan.from_split(p.expanded_channels, min(split, p.expanded_channels))
        return cascade_execute(x, p, plan)[0]
    return run


class TestCascadeOnModel:
    SPEC = ModelSpec(resolution=96, width_multiplier=0.35, classes=10)

    def test_every_block_matches_monolithic(self):
        model = build_model(self.SPEC).randomize(Rng(11))
        stem = model.layers[0].params
        x = kernels.relu6(kernels.conv2d(random_gaussian((2, 96, 96, 3), Rng(12)), stem))
        blocks = model.bottleneck_layers()
        assert len(blocks) == 17
        for layer in blocks:
            p = layer.params
            with executed_madds() as mono_madds:
                ref = bottleneck_forward(x, p)
            scale = float(np.max(np.abs(ref)))
            for split in (1, 2, 4, 8):
                with executed_madds() as madds:
                    got = cascade_runner(split)(x, p)
                assert madds.total == mono_madds.total, (layer.name, split)
                if split == 1:
                    assert got.tobytes() == ref.tobytes(), layer.name
                else:
                    assert float(np.max(np.abs(got - ref))) <= 1e-5 * scale, (layer.name, split)
            x = ref

    def test_new_weights_reach_next_call(self):
        model = build_model(self.SPEC).randomize(Rng(21))
        x = random_gaussian((1, 96, 96, 3), Rng(22))
        before = model.forward(x, block_runner=cascade_runner(4))
        fresh = build_model(self.SPEC).randomize(Rng(23))
        for (_, arr), (_, value) in zip(model.parameters(), fresh.parameters()):
            arr[...] = value
        after = model.forward(x, block_runner=cascade_runner(4))
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == fresh.forward(x, block_runner=cascade_runner(4)).tobytes()


class TestSharedProducer:
    """``join`` reads two outputs of ``split``: it has one predecessor and
    is ``split``'s successor once, so every order runs it exactly once."""

    ORDER = ("split", "join")

    def pair_graph(self):
        return ComputeGraph(
            [TensorNode("s", 10), TensorNode("a", 20), TensorNode("b", 30),
             TensorNode("out", 5)],
            [OpNode("split", ("s",), ("a", "b"), workspace=7),
             OpNode("join", ("a", "b"), ("out",))],
        )

    def test_each_op_runs_once(self):
        g = self.pair_graph()
        reference = min(max(live + ws for _, live, ws in seed_schedule_steps(g, o))
                        for o in exhaustive_schedules(g))
        assert reference == 67
        for search in (min_memory_schedule, greedy_memory_schedule):
            sched, peak = search(g)
            assert sched.order == self.ORDER and peak == reference
        report = schedule_memory(g, self.ORDER)
        assert [s.op for s in report.steps] == list(self.ORDER)
        assert report.peak_bytes == reference
        assert unique_topological_order(g) == self.ORDER
        assert g.succs == [[1], []]


def reloaded(g):
    buf = io.StringIO()
    g.dump_jsonl(buf)
    buf.seek(0)
    return ComputeGraph.load_jsonl(buf)


class TestGraphSerialization:
    @settings(max_examples=200, deadline=None)
    @given(general_dags())
    def test_jsonl_round_trip(self, g):
        # Every graph the constructor accepts reloads to the same tables.
        back = reloaded(g)
        assert list(back.tensors.items()) == list(g.tensors.items())
        assert back.ops == g.ops
        assert (back.rows, back.succs, back.live0) == (g.rows, g.succs, g.live0)

    def test_diamond_round_trip(self):
        # One key per node field, so the writer and the reader name the same fields.
        for node, keys in _RECORDS.values():
            assert len(keys) == len(node._fields)
        _, peak = min_memory_schedule(reloaded(diamond_graph()))
        assert peak == 260


class TestGraphValidation:
    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            ComputeGraph(
                [TensorNode("a", 1), TensorNode("b", 1)],
                [OpNode("f", ("a",), ("b",)), OpNode("g", ("b",), ("a",))],
            )

    def test_double_producer_rejected(self):
        with pytest.raises(GraphError):
            ComputeGraph(
                [TensorNode("a", 1), TensorNode("b", 1)],
                [OpNode("f", ("a",), ("b",)), OpNode("g", ("a",), ("b",))],
            )

    @pytest.mark.parametrize("op", [
        OpNode("f", ("a",), ("a",)),
        OpNode("f", ("s", "a"), ("a", "b")),
    ], ids=["only-own-output", "source-and-own-output"])
    def test_op_reading_its_own_output_is_a_cycle(self, op):
        with pytest.raises(GraphError, match="cycle"):
            ComputeGraph([TensorNode("s", 1), TensorNode("a", 1), TensorNode("b", 1)],
                         [OpNode("g", ("s",), ()), op])

    def test_read_only_after_construction(self):
        # The schedule tables are built once: an op appended or a tensor
        # resized later would silently be ignored by every schedule.
        g = chain_graph()
        with pytest.raises(AttributeError):
            g.ops.append(OpNode("op3", ("C",), ()))
        with pytest.raises(TypeError):
            g.tensors["B"] = TensorNode("B", 500)
        assert schedule_memory(g, ("op1", "op2")).peak_bytes == 300

    def test_unknown_tensor_rejected(self):
        with pytest.raises(GraphError):
            ComputeGraph([TensorNode("a", 1)], [OpNode("f", ("a",), ("zzz",))])

    def test_negative_workspace_rejected(self):
        # A negative step cost would let the exact search return an empty
        # "optimal" order and the greedy sweep report a peak of 0.
        with pytest.raises(GraphError, match="negative workspace"):
            ComputeGraph([TensorNode("a", 10), TensorNode("b", 100)],
                         [OpNode("f", ("a",), ("b",), workspace=-1000)])

    @pytest.mark.parametrize("node", [
        TensorNode("w", 1.7),
        TensorNode("w", True),
        TensorNode(7, 4),
        OpNode("f", "xy", ("z",)),
        OpNode("f", ("x", 1), ("z",)),
        OpNode("f", ("x",), "z"),
        OpNode("f", ("x",), ("z",), workspace=2.5),
    ], ids=["bytes-float", "bytes-bool", "name-number", "inputs-string", "inputs-number",
            "outputs-string", "workspace-float"])
    def test_field_types_checked(self, node):
        # The type cases of test_malformed_jsonl_line_named, built directly.
        tensors, ops = [TensorNode("x", 1), TensorNode("y", 2), TensorNode("z", 3)], []
        (ops if isinstance(node, OpNode) else tensors).append(node)
        with pytest.raises(GraphError, match=" needs ") as info:
            ComputeGraph(tensors, ops)
        assert info.value.record == (("op", 0) if ops else ("tensor", 3))

    def test_negative_workspace_rejected_from_jsonl(self):
        buf = io.StringIO(
            '{"kind": "tensor", "name": "a", "bytes": 10}\n'
            '{"kind": "tensor", "name": "b", "bytes": 100}\n'
            '{"kind": "op", "name": "f", "inputs": ["a"], "outputs": ["b"], "workspace": -1000}\n'
        )
        with pytest.raises(GraphError, match="negative workspace"):
            ComputeGraph.load_jsonl(buf)

    @pytest.mark.parametrize("line", [
        '{"kind": "tensor", "name": "w"}',
        '{"kind": "op", "name": "f", "inputs": ["x"]}',
        '{"kind": "tensor", "name": "w", "bytes": 4',
        'tensor w 4',
        '["tensor", "w", 4]',
        '"tensor"',
        '{"name": "w", "bytes": 4}',
        '{"kind": "array", "name": "w", "bytes": 4}',
        '{"kind": ["op"], "name": "w", "bytes": 4}',
        '{"kind": "tensor", "name": "w", "bytes": "12x"}',
        '{"kind": "tensor", "name": "w", "bytes": 1.7}',
        '{"kind": "tensor", "name": "w", "bytes": true}',
        '{"kind": "tensor", "name": 7, "bytes": 4}',
        '{"kind": "op", "name": "f", "inputs": "xy", "outputs": ["z"]}',
        '{"kind": "op", "name": "f", "inputs": ["x", 1], "outputs": ["z"]}',
        '{"kind": "op", "name": "f", "inputs": ["x"], "outputs": "z"}',
        '{"kind": "op", "name": "f", "inputs": ["x"], "outputs": ["z"], "workspace": 2.5}',
    ], ids=["tensor-missing-bytes", "op-missing-outputs", "not-json", "plain-text",
            "json-array", "json-string", "missing-kind", "unknown-kind", "list-kind",
            "bytes-string", "bytes-float", "bytes-bool", "name-number", "inputs-string",
            "inputs-number", "outputs-string", "workspace-float"])
    def test_malformed_jsonl_line_named(self, line):
        buf = io.StringIO(
            '{"kind": "tensor", "name": "x", "bytes": 1}\n'
            '{"kind": "tensor", "name": "y", "bytes": 2}\n'
            '{"kind": "tensor", "name": "z", "bytes": 3}\n'
            '\n' + line + '\n'
        )
        with pytest.raises(GraphError, match=r"^line 5: "):
            ComputeGraph.load_jsonl(buf)

    @pytest.mark.parametrize("records,line,match", [
        ([("a", 1), ("a", 2)], 2, "duplicate tensor 'a'"),
        ([("a", 1), ("b", -1)], 2, "negative size"),
        ([("a", 1), ("f", ["a"], ["zzz"], 0)], 2, "unknown tensor"),
        ([("a", 1), ("b", 1), ("f", ["a"], ["b"], 0), ("g", ["a"], ["b"], 0)],
         4, "two producers"),
        ([("a", 1), ("f", [], [], 0), ("f", ["a"], [], 0)], 3, "duplicate op"),
        ([("f", ["a", "a"], [], 0), ("a", 1)], 1, "input twice"),
        ([("a", 1), ("f", ["a"], [], -1)], 2, "negative workspace"),
    ], ids=["duplicate-tensor", "negative-size", "unknown-tensor", "two-producers",
            "duplicate-op", "input-twice", "negative-workspace"])
    def test_graph_rule_jsonl_line_named(self, records, line, match):
        # A well-formed file that breaks a graph rule names the offending
        # record's line (of two duplicates, the second).
        keys = {2: ("tensor", "name", "bytes"),
                4: ("op", "name", "inputs", "outputs", "workspace")}
        text = "".join(json.dumps(dict(zip(keys[len(r)][1:], r), kind=keys[len(r)][0])) + "\n"
                       for r in records)
        with pytest.raises(GraphError, match=rf"^line {line}: .*{match}"):
            ComputeGraph.load_jsonl(io.StringIO(text))

    def test_jsonl_cycle_has_no_line(self):
        buf = io.StringIO(
            '{"kind": "tensor", "name": "a", "bytes": 1}\n'
            '{"kind": "tensor", "name": "b", "bytes": 1}\n'
            '{"kind": "op", "name": "f", "inputs": ["a"], "outputs": ["b"]}\n'
            '{"kind": "op", "name": "g", "inputs": ["b"], "outputs": ["a"]}\n'
        )
        with pytest.raises(GraphError, match=r"^compute graph contains a cycle$"):
            ComputeGraph.load_jsonl(buf)
