import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenet import kernels
from bottlenet.blocks import bottleneck_forward
from bottlenet.errors import GraphError, GraphTooLargeError, InvalidShapeError
from bottlenet.memplan import (
    CascadePlan,
    ComputeGraph,
    OpNode,
    TensorNode,
    block_graph,
    cascade_execute,
    greedy_memory_schedule,
    linear_bound_memory,
    memory_table,
    min_memory_schedule,
    schedule_memory,
    unique_topological_order,
)
from bottlenet.model import ModelSpec, build_model, make_bottleneck
from bottlenet.tensor import Rng, max_abs_rel_diff, random_gaussian

from conftest import (
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

    def test_non_topological_rejected(self):
        with pytest.raises(GraphError):
            schedule_memory(chain_graph(), ("op2", "op1"))

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
        assert g.is_topological(sched.order)
        assert peak == 20

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
def general_dags(draw, max_ops=12):
    """Up to three sources (possibly unused), then ops reading zero to three
    earlier tensors and writing zero to two new ones, so unconsumed
    outputs, workspace-only ops and multi-output ops all occur; small
    sizes and a frequent zero workspace make equal-peak ties common."""
    tensors = [TensorNode(f"s{k}", draw(st.integers(0, 64)))
               for k in range(draw(st.integers(0, 3)))]
    ops = []
    for i in range(draw(st.integers(0, max_ops))):
        names = [t.name for t in tensors]
        ins = draw(st.lists(st.sampled_from(names), max_size=3, unique=True)) if names else []
        outs = [TensorNode(f"t{i}_{k}", draw(st.integers(0, 64)))
                for k in range(draw(st.integers(0, 2)))]
        tensors += outs
        ops.append(OpNode(f"op{i}", tuple(ins), tuple(t.name for t in outs),
                          workspace=draw(st.one_of(st.sampled_from((0, 0, 8, 40)),
                                                   st.integers(0, 30)))))
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
    @given(g=general_dags(max_ops=7))
    def test_small_dags_match_exhaustive(self, g):
        order, peak, _ = solved(min_memory_schedule, g)
        brute = min(schedule_memory(g, o).peak_bytes for o in exhaustive_schedules(g))
        assert peak == brute == schedule_memory(g, order).peak_bytes
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


class TestMemoryTable:
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
        with pytest.raises(InvalidShapeError):
            memory_table(ModelSpec(), bytes_per_activation=3)


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
        assert plan.total_channels == 384

    def test_plan_validation(self):
        with pytest.raises(InvalidShapeError):
            CascadePlan.from_split(8, 9)  # more groups than channels
        with pytest.raises(InvalidShapeError):
            CascadePlan(((0, 4), (5, 8)))  # gap
        with pytest.raises(InvalidShapeError):
            CascadePlan(((0, 4), (2, 8)))  # overlap

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
        grouped = bottleneck_forward(x, p, groups=plan.groups)
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
        model.set_parameters(dict(fresh.parameters()))
        after = model.forward(x, block_runner=cascade_runner(4))
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == fresh.forward(x, block_runner=cascade_runner(4)).tobytes()


class TestGraphSerialization:
    def test_jsonl_round_trip(self):
        g = diamond_graph()
        buf = io.StringIO()
        g.dump_jsonl(buf)
        buf.seek(0)
        back = ComputeGraph.load_jsonl(buf)
        assert set(back.tensors) == set(g.tensors)
        assert [op.name for op in back.ops] == [op.name for op in g.ops]
        assert linear_bound_memory(chain_graph()) == 300  # smoke: helpers intact
        _, peak = min_memory_schedule(back)
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

    def test_unknown_tensor_rejected(self):
        with pytest.raises(GraphError):
            ComputeGraph([TensorNode("a", 1)], [OpNode("f", ("a",), ("zzz",))])

    def test_negative_workspace_rejected(self):
        # A negative step cost would let the exact search return an empty
        # "optimal" order and the greedy sweep report a peak of 0.
        with pytest.raises(GraphError, match="negative workspace"):
            ComputeGraph([TensorNode("a", 10), TensorNode("b", 100)],
                         [OpNode("f", ("a",), ("b",), workspace=-1000)])

    def test_negative_workspace_rejected_from_jsonl(self):
        buf = io.StringIO(
            '{"kind": "tensor", "name": "a", "bytes": 10}\n'
            '{"kind": "tensor", "name": "b", "bytes": 100}\n'
            '{"kind": "op", "name": "f", "inputs": ["a"], "outputs": ["b"], "workspace": -1000}\n'
        )
        with pytest.raises(GraphError, match="negative workspace"):
            ComputeGraph.load_jsonl(buf)
