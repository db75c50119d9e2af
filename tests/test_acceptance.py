"""Acceptance gates: one test per numbered criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Reference figures (params/multiply-adds/memory rows) are the published
costs of the MobileNetV2 model family.  One published figure does not
follow from the architecture: 6.9M parameters at width 1.4.  The layer
table yields 6,084,808 there (6,059,840 weights plus 24,968 biases), and
counting two or four normalization values per channel instead of one bias
gives 6,108,776 or 6,156,712; all three lie 10.8-11.8% below 6.9M.  The
1.4-parameter check therefore asserts the exact layer-table count, taken
from an independent oracle in ``conftest``, and that the gap to 6.9M lies
outside the 3% tolerance under every one of those conventions.
"""

import contextlib
import io
import json
import random as pyrandom
import time

import numpy as np

from bottlenet import cli

from bottlenet import kernels
from bottlenet.blocks import bottleneck_forward
from bottlenet.costs import madds_depthwise, madds_standard_conv, model_cost
from bottlenet.memplan import (
    CascadePlan,
    ComputeGraph,
    OpNode,
    TensorNode,
    block_graph,
    cascade_execute,
    linear_bound_memory,
    memory_table,
    min_memory_schedule,
    schedule_memory,
    unique_topological_order,
)
from bottlenet.model import ModelSpec, build_model, make_bottleneck
from bottlenet.tensor import Rng, max_abs_rel_diff, random_gaussian
from bottlenet.theory import (
    activation_pattern_stats,
    invertibility_condition,
    recover_input,
    relu_preserved_fraction_mc,
    spiral_experiment,
)

from conftest import (
    bottleneck_madds,
    executed_madds,
    exhaustive_schedules,
    naive_conv2d,
    naive_depthwise,
    naive_param_count,
    positive_conv,
    positive_depthwise,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            ok = self.elapsed < self.seconds
            report(f"{self.criterion} runtime", ok,
                   f"{self.elapsed:.2f}s < {self.seconds:.0f}s")
            assert ok, f"{self.criterion} exceeded budget: {self.elapsed:.2f}s"
        return False


def within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * target


def run_cli_json(args) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*args, "--format", "json"])
    assert code == 0, f"CLI exited {code}"
    return json.loads(buf.getvalue())


# -- Criterion 1: cost reproduction -----------------------------------------

def test_c1_costs_alpha_1_0():
    with Budget("C1 (alpha=1.0)", 1.0):
        totals = run_cli_json(["summarize", "--alpha", "1.0", "--res", "224"])["totals"]
    ok_m = within(totals["madds"], 300e6, 0.03)
    ok_p = within(totals["params"], 3.4e6, 0.03)
    report("C1 madds(1.0, 224)", ok_m, f"{totals['madds']:,} vs 300M +/-3%")
    report("C1 params(1.0, 224)", ok_p, f"{totals['params']:,} vs 3.4M +/-3%")
    assert ok_m and ok_p
    assert totals == {"madds": 300_774_272, "params": 3_487_816, "bias_params": 18_056}


def test_c1_madds_alpha_1_4():
    with Budget("C1 (alpha=1.4)", 1.0):
        totals = run_cli_json(["summarize", "--alpha", "1.4", "--res", "224"])["totals"]
    ok = within(totals["madds"], 585e6, 0.03)
    report("C1 madds(1.4, 224)", ok, f"{totals['madds']:,} vs 585M +/-3%")
    assert ok


def test_c1_params_alpha_1_4_known_discrepancy():
    # The published 6.9M figure for the 1.4-width model does not follow
    # from the architecture table.  Scaling every stage by 1.4 (channels
    # rounded to multiples of 8, head scaled to 1792 as the reproduced 585M
    # multiply-adds require) gives 6,084,808 stored parameters: 6,059,840
    # weights plus 24,968 biases.  Two normalization values per channel
    # give 6,108,776 and four give 6,156,712.  The check pins the program's
    # count to the independent oracle and asserts that no convention comes
    # within 3% of 6.9M, so bending the architecture toward the published
    # figure fails here as surely as drifting away from the layer table.
    # The oracle is anchored where the published figures do hold: 3,487,816
    # (18,056 biases) at width 1.0, and 3,538,984 with four normalization
    # values per channel, the well-known Keras MobileNetV2 total.
    assert naive_param_count(1.0) == (3_487_816, 18_056)
    assert naive_param_count(1.0, norm_values=4)[0] == 3_538_984
    expected, expected_bias = naive_param_count(1.4)
    assert (expected, expected_bias) == (6_084_808, 24_968)

    with Budget("C1 params (alpha=1.4)", 1.0):
        rep = model_cost(ModelSpec(resolution=224, width_multiplier=1.4))
        totals = run_cli_json(["summarize", "--alpha", "1.4", "--res", "224"])["totals"]
    assert (rep.total_params, rep.total_bias_params) == (expected, expected_bias)
    assert (totals["params"], totals["bias_params"]) == (expected, expected_bias)

    by_norm = {n: naive_param_count(1.4, norm_values=n)[0] for n in (1, 2, 4)}
    ok = not any(within(total, 6.9e6, 0.03) for total in by_norm.values())
    report("C1 params(1.4, 224)", ok,
           f"{rep.total_params:,} == layer-table oracle; gap to 6.9M with 1/2/4 "
           "values per channel: " + "/".join(f"{t / 6.9e6 - 1:+.1%}" for t in by_norm.values())
           + ", all outside +/-3%")
    assert ok, f"a layer-table count came within 3% of the published 6.9M: {by_norm}"


# -- Criterion 2: memory reproduction ----------------------------------------

def test_c2_memory_table():
    with Budget("C2", 1.0):
        payload = run_cli_json(["memory-plan"])  # 16-bit activations default
    assert payload["act_bits"] == 16
    rows = {r["resolution"]: r for r in payload["rows"] if not r["streamed"]}
    published = {56: 200.0, 28: 100.0, 14: 62.0, 7: 32.0, 1: 2.5}
    ok = True
    for res, kb in published.items():
        row_ok = within(rows[res]["kilobytes"], kb, 0.05)
        report(f"C2 row {res}x{res}", row_ok,
               f"{rows[res]['kilobytes']:.2f}KB vs {kb}KB +/-5%")
        ok &= row_ok
    max_ok = within(payload["peak_kilobytes"], 200.0, 0.05)
    report("C2 overall max", max_ok, f"{payload['peak_kilobytes']:.2f}KB vs ~200KB")
    assert ok and max_ok
    # cross-check the CLI view against the library report
    lib = memory_table(ModelSpec(), bytes_per_activation=2)
    assert lib.peak_bytes == payload["peak_bytes"]


# -- Criterion 3: kernel oracle suite ----------------------------------------

def test_c3_oracle_suite():
    with Budget("C3", 60.0):
        worst = 0.0
        cases = 0
        rng = Rng(300)
        for i in range(40):  # dense convolutions
            k = int(rng.integers(0, 2)) * 2 + 1
            s = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 5))
            cout = int(rng.integers(1, 6))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            x = rng.uniform((1, h, w, cin), 0.0, 1.0)
            p = positive_conv(rng, k, s, cin, cout)
            with executed_madds() as madds:
                got = kernels.conv2d(x, p)
            assert madds.total == madds_standard_conv(h, w, cin, cout, k, s)
            worst = max(worst, max_abs_rel_diff(got, naive_conv2d(x, p)))
            cases += 1
        for i in range(30):  # depthwise
            s = int(rng.integers(1, 3))
            c = int(rng.integers(1, 7))
            h = int(rng.integers(1, 8))
            w = int(rng.integers(1, 8))
            x = rng.uniform((1, h, w, c), 0.0, 1.0)
            p = positive_depthwise(rng, 3, s, c)
            with executed_madds() as madds:
                got = kernels.depthwise_conv(x, p)
            assert madds.total == madds_depthwise(h, w, c, 3, s)
            worst = max(worst, max_abs_rel_diff(got, naive_depthwise(x, p)))
            cases += 1
        for i in range(30):  # whole blocks vs recomposed naive kernels
            s = int(rng.integers(1, 3))
            cin = int(rng.integers(2, 7))
            cout = int(rng.integers(2, 7))
            t = int(rng.integers(2, 5))
            h = w = int(rng.integers(3, 7))
            p = make_bottleneck(cin, cout, t, s)
            for stage in (p.expand, p.depthwise, p.project):
                stage.weights[...] = rng.uniform(stage.weights.shape, 0.0, 0.1)
                stage.bias[...] = rng.uniform(stage.bias.shape, 0.0, 0.1)
            x = rng.uniform((1, h, w, cin), 0.0, 1.0)
            with executed_madds() as madds:
                got = bottleneck_forward(x, p)
            assert madds.total == bottleneck_madds(h, w, cin, cout, t, stride=s)
            ref = kernels.relu6(naive_conv2d(x, p.expand))
            ref = kernels.relu6(naive_depthwise(ref, p.depthwise))
            ref = naive_conv2d(ref, p.project)
            if p.use_shortcut:
                ref = ref + x
            worst = max(worst, max_abs_rel_diff(got, ref))
            cases += 1
    ok = cases >= 100 and worst < 1e-5
    report("C3", ok, f"{cases} cases, worst rel diff {worst:.2e} < 1e-5, "
                     "executed==formula exact")
    assert ok


# -- Criterion 4: cascade equivalence ----------------------------------------

def test_c4_cascade_equivalence():
    with Budget("C4", 10.0):
        rng = Rng(400)
        p = make_bottleneck(64, 64, 6, 1)
        for stage in (p.expand, p.depthwise, p.project):
            stage.weights[...] = rng.uniform(stage.weights.shape, 0.0, 0.05)
            stage.bias[...] = rng.uniform(stage.bias.shape, 0.0, 0.1)
        x = rng.uniform((1, 14, 14, 64), 0.0, 1.0)
        with executed_madds() as executed:
            ref = bottleneck_forward(x, p)
        ref_madds = executed.total
        diffs, madds, peaks = {}, {}, {}
        for split in (1, 2, 3, 5, 384):
            with executed_madds() as executed:
                out, peak = cascade_execute(x, p, CascadePlan.from_split(384, split))
            madds[split] = executed.total
            peaks[split] = peak
            diffs[split] = max_abs_rel_diff(ref, out)
    ok_diff = all(d < 1e-5 for d in diffs.values())
    ok_madds = all(m == ref_madds for m in madds.values())
    ok_peak = peaks[1] > peaks[2] > peaks[3] > peaks[5] >= peaks[384]
    report("C4 outputs", ok_diff, f"worst rel diff {max(diffs.values()):.2e} < 1e-5")
    report("C4 madds", ok_madds, f"all splits = {ref_madds:,}")
    report("C4 peaks", ok_peak,
           " > ".join(f"{peaks[s]:,}" for s in (1, 2, 3, 5)) + f" >= {peaks[384]:,}")
    assert ok_diff and ok_madds and ok_peak


# -- Criterion 5: planner optimality ------------------------------------------

def closed_form_peak(g: ComputeGraph) -> int:
    """Independent max-over-ops computation: inputs + outputs + workspace
    plus tensors produced earlier and still needed later (zero on chains)."""
    order = unique_topological_order(g)
    pos = {name: i for i, name in enumerate(order)}
    best = 0
    for name in order:
        op = g.ops[g.op_index[name]]
        here = pos[name]
        total = op.workspace
        total += sum(g.tensors[t].nbytes for t in op.inputs)
        total += sum(g.tensors[t].nbytes for t in op.outputs)
        for t, node in g.tensors.items():
            if t in op.inputs or t in op.outputs:
                continue
            prod = g.producer.get(t)
            born = -1 if prod is None else pos[g.ops[prod].name]
            uses = [pos[g.ops[c].name] for c in g.consumers[t]]
            if not uses:
                continue
            if born < here < max(uses):
                total += node.nbytes
        best = max(best, total)
    return best


def corpus_graphs():
    graphs = []
    # chain
    graphs.append(ComputeGraph(
        [TensorNode("A", 100), TensorNode("B", 200), TensorNode("C", 50)],
        [OpNode("op1", ("A",), ("B",)), OpNode("op2", ("B",), ("C",))]))
    # diamond with order-dependent peak (300 vs 260)
    graphs.append(ComputeGraph(
        [TensorNode("S", 50), TensorNode("X", 150), TensorNode("Y", 60),
         TensorNode("Z", 50)],
        [OpNode("op1", ("S",), ("X",), workspace=40),
         OpNode("op2", ("S",), ("Y",)),
         OpNode("op3", ("X", "Y"), ("Z",))]))
    # op-granular residual block: shortcut tensor carried across the body
    graphs.append(ComputeGraph(
        [TensorNode("x", 80), TensorNode("e", 480), TensorNode("d", 480),
         TensorNode("y", 80), TensorNode("z", 80)],
        [OpNode("expand", ("x",), ("e",)),
         OpNode("dwise", ("e",), ("d",)),
         OpNode("project", ("d",), ("y",)),
         OpNode("add", ("x", "y"), ("z",))]))
    # model tail at block granularity (pure chain, 8 ops)
    graphs.append(block_graph(ModelSpec(), bytes_per_activation=2, first_block=12))
    # seeded random DAGs
    rnd = pyrandom.Random(1234)
    for case in range(15):
        n_ops = rnd.randint(3, 8)
        tensors = [TensorNode("src", rnd.randint(10, 200))]
        ops = []
        for i in range(n_ops):
            names = [t.name for t in tensors]
            ins = rnd.sample(names, k=min(len(names), rnd.randint(1, 2)))
            out = TensorNode(f"t{case}_{i}", rnd.randint(10, 200))
            tensors.append(out)
            ops.append(OpNode(f"op{case}_{i}", tuple(ins), (out.name,),
                              workspace=rnd.choice([0, 0, 25, 60])))
        graphs.append(ComputeGraph(tensors, ops))
    return graphs


def test_c5_planner_optimality():
    with Budget("C5", 30.0):
        checked = trivially_parallel = 0
        for g in corpus_graphs():
            assert len(g.ops) <= 8
            _, peak = min_memory_schedule(g)
            brute = min(schedule_memory(g, o).peak_bytes
                        for o in exhaustive_schedules(g))
            assert peak == brute, f"B&B {peak} != exhaustive {brute}"
            checked += 1
            try:
                unique_topological_order(g)
            except Exception:
                continue
            trivially_parallel += 1
            assert peak == linear_bound_memory(g) == closed_form_peak(g)
    report("C5", True,
           f"{checked} graphs B&B==exhaustive; {trivially_parallel} trivially "
           "parallel graphs == closed form")
    assert checked >= 15 and trivially_parallel >= 3


# -- Criterion 6: collapse statistics ------------------------------------------

def test_c6_collapse_theorem():
    with Budget("C6", 30.0):
        f24 = relu_preserved_fraction_mc(2, 4, 100_000, seed=3)
        f33 = relu_preserved_fraction_mc(3, 3, 100_000, seed=3)
        f424 = relu_preserved_fraction_mc(4, 24, 100_000, seed=3)
    ok_a = abs(f24 - 11 / 16) <= 0.01
    ok_b = abs(f33 - 1 / 8) <= 0.01
    ok_c = f424 >= 0.999
    report("C6 (n=2,m=4)", ok_a, f"{f24:.4f} vs 0.6875 +/-0.01")
    report("C6 (n=3,m=3)", ok_b, f"{f33:.4f} vs 0.1250 +/-0.01")
    report("C6 (n=4,m=24)", ok_c, f"{f424:.4f} >= 0.999")
    assert ok_a and ok_b and ok_c


# -- Criterion 7: invertibility and recovery -----------------------------------

def test_c7_invertibility():
    with Budget("C7", 5.0):
        rng = Rng(700)
        hits = 0
        for _ in range(100):
            B = rng.normal((24, 4), dtype=np.float64)
            x0 = rng.normal((4,), dtype=np.float64)
            y0 = np.maximum(B @ x0, 0.0)
            if not invertibility_condition(B, y0):
                continue
            x = recover_input(B, y0)
            hits += np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-6
    report("C7", hits == 100, f"{hits}/100 condition holds and recovery < 1e-6")
    assert hits == 100


# -- Criterion 8: spiral reconstruction ----------------------------------------

def test_c8_spiral_ratio():
    with Budget("C8", 10.0):
        ratios = []
        for seed in range(20):
            errs = spiral_experiment([2, 30], seed=seed)
            ratios.append(errs[2] / max(errs[30], 1e-300))
        median = float(np.median(ratios))
    report("C8", median >= 10, f"median err(2)/err(30) over 20 seeds = {median:.3e}")
    assert median >= 10


# -- Criterion 9: activation statistics at initialization -----------------------

def test_c9_activation_statistics():
    with Budget("C9", 60.0):
        model = build_model(ModelSpec()).randomize(Rng(5))
        batch = random_gaussian((32, 224, 224, 3), Rng(6))
        stats = activation_pattern_stats(model, batch)
        fractions = [l.mean_fraction for l in stats.layers]
    ok = all(0.4 <= f <= 0.6 for f in fractions)
    report("C9", ok,
           f"{len(fractions)} rectified layers, mean fractions in "
           f"[{min(fractions):.3f}, {max(fractions):.3f}] within [0.4, 0.6]")
    assert ok


# -- Criterion 10: excluded surfaces ---------------------------------------------

def test_c10_accuracy_surfaces_excluded():
    # Dataset accuracy (top-1 / mAP / mIOU) needs full training runs and is
    # deliberately absent; the cost, memory, kernel and theory suites above
    # stand in for it.  Guard that no such surface sneaks into the CLI.
    from bottlenet.cli import build_parser

    parser = build_parser()
    commands = set(parser._subparsers._group_actions[0].choices)
    assert commands == {"summarize", "infer", "memory-plan", "theory"}
    forbidden = {"train", "eval", "accuracy", "fit"}
    assert not (commands & forbidden)
    report("C10", True, "no training/accuracy surface; stand-in suites present")
