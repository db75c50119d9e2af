"""One workload process: set up, run the closed loop, check, report.

Started by ``run.py``; not meant to be run by hand.  ``--mode setup``
stops once the first request is ready and reports only the set-up time,
measured from ``--t0``, the CLOCK_MONOTONIC reading the parent took just
before starting this process.  ``--mode run`` then runs requests
back to back (one client, no think time) for ``--seconds``, checks every
result and writes a JSON report to ``<work>/result.json``.  With
``--trace 1`` every other request runs traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

WARMUP_REQUESTS = 6
LOGIT_TOLERANCE = 1e-5  # of max |reference logit|
COVERAGE_FLOOR = 0.95  # share of model.forward time its child spans must cover
SETUP, CHECK = -1, -2  # request ids of spans outside the timed requests
MEMORY_METRICS = (
    "model.forward.peak_alloc_bytes",
    "memplan.cascade_execute.planned_peak_bytes",
    "memplan.cascade_execute.measured_peak_bytes",
    "memplan.cascade_execute.peak_ratio",
)


def apply_thread_env() -> None:
    """BTN_THREADS caps BLAS threads before numpy loads, as the CLI does."""
    value = os.environ["BTN_THREADS"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, value)


def install_tracer():
    from bottlenet import blocks, costs, memplan, model, weights

    import tracing

    tracer = tracing.Tracer()
    tracer.patch_kernels({"blocks": blocks, "model": model, "memplan": memplan})
    tracer.patch(model, "bottleneck_forward", "blocks.bottleneck_forward")
    tracer.patch(model.Model, "forward", "model.forward")
    tracer.patch(model, "build_model", "model.build_model")
    tracer.patch(weights, "load_weights", "weights.load_weights",
                 lambda net, path: (0, os.path.getsize(path)))
    tracer.patch(costs, "model_cost", "costs.model_cost")
    for name in ("cascade_execute", "min_memory_schedule", "greedy_memory_schedule",
                 "schedule_memory", "memory_table", "block_graph"):
        tracer.patch(memplan, name, f"memplan.{name}")
    return tracer


class Run:
    """Request bookkeeping: latencies, first result per key, failures."""

    def __init__(self, session):
        self.session = session
        self.first: dict = {}
        self.count: dict = {}  # key -> requests made with it
        self.failed = 0
        self.errors: list[str] = []
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.traced_ids: set[int] = set()

    def fail(self, message: str, requests: int = 1) -> None:
        self.failed += requests
        if len(self.errors) < 20:
            self.errors.append(message)

    def request(self, index: int, key, tracer=None, timed=True) -> None:
        if tracer is not None:
            tracer.request = index
        start = time.perf_counter()
        try:
            out = self.session.call(key)
        except Exception:
            self.fail(traceback.format_exc(limit=3))
            return
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.request = None
        self.count[key] = self.count.get(key, 0) + 1
        if timed:
            (self.traced if tracer is not None else self.plain).append(elapsed)
            if tracer is not None:
                self.traced_ids.add(index)
        self.compare(key, out)

    def compare(self, key, out) -> None:
        """The same request must give the same (byte-identical) result."""
        digest = self.session.fingerprint(key, out)
        if key not in self.first:
            self.first[key] = (digest, out)
        elif self.first[key][0] != digest:
            self.fail(f"request {key!r}: result differs from its first run")


def check_infer(run: Run, work: Path) -> dict:
    import numpy as np

    worst = 0.0
    for key, (_, out) in run.first.items():
        ref = np.load(work / f"reference{key}.npy")
        got = out.reshape(ref.shape).astype(np.float64)
        err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        worst = max(worst, err)
        if not err <= LOGIT_TOLERANCE:
            run.fail(f"input {key}: logits off the float64 reference by {err:.3g}",
                     run.count[key])
    return {"max_logit_error": worst}


def check_plan(run: Run, tracer) -> dict:
    import reference
    from workloads import CLASSES

    s = run.session
    ratios = []

    def check_schedule(g, desc, sched, peak, what):
        dag = reference.Dag(desc)
        if not dag.is_topological(sched.order):
            return f"{what}: order is not topological", None
        if s.schedule_peak(g, sched.order) != peak or dag.peak(sched.order) != peak:
            return f"{what}: returned peak {peak} is not the peak of its order", None
        greedy = s.greedy_peak(g)
        if peak > greedy if sched.optimal else peak != greedy:
            return f"{what}: peak {peak} vs greedy {greedy}", None
        return None, peak / greedy

    if tracer is not None:
        tracer.request = CHECK
    for key, (_, out) in run.first.items():
        req = s.requests[key]
        problem = None
        if req["call"] == "schedule":
            i = req["graph"]
            problem, ratio = check_schedule(s.graphs[i], s.descs[i], *out, f"graph {i}")
            ratios.append(ratio)
        else:
            a, r = req["alpha"], req["res"]
            if req["call"] == "model_cost":
                ok = out.total_madds == reference.total_madds(a, r, CLASSES)
            elif req["call"] == "memory_table":
                ok = (len(out.rows), out.peak_bytes) == reference.memory_table_peak(a, r)
            else:
                sizes = [t.nbytes for t in out.tensors.values()]
                ok = sizes == reference.block_graph_sizes(a, r, CLASSES)
            if not ok:
                problem = f"{req['call']}(alpha={a}, res={r}) disagrees with the reference"
        if problem:
            run.fail(problem, run.count[key])
    # Small graphs: exact peak must equal an exhaustive enumeration.
    for i, (desc, want) in enumerate(zip(s.small, s.small_peaks)):
        g = s.graph(desc)
        try:
            sched, peak = s.solve(g)
            problem, _ = check_schedule(g, desc, sched, peak, f"small graph {i}")
            if problem is None and peak != want:
                problem = f"small graph {i}: peak {peak}, exhaustive minimum {want}"
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem:
            run.fail(problem)
    if tracer is not None:
        tracer.request = None
    solved = [r for r in ratios if r is not None]
    return {
        "plan_peak_vs_greedy": statistics.fmean(solved) if solved else 0.0,
        "checked_requests": len(s.small),
    }


def measure_memory(run: Run) -> dict:
    """Untimed tracemalloc passes: one forward, then one with every
    cascade_execute call measured on its own."""
    import tracemalloc

    s = run.session
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = s.call(0)
        forward_peak = tracemalloc.get_traced_memory()[1] - base + s.inputs[0].nbytes
        run.compare(0, out)
        calls: list = []
        if s.runner is not None:
            undo = s.measure_cascade(calls)
            try:
                run.compare(0, s.call(0))
            finally:
                undo()
    finally:
        tracemalloc.stop()
    return dict(zip(MEMORY_METRICS, (
        forward_peak,
        max((p for p, _ in calls), default=0),
        max((m for _, m in calls), default=0),
        max((m / p for p, m in calls), default=0.0),
    )))


def trace_gates(run: Run, tracer, madds_per_image: int, batch: int) -> dict:
    """Per traced request, wrapped kernel MAdds must equal the cost model."""
    from tracing import MADDS, NAME, REQUEST

    per_request: dict[int, int] = {}
    for span in tracer.spans:
        if span[REQUEST] in run.traced_ids and span[NAME] in (
                "kernels.conv2d", "kernels.depthwise_conv"):
            per_request[span[REQUEST]] = per_request.get(span[REQUEST], 0) + span[MADDS]
    wrong = [r for r in run.traced_ids if per_request.get(r, 0) != madds_per_image * batch]
    if wrong:
        run.fail(f"{len(wrong)} traced requests: kernel MAdds != model_cost "
                 f"({per_request.get(wrong[0], 0)} vs {madds_per_image * batch})", len(wrong))
    return {"madds_per_image": madds_per_image}


def per_layer(run: Run, tracer, extra: dict) -> dict:
    from tracing import summarize

    agg = summarize(tracer.spans, run.traced_ids)
    setup = summarize(tracer.spans, {SETUP})
    check = summarize(tracer.spans, {CHECK})
    n = max(len(run.traced_ids), 1)

    def a(name, field="s"):
        return agg[name][field] if name in agg else 0.0

    def ms(name):
        return a(name) / n * 1e3

    m = {}
    for k in ("depthwise_conv", "conv2d"):
        name = f"kernels.{k}"
        m[f"{name}.calls"] = a(name, "calls") / n
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.madds"] = a(name, "madds") / n
        m[f"{name}.bytes"] = a(name, "bytes") / n
        m[f"{name}.gmadds_per_s"] = a(name, "madds") / a(name) / 1e9 if a(name) else 0.0
    m["kernels.relu6.calls"] = a("kernels.relu6", "calls") / n
    m["kernels.relu6.ms"] = ms("kernels.relu6")
    m["kernels.relu6.bytes"] = a("kernels.relu6", "bytes") / n
    m["kernels.add_residual.ms"] = ms("kernels.add_residual")
    m["kernels.global_avgpool.ms"] = ms("kernels.global_avgpool")
    m["blocks.bottleneck_forward.calls"] = a("blocks.bottleneck_forward", "calls") / n
    m["blocks.bottleneck_forward.ms"] = ms("blocks.bottleneck_forward")
    for stage in range(1, 8):
        m[f"blocks.stage{stage}.ms"] = ms(f"tag:stage{stage}")
    m["model.forward.ms"] = ms("model.forward")
    m["model.forward.self_ms"] = a("model.forward", "self_s") / n * 1e3
    m["model.forward.covered_share"] = (
        1.0 - a("model.forward", "self_s") / a("model.forward") if a("model.forward") else 0.0)
    m["model.stem.ms"] = ms("layer:stem")
    m["model.head.ms"] = ms("layer:head")
    m["memplan.cascade_execute.calls"] = a("memplan.cascade_execute", "calls") / n
    m["memplan.cascade_execute.ms"] = ms("memplan.cascade_execute")
    m["memplan.cascade_execute.self_ms"] = a("memplan.cascade_execute", "self_s") / n * 1e3
    calls = a("memplan.min_memory_schedule", "calls")
    m["memplan.min_memory_schedule.calls"] = calls / n
    m["memplan.min_memory_schedule.ms"] = ms("memplan.min_memory_schedule")
    m["memplan.min_memory_schedule.exact_share"] = (
        1.0 - a("memplan.min_memory_schedule", "errors") / calls if calls else 0.0)
    m["memplan.greedy_memory_schedule.calls"] = a("memplan.greedy_memory_schedule", "calls") / n
    m["memplan.greedy_memory_schedule.ms"] = ms("memplan.greedy_memory_schedule")
    # schedule_memory only runs in the untimed check, once per distinct plan.
    sm = check.get("memplan.schedule_memory")
    m["memplan.schedule_memory.ms"] = sm["s"] / sm["calls"] * 1e3 if sm else 0.0
    m["memplan.memory_table.ms"] = ms("memplan.memory_table")
    m["memplan.block_graph.ms"] = ms("memplan.block_graph")
    m["costs.model_cost.calls"] = a("costs.model_cost", "calls") / n
    m["costs.model_cost.ms"] = ms("costs.model_cost")
    # Set-up calls happen once per process, not per request.
    m["model.build_model.ms"] = setup["model.build_model"]["s"] * 1e3 if "model.build_model" in setup else 0.0
    lw = setup.get("weights.load_weights")
    m["weights.load_weights.ms"] = lw["s"] * 1e3 if lw else 0.0
    m["weights.load_weights.bytes"] = lw["bytes"] if lw else 0.0
    m["trace.overhead_share"] = (statistics.median(run.traced) / statistics.median(run.plain) - 1.0
                                 if run.traced and run.plain else 0.0)
    for k in MEMORY_METRICS:
        m[k] = extra.get(k, 0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    cfg = WORKLOADS[args.workload]

    apply_thread_env()
    import adapters

    tracer = install_tracer() if args.trace else None
    if tracer is not None:
        tracer.request = SETUP
    session = (adapters.Infer if cfg["kind"] == "infer" else adapters.Plan)(cfg, args.work)
    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.request = None
    if args.mode == "setup":
        (args.work / "setup.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None and cfg["kind"] == "infer":
        tracer.tags.update(session.layer_tags())

    run = Run(session)
    keys = session.keys
    for i in range(WARMUP_REQUESTS):
        run.request(-1, keys[i % len(keys)], timed=False)
    index, deadline = 0, time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        run.request(index, keys[index % len(keys)], tracer if traced else None)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = WARMUP_REQUESTS + index

    extra: dict = {}
    if cfg["kind"] == "infer":
        extra.update(check_infer(run, args.work))
        if tracer is not None:
            extra.update(trace_gates(run, tracer, session.model_madds(), cfg["batch"]))
            extra.update(measure_memory(run))
            attempted += 1 + (session.runner is not None)
    else:
        extra.update(check_plan(run, tracer))
        attempted += extra["checked_requests"]

    gates_ok = True
    result = {
        "setup_s": setup_s,
        "latencies": run.plain,
        "traced_latencies": run.traced,
        "items": session.items,
        "attempted": attempted,
        "failed": run.failed,
        "errors": run.errors,
        "peak_rss_mb": peak_rss_mb,
        "extra": {k: v for k, v in extra.items() if "." not in k},
    }
    if tracer is not None:
        tracer.dump(args.work / "trace.jsonl")
        result["per_layer"] = per_layer(run, tracer, extra)
        if cfg["kind"] == "infer" and result["per_layer"]["model.forward.covered_share"] < COVERAGE_FLOOR:
            gates_ok = False
            run.errors.append("traced spans cover less than "
                              f"{COVERAGE_FLOOR:.0%} of model.forward")
    result["gates_ok"] = gates_ok
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
