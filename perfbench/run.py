"""bottlenet benchmark: one closed-loop workload per run, checked outputs.

    python3 perfbench/run.py --workload infer-224-b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program under test is ``src/bottlenet``
of that checkout.  Inputs (a seeded ``.bwgt`` weight file, ``.bten``
inputs, float64 reference logits, or the planning stream) are written
untimed to ``perfbench/_work/``.  The workload then runs in a process of
its own (``worker.py``) with the workload's ``BTN_THREADS``; seven
set-up-only processes, three before it and four after, time set-up alone.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
with ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` list.  The lines
before it give each metric with its sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_EXTRA_S = 100  # on top of --seconds: set-up, warm-up, checks

# Applied to this process before numpy loads: the reference forward must
# not leave BLAS threads spinning next to the measured process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def worker(name: str, work: Path, seconds: float, trace: int, mode: str, timeout: float) -> dict:
    """Start one workload process and wait for it; returns its report."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["BTN_THREADS"] = str(WORKLOADS[name]["threads"])
    env["PYTHONPATH"] = str(Path("src").resolve())
    out = work / ("setup.json" if mode == "setup" else "result.json")
    out.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--work", str(work),
         "--seconds", str(seconds), "--trace", str(trace), "--mode", mode, "--t0", repr(t0)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{name} {mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def prepare(name: str, seed: int, work: Path) -> None:
    import adapters

    cfg = WORKLOADS[name]
    if cfg["kind"] == "infer":
        adapters.prepare_infer(cfg, seed, work)
    else:
        adapters.prepare_plan(seed, work)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Returns (result object, human-readable lines)."""
    root = HERE / "_work"
    work = root / f"{name}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prepare(name, seed, work)
        # Set-up-only processes before and after the measured one, so that
        # the median spans more of the machine's slow and fast spells.
        probes = 0 if trace else SETUP_PROBES

        def setup_runs(n):
            return [worker(name, work, seconds, 0, "setup", PROBE_TIMEOUT_S)["setup_s"]
                    for _ in range(n)]

        setups = setup_runs(probes // 2)
        r = worker(name, work, seconds, trace, "run", seconds + RUN_TIMEOUT_EXTRA_S)
        setups += setup_runs(probes - probes // 2)
        if trace:
            shutil.copyfile(work / "trace.jsonl", root / f"trace-{name}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(r["setup_s"])
    lines = [f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}"
             f"  BTN_THREADS={WORKLOADS[name]['threads']}"]
    lat = r["latencies"] + r["traced_latencies"]
    metrics: dict[str, float] = {}
    counts: dict[str, str] = {}
    if not trace:
        n = len(lat)
        if n < 2:
            raise BenchError(f"{name}: {n} requests completed, percentiles need two")
        kind = "images" if WORKLOADS[name]["kind"] == "infer" else "plans"
        metrics.update({
            "latency_ms_p50": statistics.median(lat) * 1e3,
            "latency_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
            "items_per_s": n * r["items"] / sum(lat),
            "plan_peak_vs_greedy": r["extra"].get("plan_peak_vs_greedy", 1.0),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": r["peak_rss_mb"],
        })
        counts.update({
            "latency_ms_p50": f"n={n} requests",
            "latency_ms_p90": f"n={n} requests, {n - int(0.9 * n)} beyond p90",
            "items_per_s": f"{kind}_per_s, n={n * r['items']} {kind}",
            "plan_peak_vs_greedy": "mean over distinct planning requests"
            if WORKLOADS[name]["kind"] == "plan" else "no planning requests",
            "setup_s": f"median of n={len(setups)} set-ups",
            "peak_rss_mb": "workload process",
        })
    else:
        metrics.update(r["per_layer"])
    for k, v in r["extra"].items():
        lines.append(f"# {k} = {v:.6g}")
    lines.append(f"# error_rate = {r['failed'] / r['attempted']:.6g}"
                 f"  ({r['failed']}/{r['attempted']} requests)")
    lines += [f"# error: {e.strip()}" for e in r["errors"]]
    result = {
        "correct": r["failed"] == 0 and r["gates_ok"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
        "counts": counts,
    }
    return result, lines


def select(metrics: dict, wanted: list[dict]) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not Path("src/bottlenet/__init__.py").is_file():
            raise BenchError("run from the repository root: src/bottlenet not found")
        if not 0 <= args.seed < 2**48 or args.seconds <= 0:
            raise BenchError("--seed must be in [0, 2**48) and --seconds positive")
        sys.path.insert(0, str(Path("src").resolve()))
        spec = json.loads(Path("BENCHMARK.json").read_text())
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace)
            for m in wanted:
                value = result["metrics"].get(m["name"])
                count = result["counts"].get(m["name"], "")
                lines.append(f"{m['name']} = {value!r} {m['unit']}  {count}".rstrip())
            print("\n".join(lines), flush=True)
            result["metrics"] = select(result.pop("metrics"), wanted)
            del result["counts"]
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
