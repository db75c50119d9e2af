"""Workload table and seeded input generation.

Everything a run feeds the program is derived from the workload seed
through ``bottlenet.tensor.Rng`` (Philox), so the same seed gives the same
weights, inputs and planning graphs on every machine with the same numpy.
Each role draws from its own stream, ``Rng(seed * 1000 + role)``, so
neighbouring seeds share no stream.
"""

from __future__ import annotations

# kind "infer": Model.forward on a seeded model; split=None is the
# monolithic path, split=t runs every block through cascade_execute with
# CascadePlan.from_split(inner, min(t, inner)), as `bottlenet infer --split t`.
# threads is the BTN_THREADS value the workload process runs with.
WORKLOADS = {
    "infer-224-b1": dict(kind="infer", alpha=1.0, res=224, batch=1, split=None, threads=1),
    "cascade-224-s8": dict(kind="infer", alpha=1.0, res=224, batch=1, split=8, threads=1),
    "infer-96-b8": dict(kind="infer", alpha=0.35, res=96, batch=8, split=None, threads=2),
    "plan": dict(kind="plan", threads=1),
}

CLASSES = 1000
# Distinct inputs an inference run cycles over.  Odd, so that alternating
# traced and untraced requests sees every input both ways.
DISTINCT_INPUTS = 3

# Planning stream: (a) the chain-graph calls the CLI makes for every
# alpha x resolution, (b) irregular DAGs the exact search solves,
# (c) DAGs past the exact limit that fall back to the greedy order, and
# small DAGs solved once after the timed loop and checked against an
# exhaustive enumeration.
PLAN_ALPHAS = (0.35, 0.5, 0.75, 1.0, 1.4)
PLAN_RESOLUTIONS = (96, 128, 160, 192, 224)
CHAIN_CALLS = ("model_cost", "memory_table", "block_graph")
CHAIN_REPEATS = 2
EXACT_GRAPHS, EXACT_OPS = 1200, (10, 16)
LARGE_GRAPHS, LARGE_OPS = 300, (17, 40)
SMALL_GRAPHS, SMALL_OPS = 16, (5, 8)

ROLE_WEIGHTS, ROLE_INPUTS, ROLE_GRAPHS, ROLE_ORDER = 1, 2, 3, 4


def stream(seed: int, role: int):
    from bottlenet.tensor import Rng

    return Rng((seed * 1000 + role) % 2**64)


def random_dag(rng, n_ops: int) -> dict:
    """Irregular DAG description: one or two sources, n_ops ops each making
    one tensor from one to three earlier tensors (one of them among the
    eight most recent), tensor sizes 1-64 KiB, a workspace on a quarter of
    the ops.  The recency bias keeps the graph narrow enough for the exact
    search while leaving it many orders to choose from."""
    tensors, ops, avail = [], [], []
    for s in range(int(rng.integers(1, 3))):
        tensors.append([f"in{s}", int(rng.integers(1, 65)) * 1024])
        avail.append(f"in{s}")
    for i in range(n_ops):
        want = min(int(rng.integers(1, 4)), len(avail))
        picks = {avail[-1 - int(rng.integers(0, min(8, len(avail))))]}
        while len(picks) < want:
            picks.add(avail[int(rng.integers(0, len(avail)))])
        out = f"t{i}"
        tensors.append([out, int(rng.integers(1, 65)) * 1024])
        workspace = int(rng.integers(0, 17)) * 1024 if int(rng.integers(0, 4)) == 0 else 0
        ops.append([f"op{i}", sorted(picks), [out], workspace])
        avail.append(out)
    return {"tensors": tensors, "ops": ops}


def plan_stream(seed: int) -> dict:
    """Seeded planning requests (shuffled) plus the small check graphs."""
    rng = stream(seed, ROLE_GRAPHS)

    def dags(count, ops_range):
        lo, hi = ops_range
        return [random_dag(rng, int(rng.integers(lo, hi + 1))) for _ in range(count)]

    graphs = dags(EXACT_GRAPHS, EXACT_OPS) + dags(LARGE_GRAPHS, LARGE_OPS)
    requests = [
        {"call": call, "alpha": a, "res": r}
        for a in PLAN_ALPHAS for r in PLAN_RESOLUTIONS for call in CHAIN_CALLS
    ] * CHAIN_REPEATS
    requests += [{"call": "schedule", "graph": i} for i in range(len(graphs))]
    keys = stream(seed, ROLE_ORDER).integers(0, 2**62, size=len(requests)).tolist()
    requests = [requests[i] for i in sorted(range(len(requests)), key=lambda i: (keys[i], i))]
    return {"requests": requests, "graphs": graphs, "small": dags(SMALL_GRAPHS, SMALL_OPS)}
