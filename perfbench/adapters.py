"""Every call the benchmark makes into ``bottlenet``, one adapter per kind.

Only the entry points the CLI uses appear here: ``build_model``,
``load_weights``, ``Model.forward(x, block_runner=...)`` with
``CascadePlan.from_split`` as in ``bottlenet infer --split``, the cost and
memory reports, and ``min_memory_schedule`` with the documented
``greedy_memory_schedule`` fallback.  Functions are looked up on their
module at call time, so the traced run sees the calls it patches.
"""

from __future__ import annotations

import json

import numpy as np

import reference
from workloads import (
    CLASSES, DISTINCT_INPUTS, ROLE_INPUTS, ROLE_WEIGHTS, plan_stream, stream,
)


def _spec(alpha, res):
    from bottlenet import model

    return model.ModelSpec(resolution=res, width_multiplier=alpha, classes=CLASSES)


def prepare_infer(cfg: dict, seed: int, work) -> None:
    """Seeded weight file, input tensors and float64 reference logits."""
    from bottlenet import model, weights
    from bottlenet.tensor import random_gaussian, save_tensor

    net = model.build_model(_spec(cfg["alpha"], cfg["res"]))
    net.randomize(stream(seed, ROLE_WEIGHTS))
    weights.save_weights(net, work / "weights.bwgt")
    params = dict(net.parameters())
    rng = stream(seed, ROLE_INPUTS)
    for i in range(DISTINCT_INPUTS):
        x = random_gaussian((cfg["batch"], cfg["res"], cfg["res"], 3), rng)
        save_tensor(work / f"input{i}.bten", x)
        np.save(work / f"reference{i}.npy", reference.forward(params, x))


def prepare_plan(seed: int, work) -> None:
    """Seeded request stream, and exhaustive minimum peaks of the small graphs."""
    data = plan_stream(seed)
    data["small_peaks"] = [reference.Dag(g).exhaustive_min_peak() for g in data["small"]]
    (work / "plan.json").write_text(json.dumps(data))


class Infer:
    """Model.forward on one of a few fixed inputs per request."""

    def __init__(self, cfg: dict, work):
        from bottlenet import memplan, model, weights
        from bottlenet.tensor import load_tensor

        self.memplan = memplan
        self.spec = _spec(cfg["alpha"], cfg["res"])
        self.net = model.build_model(self.spec)
        weights.load_weights(self.net, work / "weights.bwgt")
        self.inputs = [load_tensor(work / f"input{i}.bten") for i in range(DISTINCT_INPUTS)]
        self.keys = list(range(DISTINCT_INPUTS))
        self.items = cfg["batch"]
        self.runner = None
        if cfg["split"]:
            def runner(t, p, _s=cfg["split"]):
                plan = memplan.CascadePlan.from_split(p.expanded_channels,
                                                      min(_s, p.expanded_channels))
                return memplan.cascade_execute(t, p, plan)[0]
            self.runner = runner

    def call(self, key):
        return self.net.forward(self.inputs[key], block_runner=self.runner)

    def fingerprint(self, key, out) -> bytes:
        return out.tobytes()

    def layer_tags(self) -> dict[int, str]:
        """id(parameter object) -> "stem"/"head"/"classifier" or "stageN"."""
        from bottlenet.model import ConvLayer

        tags, blocks = {}, iter(self.net.bottleneck_layers())
        for stage, st in enumerate(self.spec.stages, start=1):
            for _ in range(st.repeats):
                tags[id(next(blocks).params)] = f"stage{stage}"
        for layer in self.net.layers:
            if isinstance(layer, ConvLayer):
                tags[id(layer.params)] = layer.name
        return tags

    def model_madds(self) -> int:
        from bottlenet import costs

        return costs.model_cost(self.spec).total_madds

    def measure_cascade(self, planned_and_measured: list):
        """Patch cascade_execute so each call appends (planned, measured)
        working-set bytes; measured = tracemalloc peak of the call's new
        allocations plus its input.  Returns the function that undoes it."""
        import tracemalloc

        inner = self.memplan.cascade_execute

        def measured(x, p, plan):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out, planned = inner(x, p, plan)
            peak = tracemalloc.get_traced_memory()[1] - base + x.nbytes
            planned_and_measured.append((planned, peak))
            return out, planned

        self.memplan.cascade_execute = measured
        return lambda: setattr(self.memplan, "cascade_execute", inner)


class Plan:
    """One planning call per request over a seeded, shuffled stream."""

    def __init__(self, cfg: dict, work):
        from bottlenet import costs, memplan
        from bottlenet.errors import GraphTooLargeError

        self.costs, self.memplan, self.too_large = costs, memplan, GraphTooLargeError
        data = json.loads((work / "plan.json").read_text())
        self.descs, self.small, self.small_peaks = data["graphs"], data["small"], data["small_peaks"]
        self.graphs = [self.graph(d) for d in self.descs]
        self.keys = list(range(len(data["requests"])))
        self.requests = data["requests"]
        self.items = 1

    def graph(self, desc):
        m = self.memplan
        return m.ComputeGraph([m.TensorNode(n, b) for n, b in desc["tensors"]],
                              [m.OpNode(n, tuple(i), tuple(o), w) for n, i, o, w in desc["ops"]])

    def solve(self, g):
        """(schedule, peak): exact when the search accepts the graph, else greedy."""
        try:
            return self.memplan.min_memory_schedule(g)
        except self.too_large:
            return self.memplan.greedy_memory_schedule(g)

    def call(self, key):
        req = self.requests[key]
        if req["call"] == "schedule":
            return self.solve(self.graphs[req["graph"]])
        spec = _spec(req["alpha"], req["res"])
        if req["call"] == "model_cost":
            return self.costs.model_cost(spec)
        return getattr(self.memplan, req["call"])(spec)

    def fingerprint(self, key, out):
        call = self.requests[key]["call"]
        if call == "schedule":
            return out[0].order, out[0].optimal, out[1]
        if call == "model_cost":
            return out.total_madds, out.total_params
        if call == "memory_table":
            return out.peak_bytes, len(out.rows)
        return [t.nbytes for t in out.tensors.values()], [op.name for op in out.ops]

    def greedy_peak(self, g) -> int:
        return self.memplan.greedy_memory_schedule(g)[1]

    def schedule_peak(self, g, order) -> int:
        return self.memplan.schedule_memory(g, order).peak_bytes
