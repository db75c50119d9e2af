"""Span recorder for the traced run.

``Tracer.patch`` replaces a function under the name a consumer module
binds it to (``blocks.conv2d``, ``model.relu6``, ``memplan.conv2d``...),
so the program's own source is untouched.  While a request id is set,
every call through a patched name appends one span: name, start, end,
parent span, request id, MAdds and computed bytes (both from the call's
argument shapes, never from the program's counter), a tag naming the
model layer or stage the call's parameters belong to, and whether it
raised.  Spans stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

F32 = 4


def _out_hw(x, stride):
    return -(-x.shape[1] // stride), -(-x.shape[2] // stride)


def conv2d_cost(x, p):
    oh, ow = _out_hw(x, p.stride)
    out = x.shape[0] * oh * ow * p.out_channels
    madds = out * p.kernel * p.kernel * p.in_channels
    return madds, F32 * (x.size + p.weights.size + p.bias.size + out)


def depthwise_cost(x, p):
    oh, ow = _out_hw(x, p.stride)
    out = x.shape[0] * oh * ow * p.channels
    return out * p.kernel * p.kernel, F32 * (x.size + p.weights.size + p.bias.size + out)


def elementwise_cost(*arrays):
    # every operand read once, one output of the same size written
    return 0, F32 * arrays[0].size * (len(arrays) + 1)


def avgpool_cost(x):
    return 0, F32 * (x.size + x.shape[0] * x.shape[3])


# kernel -> cost of one call; spans are named by kernel, whichever module
# the call went through.
KERNELS = {
    "conv2d": conv2d_cost,
    "depthwise_conv": depthwise_cost,
    "relu6": elementwise_cost,
    "add_residual": elementwise_cost,
    "global_avgpool": avgpool_cost,
}
# Consumer module -> the kernel names it imports and calls.
KERNEL_BINDINGS = {
    "blocks": ("conv2d", "depthwise_conv", "relu6", "add_residual"),
    "model": ("conv2d", "relu6", "global_avgpool"),
    "memplan": ("conv2d", "depthwise_conv", "relu6"),
}

NAME, START, END, PARENT, REQUEST, MADDS, BYTES, TAG, ERROR = range(9)


class Tracer:
    def __init__(self):
        self.tags: dict[int, str] = {}  # id(parameter object) -> layer or stage name
        self.spans: list[list] = []
        self.request = None  # None: calls pass straight through
        self._stack: list[int] = []

    def patch(self, owner, attr: str, name: str, cost=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            madds, nbytes = cost(*args) if cost else (0, 0)
            tag = tracer.tags.get(id(args[1])) if len(args) > 1 else None
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.request, madds, nbytes, tag, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()

        setattr(owner, attr, traced)

    def patch_kernels(self, modules: dict) -> None:
        for mod_name, names in KERNEL_BINDINGS.items():
            for kernel in names:
                self.patch(modules[mod_name], kernel, f"kernels.{kernel}", KERNELS[kernel])

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "madds", "bytes", "tag", "error")
        with open(path, "w") as fp:
            for i, span in enumerate(self.spans):
                fp.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def summarize(spans: list[list], requests: set[int]) -> dict:
    """Per-request means over the spans of ``requests``, plus per-call
    self time; everything in seconds, counts and bytes."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    agg = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        if s[REQUEST] not in requests:
            continue
        a = agg[s[NAME]]
        dur = s[END] - s[START]
        a["calls"] += 1
        a["s"] += dur
        a["self_s"] += dur - child_time[i]
        a["madds"] += s[MADDS]
        a["bytes"] += s[BYTES]
        a["errors"] += s[ERROR]
        if s[TAG]:
            agg[f"tag:{s[TAG]}"]["s"] += dur
    # stem/head: the conv carries the layer tag, the relu6 right after it
    # in the same forward belongs to the same layer.
    prev_tag: dict[int, str] = {}
    for s in spans:
        if s[REQUEST] not in requests or s[PARENT] < 0 or spans[s[PARENT]][NAME] != "model.forward":
            continue
        tag = s[TAG] or (prev_tag.get(s[PARENT]) if s[NAME] == "kernels.relu6" else None)
        prev_tag[s[PARENT]] = tag
        if tag in ("stem", "head"):
            agg[f"layer:{tag}"]["s"] += s[END] - s[START]
    return agg
