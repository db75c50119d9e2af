"""Independent references the benchmark checks the program against.

Nothing here calls into ``bottlenet``: the architecture is re-derived from
the published MobileNetV2 stage table and width rule, the forward pass is
float64 ``einsum`` over sliding windows, and schedule peaks come from a
liveness simulation of our own.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Published stage table: expansion t, channels c, repeats n, first stride s.
STAGES = ((1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
          (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1))
STEM, HEAD = 32, 1280


def width(channels: int, alpha: float) -> int:
    """Nearest multiple of 8 (floor 8), one step up if that loses >10%."""
    target = channels * alpha
    scaled = max(8, int(target + 4) // 8 * 8)
    return scaled + 8 if scaled < 0.9 * target else scaled


def blocks(alpha: float, res: int) -> list[dict]:
    """Per-block shapes: input/output resolution and widths, inner width."""
    out, cin, r = [], width(STEM, alpha), -(-res // 2)
    for t, c, n, s in STAGES:
        cout = width(c, alpha)
        for i in range(n):
            stride = s if i == 0 else 1
            r_out = -(-r // stride)
            out.append(dict(res_in=r, res_out=r_out, cin=cin, cout=cout,
                            inner=int(round(t * cin)), stride=stride))
            cin, r = cout, r_out
    return out


def head_width(alpha: float) -> int:
    return HEAD if alpha < 1.0 else width(HEAD, alpha)


def total_madds(alpha: float, res: int, classes: int) -> int:
    """Per-image multiply-adds, every kernel tap of every output element."""
    stem_res = -(-res // 2)
    total = stem_res * stem_res * 9 * 3 * width(STEM, alpha)
    for b in blocks(alpha, res):
        if b["inner"] != b["cin"]:
            total += b["res_in"] ** 2 * b["cin"] * b["inner"]
        total += b["res_out"] ** 2 * b["inner"] * (9 + b["cout"])
    last = blocks(alpha, res)[-1]
    head = head_width(alpha)
    return total + last["res_out"] ** 2 * last["cout"] * head + head * classes


def memory_table_peak(alpha: float, res: int, bpa: int = 2) -> tuple[int, int]:
    """(rows, peak bytes) of the per-resolution table: the widest block output
    charged at the resolution the block consumes, the stem-adjacent
    resolution streamed and left out, the pooled head as a 1x1 row."""
    bl = blocks(alpha, res)
    per_res: dict[int, int] = {}
    for b in bl:
        per_res[b["res_in"]] = max(per_res.get(b["res_in"], 0), b["cout"])
    charged = [r * r * c * bpa for r, c in per_res.items() if r != bl[0]["res_in"]]
    return len(per_res) + 1, max(charged + [head_width(alpha) * bpa])


def block_graph_sizes(alpha: float, res: int, classes: int, bpa: int = 2) -> list[int]:
    """Tensor sizes of the block-granular chain: input, 17 block outputs,
    head output, pooled vector, logits."""
    bl = blocks(alpha, res)
    sizes = [bl[0]["res_in"] ** 2 * width(STEM, alpha) * bpa]
    sizes += [b["res_out"] ** 2 * b["cout"] * bpa for b in bl]
    head = head_width(alpha)
    return sizes + [bl[-1]["res_out"] ** 2 * head * bpa, head * bpa, classes * bpa]


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, depthwise: bool) -> np.ndarray:
    """SAME cross-correlation, extra pad row/column at the bottom/right."""
    k = w.shape[0]
    pads = []
    for size in x.shape[1:3]:
        total = max((-(-size // stride) - 1) * stride + k - size, 0)
        pads.append((total // 2, total - total // 2))
    xp = np.pad(x, ((0, 0), pads[0], pads[1], (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    spec = "bhwcij,ijc->bhwc" if depthwise else "bhwcij,ijcd->bhwd"
    return np.einsum(spec, win, w, optimize=True) + b


def _relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0)


def forward(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """float64 logits (b, classes) from named parameters and an NHWC input.

    Widths come from the weight shapes; strides and shortcuts from the
    stage table (shortcut iff stride 1 and equal widths)."""
    p = {k: v.astype(np.float64) for k, v in params.items()}
    h = _relu6(_conv(x.astype(np.float64), p["stem.weight"], p["stem.bias"], 2, False))
    index = 0
    for _, _, n, s in STAGES:
        for i in range(n):
            index += 1
            name = f"block{index:02d}"
            stride = s if i == 0 else 1
            inner = h
            if f"{name}.expand.weight" in p:
                inner = _relu6(_conv(inner, p[f"{name}.expand.weight"],
                                     p[f"{name}.expand.bias"], 1, False))
            inner = _relu6(_conv(inner, p[f"{name}.depthwise.weight"],
                                 p[f"{name}.depthwise.bias"], stride, True))
            out = _conv(inner, p[f"{name}.project.weight"], p[f"{name}.project.bias"], 1, False)
            h = out + h if stride == 1 and out.shape == h.shape else out
    h = _relu6(_conv(h, p["head.weight"], p["head.bias"], 1, False))
    pooled = h.mean(axis=(1, 2), keepdims=True)
    logits = _conv(pooled, p["classifier.weight"], p["classifier.bias"], 1, False)
    return logits.reshape(x.shape[0], -1)


class Dag:
    """Liveness model of a graph description {"tensors": [[name, bytes]],
    "ops": [[name, inputs, outputs, workspace]]}: a tensor is live from its
    producing step (sources from the start) through its last consumer; an
    unconsumed output only at its own step; an unconsumed source never."""

    def __init__(self, desc: dict):
        self.size = {name: nbytes for name, nbytes in desc["tensors"]}
        self.ops = {name: (tuple(ins), tuple(outs), ws) for name, ins, outs, ws in desc["ops"]}
        self.producer = {t: name for name, (_, outs, _) in self.ops.items() for t in outs}
        self.uses = {t: 0 for t in self.size}
        for ins, _, _ in self.ops.values():
            for t in ins:
                self.uses[t] += 1

    def is_topological(self, order) -> bool:
        done: set[str] = set()
        for name in order:
            if name not in self.ops or name in done:
                return False
            if any(t in self.producer and self.producer[t] not in done for t in self.ops[name][0]):
                return False
            done.add(name)
        return len(done) == len(self.ops)

    def _start(self):
        left = dict(self.uses)
        live = sum(self.size[t] for t in self.size if t not in self.producer and left[t])
        return left, live

    def _step(self, name, left, live):
        ins, outs, ws = self.ops[name]
        cost = live + sum(self.size[t] for t in outs) + ws
        for t in ins:
            left[t] -= 1
            if not left[t]:
                live -= self.size[t]
        live += sum(self.size[t] for t in outs if left[t])
        return cost, live

    def peak(self, order) -> int:
        left, live = self._start()
        peak = 0
        for name in order:
            cost, live = self._step(name, left, live)
            peak = max(peak, cost)
        return peak

    def exhaustive_min_peak(self) -> int:
        """Minimum peak over every topological order, by enumeration."""
        left, live = self._start()
        best = [None]

        def visit(done, live, peak):
            if len(done) == len(self.ops):
                best[0] = peak if best[0] is None else min(best[0], peak)
                return
            for name, (ins, _, _) in self.ops.items():
                if name in done or any(t in self.producer and self.producer[t] not in done
                                       for t in ins):
                    continue
                saved = dict(left)
                cost, after = self._step(name, left, live)
                visit(done | {name}, after, max(peak, cost))
                left.clear()
                left.update(saved)

        visit(frozenset(), live, 0)
        return best[0]
