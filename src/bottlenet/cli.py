"""Command-line front end.

Subcommands: ``summarize`` (cost table), ``infer`` (run the network on a
tensor file), ``memory-plan`` (per-resolution materialization table) and
``theory`` (collapse / spiral / activations experiments).  Every command
is deterministic given its full flag set; all randomness comes from
explicit seeds.

Exit codes: 0 success, 2 usage error, 3 data/format or file-system
error, 4 internal invariant violation.  ``main`` pins BLAS to one thread,
so logits bytes depend only on the flags.  The pin must come before
numpy loads, which is why the heavy imports live inside the command
handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# errors.py imports nothing, so loading it here leaves numpy unloaded.
from .errors import (
    BottlenetError,
    InternalError,
    InvalidShapeError,
    TensorFormatError,
    UsageError,
    WeightFormatError,
)

FORMATS = ("csv", "json", "table")


def _model_spec(args):
    """The ``ModelSpec`` of the --alpha/--res/--classes flags; a UsageError
    names the flag of the first field out of range."""
    from .model import ModelSpec

    try:
        return ModelSpec(resolution=args.res, width_multiplier=args.alpha,
                         classes=args.classes)
    except InvalidShapeError as exc:
        flag = {"width_multiplier": "--alpha", "resolution": "--res",
                "classes": "--classes"}[exc.field]
        raise UsageError(f"{flag}: {exc}") from None


def _seed(text: str) -> int:
    """argparse type for seeds: the 64-bit unsigned range ``Rng`` accepts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _render(fmt: str, payload: dict, header: list[str], rows: list[list[str]],
            comments=()) -> int:
    """Write a command's result to stdout and return exit code 0.

    ``json`` prints ``payload``; ``csv`` prints ``# comment`` lines, then
    ``header`` and ``rows`` comma-separated; ``table`` right-aligns
    ``header`` and ``rows`` in columns under a dashed rule.
    """
    if fmt == "json":
        try:
            lines = [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)]
        except ValueError as exc:  # NaN or infinity: not JSON
            raise InternalError(f"non-finite value in JSON output: {exc}") from None
    elif fmt == "csv":
        lines = [f"# {c}" for c in comments]
        lines.extend(",".join(row) for row in [header, *rows])
    else:
        widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
        rule = ["-" * w for w in widths]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                 for row in [header, rule, *rows]]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_summarize(args) -> int:
    from .costs import model_cost

    report = model_cost(_model_spec(args))
    header = ["name", "out_h", "out_w", "out_c", "madds", "params", "bias_params"]
    layers = [[r.name, *r.out_shape, r.madds, r.params, r.bias_params]
              for r in report.rows]
    totals = [report.total_madds, report.total_params, report.total_bias_params]
    payload = {
        "command": "summarize",
        "alpha": args.alpha,
        "resolution": args.res,
        "classes": args.classes,
        "layers": [dict(zip(header, layer)) for layer in layers],
        "totals": dict(zip(header[4:], totals)),
    }
    rows = [[str(v) for v in row] for row in [*layers, ["total", "", "", "", *totals]]]
    return _render(args.format, payload, header, rows)


def cmd_memory_plan(args) -> int:
    from .memplan import CascadePlan, block_graph, cascade_peak_bytes, memory_table
    from .model import layer_walk

    spec = _model_spec(args)
    if args.split is not None and args.split < 1:
        raise UsageError(f"--split must be >= 1, got {args.split}")
    bpa = args.act_bits // 8
    report = memory_table(spec, bytes_per_activation=bpa)
    if args.dump_graph is not None:
        with open(args.dump_graph, "w") as fp:
            block_graph(spec, bytes_per_activation=bpa).dump_jsonl(fp)
    header = ["resolution", "channels", "kilobytes", "streamed"]
    rows = [
        [str(r.resolution), str(r.channels), f"{r.kilobytes:.3f}",
         "yes" if r.streamed else "no"]
        for r in report.rows
    ]
    rows.append(["max", "", f"{report.peak_kilobytes:.3f}", ""])
    first_block = None
    if args.split is not None:
        block = next(r for r in layer_walk(spec) if r.kind == "block")
        h = block.in_shape[0]
        plan = CascadePlan.from_split(block.inner, args.split)
        first_block = {
            "split": plan.split,
            "peak_bytes": cascade_peak_bytes(block, h, h, plan, bytes_per_activation=bpa),
        }
        rows.append([f"first-block split={plan.split}", "",
                     f"{first_block['peak_bytes'] / 1000.0:.3f}", ""])
    payload = {
        "command": "memory-plan",
        "alpha": args.alpha,
        "resolution": args.res,
        "act_bits": args.act_bits,
        "rows": [
            {
                "resolution": r.resolution,
                "channels": r.channels,
                "bytes": r.nbytes,
                "kilobytes": round(r.kilobytes, 3),
                "streamed": r.streamed,
            }
            for r in report.rows
        ],
        "peak_bytes": report.peak_bytes,
        "peak_kilobytes": round(report.peak_kilobytes, 3),
        "first_block_cascade": first_block,
    }
    return _render(args.format, payload, header, rows)


def _load_or_random_model(spec, args):
    from .model import build_model
    from .tensor import Rng
    from .weights import load_weights

    model = build_model(spec)
    if args.weights is not None:
        load_weights(model, args.weights)
    else:
        model.randomize(Rng(args.seed))
    return model


def cmd_infer(args) -> int:
    import numpy as np

    from .memplan import CascadePlan, cascade_execute
    from .tensor import Rng, load_tensor, random_gaussian, save_tensor

    spec = _model_spec(args)
    if args.weights is None and not args.random_weights:
        raise UsageError("provide --weights PATH or --random-weights")
    if args.input is None and not args.random_input:
        raise UsageError("provide --input PATH or --random-input")
    if args.split is not None and args.split < 1:
        raise UsageError(f"--split must be >= 1, got {args.split}")
    if os.path.isdir(args.out):
        raise UsageError(f"--out must name a file, {args.out!r} is a directory")
    model = _load_or_random_model(spec, args)
    if args.input is not None:
        x = load_tensor(args.input)
        if not np.isfinite(x).all():
            raise TensorFormatError(f"{args.input}: input holds a non-finite value")
        if x.shape[1:] != model.input_shape:
            raise UsageError(f"input tensor shape {x.shape[1:]} does not match the "
                             f"model input {model.input_shape} of --res {args.res}")
    else:
        x = random_gaussian((1, args.res, args.res, 3), Rng(args.input_seed))
    runner = None
    if args.split is not None:
        def runner(t, p, _s=args.split):
            plan = CascadePlan.from_split(p.expanded_channels, _s)
            return cascade_execute(t, p, plan)[0]
    logits = model.forward(x, block_runner=runner)
    save_tensor(args.out, logits)
    flat = logits[0].reshape(-1)
    top5 = [int(i) for i in np.argsort(-flat, kind="stable")[:5]]
    if args.format == "table":
        sys.stdout.write("top5: " + " ".join(str(i) for i in top5) + "\n")
        return 0
    values = [f"{flat[i]:.6g}" for i in top5]
    payload = {
        "command": "infer",
        "logits": str(args.out),
        "top5": top5,
        "top5_values": [float(v) for v in values],
    }
    rows = [[str(k), str(i), v] for k, (i, v) in enumerate(zip(top5, values))]
    return _render(args.format, payload, ["rank", "class", "logit"], rows)


def cmd_theory_collapse(args) -> int:
    from .theory import MC_BATCH_VALUES, relu_preserved_fraction, relu_preserved_fraction_mc

    if args.n < 1 or args.m < args.n:
        raise UsageError(f"need 1 <= n <= m, got n={args.n}, m={args.m}")
    if args.m * args.n > MC_BATCH_VALUES:
        raise UsageError(f"m*n must be <= {MC_BATCH_VALUES}, got {args.m * args.n}")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    exact = relu_preserved_fraction(args.n, args.m)
    mc = relu_preserved_fraction_mc(args.n, args.m, args.trials, args.seed)
    payload = {
        "command": "theory-collapse",
        "n": args.n,
        "m": args.m,
        "trials": args.trials,
        "seed": args.seed,
        "preserved_mc": mc,
        "preserved_exact": exact,
        "collapsed_mc": 1.0 - mc,
        "collapsed_exact": 1.0 - exact,
    }
    header = ["n", "m", "trials", "preserved_mc", "preserved_exact"]
    rows = [[str(args.n), str(args.m), str(args.trials), f"{mc:.6f}", f"{exact:.6f}"]]
    return _render(args.format, payload, header, rows, [f"seed={args.seed}"])


def cmd_theory_spiral(args) -> int:
    from .theory import spiral_experiment

    try:
        dims = [int(d) for d in args.dims.split(",") if d]
    except ValueError:
        raise UsageError(f"--dims must be a comma-separated integer list, got {args.dims!r}")
    if not dims or any(d < 2 for d in dims):
        raise UsageError(f"--dims entries must be >= 2, got {args.dims!r}")
    if len(set(dims)) != len(dims):
        raise UsageError(f"--dims entries must be distinct, got {args.dims!r}")
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    errors = spiral_experiment(dims, args.seed, points=args.points)
    payload = {
        "command": "theory-spiral",
        "seed": args.seed,
        "points": args.points,
        "dims": dims,
        "errors": {str(n): errors[n] for n in dims},
    }
    rows = [[str(n), f"{errors[n]:.6e}"] for n in dims]
    return _render(args.format, payload, ["n", "mse"], rows,
                   [f"seed={args.seed}", f"points={args.points}"])


def cmd_theory_activations(args) -> int:
    from .tensor import Rng, random_gaussian
    from .theory import activation_pattern_stats

    spec = _model_spec(args)
    if args.batch < 1:
        raise UsageError(f"--batch must be >= 1, got {args.batch}")
    model = _load_or_random_model(spec, args)
    batch = random_gaussian((args.batch, args.res, args.res, 3),
                            Rng(args.input_seed))
    stats = activation_pattern_stats(model, batch, per_location=not args.per_map)
    payload = {
        "command": "theory-activations",
        "alpha": args.alpha,
        "resolution": args.res,
        "seed": args.seed,
        "input_seed": args.input_seed,
        "batch": args.batch,
        "weights": args.weights,
        "per_location": stats.per_location,
        "layers": [
            {
                "index": l.index,
                "name": l.name,
                "channels": l.channels,
                "threshold": l.threshold,
                "min_count": l.min_count,
                "mean_count": l.mean_count,
                "max_count": l.max_count,
                "mean_fraction": l.mean_fraction,
            }
            for l in stats.layers
        ],
    }
    header = ["index", "name", "channels", "threshold", "min", "mean", "max",
              "mean_fraction"]
    rows = [
        [str(l.index), l.name, str(l.channels), f"{l.threshold:.1f}",
         f"{l.min_count:.1f}", f"{l.mean_count:.3f}", f"{l.max_count:.1f}",
         f"{l.mean_fraction:.4f}"]
        for l in stats.layers
    ]
    return _render(args.format, payload, header, rows,
                   [f"seed={args.seed}", f"input_seed={args.input_seed}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottlenet",
        description="Inverted-residual network inference, cost and theory tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--alpha", type=float, default=1.0, help="width multiplier")
        p.add_argument("--res", type=int, default=224, help="input resolution")
        p.add_argument("--classes", type=int, default=1000)

    p = sub.add_parser("summarize", help="per-layer multiply-adds and parameters")
    add_model_flags(p)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("memory-plan", help="per-resolution materialized memory")
    add_model_flags(p)
    p.add_argument("--split", type=int, default=None,
                   help="channel-split factor for the first block")
    p.add_argument("--act-bits", type=int, default=16, choices=(16, 32))
    p.add_argument("--dump-graph", default=None, metavar="PATH",
                   help="write the block-granular compute graph as JSON lines")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_memory_plan)

    p = sub.add_parser("infer", help="run the network on a tensor file")
    add_model_flags(p)
    p.add_argument("--weights", default=None, help="weight container path")
    p.add_argument("--random-weights", action="store_true")
    p.add_argument("--seed", type=_seed, default=0, help="weight seed")
    p.add_argument("--input", default=None, help="input tensor path")
    p.add_argument("--random-input", action="store_true")
    p.add_argument("--input-seed", type=_seed, default=1)
    p.add_argument("--split", type=int, default=None,
                   help="run blocks via t-way channel split")
    p.add_argument("--out", default="logits.bten")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_infer)

    theory = sub.add_parser("theory", help="numerical experiments")
    tsub = theory.add_subparsers(dest="experiment", required=True)

    p = tsub.add_parser("collapse", help="Monte Carlo sign-pattern preservation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_theory_collapse)

    p = tsub.add_parser("spiral", help="spiral embed/rectify/invert errors")
    p.add_argument("--dims", default="2,3,15,30")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_theory_spiral)

    p = tsub.add_parser("activations", help="positive-channel statistics")
    add_model_flags(p)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=_seed, default=5, help="weight seed")
    p.add_argument("--input-seed", type=_seed, default=6)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--per-map", action="store_true",
                   help="count a channel once per image instead of per location")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_theory_activations)

    return parser


def main(argv=None) -> int:
    # Once numpy is loaded (a host program calling main) its BLAS pool is set.
    if "numpy" not in sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for the requested sizes", file=sys.stderr)
        return 2
    except (TensorFormatError, WeightFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except BottlenetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
