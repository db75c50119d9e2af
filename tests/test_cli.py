import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenet import cli
from bottlenet.model import ModelSpec, build_model
from bottlenet.tensor import Rng, load_tensor, random_gaussian, save_tensor
from bottlenet.weights import save_weights

from conftest import WRAPPING_CONTAINER

SMALL = ["--alpha", "0.35", "--res", "96", "--classes", "10"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(args, env_extra=None):
    """Run the CLI in a child; an ``env_extra`` value of None unsets that variable."""
    env = dict(os.environ)
    # The child runs outside the repository, so the package path is absolute.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for name, value in (env_extra or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-m", "bottlenet.cli", *args],
        capture_output=True, env=env, cwd="/tmp",
    )


def validate(payload, schema_name, repo_root):
    schema = json.loads((repo_root / "schemas" / schema_name).read_text())
    jsonschema.validate(payload, schema)


def non_finite_weights(path):
    """A container for the SMALL model whose stem.weight[0, 0, 0, 0] is NaN."""
    model = build_model(ModelSpec(resolution=96, width_multiplier=0.35, classes=10))
    model.randomize(Rng(1)).layers[0].params.weights[0, 0, 0, 0] = np.nan
    save_weights(model, path)
    return str(path)


# Each case runs in csv, json and table; tests/golden/<case>.<format> holds
# "exit <code>" on its first line and the exact stdout after it.
GOLDEN_CASES = {
    "summarize-alpha1.0": ["summarize", "--alpha", "1.0", "--res", "224"],
    "summarize-alpha1.4": ["summarize", "--alpha", "1.4", "--res", "224"],
    "memory-plan-16": ["memory-plan", "--act-bits", "16"],
    "memory-plan-16-split5": ["memory-plan", "--act-bits", "16", "--split", "5"],
    "memory-plan-32-split8-alpha1.4": ["memory-plan", "--act-bits", "32",
                                       "--split", "8", "--alpha", "1.4"],
    "infer-split4": ["infer", "--alpha", "0.35", "--res", "96", "--classes", "10",
                     "--random-weights", "--seed", "1", "--random-input",
                     "--input-seed", "2", "--split", "4", "--out", "logits.bten"],
    "theory-collapse": ["theory", "collapse", "--n", "2", "--m", "4",
                        "--trials", "1000", "--seed", "3"],
    "theory-spiral": ["theory", "spiral", "--dims", "2,3,15,30", "--seed", "9",
                      "--points", "50"],
    "theory-activations": ["theory", "activations", "--alpha", "0.35", "--res", "96",
                           "--batch", "2"],
}


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, fmt, capsys, monkeypatch, tmp_path, repo_root):
    # The goldens were captured before the renderer refactor and are never
    # re-captured to make a change pass: any byte of difference is a bug.
    golden = (repo_root / "tests" / "golden" / f"{case}.{fmt}").read_bytes()
    monkeypatch.chdir(tmp_path)  # infer writes --out and prints its path
    code, out, _ = run_cli([*GOLDEN_CASES[case], "--format", fmt], capsys)
    assert f"exit {code}\n".encode() + out.encode() == golden
    if fmt == "json":
        payload = json.loads(out)
        validate(payload, payload["command"].replace("-", "_") + ".schema.json", repo_root)


class TestSummarize:
    def test_json_totals_and_schema(self, capsys, repo_root):
        code, out, _ = run_cli(["summarize", "--alpha", "1.0", "--res", "224",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "summarize.schema.json", repo_root)
        assert payload["totals"]["madds"] == 300_774_272
        assert payload["totals"]["params"] == 3_487_816

    def test_bad_alpha_names_flag(self, capsys):
        code, out, err = run_cli(["summarize", "--alpha", "0", "--res", "224"], capsys)
        assert code == 2
        assert "--alpha" in err

    @pytest.mark.parametrize("classes", ["0", "65537", "9" * 4300],
                             ids=["zero", "above-max", "4300-digits"])
    def test_classes_out_of_range_exit_2(self, capsys, classes):
        # A 4300-digit class count used to crash the table renderer.
        code, out, err = run_cli(["summarize", "--classes", classes], capsys)
        assert (code, out) == (2, "")
        assert "--classes" in err and "Traceback" not in err

    def test_bad_resolution_exit_2(self, capsys):
        code, _, err = run_cli(["summarize", "--res", "100"], capsys)
        assert code == 2
        assert "--res" in err

    def test_byte_identical_runs(self):
        a = run_subprocess(["summarize", *SMALL, "--format", "csv"])
        b = run_subprocess(["summarize", *SMALL, "--format", "csv"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_csv_is_lf_and_dot_decimal(self, capsys):
        code, out, _ = run_cli(["summarize", *SMALL, "--format", "csv"], capsys)
        assert code == 0
        assert "\r" not in out
        assert "," in out  # separator only; numbers carry no thousands marks
        for token in out.splitlines()[1].split(","):
            assert " " not in token


class TestMemoryPlan:
    def test_default_max_near_200k(self, capsys, repo_root):
        code, out, _ = run_cli(["memory-plan", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "memory_plan.schema.json", repo_root)
        assert payload["act_bits"] == 16
        assert payload["peak_kilobytes"] == pytest.approx(200.0, rel=0.05)

    def test_32bit_doubles(self, capsys):
        _, out16, _ = run_cli(["memory-plan", "--format", "json"], capsys)
        _, out32, _ = run_cli(["memory-plan", "--act-bits", "32",
                               "--format", "json"], capsys)
        p16, p32 = json.loads(out16), json.loads(out32)
        assert p32["peak_bytes"] == 2 * p16["peak_bytes"]
        for a, b in zip(p16["rows"], p32["rows"]):
            assert b["bytes"] == 2 * a["bytes"]

    def test_split_reduces_first_block_peak(self, capsys):
        _, out1, _ = run_cli(["memory-plan", "--split", "1", "--format", "json"], capsys)
        _, out5, _ = run_cli(["memory-plan", "--split", "5", "--format", "json"], capsys)
        peak1 = json.loads(out1)["first_block_cascade"]["peak_bytes"]
        peak5 = json.loads(out5)["first_block_cascade"]["peak_bytes"]
        assert peak5 < peak1

    def test_bad_act_bits(self, capsys):
        code, _, _ = run_cli(["memory-plan", "--act-bits", "24"], capsys)
        assert code == 2

    def test_split_allocates_no_weights(self, capsys):
        # The first block's widths come from the layer walk; building the
        # width-1.4 model for them zero-filled about 24 MB of weights.
        args = ["memory-plan", "--alpha", "1.4", "--res", "224", "--split", "8",
                "--format", "json"]
        assert run_cli(args, capsys)[0] == 0
        tracemalloc.start()
        try:
            code = cli.main(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 1 << 20, peak

    def test_dump_graph_jsonl(self, capsys, tmp_path):
        from bottlenet.memplan import ComputeGraph, linear_bound_memory

        path = tmp_path / "graph.jsonl"
        code, _, _ = run_cli(["memory-plan", "--dump-graph", str(path)], capsys)
        assert code == 0
        with open(path) as fp:
            g = ComputeGraph.load_jsonl(fp)
        assert len(g.ops) == 17 + 3  # blocks plus head/pool/classifier
        assert linear_bound_memory(g) > 0


    @pytest.mark.parametrize("alpha,res,bits", [("1.0", "224", "16"), ("0.35", "96", "32")])
    def test_dump_graph_golden(self, alpha, res, bits, capsys, tmp_path, repo_root):
        # tests/golden/memory-plan-graph-*.jsonl were written before block_graph
        # read its head, pool and classifier sizes from the layer walk.
        path = tmp_path / "graph.jsonl"
        code, _, _ = run_cli(["memory-plan", "--alpha", alpha, "--res", res,
                              "--act-bits", bits, "--dump-graph", str(path)], capsys)
        assert code == 0
        golden = f"memory-plan-graph-alpha{alpha}-res{res}-{bits}.jsonl"
        assert path.read_bytes() == (repo_root / "tests" / "golden" / golden).read_bytes()


class TestInfer:
    def test_random_weights_deterministic_top5(self, tmp_path):
        args = ["infer", *SMALL, "--random-weights", "--seed", "1",
                "--random-input", "--input-seed", "2",
                "--out", str(tmp_path / "a.bten"), "--format", "json"]
        a = run_subprocess(args)
        args[args.index(str(tmp_path / "a.bten"))] = str(tmp_path / "b.bten")
        b = run_subprocess(args)
        assert a.returncode == b.returncode == 0
        ja, jb = json.loads(a.stdout), json.loads(b.stdout)
        assert ja["top5"] == jb["top5"]
        xa = load_tensor(tmp_path / "a.bten")
        xb = load_tensor(tmp_path / "b.bten")
        assert xa.tobytes() == xb.tobytes()

    def test_json_schema(self, capsys, tmp_path, repo_root):
        code, out, _ = run_cli(
            ["infer", *SMALL, "--random-weights", "--random-input",
             "--out", str(tmp_path / "l.bten"), "--format", "json"], capsys)
        assert code == 0
        validate(json.loads(out), "infer.schema.json", repo_root)

    def test_resolution_mismatch_exit_2(self, capsys, tmp_path):
        # A wrong resolution, then a wrong channel count, at --res 96.
        path = tmp_path / "in.bten"
        for shape in [(1, 128, 128, 3), (1, 96, 96, 4)]:
            save_tensor(path, random_gaussian(shape, Rng(0)))
            code, _, err = run_cli(
                ["infer", *SMALL, "--random-weights", "--input", str(path),
                 "--out", str(tmp_path / "l.bten")], capsys)
            assert code == 2
            assert "--res" in err and "(96, 96, 3)" in err, err

    def test_missing_weight_source_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["infer", *SMALL, "--random-input",
             "--out", str(tmp_path / "l.bten")], capsys)
        assert code == 2

    def test_corrupt_weights_exit_3(self, capsys, tmp_path):
        path = tmp_path / "w.bwgt"
        path.write_bytes(b"BWGTgarbage")
        code, _, err = run_cli(
            ["infer", *SMALL, "--weights", str(path), "--random-input",
             "--out", str(tmp_path / "l.bten")], capsys)
        assert code == 3

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_finite_weights_exit_3(self, capsys, tmp_path, fmt):
        # A NaN weight is a data fault; it used to exit 4 under json and
        # print a meaningless top-5 with exit 0 under table.
        out_path = tmp_path / "l.bten"
        code, out, err = run_cli(
            ["infer", *SMALL, "--weights", non_finite_weights(tmp_path / "w.bwgt"),
             "--random-input", "--out", str(out_path), "--format", fmt], capsys)
        assert (code, out) == (3, "")
        assert "stem.weight" in err and "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_exit_3(self, capsys, tmp_path, value):
        x = random_gaussian((1, 96, 96, 3), Rng(0))
        x[0, 5, 7, 1] = value
        path = tmp_path / "in.bten"
        save_tensor(path, x)
        out_path = tmp_path / "l.bten"
        code, out, err = run_cli(
            ["infer", *SMALL, "--random-weights", "--input", str(path),
             "--out", str(out_path)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert not out_path.exists()

    def test_weights_file_round_trip(self, capsys, tmp_path):
        spec = ModelSpec(resolution=96, width_multiplier=0.35, classes=10)
        model = build_model(spec).randomize(Rng(1))
        wpath = tmp_path / "w.bwgt"
        save_weights(model, wpath)
        out_path = tmp_path / "l.bten"
        code, _, _ = run_cli(
            ["infer", *SMALL, "--weights", str(wpath), "--random-input",
             "--input-seed", "2", "--out", str(out_path)], capsys)
        assert code == 0
        x = random_gaussian((1, 96, 96, 3), Rng(2))
        expected = model.forward(x)
        assert np.array_equal(load_tensor(out_path), expected)

    def test_split_matches_monolithic(self, capsys, tmp_path):
        base = tmp_path / "base.bten"
        split = tmp_path / "split.bten"
        args = ["infer", *SMALL, "--random-weights", "--seed", "1",
                "--random-input", "--input-seed", "2"]
        assert run_cli([*args, "--out", str(base)], capsys)[0] == 0
        assert run_cli([*args, "--split", "4", "--out", str(split)], capsys)[0] == 0
        a, b = load_tensor(base), load_tensor(split)
        scale = float(np.max(np.abs(a)))
        assert float(np.max(np.abs(a - b))) <= 1e-5 * scale

    @pytest.mark.parametrize("flag", ["--seed", "--input-seed"])
    def test_negative_seed_exit_2(self, capsys, tmp_path, flag):
        code, _, err = run_cli(
            ["infer", *SMALL, "--random-weights", "--random-input", flag, "-1",
             "--out", str(tmp_path / "l.bten")], capsys)
        assert code == 2
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "l.bten").exists()

    def test_out_directory_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["infer", *SMALL, "--random-weights", "--random-input",
             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "--out" in err


class TestTheoryCommands:
    def test_collapse_json(self, capsys, repo_root):
        code, out, _ = run_cli(
            ["theory", "collapse", "--n", "2", "--m", "4",
             "--trials", "20000", "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "theory_collapse.schema.json", repo_root)
        assert payload["preserved_exact"] == pytest.approx(0.6875)
        assert payload["preserved_mc"] == pytest.approx(0.6875, abs=0.02)

    def test_collapse_m_less_than_n_exit_2(self, capsys):
        code, _, _ = run_cli(["theory", "collapse", "--n", "4", "--m", "2"], capsys)
        assert code == 2

    def test_collapse_m_past_float_range(self):
        r = run_subprocess(["theory", "collapse", "--n", "1", "--m", "1100",
                            "--trials", "1", "--format", "json"])
        assert r.returncode == 0, r.stderr
        assert b"Traceback" not in r.stderr
        assert json.loads(r.stdout)["preserved_exact"] == 1.0

    def test_collapse_m_one_million_in_seconds(self, capsys):
        # Summing the m - n + 1 = 10**6 binomials took over two minutes
        # already at m = 60,000; the n = 1 complement is one term.
        start = time.perf_counter()
        code, out, err = run_cli(["theory", "collapse", "--n", "1", "--m", "1000000",
                                  "--trials", "1", "--format", "json"], capsys)
        assert code == 0, err
        assert time.perf_counter() - start < 10
        assert json.loads(out)["preserved_exact"] == 1.0

    def test_collapse_batch_past_memory_exit_2(self):
        # 100,000 x 100,000 float64 matrices: one trial alone is 74.5 GiB.
        r = run_subprocess(["theory", "collapse", "--n", "100000", "--m", "100000",
                            "--trials", "1"])
        assert r.returncode == 2, r.stderr
        assert r.stdout == b""
        assert r.stderr.startswith(b"error:") and b"Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [
        # A 201 TiB input batch and a 728 TiB point array: both above the
        # 128 TiB user address space, so numpy refuses before allocating.
        ["activations", "--alpha", "0.35", "--res", "96", "--batch", "1000000000"],
        ["spiral", "--points", "100000000000000"],
    ], ids=["activations", "spiral"])
    def test_sizes_past_memory_exit_2(self, argv):
        r = run_subprocess(["theory", *argv])
        assert r.returncode == 2, r.stderr
        assert r.stdout == b""
        assert r.stderr.startswith(b"error:") and b"Traceback" not in r.stderr
        assert r.stderr.count(b"\n") == 1

    def test_spiral_json(self, capsys, repo_root):
        code, out, _ = run_cli(
            ["theory", "spiral", "--dims", "2,30", "--seed", "9",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "theory_spiral.schema.json", repo_root)
        assert payload["errors"]["2"] >= 10 * payload["errors"]["30"]

    def test_spiral_bad_dims_exit_2(self, capsys):
        code, _, _ = run_cli(["theory", "spiral", "--dims", "2,x"], capsys)
        assert code == 2

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_spiral_points_below_two_exit_2(self, capsys, points):
        # 0 points used to print NaN rows, 1 point a silent zero error.
        code, out, err = run_cli(
            ["theory", "spiral", "--dims", "2", "--points", points,
             "--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert "--points" in err

    def test_spiral_duplicate_dims_exit_2(self, capsys):
        # Duplicates used to collapse into one JSON key.
        code, out, err = run_cli(
            ["theory", "spiral", "--dims", "2,2", "--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert "--dims" in err

    def test_non_finite_json_is_internal_error(self, capsys, monkeypatch):
        from bottlenet import theory

        monkeypatch.setattr(theory, "spiral_experiment",
                            lambda dims, seed, points: {n: float("nan") for n in dims})
        code, out, err = run_cli(
            ["theory", "spiral", "--dims", "2", "--format", "json"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:") and "Traceback" not in err

    def test_spiral_csv_headers_carry_seed(self, capsys):
        code, out, _ = run_cli(
            ["theory", "spiral", "--dims", "2,3", "--seed", "4",
             "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "# seed=4"

    def test_activations_json(self, capsys, repo_root):
        code, out, _ = run_cli(
            ["theory", "activations", *SMALL, "--batch", "4",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "theory_activations.schema.json", repo_root)
        assert all(0.3 < l["mean_fraction"] < 0.7 for l in payload["layers"])

    def test_activations_non_finite_weights_exit_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["theory", "activations", *SMALL, "--batch", "1", "--weights",
             non_finite_weights(tmp_path / "w.bwgt"), "--format", "json"], capsys)
        assert (code, out) == (3, "")
        assert "stem.weight" in err and "Traceback" not in err


# Every ModelSpec rule as the flag it breaks and a value that breaks it.
MODEL_FLAG_RULES = {
    "alpha-low": ("--alpha", "0.34"),
    "alpha-high": ("--alpha", "1.41"),
    "res-low": ("--res", "64"),
    "res-high": ("--res", "256"),
    "res-not-multiple-of-32": ("--res", "100"),
    "classes-zero": ("--classes", "0"),
    "classes-above-max": ("--classes", "65537"),
}
MODEL_COMMANDS = {
    "summarize": ["summarize"],
    "memory-plan": ["memory-plan"],
    "infer": ["infer", "--random-weights", "--random-input"],
    "theory-activations": ["theory", "activations", "--batch", "1"],
}


def model_flag_error(command, values, capsys, tmp_path):
    """Exit code and stderr of ``command`` on SMALL with ``values`` replaced."""
    flags = dict(zip(SMALL[::2], SMALL[1::2])) | values
    argv = [*MODEL_COMMANDS[command], *[x for kv in flags.items() for x in kv]]
    if command == "infer":
        argv += ["--out", str(tmp_path / "l.bten")]
    code, out, err = run_cli(argv, capsys)
    assert out == "" and "Traceback" not in err
    return code, err


class TestModelFlags:
    """ModelSpec states the flag ranges; every model command names the
    flag of the first rule broken, in the order --alpha, --res, --classes."""

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    @pytest.mark.parametrize("rule", sorted(MODEL_FLAG_RULES))
    def test_each_rule_exits_2_naming_its_flag(self, command, rule, capsys, tmp_path):
        flag, value = MODEL_FLAG_RULES[rule]
        code, err = model_flag_error(command, {flag: value}, capsys, tmp_path)
        assert code == 2
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1, err
        assert value in err

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    @pytest.mark.parametrize("bad,named", [
        (("--alpha", "--res", "--classes"), "--alpha"),
        (("--alpha", "--res"), "--alpha"),
        (("--alpha", "--classes"), "--alpha"),
        (("--res", "--classes"), "--res"),
    ], ids=["all", "alpha-res", "alpha-classes", "res-classes"])
    def test_first_bad_flag_named(self, command, bad, named, capsys, tmp_path):
        values = {"--alpha": "2", "--res": "100", "--classes": "0"}
        code, err = model_flag_error(command, {f: values[f] for f in bad}, capsys, tmp_path)
        assert code == 2
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, err


class TestHarness:
    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["not-a-command"]) == 2

    @pytest.mark.parametrize("flag", ["--input", "--weights", "--dump-graph"])
    def test_directory_as_file_exit_3(self, capsys, tmp_path, flag):
        if flag == "--dump-graph":
            args = ["memory-plan", flag, str(tmp_path)]
        else:
            source = "--random-weights" if flag == "--input" else "--random-input"
            args = ["infer", *SMALL, source, flag, str(tmp_path),
                    "--out", str(tmp_path / "l.bten")]
        code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_wrapping_weight_container_exit_3(self, tmp_path):
        path = tmp_path / "w.bwgt"
        path.write_bytes(WRAPPING_CONTAINER)
        r = run_subprocess(["infer", *SMALL, "--weights", str(path), "--random-input",
                            "--out", str(tmp_path / "l.bten")])
        assert r.returncode == 3
        assert r.stdout == b""
        assert r.stderr.startswith(b"error:") and b"Traceback" not in r.stderr

    @pytest.mark.parametrize("value", ["1", "nope", "\u00b2", "\u0663"])
    def test_removed_thread_env_is_ignored(self, value):
        # BTN_THREADS is no longer read: any value, even one that is not a
        # count, leaves the exit code and stdout as they are without it.
        argv = ["summarize", *SMALL, "--format", "csv"]
        base = run_subprocess(argv)
        assert base.returncode == 0
        r = run_subprocess(argv, env_extra={"BTN_THREADS": value})
        assert (r.returncode, r.stdout) == (0, base.stdout)

    def test_thread_env_honored(self, capsys, monkeypatch):
        # numpy is loaded here, so the thread pin cannot act and leaves the
        # host's own thread setting and the rest of its environment alone.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = dict(os.environ)
        assert cli.main(["summarize", *SMALL, "--format", "csv"]) == 0
        capsys.readouterr()
        assert dict(os.environ) == before

    @pytest.mark.parametrize("split", [[], ["--split", "8"]], ids=["monolithic", "split8"])
    def test_inference_bits_stable_across_thread_counts(self, tmp_path, split):
        # The CLI runs BLAS on one thread, so BTN_THREADS, which it no longer
        # reads, changes no byte.  test_logits_bytes_ignore_blas_threads sets
        # the BLAS thread variable itself, at 1,000 classes.
        outs = []
        for threads in ("1", "4"):
            path = tmp_path / f"t{threads}.bten"
            r = run_subprocess(
                ["infer", *SMALL, "--random-weights", "--seed", "3", *split,
                 "--random-input", "--input-seed", "4", "--out", str(path)],
                env_extra={"BTN_THREADS": threads})
            assert r.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    # SHA-1 of the logits file at one BLAS thread.  Unpinned, all but the
    # last case give other bytes at 2 threads: the classifier's
    # 1x1280 . 1280x1000 product at batch 1, and block15's 75x720 . 720x120
    # projection at alpha 0.75 / 160 px / batch 3.
    @pytest.mark.parametrize("alpha,res,batch,split,digest", [
        ("1.0", 224, 1, [], "22eb0bfcd825e38896fc4ed53a540527bb26de54"),
        ("1.0", 224, 1, ["--split", "8"], "5893934f50e7ea8788daa6f04bd07f95c81c31f3"),
        ("0.35", 96, 1, [], "c1058a8bde341909b5e6ea6a2a626b084986ff34"),
        ("0.35", 96, 1, ["--split", "8"], "f2148ebe8abd7e0dd7ae39e03d77349fcc348dbc"),
        ("0.75", 160, 3, [], "10d58bb289b5701f1b54c327cd42c8ccbd007ac9"),
        ("0.75", 160, 3, ["--split", "8"], "f1e891946a516093890abba4861fb84396712aa0"),
    ], ids=["1.0-224-b1", "1.0-224-b1-split8", "0.35-96-b1", "0.35-96-b1-split8",
            "0.75-160-b3", "0.75-160-b3-split8"])
    def test_logits_bytes_ignore_blas_threads(self, tmp_path, alpha, res, batch, split,
                                              digest):
        if batch == 1:
            source = ["--random-input", "--input-seed", "4"]
        else:
            source = ["--input", str(tmp_path / "in.bten")]
            save_tensor(source[1], random_gaussian((batch, res, res, 3), Rng(4)))
        out = tmp_path / "logits.bten"
        argv = ["infer", "--alpha", alpha, "--res", str(res), "--random-weights",
                "--seed", "3", *source, *split, "--out", str(out)]
        # OpenBLAS unset (one thread per core), 1, 2 and 4, each with another
        # BTN_THREADS; no OMP or MKL variable stands in for the unset one.
        for blas, knob in ((None, "2"), ("1", "4"), ("2", "1"), ("4", "3")):
            r = run_subprocess(argv, env_extra={
                "OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": None,
                "MKL_NUM_THREADS": None, "BTN_THREADS": knob})
            assert r.returncode == 0, r.stderr
            assert hashlib.sha1(out.read_bytes()).hexdigest() == digest, blas


def argv_chars(exclude=""):
    """Characters a real argv can carry: no NUL, and no surrogate except
    U+DC80..U+DCFF, which stand for bytes that are not UTF-8."""
    return (st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00" + exclude)
            | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF))


# Flag values a hostile command line can carry.
HOSTILE = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "1e309", "-1e309", "-0", "0", "-1", "", " ",
    "1_0", "0x10", "\u0663", "\u00b2", "\u0669\u0666", "\uff19\uff16", "\udcff",
    "9" * 30, "-" + "9" * 30, "9" * 400, "9" * 4300, "9" * 4301,
]) | st.text(argv_chars(), max_size=6)


def _within(text: str, cap: int) -> bool:
    """False when a comma-separated part of ``text`` parses as an int above cap."""
    for part in text.split(","):
        try:
            if int(part) > cap:
                return False
        except ValueError:
            pass
    return True


def capped(cap: int):
    """A value for a flag that sets work or memory: any string but an int above cap."""
    return st.integers(-2, cap).map(str) | HOSTILE.filter(lambda s: _within(s, cap))


def _not_above(text: str, cap: float) -> bool:
    """False when ``text`` parses as a number above cap."""
    try:
        return not float(text) > cap
    except ValueError:
        return True


def plausible(values, cap: float | None = None):
    """One of ``values`` seven draws in eight, else a hostile string that
    does not parse as a number above ``cap``."""
    hostile = HOSTILE if cap is None else HOSTILE.filter(lambda s: _not_above(s, cap))
    return st.integers(0, 7).flatmap(lambda i: hostile if i == 7 else st.sampled_from(values))


def flags(required, optional):
    """The argv of drawn flag values; a value drawn as None is a bare switch."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [x for k, v in d.items() for x in ((k,) if v is None else (k, v))])


def argv(dump_dir):
    """A subcommand and its flags, each flag absent, plausible or hostile."""
    model = {
        "--alpha": st.sampled_from(["0.35", "0.5", "1.0", "1.4"]) | HOSTILE,
        "--res": st.sampled_from(["96", "160", "224"]) | HOSTILE,
        "--classes": st.sampled_from(["1", "10", "1000", "65536"]) | HOSTILE,
    }
    fmt = {"--format": st.sampled_from(cli.FORMATS) | HOSTILE}
    name = st.text(argv_chars("/"), max_size=8)
    commands = {
        "summarize": flags({}, {**model, **fmt}),
        "memory-plan": flags({}, {
            **model, **fmt,
            "--split": st.sampled_from(["1", "5", "8"]) | HOSTILE,
            "--act-bits": st.sampled_from(["16", "32"]) | HOSTILE,
            "--dump-graph": name.filter(lambda n: n not in (".", "..")).map(
                lambda n: str(dump_dir / n)),
        }),
        "theory collapse": flags({"--trials": capped(1000)}, {
            **fmt, "--n": st.sampled_from(["1", "2", "4"]) | HOSTILE, "--m": capped(64),
            "--seed": st.sampled_from(["0", "3"]) | HOSTILE,
        }),
        "theory spiral": flags({"--points": capped(200)}, {
            **fmt, "--dims": st.lists(capped(64), max_size=4).map(",".join) | capped(64),
            "--seed": st.sampled_from(["0", "9"]) | HOSTILE,
        }),
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda c: commands[c].map(lambda tail: [*c.split(), *tail]))


def model_argv(fuzz_dir):
    """``infer`` or ``theory activations`` on the smallest model, each flag
    absent, plausible or hostile; the width, resolution, classes, batch
    and split are capped, and every path is under ``fuzz_dir``."""
    names = st.text(argv_chars("/"), max_size=8)
    path, out = (s.map(lambda n: str(fuzz_dir / n)) for s in (names, names.filter(bool)))
    model = {"--alpha": plausible(["0.35"], 0.35), "--res": plausible(["96"], 96)}
    common = {
        "--classes": plausible(["1", "10"], 1000),
        "--format": plausible(cli.FORMATS),
        "--weights": path,
        "--seed": plausible(["0", "3"]),
        "--input-seed": plausible(["1", "6"]),
    }
    commands = {
        "infer": flags(
            {**model, "--random-weights": st.none(), "--random-input": st.none(),
             "--out": out},
            {**common, "--input": path, "--split": plausible(["1", "2", "8"], 8)}),
        "theory activations": flags(model, {
            **common, "--batch": plausible(["1", "2", "4"], 4), "--per-map": st.none(),
        }),
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda c: commands[c].map(lambda tail: [*c.split(), *tail]))


def assert_cli_contract(args, repo_root):
    """Exit 0, 2, 3 or 4, no traceback, nothing on stdout unless the command
    succeeded, and --format json output valid by its schema."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    elif "--format" in args and args[args.index("--format") + 1] == "json":
        payload = json.loads(out.getvalue())
        validate(payload, payload["command"].replace("-", "_") + ".schema.json", repo_root)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_argv_fuzz_keeps_the_cli_contract(fuzz_dir, repo_root, data):
    assert_cli_contract(data.draw(argv(fuzz_dir)), repo_root)


# About half the draws build and run a model (alpha 0.35, 96 px): 10-20 s in all.
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_argv_fuzz_keeps_the_cli_contract(fuzz_dir, repo_root, data):
    assert_cli_contract(data.draw(model_argv(fuzz_dir)), repo_root)
