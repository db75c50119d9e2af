"""The names perfbench's traced run patches must resolve on bottlenet.

``perfbench/tracing.py`` and ``perfbench/worker.py`` replace functions by
``getattr``/``setattr`` on the module that binds them, so a name a module
no longer calls (``memplan``'s kernel imports, ``blocks.add_residual``)
must still be importable there, or ``perfbench/run.py --trace 1`` fails.
``perfbench/adapters.py`` tags each block by walking ``spec.stages``, and
its infer setup saves seeded weights that its ``Infer`` then loads.
Those patched names are the only imports a module may leave unread.
"""

import ast
import importlib
import pathlib

import numpy as np
import pytest

from bottlenet import blocks, costs, kernels, memplan, model, weights
from bottlenet.tensor import Rng, random_gaussian

MODULES = {"blocks": blocks, "costs": costs, "memplan": memplan,
           "model": model, "weights": weights}

# Every (owner, attribute) that worker.install_tracer patches besides the kernels.
TRACED = [
    (model, "bottleneck_forward"),
    (model.Model, "forward"),
    (model, "build_model"),
    (weights, "load_weights"),
    (costs, "model_cost"),
] + [(memplan, name) for name in (
    "cascade_execute", "min_memory_schedule", "greedy_memory_schedule",
    "schedule_memory", "memory_table", "block_graph")]


@pytest.fixture(scope="module")
def tracing(repo_root):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(repo_root / "perfbench"))
        yield importlib.import_module("tracing")


@pytest.fixture(scope="module")
def adapters(repo_root):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(repo_root / "perfbench"))
        yield importlib.import_module("adapters")


@pytest.fixture(scope="module")
def worker(repo_root):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(repo_root / "perfbench"))
        yield importlib.import_module("worker")


def test_kernel_bindings_resolve_to_the_kernels(tracing):
    for module, names in tracing.KERNEL_BINDINGS.items():
        for name in names:
            assert getattr(MODULES[module], name) is getattr(kernels, name), (module, name)
            assert name in tracing.KERNELS, name


def module_imports(node):
    """Names bound by the imports among a module's top-level statements,
    inside ``try`` and ``if`` too, but not inside a function or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.module == "__future__":
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name.split(".")[0] for a in child.names)
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from module_imports(child)


SOURCES = sorted(pathlib.Path(kernels.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_unread_imports_are_kernel_bindings(tracing, path):
    # A name imported but never read is dead, unless perfbench patches it
    # on this module by name; once a binding goes, so must its import.
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    unread = set(module_imports(tree)) - read
    assert unread <= set(tracing.KERNEL_BINDINGS.get(path.stem, ())), sorted(unread)


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses(tree):
    """Line numbers where a module reads or writes the process environment
    through ``os``, by attribute or by ``from os import``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ENVIRONMENT for a in node.names)):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_the_cli_touches_the_environment(path):
    # The CLI's one-thread BLAS pin is the package's only environment rule;
    # a module reading a variable would make its output depend on it.
    lines = list(environment_uses(ast.parse(path.read_text())))
    assert bool(lines) == (path.stem == "cli"), lines


@pytest.mark.parametrize("owner,name", TRACED, ids=lambda v: getattr(v, "__name__", v))
def test_traced_names_resolve(owner, name):
    assert callable(getattr(owner, name))


def test_cascade_plan_is_the_blocks_plan():
    # The CLI, the tests and perfbench's adapter build plans from memplan.
    assert memplan.CascadePlan is blocks.CascadePlan


def test_adapter_tags_every_stage(adapters):
    infer = object.__new__(adapters.Infer)
    infer.spec = model.ModelSpec(resolution=96, width_multiplier=0.35)
    infer.net = model.build_model(infer.spec)
    tags = list(infer.layer_tags().values())
    assert [tags.count(f"stage{i}") for i in range(1, 8)] == [1, 2, 3, 4, 3, 3, 1]
    assert {"stem", "head", "classifier"} <= set(tags)


@pytest.mark.parametrize("split", [None, 8])
def test_infer_setup_saves_and_loads_the_weights(adapters, worker, tmp_path, split):
    # The benchmark's infer setup path: prepare_infer randomizes and saves
    # the weights, Infer loads them; the first input's logits must pass the
    # worker's check against the saved float64 reference.
    cfg = dict(kind="infer", alpha=0.35, res=96, batch=1, split=split, threads=1)
    adapters.prepare_infer(cfg, 1, tmp_path)
    out = adapters.Infer(cfg, tmp_path).call(0)
    ref = np.load(tmp_path / "reference0.npy")
    err = np.max(np.abs(out.reshape(ref.shape) - ref)) / np.max(np.abs(ref))
    assert err <= worker.LOGIT_TOLERANCE


def traced_forward(tracing, spec, batch, split):
    """(kernel MAdds summed through tracing.KERNELS at every binding it
    patches, the input of each depthwise call) of one seeded forward."""
    net = model.build_model(spec).randomize(Rng(3))
    x = random_gaussian((batch, spec.resolution, spec.resolution, 3), Rng(4))
    total, depthwise_inputs = 0, []

    def counted(fn, cost):
        def call(*args, **kwargs):
            nonlocal total
            total += cost(*args)[0]
            if fn is kernels.depthwise_conv:
                depthwise_inputs.append(args[0])
            return fn(*args, **kwargs)
        return call

    runner = None
    if split is not None:
        def runner(t, p):
            plan = memplan.CascadePlan.from_split(p.expanded_channels,
                                                  min(split, p.expanded_channels))
            return memplan.cascade_execute(t, p, plan)[0]

    with pytest.MonkeyPatch.context() as mp:
        for module, names in tracing.KERNEL_BINDINGS.items():
            for name in names:
                mp.setattr(MODULES[module], name,
                           counted(getattr(kernels, name), tracing.KERNELS[name]))
        net.forward(x, block_runner=runner)
    for module, names in tracing.KERNEL_BINDINGS.items():
        assert all(getattr(MODULES[module], n) is getattr(kernels, n) for n in names)
    return total, depthwise_inputs


@pytest.mark.parametrize("split", [None, 8])
def test_traced_kernel_madds_equal_model_cost(tracing, split):
    # The traced run's gate, in tier-1: one seeded forward's MAdds summed
    # through tracing.KERNELS at every binding it patches equal model_cost.
    spec = model.ModelSpec(resolution=96, width_multiplier=0.35)
    total, _ = traced_forward(tracing, spec, 2, split)
    assert total == costs.model_cost(spec).total_madds * 2


@pytest.mark.parametrize("split", [None, 8])
def test_traced_madds_cover_both_depthwise_paths(tracing, split):
    # At alpha 1.0, 224 px, batch 1, blocks fall on each side of the size
    # rule, monolithic and at split 8: a depthwise call that skipped the
    # traced binding on either path would drop its MAdds here.
    spec = model.ModelSpec(resolution=224, width_multiplier=1.0)
    total, inputs = traced_forward(tracing, spec, 1, split)
    assert total == costs.model_cost(spec).total_madds
    planes = [x.base is not None and x.base.ndim == 1 for x in inputs]
    assert any(planes) and not all(planes)
