"""The names perfbench's traced run patches must resolve on bottlenet.

``perfbench/tracing.py`` and ``perfbench/worker.py`` replace functions by
``getattr``/``setattr`` on the module that binds them, so a name a module
no longer calls (``memplan``'s kernel imports, ``blocks.add_residual``)
must still be importable there, or ``perfbench/run.py --trace 1`` fails.
"""

import importlib

import pytest

from bottlenet import blocks, costs, kernels, memplan, model, weights

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


def test_kernel_bindings_resolve_to_the_kernels(tracing):
    for module, names in tracing.KERNEL_BINDINGS.items():
        for name in names:
            assert getattr(MODULES[module], name) is getattr(kernels, name), (module, name)
            assert name in tracing.KERNELS, name


@pytest.mark.parametrize("owner,name", TRACED, ids=lambda v: getattr(v, "__name__", v))
def test_traced_names_resolve(owner, name):
    assert callable(getattr(owner, name))
