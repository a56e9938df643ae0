"""The public surface: the package exports its entry points, every module's
``__all__`` resolves, and every library name the benchmark harness in
``perfbench/`` imports or wraps still exists."""
import ast
import contextlib
import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import scatternet
from helpers import SequenceStream
from scatternet.automatic import deploy_automatic
from scatternet.core import Circle, NetworkConfig
from scatternet.fileio import automatic_metadata

PERFBENCH = Path(__file__).parent.parent / "perfbench"
ENTRY_POINTS = ["Annulus", "ConfigError", "Deployment", "DeploymentPlan", "Disk", "NetworkConfig", "OverlapError",
                "RandomStream", "Rect", "Sector", "StatReport", "deploy_automatic", "deploy_planned",
                "evaluate_deployment"]
MODULES = ["scatternet"] + [f"scatternet.{m.name}" for m in pkgutil.iter_modules(scatternet.__path__)]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from scatternet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(scatternet.__all__) == ENTRY_POINTS


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"


def test_names_perfbench_imports_resolve():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scatternet"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name} imports {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("scatternet"):
                        importlib.import_module(alias.name)


@pytest.mark.skipif(not hasattr(contextlib, "chdir"), reason="perfbench needs contextlib.chdir (Python 3.11)")
def test_names_perfbench_traces_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_inprocess", PERFBENCH / "inprocess.py")
    inprocess = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inprocess)
    for owner, attr, span, _ in inprocess.TRACED:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_metadata_perfbench_expects_is_what_the_writer_writes(monkeypatch):
    # the benchmark's gate rebuilds an automatic run's metadata from the
    # Deployment views the package itself no longer reads
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    small_batch = workloads.WORKLOADS["small_batch"]
    d = workloads.reference_deployment(small_batch, 1, 0, None)
    assert checks.expected_meta(small_batch, 1, 0, d, None) == automatic_metadata(d, 0)
    stub = SequenceStream([0.999, 0.5, 0.5] + [0.5, 0.5] * 9)  # 3 layers, the middle one of zero width
    d = deploy_automatic(NetworkConfig(radius=1.0, max_layers=3, nodes=9, seed=0), stub)
    assert isinstance(d.plan.sectors[1].shape, Circle)
    wl = SimpleNamespace(planned=False, max_layers=3, nodes=9)
    assert checks.expected_meta(wl, 0, 0, d, None) == automatic_metadata(d, 0)
