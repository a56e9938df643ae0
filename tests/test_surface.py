"""The public surface: the package exports its entry points, every module's
``__all__`` resolves, and every library name the benchmark harness in
``perfbench/`` imports or wraps still exists."""
import ast
import collections
import contextlib
import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import scatternet
from helpers import SequenceStream
from scatternet import core, planned
from scatternet.automatic import deploy_automatic
from scatternet.core import Circle, NetworkConfig
from scatternet.fileio import automatic_metadata, deployment_from_files
from scatternet.stats import evaluate_deployment

PERFBENCH = Path(__file__).parent.parent / "perfbench"
PACKAGE = Path(scatternet.__file__).parent
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


def _imported_modules(name: str) -> set:
    """The ``scatternet`` modules that module ``name``'s source imports
    anywhere, by their names within the package."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                found |= {module} if module else {alias.name for alias in node.names}
            elif module.startswith("scatternet."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("scatternet.")}
    return found


def test_one_module_holds_the_sector_model():
    # both modes build on core's sector model, and neither mode's module on the other's
    assert _imported_modules("core") == set()
    assert "planned" not in _imported_modules("automatic")
    assert "automatic" not in _imported_modules("planned")
    assert "planned" not in _imported_modules("fileio")
    assert planned.DeploymentPlan is core.DeploymentPlan


@pytest.mark.skipif(not hasattr(contextlib, "chdir"), reason="perfbench needs contextlib.chdir (Python 3.11)")
def test_names_perfbench_traces_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_inprocess", PERFBENCH / "inprocess.py")
    inprocess = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inprocess)
    for owner, attr, span, _ in inprocess.TRACED:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


@pytest.mark.skipif(not hasattr(contextlib, "chdir"), reason="perfbench needs contextlib.chdir (Python 3.11)")
def test_traced_validate_counts_every_test_of_each_file(tmp_path, monkeypatch):
    # at alpha 0.99 most radial KS tests fail, and 600 points over up to 10 layers leave some skipped
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess, spans = importlib.import_module("inprocess"), importlib.import_module("spans")
    tracer, counts = spans.Tracer(0), collections.Counter()
    files = ["run_000.csv", "run_001.csv"]
    with open(tmp_path / "log", "w") as log, inprocess.traced_library(tracer, counts):
        deploy = ["deploy", "--size", "1", "--max-layers", "10", "--nodes", "600", "--seed", "1", "--runs", "2"]
        assert inprocess.run_main(deploy, tmp_path, log) == 0
        code = inprocess.run_main(["validate", "--alpha", "0.99", *files], tmp_path, log)
    names = [name for _, name, *_ in tracer.spans]
    for name in ("stats.count_per_sector", "stats.check_membership", "stats.evaluate_deployment"):
        assert names.count(name) == len(files), name
    reports = [evaluate_deployment(deployment_from_files(tmp_path / name, tmp_path / name.replace(".csv", ".meta.json")),
                                   ks_alpha=0.99) for name in files]
    failed = sum(len(report.failures()) for report in reports)
    assert code == 4 and failed > 0
    assert counts["stats.gof_tests"] == sum(len(report.tests) for report in reports)
    assert counts["stats.gof_failed"] == failed
    assert counts["stats.gof_skipped"] == sum(len(report.skipped) for report in reports) > 0


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
