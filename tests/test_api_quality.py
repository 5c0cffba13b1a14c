"""Meta-tests on API quality: docstrings everywhere, exports resolvable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro", "repro.errors",
    "repro.testing", "repro.testing.faults", "repro.testing.races",
    "repro.testing.sanitizer",
    "repro.storage", "repro.storage.atomic", "repro.storage.wal",
    "repro.storage.segments", "repro.storage.compactor",
    "repro.runtime", "repro.runtime.context", "repro.runtime.governor",
    "repro.runtime.breaker",
    "repro.bits", "repro.bits.bitio", "repro.bits.codes", "repro.bits.zigzag",
    "repro.bits.bitvector", "repro.bits.eliasfano", "repro.bits.pfordelta",
    "repro.bits.kernels",
    "repro.graph", "repro.graph.model", "repro.graph.builders",
    "repro.graph.io", "repro.graph.aggregate", "repro.graph.windows",
    "repro.graph.reorder", "repro.graph.stats", "repro.graph.slicing",
    "repro.graph.compose", "repro.graph.degrees",
    "repro.core", "repro.core.config", "repro.core.structure",
    "repro.core.timestamps", "repro.core.compressed", "repro.core.encoder",
    "repro.core.engine", "repro.core.serialize", "repro.core.validate",
    "repro.structures", "repro.structures.wavelet",
    "repro.structures.interleaved", "repro.structures.kdtree",
    "repro.structures.cbt", "repro.structures.huffman",
    "repro.structures.etdc",
    "repro.baselines", "repro.baselines.interface", "repro.baselines.events",
    "repro.baselines.rawsize", "repro.baselines.evelog",
    "repro.baselines.edgelog", "repro.baselines.cet", "repro.baselines.cas",
    "repro.baselines.ckdtree", "repro.baselines.tabt",
    "repro.baselines.snapshots", "repro.baselines.chrono",
    "repro.datasets", "repro.datasets.synthetic",
    "repro.datasets.realworldlike", "repro.datasets.registry",
    "repro.datasets.util", "repro.datasets.rmat",
    "repro.analysis", "repro.analysis.gapstats",
    "repro.analysis.powerlawfit", "repro.analysis.burstiness",
    "repro.analysis.entropy",
    "repro.analysis.framework", "repro.analysis.baseline",
    "repro.analysis.report", "repro.analysis.cli",
    "repro.analysis.rules_concurrency", "repro.analysis.rules_taxonomy",
    "repro.analysis.rules_storage", "repro.analysis.rules_budget",
    "repro.analysis.rules_copies", "repro.analysis.rules_coverage",
    "repro.analysis.rules_lifecycle", "repro.analysis.rules_suppression",
    "repro.analysis.callgraph",
    "repro.algorithms", "repro.algorithms.pagerank",
    "repro.algorithms.communities", "repro.algorithms.reachability",
    "repro.algorithms.anomaly", "repro.algorithms.centrality",
    "repro.algorithms.motifs", "repro.algorithms.kcore",
    "repro.algorithms.similarity",
    "repro.vertexcentric", "repro.vertexcentric.engine",
    "repro.vertexcentric.programs",
    "repro.bench", "repro.bench.harness", "repro.bench.report",
    "repro.bench.export", "repro.bench.latex",
    "repro.service", "repro.service.protocol", "repro.service.server",
    "repro.service.client",
    "repro.interop", "repro.cli",
]

#: Modules whose import legitimately fails when an optional dependency is
#: absent (repro.interop is the networkx/numpy bridge).
OPTIONAL_DEP_MODULES = {
    "repro.interop": "networkx/numpy",
}


def _import_or_skip(module_name):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        dep = OPTIONAL_DEP_MODULES.get(module_name)
        if dep is None:
            raise
        pytest.skip(f"{module_name} needs optional dependency {dep}")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = _import_or_skip(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_have_docstrings(module_name):
    module = _import_or_skip(module_name)
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their definition site
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                missing.append(name)
            if inspect.isclass(obj):
                for mname, method in vars(obj).items():
                    if mname.startswith("_") or not inspect.isfunction(method):
                        continue
                    if method.__doc__ and method.__doc__.strip():
                        continue
                    # Overrides inherit their contract documentation from the
                    # base class (the ABC defines the query semantics once).
                    inherited = any(
                        getattr(getattr(base, mname, None), "__doc__", None)
                        for base in obj.__mro__[1:]
                    )
                    if not inherited:
                        missing.append(f"{name}.{mname}")
    assert not missing, f"{module_name}: undocumented public items {missing}"


@pytest.mark.parametrize("module_name", [m for m in MODULES if "." not in m[6:]])
def test_all_exports_resolve(module_name):
    module = _import_or_skip(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_every_package_module_is_checked():
    """The MODULES list cannot silently fall behind the package."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        found.add(info.name)
    assert found == set(MODULES), sorted(found ^ set(MODULES))
