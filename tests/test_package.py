"""Tests of the package's public surface."""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import anchormosaic

MODULES = sorted(
    f"{anchormosaic.__name__}.{info.name}" for info in pkgutil.iter_modules(anchormosaic.__path__)
)
LAYERS = ["constants", "experiments", "geomcore", "mosaic1d", "mosaic2d", "sampler", "specfun"]


def test_layers_declare_their_public_names():
    for layer in LAYERS:
        assert f"anchormosaic.{layer}" in MODULES
        assert hasattr(importlib.import_module(f"anchormosaic.{layer}"), "__all__")


@pytest.mark.parametrize("name", ["anchormosaic", *MODULES])
def test_every_public_name_resolves(name):
    # callers that look up each __all__ entry with getattr and no default
    # crash on a stale entry
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert [attr for attr in names if not hasattr(module, attr)] == []
    assert len(set(names)) == len(names)


def test_census_builds_every_mosaic_in_geomcore():
    # the census has one path for every k; the per-k modules are adapters
    experiments = importlib.import_module("anchormosaic.experiments")
    assert not hasattr(experiments, "mosaic1d")
    assert not hasattr(experiments, "mosaic2d")


ADAPTERS = {"mosaic1d", "mosaic2d"}
ADAPTER_NAMES = {
    "Mosaic1D",
    "PowerDiagram",
    "RegularTriangulation",
    "build_1d",
    "power_dual",
    "radius_and_intervals_1d",
    "radius_and_intervals_2d",
    "regular_triangulation",
    "rotate_to_halfplane",
}


def _imported_modules(path: Path) -> set[str]:
    """Every dotted name an ``import`` or ``from ... import`` in ``path``
    names, the imported names included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
    return names


def test_only_the_benchmark_builds_mosaics_through_the_adapters():
    # the package and the demos build every mosaic with slice_cloud,
    # lower_hull and radius_and_intervals; the per-k adapters stay only as a
    # shim for the benchmark, and the package namespace offers neither them
    # nor a second solve for the power diagram's vertices
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "anchormosaic"
    paths = [p for p in sorted(package.glob("*.py")) if p.stem not in ADAPTERS]
    paths += sorted((root / "demos").glob("*.py"))
    importers = [
        path.name
        for path in paths
        if any(set(name.split(".")) & ADAPTERS for name in _imported_modules(path))
    ]
    assert importers == []
    assert set(anchormosaic.__all__).isdisjoint(ADAPTER_NAMES | {"dual_vertices"})
    assert not hasattr(importlib.import_module("anchormosaic.geomcore"), "dual_vertices")


@functools.cache
def _caller_lines() -> tuple[str, ...]:
    # the code that may call a layer: the package (its re-exports aside), the
    # demos and the benchmark
    root = Path(__file__).resolve().parents[1]
    package_init = root / "src" / "anchormosaic" / "__init__.py"
    return tuple(
        line
        for top in ("src", "demos", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
        if path != package_init
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("__all__")
    )


@pytest.mark.parametrize("layer", ["anchormosaic", *LAYERS])
def test_every_public_name_has_a_caller(layer):
    # a public name that only its own tests use is dead API; its definition
    # and its __all__ entry do not count as uses, and a re-export of the
    # package root counts only where it is reached through the root
    root = layer == "anchormosaic"
    unused = []
    for name in importlib.import_module(layer if root else f"anchormosaic.{layer}").__all__:
        declaration = re.compile(rf'^\s*((def|class)\s+{name}\b|"{name}",?\s*$)')
        use = re.compile(
            rf"\banchormosaic\.{name}\b|^\s*from anchormosaic import .*\b{name}\b"
            if root
            else rf"\b{name}\b"
        )
        if not any(use.search(line) and not declaration.match(line) for line in _caller_lines()):
            unused.append(name)
    assert unused == []
