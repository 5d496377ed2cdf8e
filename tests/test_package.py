"""Tests of the package's public surface."""

import ast
import functools
import importlib
import pkgutil
import math
import re
from pathlib import Path

import numpy as np
import pytest

import anchormosaic
from anchormosaic import constants, experiments, geomcore, sampler, specfun

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
    # the package, the demos and the tests build every mosaic with
    # slice_cloud, lower_hull and radius_and_intervals; the per-k adapters
    # stay only as a shim for the benchmark, tested in test_adapters.py
    # alone, and the package namespace offers neither them nor a second
    # solve for the power diagram's vertices
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "anchormosaic"
    paths = [p for p in sorted(package.glob("*.py")) if p.stem not in ADAPTERS]
    paths += sorted((root / "demos").glob("*.py"))
    paths += [p for p in sorted((root / "tests").glob("*.py")) if p.name != "test_adapters.py"]
    importers = [
        path.name
        for path in paths
        if any(set(name.split(".")) & ADAPTERS for name in _imported_modules(path))
    ]
    assert importers == []
    assert set(anchormosaic.__all__).isdisjoint(ADAPTER_NAMES | {"dual_vertices"})
    assert not hasattr(importlib.import_module("anchormosaic.geomcore"), "dual_vertices")


def _defines(body: list[ast.stmt], names: list[str]) -> bool:
    """Whether ``names`` is a chain of defs or classes, each inside the one
    before it, the first at the top of ``body``."""
    return not names or any(
        isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name == names[0]
        and _defines(node.body, names[1:])
        for node in body
    )


def test_cited_test_ids_exist():
    # every tests/<file>.py[::Name[::Name]] that the README or CI cites names
    # a file of tests/ and, at each level, a def or class at that nesting
    root = Path(__file__).resolve().parents[1]
    docs = ("README.md", ".github/workflows/tier1.yml")
    text = "\n".join((root / doc).read_text(encoding="utf-8") for doc in docs)
    cited = re.findall(r"\btests/(\w+\.py)((?:::\w+)*)", text)
    assert cited
    stale = [
        f"tests/{name}{chain}"
        for name, chain in cited
        if not (root / "tests" / name).is_file()
        or not _defines(
            ast.parse((root / "tests" / name).read_text(encoding="utf-8")).body,
            chain.split("::")[1:],
        )
    ]
    assert stale == []


def test_short_sums_add_in_index_order():
    # every short sum goes through constants._sum, so no package module calls
    # einsum, whose kernel picks its own order, linalg.norm, whose reduction
    # leaves index order from 8 columns on, or the builtin sum, which Python
    # 3.12 made compensated
    package = Path(__file__).resolve().parents[1] / "src" / "anchormosaic"
    callers = [
        f"{path.name}:{node.lineno}:{ast.unparse(node.func)}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and re.search(r"(^sum|\beinsum|\blinalg\.norm)$", ast.unparse(node.func))
    ]
    assert callers == []


def _referrers(names: set[str]) -> set[tuple[str, str]]:
    """(module, top-level name) of every package definition that names, calls
    or imports one of ``names``; ``<module>`` for module-level statements."""
    package = Path(__file__).resolve().parents[1] / "src" / "anchormosaic"
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                named = (
                    {node.id} if isinstance(node, ast.Name)
                    else {node.attr} if isinstance(node, ast.Attribute)
                    else {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                    else set()
                )
                if named & names:
                    found.add((path.stem, getattr(top, "name", "<module>")))
    return found


def test_one_home_for_predictions_and_the_document_envelope():
    # every prediction comes from constants.expected_rates, bar the Gamma
    # lemma's check of the expectations themselves, and json_text writes
    # every document's schema_version and kind
    counts = _referrers({"expected_interval_count", "expected_simplex_count"})
    assert {ref for ref in counts if ref[0] != "constants"} == {("experiments", "verify_gamma_lemma")}
    assert {module for module, _ in _referrers({"SCHEMA_VERSION"})} == {"experiments"}


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


def _cfg(**changes) -> sampler.SamplingConfig:
    return sampler.SamplingConfig(**{"n": 2, "rho": 1.0, "window": ((0.0, 10.0),), **changes})


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: constants.log_sphere_surface(0), "need n >= 1"),
        (lambda: constants.grassmannian_volume(3, 2), "need 0 <= m <= k"),
        (lambda: constants.critical_vertex_constant(0, 3), "slice dimension must be >= 1"),
        (lambda: constants.interval_constant((0, 2), 1, 3), "cannot occur in a 1-dimensional"),
        (lambda: constants.expected_interval_count((0, 0), 1, 2, 1.0, 1.0, r0=-1.0),
         "radius threshold must be non-negative"),
        (lambda: constants.expected_interval_count((0, 0), 1, 2, 1.0, 0.0), "area must be positive"),
        (lambda: constants.expected_simplex_count(0, 1, 2, 1.0, 0.0), "area must be positive"),
        (lambda: constants.expected_rates(2, 2, 1.0, 1.0, 0.5), "ambient dimension must exceed k"),
        (lambda: constants.expected_rates(1, 0, 1.0, 1.0, 0.5), "ambient dimension must exceed k"),
        (lambda: experiments.estimate_interval_rates(_cfg(), 0), "need at least one replicate"),
        (lambda: experiments.ks_gamma_test(np.ones(100), 0.0, 1.0, 2),
         "shape parameter must be positive and finite"),
        (lambda: experiments.ks_gamma_test(np.ones(100), math.nan, 1.0, 2),
         "shape parameter must be positive and finite"),
        (lambda: experiments.ks_gamma_test(np.ones(100), 0.5, 0.0, 2),
         "rate scale must be positive and finite"),
        (lambda: experiments.verify_angle_integral(1), "need n >= 2"),
        (lambda: experiments.verify_beta_projection_law(3, 3), "need 1 <= k < n"),
        (lambda: geomcore.slice_cloud(np.zeros((4, 3)), 0), "need 1 <= k <= 3"),
        (lambda: geomcore.lower_hull(np.zeros((3, 0)), np.zeros(3)), "need k >= 1, got k=0"),
        (lambda: _cfg(n=0), "need n >= 1"),
        (lambda: _cfg(n=1, window=((0.0, 1.0), (0.0, 1.0))), "window defines k=2"),
        (lambda: sampler.choose_buffer(_cfg(), 1.0), "quantile must lie in (0, 1)"),
        (lambda: specfun.hyp3f2(1.0, math.nan, 1.0, 3.0, 3.0), "a2 must be finite"),
    ],
)
def test_out_of_domain_arguments_raise_value_error(call, message):
    # each refusal is a plain ValueError, no subclass, that says what is wrong
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert info.type is ValueError
