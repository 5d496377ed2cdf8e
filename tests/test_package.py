"""Tests of the package's public surface."""

import importlib
import pkgutil

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
