"""Every name that an ``openmax`` module exports in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import openmax

MODULES = sorted(m.name for m in pkgutil.iter_modules(openmax.__path__))


def test_modules_are_found():
    assert {"graph", "protocols", "signals", "simulator"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"openmax.{name}")
    assert module.__all__, f"openmax.{name} exports nothing"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
