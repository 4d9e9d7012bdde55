"""Every exported name resolves, so a deleted function cannot linger as a
stale entry of ``__all__``."""

from __future__ import annotations

import importlib

import pytest

MODULES = ("polyball",) + tuple(
    f"polyball.{name}" for name in ("geometry", "gegenbauer", "polyalg",
                                    "kernels", "quadrature", "solver",
                                    "suites", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
