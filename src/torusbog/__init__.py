"""Bogoliubov predictions for bosons on the unit torus, with an ED oracle.

Submodules load lazily so the command-line front end can pin BLAS thread
counts before any numerical import happens.
"""
from __future__ import annotations

import importlib

__version__ = "0.13.0"

_SUBMODULES = ("model", "bogoliubov", "fock_ed", "asymptotics", "cli")

__all__ = ["__version__", *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
