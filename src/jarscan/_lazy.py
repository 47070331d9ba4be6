"""Import on first use: package exports (PEP 562) and deferred submodules."""

from __future__ import annotations

import importlib
import importlib.util
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """A module ``__getattr__`` for ``package`` that imports ``exports[name]``
    (a submodule, relative to the package) on first use of ``name`` and
    keeps the value in the package's namespace."""
    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{submodule}", package), name)
        setattr(sys.modules[package], name, value)
        return value
    return __getattr__


def defer_submodule(name: str) -> None:
    """Put submodule ``name`` in ``sys.modules`` now and run its code on
    first attribute access (``importlib.util.LazyLoader``).

    Its package gets it as an attribute, as an import would give it,
    unless the package's ``_EXPORTS`` (its ``lazy_exports`` table) gives
    that attribute to a name of its own, such as ``jarscan.normalize``.
    """
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    if attr not in getattr(sys.modules[package], "_EXPORTS", ()):
        setattr(sys.modules[package], attr, module)
