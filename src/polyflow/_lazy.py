"""Names that a module serves from another module, imported on first use.

A module whose code moved keeps its old names through a PEP 562 module
``__getattr__``: ``forwarder(__name__, homes)`` resolves ``name`` as
``polyflow.<homes[name]>.<name>`` at the moment it is read, so importing
the old module does not import the new one.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def forwarder(module: str, homes: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` reading ``homes[name]``'s ``name``."""

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"polyflow.{home}"), name)

    return __getattr__
