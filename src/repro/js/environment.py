"""Lexical environments (scope chains) for the interpreter."""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import JsReferenceError
from repro.js.values import UNDEFINED


class Environment:
    """One scope: a binding map plus a link to the enclosing scope."""

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.parent = parent
        self.bindings: dict[str, Any] = {}

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        """Create (or overwrite) a binding in *this* scope."""
        self.bindings[name] = value

    def is_declared(self, name: str) -> bool:
        """Whether ``name`` resolves anywhere on the scope chain."""
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                return True
            scope = scope.parent
        return False

    def get(self, name: str) -> Any:
        """Read ``name`` from the nearest scope that binds it."""
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise JsReferenceError(f"{name} is not defined")

    def assign(self, name: str, value: Any) -> None:
        """Write ``name`` in the nearest scope that binds it.

        Like sloppy-mode JavaScript, assigning to an undeclared name
        creates a global binding.
        """
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                scope.bindings[name] = value
                return
            if scope.parent is None:
                scope.bindings[name] = value  # implicit global
                return
            scope = scope.parent
