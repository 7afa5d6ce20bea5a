"""Runtime values of the JavaScript subset.

Python natives are reused where the semantics line up (``float`` for
numbers, ``str`` for strings, ``bool`` for booleans, ``None`` for
``null``).  ``undefined`` is the :data:`UNDEFINED` singleton.  Objects,
arrays and functions get small dedicated classes, and host objects
(``document``, DOM elements, ``XMLHttpRequest``) plug in through the
:class:`HostObject` base class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import JsTypeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.js import ast
    from repro.js.environment import Environment
    from repro.js.interpreter import Interpreter


class _Undefined:
    """The unique ``undefined`` value."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


#: The ``undefined`` singleton.
UNDEFINED = _Undefined()


class JSObject:
    """A plain mutable JavaScript object (string-keyed property map)."""

    def __init__(self, properties: Optional[dict[str, Any]] = None) -> None:
        self.properties: dict[str, Any] = dict(properties or {})

    def get(self, name: str) -> Any:
        return self.properties.get(name, UNDEFINED)

    def set(self, name: str, value: Any) -> None:
        self.properties[name] = value

    def delete(self, name: str) -> bool:
        return self.properties.pop(name, None) is not None

    def keys(self) -> list[str]:
        return list(self.properties)

    def __repr__(self) -> str:
        return f"JSObject({self.properties!r})"


class JSArray:
    """A JavaScript array backed by a Python list."""

    def __init__(self, elements: Optional[list[Any]] = None) -> None:
        self.elements: list[Any] = list(elements or [])

    def get_index(self, index: int) -> Any:
        if 0 <= index < len(self.elements):
            return self.elements[index]
        return UNDEFINED

    def set_index(self, index: int, value: Any) -> None:
        if index < 0:
            raise JsTypeError(f"invalid array index {index}")
        while len(self.elements) <= index:
            self.elements.append(UNDEFINED)
        self.elements[index] = value

    @property
    def length(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"JSArray({self.elements!r})"


class JSFunction:
    """A user-defined function: parameters, body and defining scope."""

    def __init__(
        self,
        name: Optional[str],
        params: list[str],
        body: "ast.Block",
        closure: "Environment",
    ) -> None:
        self.name = name or "<anonymous>"
        self.params = params
        self.body = body
        self.closure = closure

    def __repr__(self) -> str:
        return f"JSFunction({self.name}/{len(self.params)})"


class NativeFunction:
    """A Python callable exposed to scripts.

    The callable receives ``(interpreter, this, args)`` and returns a JS
    value.  ``name`` shows up in stack traces and hot-node keys.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[["Interpreter", Any, list[Any]], Any],
    ) -> None:
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:
        return f"NativeFunction({self.name})"


class HostObject:
    """Base class for Python objects exposed to scripts.

    Subclasses override :meth:`js_get` / :meth:`js_set`; methods are
    usually returned as :class:`NativeFunction` bound to the host object.
    """

    #: Name shown by ``typeof`` and in error messages.
    host_class = "HostObject"

    def js_get(self, name: str) -> Any:
        """Read property ``name``; default is ``undefined``."""
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        """Write property ``name``; default raises."""
        raise JsTypeError(f"cannot set property {name!r} on {self.host_class}")

    def js_keys(self) -> list[str]:
        """Enumerable property names (used by ``for-in``)."""
        return []

    def __repr__(self) -> str:
        return f"<{self.host_class}>"


class HostConstructor:
    """A host class constructible with ``new`` (e.g. ``XMLHttpRequest``)."""

    def __init__(self, name: str, construct: Callable[["Interpreter", list[Any]], Any]):
        self.name = name
        self.construct = construct

    def __repr__(self) -> str:
        return f"HostConstructor({self.name})"


# -- conversions ---------------------------------------------------------------


def is_callable(value: Any) -> bool:
    """Whether ``value`` can be invoked."""
    return isinstance(value, (JSFunction, NativeFunction, HostConstructor))


def is_truthy(value: Any) -> bool:
    """ToBoolean."""
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return bool(value)
    return True


def to_number(value: Any) -> float:
    """ToNumber (NaN is represented as ``float('nan')``)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return 0.0
    if value is UNDEFINED:
        return float("nan")
    if isinstance(value, str):
        stripped = value.strip()
        if not stripped:
            return 0.0
        try:
            if stripped.lower().startswith("0x"):
                return float(int(stripped, 16))
            return float(stripped)
        except ValueError:
            return float("nan")
    return float("nan")


def to_string(value: Any) -> str:
    """ToString, matching JavaScript's display conventions for numbers."""
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        if value.is_integer() and abs(value) < 2**53:
            return str(int(value))  # exact, and the shortest digits too
        return _number_to_string(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, JSArray):
        return join_elements(value, ",")
    if isinstance(value, JSObject):
        return "[object Object]"
    if isinstance(value, (JSFunction, NativeFunction)):
        return f"function {getattr(value, 'name', '')}() {{ [code] }}"
    if isinstance(value, HostObject):
        return f"[object {value.host_class}]"
    return str(value)


def _number_to_string(value: float) -> str:
    """ECMAScript ``Number::toString`` of a finite number: the shortest
    round-trip digits (Python's ``repr``), written out in full for a
    decimal exponent from -6 to 20 and in exponent form outside it."""
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    # abs(value) == 0.<digits> * 10**point
    point = int(exponent or 0) + len(whole) - len(whole + fraction) + len(digits)
    digits = digits.rstrip("0")
    sign = "-" if value < 0 else ""
    if len(digits) <= point <= 21:
        return sign + digits + "0" * (point - len(digits))
    if 0 < point <= 21:
        return sign + digits[:point] + "." + digits[point:]
    if -6 < point <= 0:
        return sign + "0." + "0" * -point + digits
    fraction = "." + digits[1:] if len(digits) > 1 else ""
    return f"{sign}{digits[0]}{fraction}e{point - 1:+d}"


def join_elements(array: JSArray, separator: str) -> str:
    """``Array.prototype.join``: ``null`` and ``undefined`` join as ``""``."""
    return separator.join(
        "" if element is None or element is UNDEFINED else to_string(element)
        for element in array.elements
    )


def type_of(value: Any) -> str:
    """The ``typeof`` operator."""
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if is_callable(value):
        return "function"
    return "object"
