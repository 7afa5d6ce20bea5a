"""Runtime values of the JavaScript subset.

Python natives are reused where the semantics line up (``float`` for
numbers, ``str`` for strings, ``bool`` for booleans, ``None`` for
``null``).  ``undefined`` is the :data:`UNDEFINED` singleton.  Objects,
arrays and functions get small dedicated classes, and host objects
(``document``, DOM elements, ``XMLHttpRequest``) plug in through the
:class:`HostObject` base class.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import JsRuntimeError, JsTypeError

#: V8's longest string (``String::kMaxLength`` on a 64-bit host): building
#: a longer one is a RangeError, as in node (:func:`check_string_length`).
MAX_STRING_LENGTH = 2**29 - 24

#: What node throws for a structure nested deeper than its stack (here:
#: than the depth Python allows).
TOO_DEEP = "RangeError: Maximum call stack size exceeded"

#: The longest array an index or ``length`` write may grow: the list is
#: dense, so a write past this (node would make the array sparse) is a
#: RangeError rather than gigabytes of ``undefined``.
MAX_ARRAY_LENGTH = 2**24

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
    """A JavaScript array backed by a Python list.

    Every write to an array is one of its methods, as every write to an
    object is :meth:`JSObject.set`/:meth:`JSObject.delete` and every
    write to a scope an :class:`~repro.js.environment.Environment`
    method (``tests/js/test_heap_writes.py`` holds the rest of the
    package to that).
    """

    def __init__(self, elements: Optional[list[Any]] = None) -> None:
        self.elements: list[Any] = list(elements or [])

    def get_index(self, index: int) -> Any:
        if 0 <= index < len(self.elements):
            return self.elements[index]
        return UNDEFINED

    def set_index(self, key: float, value: Any) -> None:
        """``array[key] = value`` for a numeric ``key`` with no fraction
        (the interpreter sends a fraction elsewhere); a NaN, infinite,
        negative or too large one raises."""
        index = to_integer_or_infinity(key)
        if key != key or not 0 <= index < MAX_ARRAY_LENGTH:
            raise JsTypeError(f"invalid array index {to_string(key)}")
        elements = self.elements
        if index >= len(elements):
            elements += [UNDEFINED] * (index + 1 - len(elements))
        elements[index] = value

    def set_length(self, value: Any) -> None:
        """``array.length = value``: truncates or pads with ``undefined``."""
        number = to_number(value)
        length = to_integer_or_infinity(number)
        if length != number or not 0 <= length <= MAX_ARRAY_LENGTH:
            raise JsRuntimeError("RangeError: Invalid array length")
        elements = self.elements
        if length < len(elements):
            del elements[length:]
        else:
            elements += [UNDEFINED] * (length - len(elements))

    def push(self, values: list[Any]) -> int:
        self.elements += values
        return len(self.elements)

    def pop(self) -> Any:
        return self.elements.pop() if self.elements else UNDEFINED

    def shift(self) -> Any:
        return self.elements.pop(0) if self.elements else UNDEFINED

    def unshift(self, values: list[Any]) -> int:
        self.elements[0:0] = values
        return len(self.elements)

    def reverse(self) -> "JSArray":
        self.elements.reverse()
        return self

    def sort(self, key: Callable[[Any], Any]) -> "JSArray":
        self.elements.sort(key=key)
        return self

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
    value.  ``name`` shows up in stack traces and hot-node keys.  A
    native read off a value (``"abc".charAt``, ``list.push``) is bound
    to it: ``receiver`` is then passed as ``this``, however the native
    is called.
    """

    __slots__ = ("name", "fn", "receiver")

    def __init__(
        self,
        name: str,
        fn: Callable[["Interpreter", Any, list[Any]], Any],
        receiver: Any = None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.receiver = receiver

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
        text = value.strip(_JS_SPACE)
        literal = _STRING_NUMBER(text)
        if literal is None:
            return 0.0 if not text else math.nan
        if literal.lastindex is None:
            return float(text)
        try:
            return float(int(literal[literal.lastindex], _RADIX[text[1]]))
        except OverflowError:
            return math.inf
    return float("nan")


#: ECMAScript's WhiteSpace and LineTerminator: what ``Number(s)`` trims.
_JS_SPACE = (
    "\t\n\v\f\r \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000\ufeff"
)

#: StringNumericLiteral: a signed decimal (ASCII digits, no separators)
#: or ``Infinity``, else an unsigned hex, octal or binary integer (its
#: digits are group 1, 2 or 3).
_STRING_NUMBER = re.compile(
    r"[+-]?(?:Infinity|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|0[xX]([0-9a-fA-F]+)|0[oO]([0-7]+)|0[bB]([01]+)"
).fullmatch
_RADIX = {"x": 16, "X": 16, "o": 8, "O": 8, "b": 2, "B": 2}


def to_integer_or_infinity(value: Any) -> Any:
    """ECMAScript ``ToIntegerOrInfinity``: NaN is 0, an infinity stays a
    float infinity, any other number truncates toward zero to an int."""
    number = to_number(value)
    if number != number:
        return 0
    if number == math.inf or number == -math.inf:
        return number
    return int(number)


def relative_index(value: Any, length: int, default: int) -> int:
    """The relative-index clamp of ``slice``: ``undefined`` is
    ``default``, a negative position counts back from ``length``, and
    the answer lies in ``0..length``."""
    if value is UNDEFINED:
        return default
    position = to_integer_or_infinity(value)
    if position < 0:
        return max(length + position, 0)
    return min(position, length)


def strict_equals(left: Any, right: Any) -> bool:
    """The ``===`` operator."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    return left is right


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


def check_string_length(length: int) -> None:
    """Refuse a string of ``length`` past :data:`MAX_STRING_LENGTH`
    before it is built, as node does."""
    if length > MAX_STRING_LENGTH:
        raise JsRuntimeError("RangeError: Invalid string length")


def join_elements(array: JSArray, separator: str, outer: tuple = ()) -> str:
    """``Array.prototype.join``: ``null`` and ``undefined`` join as ``""``,
    and so does an array this join is already inside (``outer``): a
    cycle joins as node v20 joins it.  Nesting past the depth Python
    allows is node's RangeError."""
    path = (*outer, array)
    try:
        pieces = [
            "" if element is None or element is UNDEFINED
            else _join_nested(element, path) if isinstance(element, JSArray)
            else to_string(element)
            for element in array.elements
        ]
    except RecursionError:
        raise JsRuntimeError(TOO_DEEP) from None
    check_string_length(sum(map(len, pieces)) + len(separator) * (len(pieces) - 1))
    return separator.join(pieces)


def _join_nested(element: JSArray, path: tuple) -> str:
    return "" if any(element is open_ for open_ in path) else join_elements(element, ",", path)


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


# -- operators -----------------------------------------------------------------


def _add(left: Any, right: Any) -> Any:
    if type(left) is float and type(right) is float:
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        # to_string of a string is itself, and most operands are strings.
        if type(left) is not str:
            left = to_string(left)
        if type(right) is not str:
            right = to_string(right)
        check_string_length(len(left) + len(right))
        return left + right
    return to_number(left) + to_number(right)


def _subtract(left: Any, right: Any) -> Any:
    if type(left) is float and type(right) is float:
        return left - right
    return to_number(left) - to_number(right)


def _divide(left: Any, right: Any) -> float:
    divisor = to_number(right)
    dividend = to_number(left)
    if divisor == 0:
        if dividend != dividend or dividend == 0:
            return math.nan
        # The quotient's sign is the product of both signs, a zero's included.
        return math.copysign(math.inf, dividend) * math.copysign(1.0, divisor)
    return dividend / divisor


def _remainder(left: Any, right: Any) -> float:
    divisor = to_number(right)
    dividend = to_number(left)
    if divisor == 0 or dividend == math.inf or dividend == -math.inf:
        return math.nan
    return math.fmod(dividend, divisor)


def _loose_equals(left: Any, right: Any) -> bool:
    if type(left) is type(right) and type(left) in (float, str):
        return left == right
    null_like = (None, UNDEFINED)
    if left in null_like and right in null_like:
        return True
    if left in null_like or right in null_like:
        return False
    # A boolean compares as its number, an object beside a primitive as
    # its string (ToPrimitive): so ``[] == false``.
    if isinstance(left, bool):
        left = to_number(left)
    if isinstance(right, bool):
        right = to_number(right)
    primitive = (str, int, float)
    if isinstance(left, primitive) and not isinstance(right, primitive):
        right = to_string(right)
    elif isinstance(right, primitive) and not isinstance(left, primitive):
        left = to_string(left)
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, primitive) and isinstance(right, primitive):
        return to_number(left) == to_number(right)
    return left is right


def _comparison(compare: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    """A relational operator: strings compare as strings, anything else
    as numbers (a NaN answers False, as Python's float order does)."""

    def relation(left: Any, right: Any) -> bool:
        if type(left) is float and type(right) is float:
            return compare(left, right)
        if isinstance(left, str) and isinstance(right, str):
            return compare(left, right)
        return compare(to_number(left), to_number(right))

    return relation


#: What names an array element: a canonical index, no sign, blank,
#: separator or leading zero (``"01"``, ``" 1"``, ``"+1"``, ``"-0"``),
#: of at most 8 digits, those of ``MAX_ARRAY_LENGTH - 1`` (so ``int``
#: never meets a string past its digit limit).
_ARRAY_INDEX = re.compile(r"0|[1-9][0-9]{0,7}").fullmatch


def _in_operator(key: Any, obj: Any) -> bool:
    name = to_string(key)
    if isinstance(obj, JSObject):
        return name in obj.properties
    if isinstance(obj, JSArray):
        if _ARRAY_INDEX(name):
            return int(name) < obj.length
        return name == "length"
    if isinstance(obj, HostObject):
        return name in obj.js_keys()
    raise JsTypeError("'in' requires an object")


#: ``operator -> f(left, right)`` for every binary operator of the subset.
BINARY_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _add,
    "-": _subtract,
    "*": lambda left, right: to_number(left) * to_number(right),
    "/": _divide,
    "%": _remainder,
    "==": _loose_equals,
    "!=": lambda left, right: not _loose_equals(left, right),
    "===": strict_equals,
    "!==": lambda left, right: not strict_equals(left, right),
    "<": _comparison(lambda left, right: left < right),
    ">": _comparison(lambda left, right: left > right),
    "<=": _comparison(lambda left, right: left <= right),
    ">=": _comparison(lambda left, right: left >= right),
    "in": _in_operator,
}
