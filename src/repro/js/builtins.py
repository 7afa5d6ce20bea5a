"""The natives of the JavaScript subset: the global functions, ``Math``
and ``JSON``, and the methods a string, an array and a number carry.

Every native takes ``(interpreter, this, args)``.  A member native (the
``*_METHODS`` tables) is handed out bound to the value it was read from
(:class:`~repro.js.values.NativeFunction` ``receiver``), which then
arrives as ``this``.  Each one is total: any arguments give a value or a
:class:`~repro.errors.JavascriptError`, never a raw Python exception
(``tests/js/test_builtin_totality.py`` crosses them all with boundary
values).  Positions, counts and digit counts go through the two
ECMAScript conversions in :mod:`repro.js.values`
(:func:`~repro.js.values.to_integer_or_infinity`,
:func:`~repro.js.values.relative_index`); an in-place array method is a
:class:`~repro.js.values.JSArray` method, so that heap writes stay in
``values.py``.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import quote

from repro.errors import JsRuntimeError, JsTypeError
from repro.js.environment import Environment
from repro.js.values import (
    TOO_DEEP,
    UNDEFINED,
    JSArray,
    JSObject,
    NativeFunction,
    check_string_length,
    is_callable,
    is_truthy,
    join_elements,
    relative_index,
    strict_equals,
    to_integer_or_infinity,
    to_number,
    to_string,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.js.interpreter import Interpreter

Native = Callable[["Interpreter", Any, list[Any]], Any]


def _arg(args: list[Any], index: int) -> Any:
    """Argument ``index``, ``undefined`` when the call passed fewer."""
    return args[index] if index < len(args) else UNDEFINED


def _text_arg(args: list[Any], index: int) -> str:
    return to_string(_arg(args, index))


def _callback(args: list[Any], method: str) -> Any:
    if not args or not is_callable(args[0]):
        raise JsTypeError(f"Array.{method} expects a function")
    return args[0]


# -- strings ---------------------------------------------------------------------


def _char_at(interp: "Interpreter", text: str, args: list[Any]) -> str:
    position = to_integer_or_infinity(_arg(args, 0))
    return text[position] if 0 <= position < len(text) else ""


def _char_code_at(interp: "Interpreter", text: str, args: list[Any]) -> float:
    position = to_integer_or_infinity(_arg(args, 0))
    return float(ord(text[position])) if 0 <= position < len(text) else math.nan


def _substring(interp: "Interpreter", text: str, args: list[Any]) -> str:
    length = len(text)
    start = min(max(to_integer_or_infinity(_arg(args, 0)), 0), length)
    end = _arg(args, 1)
    end = length if end is UNDEFINED else min(max(to_integer_or_infinity(end), 0), length)
    return text[min(start, end):max(start, end)]


def _string_index_of(interp: "Interpreter", text: str, args: list[Any]) -> float:
    start = min(max(to_integer_or_infinity(_arg(args, 1)), 0), len(text))
    return float(text.find(_text_arg(args, 0), start))


def _last_index_of(interp: "Interpreter", text: str, args: list[Any]) -> float:
    """The last match starting at or before the position (a NaN one,
    or none, is the end)."""
    needle = _text_arg(args, 0)
    position = to_number(_arg(args, 1))
    end = len(text) if position != position else to_integer_or_infinity(position)
    end = min(max(end, 0), len(text))
    return float(text.rfind(needle, 0, end + len(needle)))


def _string_slice(interp: "Interpreter", text: str, args: list[Any]) -> str:
    length = len(text)
    return text[relative_index(_arg(args, 0), length, 0):relative_index(_arg(args, 1), length, length)]


def _split(interp: "Interpreter", text: str, args: list[Any]) -> JSArray:
    if not args or args[0] is UNDEFINED:
        return JSArray([text])
    separator = to_string(args[0])
    return JSArray(list(text) if separator == "" else text.split(separator))


def _repeat(interp: "Interpreter", text: str, args: list[Any]) -> str:
    count = to_integer_or_infinity(_arg(args, 0))
    if count < 0 or count == math.inf:
        raise JsRuntimeError(f"RangeError: Invalid count value: {to_string(_arg(args, 0))}")
    check_string_length(len(text) * count)
    return text * count if text else ""


def _string_concat(interp: "Interpreter", text: str, args: list[Any]) -> str:
    pieces = [text, *map(to_string, args)]
    check_string_length(sum(map(len, pieces)))
    return "".join(pieces)


STRING_METHODS: dict[str, Native] = {
    "charAt": _char_at,
    "indexOf": _string_index_of,
    "lastIndexOf": _last_index_of,
    "substring": _substring,
    "slice": _string_slice,
    "split": _split,
    "toLowerCase": lambda interp, text, args: text.lower(),
    "toUpperCase": lambda interp, text, args: text.upper(),
    "replace": lambda interp, text, args: text.replace(_text_arg(args, 0), _text_arg(args, 1), 1),
    "trim": lambda interp, text, args: text.strip(),
    "concat": _string_concat,
    "charCodeAt": _char_code_at,
    "startsWith": lambda interp, text, args: text.startswith(_text_arg(args, 0)),
    "endsWith": lambda interp, text, args: text.endswith(_text_arg(args, 0)),
    "includes": lambda interp, text, args: _text_arg(args, 0) in text,
    "repeat": _repeat,
}


# -- arrays ----------------------------------------------------------------------


def _index_of(interp: "Interpreter", array: JSArray, args: list[Any]) -> float:
    needle = _arg(args, 0)
    elements = array.elements
    for index in range(relative_index(_arg(args, 1), len(elements), 0), len(elements)):
        if strict_equals(elements[index], needle):
            return float(index)
    return -1.0


def _array_slice(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    length = array.length
    start = relative_index(_arg(args, 0), length, 0)
    return JSArray(array.elements[start:relative_index(_arg(args, 1), length, length)])


def _concat(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    merged = list(array.elements)
    for arg in args:
        if isinstance(arg, JSArray):
            merged += arg.elements
        else:
            merged.append(arg)
    return JSArray(merged)


def _sort(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    if not args or not is_callable(args[0]):
        return array.sort(to_string)
    comparator = args[0]

    def compare(a: Any, b: Any) -> int:
        result = to_number(interp.call_function(comparator, [a, b]))
        return -1 if result < 0 else 1 if result > 0 else 0

    return array.sort(functools.cmp_to_key(compare))


def _map(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    fn = _callback(args, "map")
    return JSArray(
        [interp.call_function(fn, [element, float(i)]) for i, element in enumerate(array.elements)]
    )


def _filter(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    fn = _callback(args, "filter")
    return JSArray(
        [
            element
            for i, element in enumerate(array.elements)
            if is_truthy(interp.call_function(fn, [element, float(i)]))
        ]
    )


def _for_each(interp: "Interpreter", array: JSArray, args: list[Any]) -> Any:
    fn = _callback(args, "forEach")
    for i, element in enumerate(array.elements):
        interp.call_function(fn, [element, float(i)])
    return UNDEFINED


ARRAY_METHODS: dict[str, Native] = {
    "push": lambda interp, array, args: float(array.push(args)),
    "pop": lambda interp, array, args: array.pop(),
    "shift": lambda interp, array, args: array.shift(),
    "unshift": lambda interp, array, args: float(array.unshift(args)),
    "join": lambda interp, array, args: join_elements(
        array, "," if _arg(args, 0) is UNDEFINED else to_string(args[0])
    ),
    "indexOf": _index_of,
    "slice": _array_slice,
    "concat": _concat,
    "reverse": lambda interp, array, args: array.reverse(),
    "sort": _sort,
    "map": _map,
    "filter": _filter,
    "forEach": _for_each,
}


# -- numbers ---------------------------------------------------------------------


def _to_fixed(interp: "Interpreter", value: Any, args: list[Any]) -> str:
    digits = to_integer_or_infinity(_arg(args, 0))
    if not 0 <= digits <= 100:
        raise JsRuntimeError("RangeError: toFixed() digits argument must be between 0 and 100")
    number = float(value)
    if not math.isfinite(number) or abs(number) >= 1e21:
        return to_string(number)
    return f"{number + 0.0:.{digits}f}"  # + 0.0: -0 prints as 0


NUMBER_METHODS: dict[str, Native] = {
    "toFixed": _to_fixed,
    "toString": lambda interp, value, args: to_string(float(value)),
}


# -- globals ---------------------------------------------------------------------


def _parse_int(interp: "Interpreter", this: Any, args: list[Any]) -> float:
    text = to_string(args[0]).strip() if args else ""
    radix = to_number(args[1]) if len(args) > 1 else 0.0
    radix = int(radix) if math.isfinite(radix) else 0
    sign = 1
    if text[:1] in ("+", "-"):
        if text[0] == "-":
            sign = -1
        text = text[1:]
    # No radix (or 0) reads a "0x" prefix as 16, else as 10.
    if radix in (0, 16) and text[:2].lower() == "0x":
        text, radix = text[2:], 16
    elif radix == 0:
        radix = 10
    digits = ""
    for char in text:
        try:
            if int(char, radix) >= 0:
                digits += char
        except ValueError:
            break
    if not digits:
        return float("nan")
    return float(sign * int(digits, radix))


_FLOAT_PREFIX = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _parse_float(interp: "Interpreter", this: Any, args: list[Any]) -> float:
    match = _FLOAT_PREFIX.match(to_string(args[0]).strip() if args else "")
    return float(match.group(0)) if match else float("nan")


def _is_nan(interp: "Interpreter", this: Any, args: list[Any]) -> bool:
    number = to_number(args[0]) if args else float("nan")
    return number != number


def _json_parse(interp: "Interpreter", this: Any, args: list[Any]) -> Any:
    text = to_string(args[0]) if args else "undefined"
    try:
        return _python_to_js(json.loads(text))
    except ValueError as error:
        raise JsRuntimeError(f"JSON.parse: {error}") from None
    except RecursionError:
        raise JsRuntimeError(TOO_DEEP) from None


def _json_stringify(interp: "Interpreter", this: Any, args: list[Any]) -> Any:
    if not args:
        return UNDEFINED
    try:
        return json.dumps(_js_to_python(args[0], set()))
    except (TypeError, ValueError):
        return UNDEFINED
    except RecursionError:
        raise JsRuntimeError(TOO_DEEP) from None


def _python_to_js(value: Any) -> Any:
    if isinstance(value, dict):
        return JSObject({key: _python_to_js(item) for key, item in value.items()})
    if isinstance(value, list):
        return JSArray([_python_to_js(item) for item in value])
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _js_to_python(value: Any, open_: set[int]) -> Any:
    """``value`` as JSON data; ``open_`` holds the ids of the objects and
    arrays being converted further out, and meeting one again is node's
    TypeError."""
    if value is UNDEFINED:
        return None
    if not isinstance(value, (JSObject, JSArray)):
        return int(value) if isinstance(value, float) and value.is_integer() else value
    if id(value) in open_:
        raise JsTypeError("Converting circular structure to JSON")
    open_.add(id(value))
    if isinstance(value, JSObject):
        data: Any = {key: _js_to_python(item, open_) for key, item in value.properties.items()}
    else:
        data = [_js_to_python(item, open_) for item in value.elements]
    open_.discard(id(value))
    return data


def _encode_uri(interp: "Interpreter", this: Any, args: list[Any]) -> str:
    try:
        return quote(to_string(args[0]) if args else "undefined", safe="")
    except UnicodeEncodeError:  # a lone surrogate
        raise JsRuntimeError("URIError: URI malformed") from None


def _math1(fn: Callable[[float], float]) -> Native:
    def wrapper(interp: "Interpreter", this: Any, args: list[Any]) -> float:
        return float(fn(to_number(args[0]) if args else float("nan")))

    return wrapper


def _math_var(pick: Any) -> Native:
    def wrapper(interp: "Interpreter", this: Any, args: list[Any]) -> float:
        numbers = [to_number(argument) for argument in args]
        if any(number != number for number in numbers):
            return math.nan
        empty = -math.inf if pick is max else math.inf
        # +0 ranks above -0, as ECMAScript orders them.
        return float(pick(numbers, key=lambda x: (x, math.copysign(1, x)), default=empty))

    return wrapper


def _integral(rounding: Callable[[float], int]) -> Callable[[float], float]:
    """``rounding`` as ``Math`` applies it: NaN and ±Infinity pass, a zero keeps its sign."""
    return lambda x: x if not math.isfinite(x) else math.copysign(rounding(x), x)


def _round_half_up(x: float) -> int:
    """Halves up; not ``floor(x + 0.5)``: 0.49999999999999994 + 0.5 == 1.0."""
    low = math.floor(x)
    return low + 1 if x - low >= 0.5 else low


def _pow(interp: "Interpreter", this: Any, args: list[Any]) -> float:
    """``Math.pow`` as ECMAScript has it: no domain or range error."""
    base, exponent = to_number(_arg(args, 0)), to_number(_arg(args, 1))
    if exponent != exponent or (abs(base) == 1 and math.isinf(exponent)):
        return math.nan
    try:
        return float(math.pow(base, exponent))
    except ValueError:  # a negative base to a fraction, or 0 to a negative power
        if base != 0:
            return math.nan
    except OverflowError:
        pass
    return math.copysign(math.inf, base) if exponent % 2 == 1 else math.inf


def install_globals(env: Environment) -> None:
    """Declare ``undefined``, ``NaN``, ``Infinity``, the global functions,
    ``Math`` and ``JSON`` in ``env`` (one fresh set per interpreter: a
    script may overwrite them)."""
    env.declare("undefined", UNDEFINED)
    env.declare("NaN", float("nan"))
    env.declare("Infinity", float("inf"))
    env.declare("parseInt", NativeFunction("parseInt", _parse_int))
    env.declare("parseFloat", NativeFunction("parseFloat", _parse_float))
    env.declare("isNaN", NativeFunction("isNaN", _is_nan))
    env.declare(
        "String", NativeFunction("String", lambda interp, this, args: _text_arg(args, 0) if args else "")
    )
    env.declare(
        "Number", NativeFunction("Number", lambda interp, this, args: to_number(args[0]) if args else 0.0)
    )
    env.declare("encodeURIComponent", NativeFunction("encodeURIComponent", _encode_uri))
    math_functions: dict[str, Native] = {
        "floor": _math1(_integral(math.floor)),
        "ceil": _math1(_integral(math.ceil)),
        "round": _math1(_integral(_round_half_up)),
        "abs": _math1(abs),
        "max": _math_var(max),
        "min": _math_var(min),
        "sqrt": _math1(lambda x: math.nan if x < 0 else math.sqrt(x)),
        "pow": _pow,
    }
    math_object = JSObject({name: NativeFunction(name, fn) for name, fn in math_functions.items()})
    math_object.set("PI", math.pi)
    env.declare("Math", math_object)
    env.declare(
        "JSON",
        JSObject(
            {
                "parse": NativeFunction("parse", _json_parse),
                "stringify": NativeFunction("stringify", _json_stringify),
            }
        ),
    )
