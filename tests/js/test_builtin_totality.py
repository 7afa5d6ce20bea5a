"""Every native is total: any arguments give a value or a ``ReproError``.

The sweep crosses every native reachable from the global object (the
global functions, ``Math``, ``JSON``) and every member native of a
string, an array and a number (read off a value through the member
protocol, by the names the member tables hold, so a new native is swept
the day it is added) with no argument, each boundary value, and every
ordered pair of them.  A raw Python exception here (``ValueError``,
``OverflowError``, ``IndexError``, ``UnicodeEncodeError``,
``MemoryError``, ``RecursionError``) would cost the page, not one script.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.errors import ReproError
from repro.js import (
    HostConstructor,
    Interpreter,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
)
from repro.js.builtins import ARRAY_METHODS, NUMBER_METHODS, STRING_METHODS
from repro.js.interpreter import _get_member

def cyclic_array() -> JSArray:
    array = JSArray([1.0])
    array.push([array])
    return array


def cyclic_object() -> JSObject:
    obj = JSObject({"a": 1.0})
    obj.set("self", obj)
    return obj


def nested_array(depth: int) -> JSArray:
    array = JSArray()
    for _ in range(depth):
        array = JSArray([array])
    return array


#: Deeper than Python's stack allows any recursive walk of it.  Built
#: once: no native writes into an argument's nested arrays.
DEEP_ARRAY = nested_array(10_000)

#: ROADMAP item 2b's boundary values, and item 3a's cycles and depth;
#: the other arrays and objects are made fresh for every call, since a
#: native may write to them.
BOUNDARY = [
    lambda: math.nan,
    lambda: math.inf,
    lambda: -math.inf,
    lambda: -0.0,
    lambda: float(2**53 + 1),
    lambda: -1.0,
    lambda: 0.0,
    lambda: 1.5,
    lambda: "",
    lambda: "abc",
    lambda: None,
    lambda: UNDEFINED,
    lambda: JSArray(),
    lambda: JSObject(),
    lambda: "\ud800",
    lambda: 1e21,
    lambda: -1e-7,
    cyclic_array,
    cyclic_object,
    lambda: DEEP_ARRAY,
]

ARGUMENT_LISTS = (
    [()]
    + [(value,) for value in BOUNDARY]
    + list(itertools.product(BOUNDARY, repeat=2))
)

JS_VALUES = (float, str, bool, type(None), type(UNDEFINED), JSArray, JSObject,
             JSFunction, NativeFunction, HostConstructor)


def global_natives() -> list[tuple[str, NativeFunction]]:
    """The natives the global object holds, directly or one object down."""
    found = []
    for name, value in Interpreter().global_env.bindings.items():
        if isinstance(value, NativeFunction):
            found.append((name, value))
        elif isinstance(value, JSObject):
            found += [
                (f"{name}.{key}", member)
                for key, member in value.properties.items()
                if isinstance(member, NativeFunction)
            ]
    return found


#: Member-native receivers: made fresh per call, like the arguments.
RECEIVERS = {
    "string": (STRING_METHODS, [lambda: "abc", lambda: "", lambda: "a\ud800"]),
    "array": (ARRAY_METHODS, [lambda: JSArray([1.0, "b", UNDEFINED, None]), lambda: JSArray()]),
    "number": (NUMBER_METHODS, [lambda: 1.5, lambda: math.nan, lambda: -0.0, lambda: 1e21]),
}


def member_natives() -> dict[str, tuple[object, str]]:
    """``{"kind<receiver>.name": (receiver factory, name)}``."""
    return {
        f"{kind}{index}.{name}": (receiver, name)
        for kind, (table, receivers) in RECEIVERS.items()
        for name in table
        for index, receiver in enumerate(receivers)
    }


def sweep(native_of) -> None:
    """Call ``native_of()`` once per argument list: each call answers a
    script value or raises a ``ReproError``."""
    interp = Interpreter()
    for arguments in ARGUMENT_LISTS:
        args = [make() for make in arguments]
        try:
            result = interp.call_function(native_of(), args)
        except ReproError:
            continue
        assert isinstance(result, JS_VALUES), (args, result)


def test_the_sweep_reaches_every_table():
    names = {name for name, _ in global_natives()}
    assert {"parseInt", "encodeURIComponent", "Math.pow", "JSON.parse"} <= names
    assert len(member_natives()) == sum(
        len(table) * len(receivers) for table, receivers in RECEIVERS.values()
    )


@pytest.mark.parametrize("name", [name for name, _ in global_natives()])
def test_a_global_native_is_total(name):
    native = dict(global_natives())[name]
    sweep(lambda: native)


@pytest.mark.parametrize("label", list(member_natives()))
def test_a_member_native_is_total(label):
    receiver, name = member_natives()[label]

    def native_of():
        native = _get_member(receiver(), name)
        assert isinstance(native, NativeFunction) and native.name == name
        return native

    sweep(native_of)
