"""Unit tests for JS value semantics and conversions."""

import math

import pytest

from repro.errors import JavascriptError, JsTypeError
from repro.js import (
    Interpreter,
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    is_callable,
    is_truthy,
    to_number,
    to_string,
    type_of,
)
from repro.js import values
from repro.js.values import HostConstructor, HostObject, JSFunction


class TestUndefined:
    def test_singleton(self):
        from repro.js.values import _Undefined

        assert _Undefined() is UNDEFINED

    def test_falsy(self):
        assert not UNDEFINED
        assert repr(UNDEFINED) == "undefined"


class TestTruthiness:
    @pytest.mark.parametrize(
        "value", [UNDEFINED, None, False, 0, 0.0, "", float("nan")]
    )
    def test_falsy_values(self, value):
        assert is_truthy(value) is False

    @pytest.mark.parametrize(
        "value", [True, 1, -1, 0.5, "x", "0", JSObject(), JSArray()]
    )
    def test_truthy_values(self, value):
        assert is_truthy(value) is True


class TestToNumber:
    def test_booleans(self):
        assert to_number(True) == 1.0
        assert to_number(False) == 0.0

    def test_null_and_undefined(self):
        assert to_number(None) == 0.0
        assert math.isnan(to_number(UNDEFINED))

    def test_strings(self):
        assert to_number("42") == 42.0
        assert to_number("  3.5  ") == 3.5
        assert to_number("") == 0.0
        assert to_number("0x10") == 16.0
        assert math.isnan(to_number("abc"))

    def test_objects_are_nan(self):
        assert math.isnan(to_number(JSObject()))


class TestToString:
    def test_primitives(self):
        assert to_string(UNDEFINED) == "undefined"
        assert to_string(None) == "null"
        assert to_string(True) == "true"
        assert to_string(False) == "false"

    def test_numbers(self):
        assert to_string(42.0) == "42"
        assert to_string(2.5) == "2.5"
        assert to_string(-0.0) == "0"
        assert to_string(float("nan")) == "NaN"
        assert to_string(float("inf")) == "Infinity"
        assert to_string(float("-inf")) == "-Infinity"

    def test_array_joins_with_commas(self):
        # node: String([1, "a", null]) === "1,a,"
        assert to_string(JSArray([1.0, "a", None, UNDEFINED])) == "1,a,,"

    def test_object(self):
        assert to_string(JSObject()) == "[object Object]"

    def test_functions(self):
        native = NativeFunction("f", lambda i, t, a: None)
        assert "function f" in to_string(native)

    def test_host_object(self):
        class Custom(HostObject):
            host_class = "Widget"

        assert to_string(Custom()) == "[object Widget]"


#: ``source -> String(value)`` as node v20 prints it, for the values the
#: interpreter once got wrong (loose equality of an object and a
#: boolean, a hex ``parseInt``, number formatting, ``join`` of ``null``)
#: and their neighbours.
NODE_ANSWERS = [
    ("[] == false", "true"),
    ("[0] == false", "true"),
    ('[1, 2] == "1,2"', "true"),
    ("null == false", "false"),
    ('parseInt("0x1f")', "31"),
    ('parseInt("-0x1f")', "-31"),
    ('parseInt("0x1f", 10)', "0"),
    ('parseInt("5", NaN)', "5"),
    ('parseInt("5", 1 / 0)', "5"),
    ('123456789012345680000 + ""', "123456789012345680000"),
    ('[null, undefined, 1].join("-")', "--1"),
    ('String([1, "a", null])', "1,a,"),
    ('1e-7 + ""', "1e-7"),
    ('-1e-7 + ""', "-1e-7"),
    ('1e21 + ""', "1e+21"),
    ('0.000001 + ""', "0.000001"),
    ('1.5e-10 + ""', "1.5e-10"),
    ('0.1 + 0.2 + ""', "0.30000000000000004"),
    ('9007199254740993 + ""', "9007199254740992"),
    ('2 + ""', "2"),
    ('-0 + ""', "0"),
]


#: ``Math`` at the boundaries, as node v20 prints it: every call answers
#: a number, where the interpreter once raised a raw ``ValueError`` or
#: ``OverflowError`` (ending a whole crawl) or skipped a ``NaN``.
MATH_ANSWERS = [
    ("Math.floor(NaN)", "NaN"),
    ("Math.floor(Infinity)", "Infinity"),
    ("Math.floor(-Infinity)", "-Infinity"),
    ("Math.ceil(NaN)", "NaN"),
    ("Math.ceil(Infinity)", "Infinity"),
    ("Math.ceil(-Infinity)", "-Infinity"),
    ("Math.round(NaN)", "NaN"),
    ("Math.round(Infinity)", "Infinity"),
    ("Math.round(-Infinity)", "-Infinity"),
    ("Math.sqrt(-1)", "NaN"),
    ("Math.sqrt(-Infinity)", "NaN"),
    ("Math.pow(-0, -1)", "-Infinity"),
    ("Math.pow(-0, -2)", "Infinity"),
    ("Math.pow(0, -1)", "Infinity"),
    ("Math.max(1, NaN)", "NaN"),
    ("Math.min(1, NaN)", "NaN"),
    ("Math.round(0.49999999999999994)", "0"),
    ("Math.round(-2.5)", "-2"),
    ("Math.round(2.5)", "3"),
    ("Math.round(-1.5)", "-1"),
    ("Math.round(0.5)", "1"),
    ("Math.round(-0.5)", "0"),
    ("Math.round(1e300)", "1e+300"),
    ("Math.floor(-1.5)", "-2"),
    ("Math.ceil(1.2)", "2"),
    ("Math.floor()", "NaN"),
    ("Math.pow(1, NaN)", "NaN"),
    ("Math.pow(1, Infinity)", "NaN"),
    ("Math.pow(NaN, 0)", "1"),
    ("Math.pow(0, 0)", "1"),
    ("Math.pow(-8, 1/3)", "NaN"),
    ("Math.pow(-2, 0.5)", "NaN"),
    ("Math.pow(10, 400)", "Infinity"),
    ("Math.pow(-10, 309)", "-Infinity"),
    ("Math.pow(-10, 310)", "Infinity"),
    ("Math.pow(2, 10)", "1024"),
    ("Math.pow(-8, 3)", "-512"),
    ("Math.pow()", "NaN"),
    ("Math.max(2, 7, -1)", "7"),
    ("Math.min(2, 7, -1)", "-1"),
    ('Math.max("3", 1)', "3"),
    ("Math.max()", "-Infinity"),
    ("Math.min()", "Infinity"),
    ("Math.abs(-Infinity)", "Infinity"),
    ("Math.sqrt(16)", "4"),
]


#: Division and remainder by a signed zero or an infinity, as node v20
#: prints them: the quotient's sign is the product of both signs, a
#: zero's included (``1/(-0)`` once answered ``Infinity``), and an
#: infinite dividend has no remainder (``Infinity % 5`` once raised).
DIVISION_ANSWERS = [
    ("1/0", "Infinity"),
    ("1/-0", "-Infinity"),
    ("-1/0", "-Infinity"),
    ("-1/-0", "Infinity"),
    ("0/-0", "NaN"),
    ("5 % -0", "NaN"),
    ("-0 % 5", "0"),
    ("1/(-0 % 5)", "-Infinity"),
    ("1/Math.ceil(-0.5)", "-Infinity"),
    ("Infinity % 5", "NaN"),
    ("5 % Infinity", "5"),
]

#: Positions, counts and digit counts through ToIntegerOrInfinity and
#: the relative-index clamp, as node v20 prints them; each NaN case
#: once raised a raw ``ValueError``.
POSITION_ANSWERS = [
    ('"abc".charAt(NaN)', "a"),
    ('"abc".charCodeAt(NaN)', "97"),
    ('"abc".slice(NaN)', "abc"),
    ('"abc".substring(NaN)', "abc"),
    ("[1, 2, 3].slice(NaN)", "1,2,3"),
    ('"abc".charAt()', "a"),
    ('"abc".substring(2, NaN)', "ab"),
    ("[1, 2, 3].slice(1, NaN)", ""),
    ('"abc".slice(-2)', "bc"),
    ('"abc".substring(1.7, -3)', "a"),
    ("[1, 2, 3].slice(-1e21)", "1,2,3"),
    ("(NaN).toFixed(2)", "NaN"),
    ("(-0).toFixed(2)", "0.00"),
    ("(1e21).toFixed(2)", "1e+21"),
    ("(Infinity).toFixed(1)", "Infinity"),
    ('"ab".repeat(1.5)', "ab"),
    ('"".repeat(1e21)', ""),
    ("[1, 2, 3][NaN]", "undefined"),
    ('"abc"[1/0]', "undefined"),
    ('parseInt("")', "NaN"),
    # Search positions once went unread, ``join(undefined)`` joined with
    # "undefined" and a fraction read the element below it.
    ('"abcb".indexOf("b", 2)', "3"),
    ('"abc".indexOf("", 10)', "3"),
    ('"abcb".lastIndexOf("b", 2)', "1"),
    ('[1,2,1].indexOf(1, 1)', "2"),
    ('[1,2,1].indexOf(1, -1)', "2"),
    ('[1, 2].join(undefined)', "1,2"),
    ('"abc".lastIndexOf("", 1)', "1"),
    ('"abc".lastIndexOf("a", -5)', "0"),
    ('"abcab".lastIndexOf("ab", NaN)', "3"),
    ('"abc".indexOf("a", NaN)', "0"),
    ('[1, 2].indexOf(1, Infinity)', "-1"),
    ('[1, 2].indexOf(2, -Infinity)', "1"),
    ('"abc".indexOf("b", 1.9)', "1"),
    ('[1, 2, 3].join(null)', "1null2null3"),
    ('[1, 2, 3][1.5]', "undefined"),
    ('"abc"[1.5]', "undefined"),
    ('[1, 2, 3][-0]', "1"),
]

#: Strings to numbers (StringToNumber), as node v20 prints them: ASCII
#: digits with no separators, ``Infinity`` only as spelled, and a hex,
#: octal or binary integer only unsigned.  ``float``/``int`` once took
#: ``1_000``, ``inf``, ``nan`` and Unicode digits.
TO_NUMBER_ANSWERS = [
    ('Number("1_000")', "NaN"),
    ('"1_0" * 2', "NaN"),
    ('Number("0x1_0")', "NaN"),
    ('Number("inf")', "NaN"),
    ('Number("nan")', "NaN"),
    ('Number("INFINITY")', "NaN"),
    ('Number("Infinity")', "Infinity"),
    ('Number("+Infinity")', "Infinity"),
    ('-Number("-Infinity")', "Infinity"),
    ('Number("  12  ")', "12"),
    ('Number("\\ufeff5")', "5"),
    ('Number("\\x1c5")', "NaN"),
    ('Number("0X1f")', "31"),
    ('Number("0o17")', "15"),
    ('Number("0b11")', "3"),
    ('Number("-0x10")', "NaN"),
    ('Number(".5")', "0.5"),
    ('Number("5.")', "5"),
    ('Number(".")', "NaN"),
    ('Number("+")', "NaN"),
    ('Number(" \\n ")', "0"),
    ('Number("1e")', "NaN"),
    ('Number("\\u0663")', "NaN"),
    ('Number("1e400")', "Infinity"),
]


#: ``in`` on an array, as node v20 prints it: only a canonical index
#: names an element (no sign, blank, separator or leading zero), and
#: ``length`` is a property.  ``int()`` once took ``"01"``, ``" 1"``,
#: ``"+1"``, ``"1_0"`` and ``"-0"``, and ``length`` answered false.
IN_ANSWERS = [
    ('"1_0" in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]', "false"),
    ('" 1" in [1, 2]', "false"),
    ('"+1" in [1, 2]', "false"),
    ('"01" in [1, 2]', "false"),
    ('"-0" in [1, 2]', "false"),
    ('"1.0" in [1, 2]', "false"),
    ('"" in [1]', "false"),
    ('"2" in [1, 2]', "false"),
    ('"length" in [1, 2]', "true"),
    ('"1" in [1, 2]', "true"),
    ("1 in [1, 2]", "true"),
    ("-0 in [1, 2]", "true"),
    ("1.5 in [1, 2]", "false"),
    ('"1".repeat(5000) in [1]', "false"),
    ('"16777216" in [1]', "false"),
]

#: Hex literals past the largest double, as node v20 prints them: they
#: round to Infinity (the last one exactly half way), where the parser
#: once raised a raw ``OverflowError``.
HEX_ANSWERS = [
    pytest.param("0x" + "f" * 300, "Infinity", id="0x{f*300}"),
    pytest.param("-0x" + "f" * 300, "-Infinity", id="-0x{f*300}"),
    pytest.param("0x" + "f" * 256, "Infinity", id="0x{f*256}"),
    pytest.param("0xfffffffffffff8" + "0" * 242, "1.7976931348623157e+308", id="max-double"),
    pytest.param("0xfffffffffffffc" + "0" * 242, "Infinity", id="half-way-past-max"),
]


@pytest.mark.parametrize(
    "source, node",
    NODE_ANSWERS + MATH_ANSWERS + DIVISION_ANSWERS + POSITION_ANSWERS + TO_NUMBER_ANSWERS
    + IN_ANSWERS + HEX_ANSWERS,
)
def test_a_value_is_what_node_prints(source, node):
    assert to_string(Interpreter().eval_expression(source)) == node


#: Calls and writes node v20 answers with a RangeError (or, for ``a[1/0]``
#: and ``a[NaN]``, a property this engine's dense arrays cannot hold):
#: each raises a JavascriptError here, where several once raised a raw
#: ``ValueError`` or ``OverflowError``.
RANGE_ERRORS = [
    "(1).toFixed(Infinity)",
    "(1).toFixed(101)",
    "(1).toFixed(-1)",
    '"x".repeat(-1)',
    '"x".repeat(Infinity)',
    '"x".repeat(1e21)',
    "var a = [1]; a.length = NaN;",
    "var a = [1]; a.length = -1;",
    "var a = [1]; a.length = 1.5;",
    "var a = [1]; a.length = 1e21;",
    "var a = []; a[1/0] = 3;",
    "var a = []; a[NaN] = 3;",
    "var a = []; a[-1] = 3;",
    "var a = []; a[1e21] = 3;",
]


@pytest.mark.parametrize("source", RANGE_ERRORS)
def test_an_out_of_range_argument_is_a_javascript_error(source):
    with pytest.raises(JavascriptError):
        Interpreter().run(source)


def test_a_lone_surrogate_is_a_uri_error():
    interp = Interpreter()
    encode = interp.global_env.get("encodeURIComponent")
    with pytest.raises(JavascriptError, match="^URIError: URI malformed$"):
        interp.call_function(encode, ["a\ud800"])
    assert interp.call_function(encode, ["a b/é"]) == "a%20b%2F%C3%A9"


def test_a_fractional_index_write_is_refused_as_a_named_one():
    # node makes a property "1.5"; this engine's arrays hold no named
    # property, so the write raises what ``a.foo = 1`` raises.
    for source in ("a[1.5] = 2;", "a.foo = 2;", "a[-1.5] += 2;"):
        with pytest.raises(JsTypeError, match="^cannot set property '.*' on object$"):
            Interpreter().run("var a = [1, 2]; " + source)


def test_array_length_and_index_writes_in_range():
    interp = Interpreter()
    assert interp.run("var a = [1, 2, 3]; a.length = 1; a[2] = 9; a.length") == 3.0
    assert interp.run("a.join()") == "1,,9"
    assert interp.run("a.length = 0; a.length") == 0.0


#: Arrays that contain themselves, as node v20 joins them: the array
#: already being joined joins as ``""`` where the cycle closes, and an
#: array met twice without a cycle joins both times.
CYCLE_ANSWERS = [
    ("var a = [1]; a.push(a); String(a)", "1,"),
    ('var a = [1]; a.push(a); a.join("-")', "1-"),
    ("var a = [1, [2]]; a[1].push(a); String(a)", "1,2,"),
    ("var a = []; a.push(a, a); String(a)", ","),
    ("var a = [1]; String([a, a])", "1,1"),
    ("var a = [1]; String(JSON.parse(JSON.stringify([a, a])))", "1,1"),
]


@pytest.mark.parametrize("source, node", CYCLE_ANSWERS)
def test_a_cycle_joins_as_node_joins_it(source, node):
    assert to_string(Interpreter().run(source)) == node


DEEP = "var a = []; for (var i = 0; i < 10000; i++) { a = [a]; } "

#: ``source -> the error`` node v20 throws, where each once raised a raw
#: ``RecursionError``.  Nesting past the depth Python allows is node's
#: RangeError for its own stack; node itself parses 5 000 nested arrays
#: and joins 3 000 as ``""``, this engine stops at its shallower stack.
STRUCTURE_ERRORS = [
    ("var o = {}; o.self = o; JSON.stringify(o)", "^Converting circular structure to JSON$"),
    ("var a = [1]; a.push({b: a}); JSON.stringify(a)", "^Converting circular structure to JSON$"),
    (DEEP + "JSON.stringify(a)", "^RangeError: Maximum call stack size exceeded$"),
    (DEEP + "String(a)", "^RangeError: Maximum call stack size exceeded$"),
    ('JSON.parse("[".repeat(5000) + "]".repeat(5000))', "^RangeError: Maximum call stack size exceeded$"),
]


@pytest.mark.parametrize("source, error", STRUCTURE_ERRORS)
def test_a_cycle_or_a_depth_past_the_stack_is_a_javascript_error(source, error):
    with pytest.raises(JavascriptError, match=error):
        Interpreter().run(source)


#: Each builds an 8-character string (16 for the doubling loop's last
#: step).
LONG_STRINGS = [
    '"abcd" + "efgh"',
    'var s = "abcd"; s += "efgh"; s',
    '"abcd" + 1234',
    '"abcd".concat("ef", "gh")',
    '["abcd", "efgh"].join("")',
    '["ab", "cd", "ef"].join("-")',
    '"ab".repeat(4)',
    'var s = "ab"; for (var i = 0; i < 40; i++) { s = s + s; } s',
]


@pytest.mark.parametrize("source", LONG_STRINGS)
def test_a_string_past_the_longest_is_refused_before_it_is_built(monkeypatch, source):
    monkeypatch.setattr(values, "MAX_STRING_LENGTH", 7)
    with pytest.raises(JavascriptError, match="^RangeError: Invalid string length$"):
        Interpreter().run(source)


@pytest.mark.parametrize("source", LONG_STRINGS[:-1])
def test_a_string_at_the_longest_is_built(monkeypatch, source):
    monkeypatch.setattr(values, "MAX_STRING_LENGTH", 8)
    assert len(Interpreter().run(source)) == 8


#: ``source -> the sign of the zero it answers``: node v20 prints
#: ``1/(source)`` as ``-Infinity`` for a ``-0`` and ``Infinity`` for a ``0``.
MATH_ZEROS = [
    ("Math.round(-0.3)", -1),
    ("Math.round(-0.5)", -1),
    ("Math.ceil(-0.5)", -1),
    ("Math.floor(-0)", -1),
    ("Math.sqrt(-0)", -1),
    ("Math.min(0, -0)", -1),
    ("Math.max(-0, 0)", 1),
    ("Math.round(0.3)", 1),
]


@pytest.mark.parametrize("source, sign", MATH_ZEROS)
def test_math_keeps_the_sign_of_a_zero(source, sign):
    zero = Interpreter().eval_expression(source)
    assert zero == 0 and math.copysign(1, zero) == sign


class TestTypeOf:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (UNDEFINED, "undefined"),
            (None, "object"),
            (True, "boolean"),
            (1.5, "number"),
            ("x", "string"),
            (JSObject(), "object"),
            (JSArray(), "object"),
            (NativeFunction("f", lambda i, t, a: None), "function"),
            (HostConstructor("C", lambda i, a: None), "function"),
        ],
    )
    def test_typeof(self, value, expected):
        assert type_of(value) == expected


class TestJSObject:
    def test_get_set_delete(self):
        obj = JSObject()
        assert obj.get("missing") is UNDEFINED
        obj.set("k", 1.0)
        assert obj.get("k") == 1.0
        assert obj.delete("k") is True
        assert obj.delete("k") is False

    def test_keys_in_insertion_order(self):
        obj = JSObject()
        obj.set("b", 1)
        obj.set("a", 2)
        assert obj.keys() == ["b", "a"]


class TestJSArray:
    def test_index_semantics(self):
        array = JSArray([1.0, 2.0])
        assert array.get_index(0) == 1.0
        assert array.get_index(5) is UNDEFINED
        array.set_index(4, "x")
        assert array.length == 5
        assert array.get_index(3) is UNDEFINED

    def test_negative_index_rejected(self):
        with pytest.raises(JsTypeError):
            JSArray().set_index(-1, 0)


class TestCallability:
    def test_is_callable(self):
        from repro.js import parse_program
        from repro.js.environment import Environment

        assert is_callable(NativeFunction("f", lambda i, t, a: None))
        assert is_callable(HostConstructor("C", lambda i, a: None))
        body = parse_program("function f() {}").body[0].body
        assert is_callable(JSFunction("f", [], body, Environment()))
        assert not is_callable(JSObject())
        assert not is_callable("string")

    def test_host_object_defaults(self):
        host = HostObject()
        assert host.js_get("anything") is UNDEFINED
        assert host.js_keys() == []
        with pytest.raises(JsTypeError):
            host.js_set("x", 1)
