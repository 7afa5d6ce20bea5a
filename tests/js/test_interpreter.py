"""Unit tests for the JavaScript interpreter."""

import math

import pytest

from repro.errors import JsReferenceError, JsRuntimeError, JsTypeError
from repro.js import ast, interpreter
from repro.js import (
    Interpreter,
    JSArray,
    JSObject,
    JsStepLimitError,
    NativeFunction,
    UNDEFINED,
)


@pytest.fixture
def interp():
    return Interpreter()


def run(interp, source):
    return interp.run(source)


class TestArithmetic:
    def test_numbers(self, interp):
        assert run(interp, "1 + 2 * 3;") == 7.0

    def test_division(self, interp):
        assert run(interp, "7 / 2;") == 3.5

    def test_division_by_zero(self, interp):
        assert run(interp, "1 / 0;") == float("inf")
        assert run(interp, "-1 / 0;") == float("-inf")
        assert math.isnan(run(interp, "0 / 0;"))

    def test_modulo(self, interp):
        assert run(interp, "10 % 3;") == 1.0

    def test_string_concat(self, interp):
        assert run(interp, "'a' + 'b';") == "ab"

    def test_number_string_concat(self, interp):
        assert run(interp, "'page ' + 2;") == "page 2"
        assert run(interp, "1 + '2';") == "12"

    def test_unary(self, interp):
        assert run(interp, "-5;") == -5.0
        assert run(interp, "+'3';") == 3.0
        assert run(interp, "!0;") is True

    def test_string_coercion_in_subtraction(self, interp):
        assert run(interp, "'10' - 3;") == 7.0


class TestComparisons:
    def test_loose_equality_coerces(self, interp):
        assert run(interp, "1 == '1';") is True
        assert run(interp, "0 == false;") is True
        assert run(interp, "null == undefined;") is True

    def test_strict_equality(self, interp):
        assert run(interp, "1 === '1';") is False
        assert run(interp, "1 === 1;") is True
        assert run(interp, "null === undefined;") is False

    def test_relational(self, interp):
        assert run(interp, "2 < 3;") is True
        assert run(interp, "'abc' < 'abd';") is True
        assert run(interp, "5 >= 5;") is True

    def test_nan_comparisons_false(self, interp):
        assert run(interp, "NaN < 1;") is False
        assert run(interp, "NaN == NaN;") is False

    def test_logical_short_circuit(self, interp):
        run(interp, "var called = false; function f() { called = true; return 1; }")
        assert run(interp, "false && f();") is False
        assert interp.global_env.get("called") is False
        assert run(interp, "true || f();") is True
        assert interp.global_env.get("called") is False

    def test_logical_returns_operand(self, interp):
        assert run(interp, "'x' || 'y';") == "x"
        assert run(interp, "0 || 'y';") == "y"
        assert run(interp, "'x' && 'y';") == "y"


class TestVariablesAndScope:
    def test_var_and_assignment(self, interp):
        assert run(interp, "var x = 1; x = x + 2; x;") == 3.0

    def test_compound_assignment(self, interp):
        assert run(interp, "var x = 10; x += 5; x -= 3; x *= 2; x;") == 24.0

    def test_undeclared_read_raises(self, interp):
        with pytest.raises(JsReferenceError):
            run(interp, "missing;")

    def test_implicit_global_on_write(self, interp):
        run(interp, "function f() { leaked = 42; } f();")
        assert interp.global_env.get("leaked") == 42.0

    def test_closures_capture_environment(self, interp):
        result = run(
            interp,
            """
            function counter() {
                var n = 0;
                return function () { n = n + 1; return n; };
            }
            var c = counter();
            c(); c(); c();
            """,
        )
        assert result == 3.0

    def test_closures_are_independent(self, interp):
        result = run(
            interp,
            """
            function counter() {
                var n = 0;
                return function () { n = n + 1; return n; };
            }
            var a = counter(); var b = counter();
            a(); a(); b();
            """,
        )
        assert result == 1.0

    def test_function_hoisting(self, interp):
        assert run(interp, "var y = f(); function f() { return 7; } y;") == 7.0

    def test_update_operators(self, interp):
        assert run(interp, "var i = 1; i++;") == 1.0
        assert run(interp, "var j = 1; ++j;") == 2.0
        assert run(interp, "var k = 5; k--; k;") == 4.0


class TestControlFlow:
    def test_if_else(self, interp):
        assert run(interp, "var x; if (1 < 2) { x = 'a'; } else { x = 'b'; } x;") == "a"

    def test_while_loop(self, interp):
        assert run(interp, "var s = 0; var i = 0; while (i < 5) { s += i; i++; } s;") == 10.0

    def test_for_loop(self, interp):
        assert run(interp, "var s = 0; for (var i = 1; i <= 4; i++) { s += i; } s;") == 10.0

    def test_break(self, interp):
        assert run(interp, "var i = 0; while (true) { i++; if (i == 3) break; } i;") == 3.0

    def test_continue(self, interp):
        source = "var s = 0; for (var i = 0; i < 5; i++) { if (i % 2) continue; s += i; } s;"
        assert run(interp, source) == 6.0

    def test_for_in_over_object(self, interp):
        source = "var o = {a: 1, b: 2}; var keys = []; for (var k in o) { keys.push(k); } keys.join(',');"
        assert run(interp, source) == "a,b"

    def test_ternary(self, interp):
        assert run(interp, "1 < 2 ? 'yes' : 'no';") == "yes"

    def test_step_limit_stops_infinite_loop(self):
        interp = Interpreter(max_steps=10_000)
        with pytest.raises(JsStepLimitError):
            run(interp, "while (true) {}")


class TestFunctions:
    def test_return_value(self, interp):
        assert run(interp, "function add(a, b) { return a + b; } add(2, 3);") == 5.0

    def test_missing_arguments_are_undefined(self, interp):
        assert run(interp, "function f(a, b) { return b; } f(1);") is UNDEFINED

    def test_arguments_object(self, interp):
        assert run(interp, "function f() { return arguments.length; } f(1, 2, 3);") == 3.0

    def test_recursion(self, interp):
        assert run(interp, "function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } fib(10);") == 55.0

    def test_function_expression(self, interp):
        assert run(interp, "var sq = function (x) { return x * x; }; sq(4);") == 16.0

    def test_calling_non_function_raises(self, interp):
        with pytest.raises(JsTypeError):
            run(interp, "var x = 3; x();")

    def test_early_return(self, interp):
        assert run(interp, "function f() { return 1; return 2; } f();") == 1.0

    def test_this_in_method_call(self, interp):
        source = """
        var obj = {name: 'youtube'};
        obj.getName = function () { return this.name; };
        obj.getName();
        """
        assert run(interp, source) == "youtube"

    def test_new_with_js_constructor(self, interp):
        source = """
        function Point(x, y) { this.x = x; this.y = y; }
        var p = new Point(3, 4);
        p.x + p.y;
        """
        assert run(interp, source) == 7.0


class TestObjectsAndArrays:
    def test_object_literal_access(self, interp):
        assert run(interp, "var o = {a: 1}; o.a;") == 1.0
        assert run(interp, "var o = {a: 1}; o['a'];") == 1.0

    def test_object_set(self, interp):
        assert run(interp, "var o = {}; o.x = 9; o.x;") == 9.0

    def test_missing_property_is_undefined(self, interp):
        assert run(interp, "var o = {}; o.nope;") is UNDEFINED

    def test_member_of_undefined_raises(self, interp):
        with pytest.raises(JsTypeError):
            run(interp, "var u; u.x;")

    def test_delete(self, interp):
        assert run(interp, "var o = {a: 1}; delete o.a; o.a;") is UNDEFINED

    def test_in_operator(self, interp):
        assert run(interp, "var o = {a: 1}; 'a' in o;") is True
        assert run(interp, "var o = {a: 1}; 'b' in o;") is False

    def test_array_basics(self, interp):
        assert run(interp, "var a = [1, 2, 3]; a.length;") == 3.0
        assert run(interp, "var a = [1, 2, 3]; a[1];") == 2.0

    def test_array_out_of_range_is_undefined(self, interp):
        assert run(interp, "var a = [1]; a[10];") is UNDEFINED

    def test_array_push_pop(self, interp):
        assert run(interp, "var a = []; a.push('x'); a.push('y'); a.pop(); a.join('');") == "x"

    def test_array_assignment_grows(self, interp):
        assert run(interp, "var a = []; a[2] = 9; a.length;") == 3.0

    def test_array_index_of(self, interp):
        assert run(interp, "[4, 5, 6].indexOf(5);") == 1.0
        assert run(interp, "[4].indexOf(9);") == -1.0

    def test_array_slice_concat(self, interp):
        assert run(interp, "[1,2,3,4].slice(1, 3).join('-');") == "2-3"
        assert run(interp, "[1].concat([2, 3]).length;") == 3.0

    def test_nested_structures(self, interp):
        assert run(interp, "var o = {list: [{v: 10}]}; o.list[0].v;") == 10.0


class TestStringMethods:
    def test_length(self, interp):
        assert run(interp, "'hello'.length;") == 5.0

    def test_index_of(self, interp):
        assert run(interp, "'comment page'.indexOf('page');") == 8.0

    def test_substring(self, interp):
        assert run(interp, "'abcdef'.substring(1, 3);") == "bc"
        assert run(interp, "'abcdef'.substring(3, 1);") == "bc"

    def test_split(self, interp):
        assert run(interp, "'a,b,c'.split(',').length;") == 3.0

    def test_case(self, interp):
        assert run(interp, "'AbC'.toLowerCase();") == "abc"
        assert run(interp, "'AbC'.toUpperCase();") == "ABC"

    def test_char_at_and_index(self, interp):
        assert run(interp, "'abc'.charAt(1);") == "b"
        assert run(interp, "'abc'[2];") == "c"

    def test_replace_first(self, interp):
        assert run(interp, "'aaa'.replace('a', 'b');") == "baa"


class TestBuiltins:
    def test_parse_int(self, interp):
        assert run(interp, "parseInt('42');") == 42.0
        assert run(interp, "parseInt('12px');") == 12.0
        assert run(interp, "parseInt('-7');") == -7.0
        assert math.isnan(run(interp, "parseInt('x');"))

    def test_parse_float(self, interp):
        assert run(interp, "parseFloat('2.5rem');") == 2.5

    def test_is_nan(self, interp):
        assert run(interp, "isNaN('abc');") is True
        assert run(interp, "isNaN('12');") is False

    def test_string_and_number(self, interp):
        assert run(interp, "String(42);") == "42"
        assert run(interp, "Number('3.5');") == 3.5

    def test_math(self, interp):
        assert run(interp, "Math.floor(2.9);") == 2.0
        assert run(interp, "Math.max(1, 5, 3);") == 5.0
        assert run(interp, "Math.min(4, 2);") == 2.0
        assert run(interp, "Math.abs(-3);") == 3.0

    def test_typeof(self, interp):
        assert run(interp, "typeof 1;") == "number"
        assert run(interp, "typeof 'x';") == "string"
        assert run(interp, "typeof undefined;") == "undefined"
        assert run(interp, "typeof {};") == "object"
        assert run(interp, "typeof parseInt;") == "function"
        assert run(interp, "typeof neverDeclared;") == "undefined"

    def test_encode_uri_component(self, interp):
        assert run(interp, "encodeURIComponent('a b&c');") == "a%20b%26c"


class TestHostIntegration:
    def test_define_global(self, interp):
        interp.define_global("answer", 42.0)
        assert run(interp, "answer;") == 42.0

    def test_native_function(self, interp):
        calls = []

        def record(interpreter, this, args):
            calls.append(list(args))
            return "ok"

        interp.define_global("record", NativeFunction("record", record))
        assert run(interp, "record(1, 'two');") == "ok"
        assert calls == [[1.0, "two"]]

    def test_call_function_from_python(self, interp):
        run(interp, "function double(x) { return x * 2; }")
        double = interp.global_env.get("double")
        assert interp.call_function(double, [21.0]) == 42.0

    def test_js_object_visible_from_python(self, interp):
        run(interp, "var config = {depth: 3};")
        config = interp.global_env.get("config")
        assert isinstance(config, JSObject)
        assert config.get("depth") == 3.0

    def test_js_array_visible_from_python(self, interp):
        run(interp, "var xs = [1, 2];")
        xs = interp.global_env.get("xs")
        assert isinstance(xs, JSArray)
        assert xs.elements == [1.0, 2.0]

    def test_step_counting_increases(self, interp):
        before = interp.steps
        run(interp, "var x = 0; for (var i = 0; i < 10; i++) { x += i; }")
        assert interp.steps > before


class TestNodeDispatch:
    def test_every_node_class_compiles(self):
        nodes = {
            value for value in vars(ast).values()
            if isinstance(value, type) and issubclass(value, ast.Node) and value is not ast.Node
        }
        # Each class has one compiler, as a statement or as an expression.
        assert not set(interpreter._STATEMENTS) & set(interpreter._EXPRESSIONS)
        assert set(interpreter._STATEMENTS) | set(interpreter._EXPRESSIONS) == nodes

    def test_a_node_type_without_a_handler_is_a_runtime_error(self, interp):
        class Mystery(ast.Node):
            pass

        with pytest.raises(JsRuntimeError, match="^cannot execute Mystery$"):
            interp.execute_program(ast.Program(body=[Mystery()]))
        with pytest.raises(JsRuntimeError, match="^cannot evaluate Mystery$"):
            interp.execute_program(ast.Program(body=[ast.ExpressionStatement(Mystery())]))
        # A statement is not an expression, and the other way round.
        with pytest.raises(JsRuntimeError, match="^cannot evaluate EmptyStatement$"):
            interp.execute_program(
                ast.Program(body=[ast.ExpressionStatement(ast.EmptyStatement())])
            )
        assert interp.steps == 5
