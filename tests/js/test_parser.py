"""Unit tests for the JavaScript parser."""

import pytest

from repro.errors import JsSyntaxError
from repro.js import ast as js_ast
from repro.js import parse_expression, parse_program


class TestExpressions:
    def test_precedence_mul_over_add(self):
        node = parse_expression("1 + 2 * 3")
        assert isinstance(node, js_ast.BinaryOp)
        assert node.operator == "+"
        assert isinstance(node.right, js_ast.BinaryOp)
        assert node.right.operator == "*"

    def test_parentheses_override(self):
        node = parse_expression("(1 + 2) * 3")
        assert node.operator == "*"
        assert isinstance(node.left, js_ast.BinaryOp)

    def test_left_associativity(self):
        node = parse_expression("10 - 4 - 3")
        assert node.operator == "-"
        assert isinstance(node.left, js_ast.BinaryOp)
        assert node.left.operator == "-"

    def test_comparison_precedence(self):
        node = parse_expression("a + 1 < b * 2")
        assert node.operator == "<"

    def test_logical_precedence(self):
        node = parse_expression("a && b || c")
        assert isinstance(node, js_ast.LogicalOp)
        assert node.operator == "||"
        assert node.left.operator == "&&"

    def test_ternary(self):
        node = parse_expression("a ? b : c")
        assert isinstance(node, js_ast.Conditional)

    def test_assignment_chains_right(self):
        node = parse_expression("a = b = 1")
        assert isinstance(node, js_ast.Assignment)
        assert isinstance(node.value, js_ast.Assignment)

    def test_compound_assignment(self):
        node = parse_expression("x += 2")
        assert node.operator == "+="

    def test_assignment_to_literal_rejected(self):
        with pytest.raises(JsSyntaxError):
            parse_expression("1 = 2")

    @pytest.mark.parametrize("source, raw", [
        ("var a = 0x;", "0x"),
        ("var a = 1²;", "1²"),
        ("var a = \u0661\u0662;", "\u0661\u0662"),  # Arabic-Indic digits
        ("var a = \uff11\uff12;", "\uff11\uff12"),  # fullwidth digits
        ("var a = 1\u0662;", "1\u0662"),
    ])
    def test_a_number_token_no_number_reads_is_a_syntax_error(self, source, raw):
        # node: "Invalid or unexpected token"; int() and float() once
        # raised a raw ValueError, which a crawl does not contain, and
        # float() still reads Unicode decimal digits as the number 12.
        with pytest.raises(JsSyntaxError) as raised:
            parse_program(source)
        assert str(raised.value) == f"malformed number {raw!r} (line 1, column 9)"

    def test_member_chain(self):
        node = parse_expression("a.b.c")
        assert isinstance(node, js_ast.Member)
        assert node.property == "c"
        assert isinstance(node.obj, js_ast.Member)

    def test_index(self):
        node = parse_expression("a[0]")
        assert isinstance(node, js_ast.Index)

    def test_call_with_arguments(self):
        node = parse_expression("f(1, 'x', g())")
        assert isinstance(node, js_ast.Call)
        assert len(node.arguments) == 3

    def test_method_call(self):
        node = parse_expression("obj.method(1)")
        assert isinstance(node, js_ast.Call)
        assert isinstance(node.callee, js_ast.Member)

    def test_new_with_arguments(self):
        node = parse_expression("new XMLHttpRequest()")
        assert isinstance(node, js_ast.New)
        assert isinstance(node.callee, js_ast.Identifier)

    def test_new_then_method(self):
        node = parse_expression("new Thing().run()")
        assert isinstance(node, js_ast.Call)
        assert isinstance(node.callee.obj, js_ast.New)

    def test_unary_operators(self):
        assert parse_expression("-x").operator == "-"
        assert parse_expression("!x").operator == "!"
        assert parse_expression("typeof x").operator == "typeof"

    def test_update_prefix_and_postfix(self):
        prefix = parse_expression("++i")
        postfix = parse_expression("i++")
        assert prefix.prefix is True
        assert postfix.prefix is False

    def test_update_target_must_be_reference(self):
        with pytest.raises(JsSyntaxError):
            parse_expression("5++")

    def test_array_literal(self):
        node = parse_expression("[1, 2, 3]")
        assert isinstance(node, js_ast.ArrayLiteral)
        assert len(node.elements) == 3

    def test_object_literal(self):
        node = parse_expression("{a: 1, 'b': 2}")
        assert isinstance(node, js_ast.ObjectLiteral)
        assert [key for key, _ in node.properties] == ["a", "b"]

    def test_function_expression(self):
        node = parse_expression("function (a, b) { return a; }")
        assert isinstance(node, js_ast.FunctionExpression)
        assert node.params == ["a", "b"]

    def test_string_and_number_literals(self):
        assert parse_expression("'hi'").value == "hi"
        assert parse_expression("0x10").value == 16.0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(JsSyntaxError):
            parse_expression("1 2")


class TestStatements:
    def test_var_single(self):
        (stmt,) = parse_program("var x = 1;").body
        assert isinstance(stmt, js_ast.VarDeclaration)
        assert stmt.declarations[0][0] == "x"

    def test_var_multiple(self):
        (stmt,) = parse_program("var a = 1, b, c = 3;").body
        names = [name for name, _ in stmt.declarations]
        assert names == ["a", "b", "c"]
        assert stmt.declarations[1][1] is None

    def test_function_declaration(self):
        (stmt,) = parse_program("function f(x) { return x; }").body
        assert isinstance(stmt, js_ast.FunctionDeclaration)
        assert stmt.name == "f"

    def test_if_else(self):
        (stmt,) = parse_program("if (a) { b(); } else { c(); }").body
        assert isinstance(stmt, js_ast.IfStatement)
        assert stmt.alternate is not None

    def test_if_without_braces(self):
        (stmt,) = parse_program("if (a) b();").body
        assert isinstance(stmt.consequent, js_ast.ExpressionStatement)

    def test_dangling_else_binds_inner(self):
        (stmt,) = parse_program("if (a) if (b) c(); else d();").body
        assert stmt.alternate is None
        assert stmt.consequent.alternate is not None

    def test_while(self):
        (stmt,) = parse_program("while (x < 3) { x++; }").body
        assert isinstance(stmt, js_ast.WhileStatement)

    def test_classic_for(self):
        (stmt,) = parse_program("for (var i = 0; i < 5; i++) { f(i); }").body
        assert isinstance(stmt, js_ast.ForStatement)
        assert stmt.init is not None
        assert stmt.update is not None

    def test_for_with_empty_clauses(self):
        (stmt,) = parse_program("for (;;) { break; }").body
        assert stmt.init is None and stmt.test is None and stmt.update is None

    def test_for_in(self):
        (stmt,) = parse_program("for (var k in obj) { f(k); }").body
        assert isinstance(stmt, js_ast.ForInStatement)
        assert stmt.declare is True
        assert stmt.variable == "k"

    def test_for_in_without_var(self):
        (stmt,) = parse_program("for (k in obj) { f(k); }").body
        assert stmt.declare is False

    def test_return_without_value(self):
        (stmt,) = parse_program("function f() { return; }").body
        assert stmt.body.body[0].argument is None

    def test_break_continue(self):
        program = parse_program("while (1) { break; } while (1) { continue; }")
        assert isinstance(program.body[0].body.body[0], js_ast.BreakStatement)
        assert isinstance(program.body[1].body.body[0], js_ast.ContinueStatement)

    def test_empty_statement(self):
        (stmt,) = parse_program(";").body
        assert isinstance(stmt, js_ast.EmptyStatement)

    def test_missing_semicolon_before_statement_rejected(self):
        with pytest.raises(JsSyntaxError):
            parse_program("var a = 1 var b = 2;")

    def test_semicolon_optional_at_block_end(self):
        (stmt,) = parse_program("function f() { return 1 }").body
        assert stmt.body.body[0].argument.value == 1.0

    def test_unterminated_block(self):
        with pytest.raises(JsSyntaxError):
            parse_program("function f() { var x = 1;")


class TestRealisticScript:
    YOUTUBE_LIKE = """
    var currentPage = 1;
    function showLoading(div_id) { }
    function getUrl(url, async) {
        var xmlHttpReq = new XMLHttpRequest();
        xmlHttpReq.open("GET", url, async);
        xmlHttpReq.send(null);
        return xmlHttpReq.responseText;
    }
    function getUrlXMLResponseAndFillDiv(url, div_id) {
        var response = getUrl(url, true);
        var div = document.getElementById(div_id);
        div.innerHTML = response;
    }
    function nextPage() {
        currentPage = currentPage + 1;
        showLoading('recent_comments');
        getUrlXMLResponseAndFillDiv('/comments?p=' + currentPage, 'recent_comments');
        urchinTracker('/next');
    }
    """

    def test_parses_cleanly(self):
        program = parse_program(self.YOUTUBE_LIKE)
        declared = [
            stmt.name
            for stmt in program.body
            if isinstance(stmt, js_ast.FunctionDeclaration)
        ]
        assert declared == [
            "showLoading",
            "getUrl",
            "getUrlXMLResponseAndFillDiv",
            "nextPage",
        ]
