"""Recursive-descent parser for the JavaScript subset.

Produces :mod:`repro.js.ast` trees.  Operator precedence follows
ECMAScript; semicolons are required after expression statements except
before ``}`` and EOF (a pragmatic subset of automatic semicolon
insertion sufficient for the page scripts this library generates and for
hand-written test programs).

Every recursion of the parser passes through a statement, an assignment
expression or a prefix operator, and each of those counts one level of
nesting; past :data:`MAX_NESTING` open levels the source is a
``JsSyntaxError("nesting too deep")``.  A level costs at most a dozen
Python frames here and fewer in the compiled closures, so a program at
the bound parses, compiles and runs inside Python's stack however deep
in the script call stack it is first called.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import JsSyntaxError
from repro.js import ast
from repro.js.lexer import Lexer
from repro.js.tokens import Token, TokenType

#: Open statements, assignment expressions and prefix operators a source
#: may nest.
MAX_NESTING = 64

#: The prefix operators, by token.
_PREFIX_OPERATORS = {
    *((TokenType.PUNCTUATOR, op) for op in ("-", "+", "!", "++", "--")),
    *((TokenType.KEYWORD, op) for op in ("typeof", "delete")),
}

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "===": 3,
    "!==": 3,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "in": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_ASSIGNMENT_OPS = {"=", "+=", "-=", "*=", "/=", "%="}


class Parser:
    """Parses one source string into a :class:`repro.js.ast.Program`.

    ``declarations`` is the memo of :class:`~repro.js.lexer.Lexer`: a
    top-level declaration it holds arrives as one token and is taken as
    is, and one parsed here enters it under its exact source text.
    """

    def __init__(
        self, source: str, declarations: Optional[dict[str, ast.FunctionDeclaration]] = None
    ) -> None:
        lexer = Lexer(source, declarations)
        self.tokens = lexer.tokenize()
        self.pos = 0
        #: Open levels of nesting (a failed parse is abandoned, so only
        #: a level that parsed is closed).
        self.depth = 0
        self.declarations = declarations
        self.candidates = lexer.candidates

    # -- token helpers --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # ``pos`` never passes the EOF token; only a look-ahead can.
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _check(self, type_: TokenType, value: Optional[str] = None) -> bool:
        token = self._peek()
        if token.type is not type_:
            return False
        return value is None or token.value == value

    def _match(self, type_: TokenType, value: Optional[str] = None) -> Optional[Token]:
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: TokenType, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(type_, value):
            expected = value or type_.name
            raise JsSyntaxError(
                f"expected {expected!r} but found {token.value!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _expect_semicolon(self) -> None:
        if self._match(TokenType.PUNCTUATOR, ";"):
            return
        token = self._peek()
        # Tolerate a missing semicolon at a block end or EOF.
        if token.type is TokenType.EOF or token.value == "}":
            return
        raise JsSyntaxError(
            f"expected ';' but found {token.value!r}", token.line, token.column
        )

    def _descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            token = self._peek()
            raise JsSyntaxError("nesting too deep", token.line, token.column)

    # -- entry points -----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the whole input as a top-level program."""
        body: list[ast.Statement] = []
        candidates = self.candidates
        while not self._check(TokenType.EOF):
            start = self.pos
            statement = self._statement()
            body.append(statement)
            # A declaration that took exactly a missed span's tokens.
            text, end = candidates.get(start, ("", -1))
            if end == self.pos and type(statement) is ast.FunctionDeclaration:
                self.declarations[text] = statement
        return ast.Program(body)

    def parse_expression(self) -> ast.Expression:
        """Parse the whole input as a single expression."""
        expression = self._expression()
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise JsSyntaxError(
                f"unexpected trailing input {token.value!r}", token.line, token.column
            )
        return expression

    # -- statements ---------------------------------------------------------------

    def _statement(self) -> ast.Statement:
        self._descend()
        statement = self._open_statement()
        self.depth -= 1
        return statement

    def _open_statement(self) -> ast.Statement:
        token = self._peek()
        if token.type is TokenType.DECLARATION:
            self.pos += 1
            return token.declaration
        if token.type is TokenType.KEYWORD:
            handler = {
                "var": self._var_statement,
                "function": self._function_declaration,
                "if": self._if_statement,
                "while": self._while_statement,
                "do": self._do_while_statement,
                "switch": self._switch_statement,
                "for": self._for_statement,
                "return": self._return_statement,
                "break": self._break_statement,
                "continue": self._continue_statement,
                "throw": self._throw_statement,
                "try": self._try_statement,
            }.get(token.value)
            if handler is not None:
                return handler()
        if self._check(TokenType.PUNCTUATOR, "{"):
            return self._block()
        if self._match(TokenType.PUNCTUATOR, ";"):
            return ast.EmptyStatement()
        expression = self._expression()
        self._expect_semicolon()
        return ast.ExpressionStatement(expression)

    def _block(self) -> ast.Block:
        open_brace = self._expect(TokenType.PUNCTUATOR, "{")
        body: list[ast.Statement] = []
        while not self._check(TokenType.PUNCTUATOR, "}"):
            if self._check(TokenType.EOF):
                raise JsSyntaxError("unterminated block", open_brace.line, open_brace.column)
            body.append(self._statement())
        self._expect(TokenType.PUNCTUATOR, "}")
        return ast.Block(body)

    def _var_statement(self) -> ast.VarDeclaration:
        declaration = self._var_declaration()
        self._expect_semicolon()
        return declaration

    def _var_declaration(self) -> ast.VarDeclaration:
        self._expect(TokenType.KEYWORD, "var")
        declarations: list[tuple[str, Optional[ast.Expression]]] = []
        while True:
            name = self._expect(TokenType.IDENTIFIER).value
            initializer = None
            if self._match(TokenType.PUNCTUATOR, "="):
                initializer = self._assignment_expression()
            declarations.append((name, initializer))
            if not self._match(TokenType.PUNCTUATOR, ","):
                break
        return ast.VarDeclaration(declarations)

    def _function_declaration(self) -> ast.FunctionDeclaration:
        self._expect(TokenType.KEYWORD, "function")
        name = self._expect(TokenType.IDENTIFIER).value
        params = self._parameter_list()
        body = self._block()
        return ast.FunctionDeclaration(name, params, body)

    def _parameter_list(self) -> list[str]:
        self._expect(TokenType.PUNCTUATOR, "(")
        params: list[str] = []
        if not self._check(TokenType.PUNCTUATOR, ")"):
            while True:
                params.append(self._expect(TokenType.IDENTIFIER).value)
                if not self._match(TokenType.PUNCTUATOR, ","):
                    break
        self._expect(TokenType.PUNCTUATOR, ")")
        return params

    def _if_statement(self) -> ast.IfStatement:
        self._expect(TokenType.KEYWORD, "if")
        self._expect(TokenType.PUNCTUATOR, "(")
        test = self._expression()
        self._expect(TokenType.PUNCTUATOR, ")")
        consequent = self._statement()
        alternate = None
        if self._match(TokenType.KEYWORD, "else"):
            alternate = self._statement()
        return ast.IfStatement(test, consequent, alternate)

    def _while_statement(self) -> ast.WhileStatement:
        self._expect(TokenType.KEYWORD, "while")
        self._expect(TokenType.PUNCTUATOR, "(")
        test = self._expression()
        self._expect(TokenType.PUNCTUATOR, ")")
        body = self._statement()
        return ast.WhileStatement(test, body)

    def _do_while_statement(self) -> ast.DoWhileStatement:
        self._expect(TokenType.KEYWORD, "do")
        body = self._statement()
        self._expect(TokenType.KEYWORD, "while")
        self._expect(TokenType.PUNCTUATOR, "(")
        test = self._expression()
        self._expect(TokenType.PUNCTUATOR, ")")
        self._expect_semicolon()
        return ast.DoWhileStatement(body, test)

    def _switch_statement(self) -> ast.SwitchStatement:
        self._expect(TokenType.KEYWORD, "switch")
        self._expect(TokenType.PUNCTUATOR, "(")
        discriminant = self._expression()
        self._expect(TokenType.PUNCTUATOR, ")")
        self._expect(TokenType.PUNCTUATOR, "{")
        cases: list[tuple[ast.Expression | None, list[ast.Statement]]] = []
        seen_default = False
        while not self._check(TokenType.PUNCTUATOR, "}"):
            if self._match(TokenType.KEYWORD, "case"):
                test = self._expression()
            elif self._match(TokenType.KEYWORD, "default"):
                if seen_default:
                    token = self._peek()
                    raise JsSyntaxError(
                        "duplicate default clause", token.line, token.column
                    )
                seen_default = True
                test = None
            else:
                token = self._peek()
                raise JsSyntaxError(
                    f"expected 'case' or 'default', found {token.value!r}",
                    token.line,
                    token.column,
                )
            self._expect(TokenType.PUNCTUATOR, ":")
            body: list[ast.Statement] = []
            while not self._check(TokenType.PUNCTUATOR, "}") and not self._check(
                TokenType.KEYWORD, "case"
            ) and not self._check(TokenType.KEYWORD, "default"):
                body.append(self._statement())
            cases.append((test, body))
        self._expect(TokenType.PUNCTUATOR, "}")
        return ast.SwitchStatement(discriminant, cases)

    def _throw_statement(self) -> ast.ThrowStatement:
        self._expect(TokenType.KEYWORD, "throw")
        argument = self._expression()
        self._expect_semicolon()
        return ast.ThrowStatement(argument)

    def _try_statement(self) -> ast.TryStatement:
        keyword = self._expect(TokenType.KEYWORD, "try")
        block = self._block()
        catch_param = None
        catch_block = None
        finally_block = None
        if self._match(TokenType.KEYWORD, "catch"):
            self._expect(TokenType.PUNCTUATOR, "(")
            catch_param = self._expect(TokenType.IDENTIFIER).value
            self._expect(TokenType.PUNCTUATOR, ")")
            catch_block = self._block()
        if self._match(TokenType.KEYWORD, "finally"):
            finally_block = self._block()
        if catch_block is None and finally_block is None:
            raise JsSyntaxError(
                "try requires catch or finally", keyword.line, keyword.column
            )
        return ast.TryStatement(block, catch_param, catch_block, finally_block)

    def _for_statement(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "for")
        self._expect(TokenType.PUNCTUATOR, "(")
        for_in = self._try_for_in()
        if for_in is not None:
            return for_in
        init: Optional[ast.Statement] = None
        if not self._check(TokenType.PUNCTUATOR, ";"):
            if self._check(TokenType.KEYWORD, "var"):
                init = self._var_declaration()
            else:
                init = ast.ExpressionStatement(self._expression())
        self._expect(TokenType.PUNCTUATOR, ";")
        test = None
        if not self._check(TokenType.PUNCTUATOR, ";"):
            test = self._expression()
        self._expect(TokenType.PUNCTUATOR, ";")
        update = None
        if not self._check(TokenType.PUNCTUATOR, ")"):
            update = self._expression()
        self._expect(TokenType.PUNCTUATOR, ")")
        body = self._statement()
        return ast.ForStatement(init, test, update, body)

    def _try_for_in(self) -> Optional[ast.ForInStatement]:
        """Parse ``for (var? name in expr)``; returns None if not a for-in."""
        declare = self._check(TokenType.KEYWORD, "var")
        name_offset = 1 if declare else 0
        name_token = self._peek(name_offset)
        in_token = self._peek(name_offset + 1)
        is_for_in = (
            name_token.type is TokenType.IDENTIFIER
            and in_token.type is TokenType.KEYWORD
            and in_token.value == "in"
        )
        if not is_for_in:
            return None
        if declare:
            self._advance()
        variable = self._advance().value
        self._advance()  # 'in'
        obj = self._expression()
        self._expect(TokenType.PUNCTUATOR, ")")
        body = self._statement()
        return ast.ForInStatement(variable, declare, obj, body)

    def _return_statement(self) -> ast.ReturnStatement:
        self._expect(TokenType.KEYWORD, "return")
        argument = None
        if not self._check(TokenType.PUNCTUATOR, ";") and not self._check(
            TokenType.PUNCTUATOR, "}"
        ) and not self._check(TokenType.EOF):
            argument = self._expression()
        self._expect_semicolon()
        return ast.ReturnStatement(argument)

    def _break_statement(self) -> ast.BreakStatement:
        self._expect(TokenType.KEYWORD, "break")
        self._expect_semicolon()
        return ast.BreakStatement()

    def _continue_statement(self) -> ast.ContinueStatement:
        self._expect(TokenType.KEYWORD, "continue")
        self._expect_semicolon()
        return ast.ContinueStatement()

    # -- expressions ---------------------------------------------------------------

    def _expression(self) -> ast.Expression:
        # The comma operator is not part of the subset.
        return self._assignment_expression()

    def _assignment_expression(self) -> ast.Expression:
        self._descend()
        left = self._conditional_expression()
        token = self._peek()
        if token.type is TokenType.PUNCTUATOR and token.value in _ASSIGNMENT_OPS:
            if not isinstance(left, (ast.Identifier, ast.Member, ast.Index)):
                raise JsSyntaxError("invalid assignment target", token.line, token.column)
            self._advance()
            left = ast.Assignment(token.value, left, self._assignment_expression())
        self.depth -= 1
        return left

    def _conditional_expression(self) -> ast.Expression:
        test = self._binary_expression(0)
        question = self._match(TokenType.PUNCTUATOR, "?")
        if question is None:
            return test
        consequent = self._assignment_expression()
        self._expect(TokenType.PUNCTUATOR, ":")
        alternate = self._assignment_expression()
        return ast.Conditional(test, consequent, alternate)

    def _binary_expression(self, min_precedence: int) -> ast.Expression:
        left = self._unary_expression()
        while True:
            token = self._peek()
            is_operator = (
                token.type is TokenType.PUNCTUATOR
                or (token.type is TokenType.KEYWORD and token.value == "in")
            )
            precedence = _BINARY_PRECEDENCE.get(token.value) if is_operator else None
            if precedence is None or precedence <= min_precedence:
                return left
            self._advance()
            right = self._binary_expression(precedence)
            if token.value in ("&&", "||"):
                left = ast.LogicalOp(token.value, left, right)
            else:
                left = ast.BinaryOp(token.value, left, right)

    def _unary_expression(self) -> ast.Expression:
        token = self._peek()
        if (token.type, token.value) not in _PREFIX_OPERATORS:
            return self._postfix_expression()
        self._advance()
        self._descend()
        operand = self._unary_expression()
        self.depth -= 1
        if token.value in ("++", "--"):
            self._require_update_target(operand, token)
            return ast.UpdateOp(token.value, operand, prefix=True)
        return ast.UnaryOp(token.value, operand)

    @staticmethod
    def _require_update_target(target: ast.Expression, token: Token) -> None:
        if not isinstance(target, (ast.Identifier, ast.Member, ast.Index)):
            raise JsSyntaxError("invalid update target", token.line, token.column)

    def _postfix_expression(self) -> ast.Expression:
        expression = self._call_expression()
        token = self._peek()
        if token.type is TokenType.PUNCTUATOR and token.value in ("++", "--"):
            self._require_update_target(expression, token)
            self._advance()
            return ast.UpdateOp(token.value, expression, prefix=False)
        return expression

    def _call_expression(self) -> ast.Expression:
        if self._check(TokenType.KEYWORD, "new"):
            self._advance()
            callee = self._member_chain(self._primary_expression(), calls=False)
            arguments: list[ast.Expression] = []
            if self._check(TokenType.PUNCTUATOR, "("):
                arguments = self._argument_list()
            expression: ast.Expression = ast.New(callee, arguments)
            return self._member_chain(expression, calls=True)
        return self._member_chain(self._primary_expression(), calls=True)

    def _member_chain(self, expression: ast.Expression, calls: bool) -> ast.Expression:
        while True:
            if self._match(TokenType.PUNCTUATOR, "."):
                name_token = self._peek()
                if name_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    raise JsSyntaxError(
                        "expected property name", name_token.line, name_token.column
                    )
                self._advance()
                expression = ast.Member(expression, name_token.value)
            elif self._check(TokenType.PUNCTUATOR, "["):
                self._advance()
                index = self._expression()
                self._expect(TokenType.PUNCTUATOR, "]")
                expression = ast.Index(expression, index)
            elif calls and self._check(TokenType.PUNCTUATOR, "("):
                arguments = self._argument_list()
                expression = ast.Call(expression, arguments)
            else:
                return expression

    def _argument_list(self) -> list[ast.Expression]:
        self._expect(TokenType.PUNCTUATOR, "(")
        arguments: list[ast.Expression] = []
        if not self._check(TokenType.PUNCTUATOR, ")"):
            while True:
                arguments.append(self._assignment_expression())
                if not self._match(TokenType.PUNCTUATOR, ","):
                    break
        self._expect(TokenType.PUNCTUATOR, ")")
        return arguments

    def _primary_expression(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            raw = token.value
            try:
                value = float(int(raw, 16)) if raw.lower().startswith("0x") else float(raw)
            except OverflowError:  # a hex integer that rounds past the largest double
                value = math.inf
            except ValueError:  # "0x" without digits, or a digit float() refuses ("1²")
                value = None
            if value is None or not raw.isascii():  # float() reads "١٢" too; node does not
                message = f"malformed number {raw!r}"
                raise JsSyntaxError(message, token.line, token.column)
            return ast.NumberLiteral(value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.StringLiteral(token.value)
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return ast.Identifier(token.value)
        if token.type is TokenType.KEYWORD:
            return self._keyword_expression(token)
        if self._match(TokenType.PUNCTUATOR, "("):
            expression = self._expression()
            self._expect(TokenType.PUNCTUATOR, ")")
            return expression
        if self._check(TokenType.PUNCTUATOR, "["):
            return self._array_literal()
        if self._check(TokenType.PUNCTUATOR, "{"):
            return self._object_literal()
        raise JsSyntaxError(f"unexpected token {token.value!r}", token.line, token.column)

    def _keyword_expression(self, token: Token) -> ast.Expression:
        simple = {
            "true": lambda: ast.BooleanLiteral(True),
            "false": lambda: ast.BooleanLiteral(False),
            "null": lambda: ast.NullLiteral(),
            "undefined": lambda: ast.UndefinedLiteral(),
            "this": lambda: ast.ThisExpression(),
        }.get(token.value)
        if simple is not None:
            self._advance()
            return simple()
        if token.value == "function":
            return self._function_expression()
        raise JsSyntaxError(f"unexpected keyword {token.value!r}", token.line, token.column)

    def _function_expression(self) -> ast.FunctionExpression:
        self._expect(TokenType.KEYWORD, "function")
        name = None
        if self._check(TokenType.IDENTIFIER):
            name = self._advance().value
        params = self._parameter_list()
        body = self._block()
        return ast.FunctionExpression(name, params, body)

    def _array_literal(self) -> ast.ArrayLiteral:
        self._expect(TokenType.PUNCTUATOR, "[")
        elements: list[ast.Expression] = []
        if not self._check(TokenType.PUNCTUATOR, "]"):
            while True:
                elements.append(self._assignment_expression())
                if not self._match(TokenType.PUNCTUATOR, ","):
                    break
        self._expect(TokenType.PUNCTUATOR, "]")
        return ast.ArrayLiteral(elements)

    def _object_literal(self) -> ast.ObjectLiteral:
        self._expect(TokenType.PUNCTUATOR, "{")
        properties: list[tuple[str, ast.Expression]] = []
        if not self._check(TokenType.PUNCTUATOR, "}"):
            while True:
                key_token = self._peek()
                if key_token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    key = key_token.value
                elif key_token.type is TokenType.STRING:
                    key = key_token.value
                elif key_token.type is TokenType.NUMBER:
                    key = key_token.value
                else:
                    raise JsSyntaxError(
                        "expected property key", key_token.line, key_token.column
                    )
                self._advance()
                self._expect(TokenType.PUNCTUATOR, ":")
                properties.append((key, self._assignment_expression()))
                if not self._match(TokenType.PUNCTUATOR, ","):
                    break
        self._expect(TokenType.PUNCTUATOR, "}")
        return ast.ObjectLiteral(properties)


def parse_program(
    source: str, declarations: Optional[dict[str, ast.FunctionDeclaration]] = None
) -> ast.Program:
    """Parse ``source`` as a program, through the ``declarations`` memo
    when one is given."""
    return Parser(source, declarations).parse_program()


def parse_expression(source: str) -> ast.Expression:
    """Parse ``source`` as a single expression."""
    return Parser(source).parse_expression()
