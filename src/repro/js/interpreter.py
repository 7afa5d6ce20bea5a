"""Closure compiler and runtime for the JavaScript subset.

Feature set: closures, ``this`` binding on method calls, ``new`` with
host constructors, arrays/objects, string and array built-in methods,
``for``/``for-in``/``while`` loops, and short-circuit logic — everything
the synthetic AJAX pages (and the thesis' YouTube scripts) exercise.

A parsed program is compiled once into a tree of Python closures, each
``code(interpreter, env)``; a function body is compiled on its first
call and kept on its AST block.  Every decision the AST fixes (which
node, which operator, which property name, which literal) is taken at
compile time, so running a closure only does what the script does.
The compiled code holds no interpreter: one program serves every page
of a crawl (``Browser.programs``).

For the crawler it keeps a **call stack** of
:class:`~repro.js.callstack.StackFrame` objects with function names and
*actual argument values*, which hot-node detection inspects when
``XMLHttpRequest.send`` fires (the thesis' ``StackInfo``, section 4.4.1).

The interpreter counts evaluation steps so the browser can charge
virtual time for script execution, and aborts scripts that exceed
``max_steps`` (the thesis' guard against infinite loops, section 3.2).
A step is one statement or expression node entered, plus one per loop
iteration.  A closure charges the steps of its node (and of ancestors
entered just before it with nothing in between) on entry, so ``steps``
and the point where the budget runs out are those of a walk over the
tree.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import JsReferenceError, JsRuntimeError, JsSyntaxError, JsTypeError
from repro.js import ast
from repro.js.builtins import ARRAY_METHODS, NUMBER_METHODS, STRING_METHODS, install_globals
from repro.js.callstack import CallStack, StackFrame
from repro.js.environment import Environment
from repro.js.parser import parse_expression, parse_program
from repro.js.values import (
    BINARY_OPERATORS,
    HostConstructor,
    HostObject,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    is_truthy,
    strict_equals,
    to_number,
    to_string,
    type_of,
)

#: ``code(interpreter, env)``: one compiled statement or expression.
Code = Callable[["Interpreter", Environment], Any]



class JsStepLimitError(JsRuntimeError):
    """A script exceeded the interpreter's step budget (infinite loop guard)."""


class JsThrownValue(JsRuntimeError):
    """A script-level ``throw`` whose value no script handler caught."""

    def __init__(self, value: Any) -> None:
        super().__init__(f"uncaught JavaScript exception: {to_string(value)}")
        self.value = value


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Interpreter:
    """Runs compiled programs against a global environment."""

    #: Script call-stack ceiling.  Each JS frame costs a handful of
    #: Python frames (invoke -> body -> statement -> expression chains),
    #: so this must stay well under ``sys.getrecursionlimit()`` for
    #: runaway recursion to surface as a catchable JsRuntimeError (the
    #: engines' "maximum call stack size exceeded") rather than a Python
    #: RecursionError.
    MAX_CALL_DEPTH = 32

    #: Bound on a program memo, cleared wholesale when full (as the digest memo is).
    PROGRAM_MEMO_LIMIT = 4096

    def __init__(self, max_steps: int = 2_000_000) -> None:
        self.global_env = Environment()
        self.call_stack = CallStack()
        self.max_steps = max_steps
        self.steps = 0
        #: Source -> compiled program; a ``Browser`` shares one across its pages.
        self.programs: dict[str, Code] = {}
        #: Source text of a top-level function declaration -> its AST, for
        #: :meth:`run_once`; a ``Browser`` shares one across its pages.
        self.declarations: dict[str, ast.FunctionDeclaration] = {}
        install_globals(self.global_env)

    # -- public API -------------------------------------------------------------

    def run(self, source: str) -> Any:
        """Parse, compile and execute ``source``; returns the last
        statement's value.

        A source is compiled once per :attr:`programs` memo (handlers are
        dispatched over and over); a source that fails to parse is not
        remembered and raises again on every run.
        """
        code = self.programs.get(source)
        if code is None:
            if len(self.programs) >= self.PROGRAM_MEMO_LIMIT:
                self.programs.clear()
            code = self.programs[source] = compile_program(parse_program(source))
        return self._run(code)

    def run_once(self, source: str) -> Any:
        """:meth:`run` for a source run once (an inline script): the
        program is not remembered, but each top-level function
        declaration is, by its exact text in :attr:`declarations`, so a
        declaration every page repeats is lexed, parsed and (its body,
        on first call) compiled once.  The memo is cleared wholesale
        when full, checked before each script."""
        if len(self.declarations) >= self.PROGRAM_MEMO_LIMIT:
            self.declarations.clear()
        return self._run(compile_program(parse_program(source, self.declarations)))

    def eval_expression(self, source: str) -> Any:
        """Parse and evaluate a single expression."""
        return _expression(parse_expression(source))(self, self.global_env)

    def execute_program(self, program: ast.Program) -> Any:
        """Compile and execute an already-parsed program in the global scope."""
        return self._run(compile_program(program))

    def call_function(self, function: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        """Invoke a JS or native function from Python."""
        return self._invoke(function, args, this)

    def define_global(self, name: str, value: Any) -> None:
        """Bind ``name`` in the global scope (host objects, builtins)."""
        self.global_env.declare(name, value)

    # -- execution --------------------------------------------------------------

    def _run(self, code: Code) -> Any:
        try:
            return code(self, self.global_env)
        except _Return:
            raise JsSyntaxError("return statement outside function") from None
        except _Break:
            raise JsSyntaxError("break statement outside loop") from None
        except _Continue:
            raise JsSyntaxError("continue statement outside loop") from None

    def _invoke(self, function: Any, args: list[Any], this: Any) -> Any:
        if isinstance(function, JSFunction):
            native = False
        elif isinstance(function, NativeFunction):
            native = True
            if function.receiver is not None:
                this = function.receiver
        elif isinstance(function, HostConstructor):
            return function.construct(self, args)
        else:
            raise JsTypeError(f"{to_string(function)} is not a function")
        call_stack = self.call_stack
        if len(call_stack) >= self.MAX_CALL_DEPTH:
            raise JsRuntimeError("maximum call stack size exceeded")
        call_stack.push(StackFrame(function.name or "<anonymous>", list(args), native=native))
        try:
            if native:
                return function.fn(self, this, args)
            body = function.body
            code = body.code
            if code is None:
                code = body.code = _function_body(body)
            return code(self, function, args, this)
        except (_Break, _Continue):
            raise JsRuntimeError("break/continue outside loop") from None
        finally:
            call_stack.pop()


def _exceed(rt: Interpreter) -> None:
    """Stop a script whose next step passes the budget.  Charging stops
    at the first step past it, as one tick at a time would."""
    rt.steps = max(rt.steps + 1, rt.max_steps + 1)
    raise JsStepLimitError(f"script exceeded {rt.max_steps} interpreter steps (infinite loop?)")


# -- programs, blocks and function bodies ------------------------------------------


def compile_program(program: ast.Program) -> Code:
    """The closure that runs ``program`` (in the global scope, as given)."""
    return _sequence(program.body, 0)


def _hoisting(statements: list[ast.Statement]) -> list[ast.FunctionDeclaration]:
    return [s for s in statements if isinstance(s, ast.FunctionDeclaration)]


def _hoist(declarations: list[ast.FunctionDeclaration], env: Environment) -> None:
    """Pre-declare function declarations so forward calls work."""
    for d in declarations:
        env.declare(d.name, JSFunction(d.name, d.params, d.body, env))


def _sequence(statements: list[ast.Statement], charge: int) -> Code:
    """A program or block: hoist, run each statement, answer the last
    value.  ``charge`` is the block's own steps (0 for a program)."""
    hoisted = _hoisting(statements)
    if not statements:
        return _constant(UNDEFINED, charge)
    if not hoisted:
        # Nothing runs between the block's steps and its first statement's.
        codes = [_statement(statements[0], charge + 1)] + [_statement(s) for s in statements[1:]]
        if len(codes) == 1:
            return codes[0]

        def run(rt: Interpreter, env: Environment) -> Any:
            for code in codes:
                result = code(rt, env)
            return result

        return run
    codes = [_statement(s) for s in statements]

    def run_hoisting(rt: Interpreter, env: Environment) -> Any:
        if charge:
            if (s := rt.steps + charge) > rt.max_steps:
                _exceed(rt)
            rt.steps = s
        _hoist(hoisted, env)
        for code in codes:
            result = code(rt, env)
        return result

    return run_hoisting


def _function_body(block: ast.Block) -> Callable[..., Any]:
    """``call(interpreter, function, args, this)`` for a function whose
    body is ``block``: binds the call's scope, runs the statements, and
    answers what ``return`` gives.  A ``return`` at the body's top level
    answers directly; one nested deeper unwinds to here."""
    statements = block.body
    hoisted = _hoisting(statements)
    tail: Optional[Code] = None
    for index, statement in enumerate(statements):
        if isinstance(statement, ast.ReturnStatement):
            # What follows a top-level return never runs.
            statements = statements[:index]
            tail = (
                _constant(UNDEFINED, 1)
                if statement.argument is None
                else _expression(statement.argument, 2)
            )
            break
    codes = [_statement(s) for s in statements]

    def call(rt: Interpreter, function: JSFunction, args: list[Any], this: Any) -> Any:
        env = Environment.for_call(function.closure, this, args, function.params)
        if hoisted:
            _hoist(hoisted, env)
        try:
            for code in codes:
                code(rt, env)
            return UNDEFINED if tail is None else tail(rt, env)
        except _Return as ret:
            return ret.value

    return call


# -- statements -----------------------------------------------------------------


def _statement(node: ast.Statement, charge: int = 1) -> Code:
    """Compile a statement that takes ``charge`` steps on entry (its own
    one plus those of ancestors entered just before it)."""
    compiler = _STATEMENTS.get(type(node))
    if compiler is None:
        return _failing(f"cannot execute {type(node).__name__}", charge)
    return compiler(node, charge)


def _failing(message: str, charge: int) -> Code:
    """A node no compiler knows: it takes its steps, then raises."""

    def fail(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        raise JsRuntimeError(message)

    return fail


def _var_declaration(node: ast.VarDeclaration, charge: int) -> Code:
    declarations = node.declarations
    if len(declarations) == 1 and declarations[0][1] is not None:
        name, initializer = declarations[0]
        value = _expression(initializer, charge + 1)

        def declare_one(rt: Interpreter, env: Environment) -> Any:
            env.declare(name, value(rt, env))
            return UNDEFINED

        return declare_one
    compiled = [(name, None if init is None else _expression(init)) for name, init in declarations]

    def declare(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        for name, code in compiled:
            env.declare(name, UNDEFINED if code is None else code(rt, env))
        return UNDEFINED

    return declare


def _function_declaration(node: ast.FunctionDeclaration, charge: int) -> Code:
    name, params, body = node.name, node.params, node.body

    def declare(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        env.declare(name, JSFunction(name, params, body, env))
        return UNDEFINED

    return declare


def _expression_statement(node: ast.ExpressionStatement, charge: int) -> Code:
    return _expression(node.expression, charge + 1)


def _if_statement(node: ast.IfStatement, charge: int) -> Code:
    test = _test(node.test, charge + 1)
    consequent = _statement(node.consequent)
    alternate = _constant(UNDEFINED, 0) if node.alternate is None else _statement(node.alternate)
    return lambda rt, env: consequent(rt, env) if test(rt, env) else alternate(rt, env)


def _while_statement(node: ast.WhileStatement, charge: int) -> Code:
    test = _test(node.test)
    body = _statement(node.body, 2)  # the iteration's step, then the body's

    def loop(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        while test(rt, env):
            try:
                body(rt, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    return loop


def _do_while_statement(node: ast.DoWhileStatement, charge: int) -> Code:
    body = _statement(node.body, 2)
    test = _test(node.test)

    def loop(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        while True:
            try:
                body(rt, env)
            except _Break:
                break
            except _Continue:
                pass
            if not test(rt, env):
                break
        return UNDEFINED

    return loop


def _for_statement(node: ast.ForStatement, charge: int) -> Code:
    init = None if node.init is None else _statement(node.init, charge + 1)
    test = None if node.test is None else _test(node.test)
    update = None if node.update is None else _expression(node.update)
    body = _statement(node.body, 2)

    def loop(rt: Interpreter, env: Environment) -> Any:
        if init is None:
            if (s := rt.steps + charge) > rt.max_steps:
                _exceed(rt)
            rt.steps = s
        else:
            init(rt, env)
        while test is None or test(rt, env):
            try:
                body(rt, env)
            except _Break:
                break
            except _Continue:
                pass
            if update is not None:
                update(rt, env)
        return UNDEFINED

    return loop


def _for_in_statement(node: ast.ForInStatement, charge: int) -> Code:
    subject = _expression(node.obj, charge + 1)
    variable, declare = node.variable, node.declare
    body = _statement(node.body)

    def loop(rt: Interpreter, env: Environment) -> Any:
        obj = subject(rt, env)
        if isinstance(obj, JSObject):
            keys = obj.keys()
        elif isinstance(obj, JSArray):
            keys = [str(index) for index in range(obj.length)]
        elif isinstance(obj, HostObject):
            keys = obj.js_keys()
        elif obj is UNDEFINED or obj is None:
            keys = []
        else:
            raise JsTypeError(f"cannot enumerate {type_of(obj)}")
        if declare:
            env.declare(variable)
        for key in keys:
            if (s := rt.steps + 1) > rt.max_steps:
                _exceed(rt)
            rt.steps = s
            env.assign(variable, key)
            try:
                body(rt, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    return loop


def _switch_statement(node: ast.SwitchStatement, charge: int) -> Code:
    discriminant = _expression(node.discriminant, charge + 1)
    cases = [
        (None if test is None else _expression(test), [_statement(s) for s in body])
        for test, body in node.cases
    ]

    def switch(rt: Interpreter, env: Environment) -> Any:
        value = discriminant(rt, env)
        matched = False
        default_index: Optional[int] = None
        try:
            for index, (test, body) in enumerate(cases):
                if not matched:
                    if test is None:
                        default_index = index
                        continue
                    if not strict_equals(value, test(rt, env)):
                        continue
                    matched = True
                for code in body:
                    code(rt, env)
            if not matched and default_index is not None:
                # Fall through from the default clause onward.
                for _, body in cases[default_index:]:
                    for code in body:
                        code(rt, env)
        except _Break:
            pass
        return UNDEFINED

    return switch


def _throw_statement(node: ast.ThrowStatement, charge: int) -> Code:
    argument = _expression(node.argument, charge + 1)

    def throw(rt: Interpreter, env: Environment) -> Any:
        raise JsThrownValue(argument(rt, env))

    return throw


def _try_statement(node: ast.TryStatement, charge: int) -> Code:
    block = _statement(node.block)
    catch_name = node.catch_param or "exception"
    handler = None if node.catch_block is None else _statement(node.catch_block)
    finalizer = None if node.finally_block is None else _statement(node.finally_block)

    def catch(rt: Interpreter, env: Environment, value: Any) -> None:
        catch_env = Environment(env)
        catch_env.declare(catch_name, value)
        handler(rt, catch_env)

    def try_(rt: Interpreter, env: Environment) -> Any:
        # The try's own steps come before the protected region.
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        try:
            block(rt, env)
        except JsThrownValue as thrown:
            if handler is None:
                raise
            catch(rt, env, thrown.value)
        except JsRuntimeError as error:
            # Runtime errors are catchable like browser engines do —
            # except the step-limit guard, which must kill the script.
            if handler is None or isinstance(error, JsStepLimitError):
                raise
            catch(rt, env, str(error))
        finally:
            if finalizer is not None:
                finalizer(rt, env)
        return UNDEFINED

    return try_


def _return_statement(node: ast.ReturnStatement, charge: int) -> Code:
    argument = (
        _constant(UNDEFINED, charge)
        if node.argument is None
        else _expression(node.argument, charge + 1)
    )

    def return_(rt: Interpreter, env: Environment) -> Any:
        raise _Return(argument(rt, env))

    return return_


def _jump(exception: type) -> Callable[[Any, int], Code]:
    def compile_jump(node: Any, charge: int) -> Code:
        def jump(rt: Interpreter, env: Environment) -> Any:
            if (s := rt.steps + charge) > rt.max_steps:
                _exceed(rt)
            rt.steps = s
            raise exception()

        return jump

    return compile_jump


_STATEMENTS: dict[type, Callable[[Any, int], Code]] = {
    ast.Program: lambda node, charge: _sequence(node.body, charge),
    ast.Block: lambda node, charge: _sequence(node.body, charge),
    ast.VarDeclaration: _var_declaration,
    ast.FunctionDeclaration: _function_declaration,
    ast.ExpressionStatement: _expression_statement,
    ast.IfStatement: _if_statement,
    ast.WhileStatement: _while_statement,
    ast.DoWhileStatement: _do_while_statement,
    ast.SwitchStatement: _switch_statement,
    ast.ThrowStatement: _throw_statement,
    ast.TryStatement: _try_statement,
    ast.ForStatement: _for_statement,
    ast.ForInStatement: _for_in_statement,
    ast.ReturnStatement: _return_statement,
    ast.BreakStatement: _jump(_Break),
    ast.ContinueStatement: _jump(_Continue),
    ast.EmptyStatement: lambda node, charge: _constant(UNDEFINED, charge),
}


# -- expressions -------------------------------------------------------------------


def _expression(node: ast.Expression, charge: int = 1) -> Code:
    """Compile an expression that takes ``charge`` steps on entry."""
    compiler = _EXPRESSIONS.get(type(node))
    if compiler is None:
        return _failing(f"cannot evaluate {type(node).__name__}", charge)
    return compiler(node, charge)


#: Operators whose answer is always a Python ``bool``.
_BOOLEAN_OPERATORS = frozenset({"==", "!=", "===", "!==", "<", ">", "<=", ">=", "in"})


def _test(node: ast.Expression, charge: int = 1) -> Code:
    """Compile a condition to a closure answering a Python truth value."""
    code = _expression(node, charge)
    if (isinstance(node, ast.BinaryOp) and node.operator in _BOOLEAN_OPERATORS) or (
        isinstance(node, ast.UnaryOp) and node.operator == "!"
    ):
        return code
    return lambda rt, env: is_truthy(code(rt, env))


def _constant(value: Any, charge: int) -> Code:
    if not charge:
        return lambda rt, env: value

    def constant(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        return value

    return constant


def _literal(node: Any, charge: int) -> Code:
    return _constant(getattr(node, "value", None), charge)


def _identifier(node: ast.Identifier, charge: int) -> Code:
    name = node.name

    def identifier(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        scope = env
        while scope is not None:
            bindings = scope.bindings
            if name in bindings:
                return bindings[name]
            scope = scope.parent
        raise JsReferenceError(f"{name} is not defined")

    return identifier


def _this(node: ast.ThisExpression, charge: int) -> Code:
    def this(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        return env.get("this") if env.is_declared("this") else UNDEFINED

    return this


def _array_literal(node: ast.ArrayLiteral, charge: int) -> Code:
    elements = [_expression(element) for element in node.elements]

    def array(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        return JSArray([element(rt, env) for element in elements])

    return array


def _object_literal(node: ast.ObjectLiteral, charge: int) -> Code:
    properties = [(key, _expression(value)) for key, value in node.properties]

    def obj(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        return JSObject({key: value(rt, env) for key, value in properties})

    return obj


def _function_expression(node: ast.FunctionExpression, charge: int) -> Code:
    name, params, body = node.name, node.params, node.body

    def function(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        return JSFunction(name, params, body, env)

    return function


def _unary_op(node: ast.UnaryOp, charge: int) -> Code:
    operator, operand = node.operator, node.operand
    if operator == "typeof" and isinstance(operand, ast.Identifier):
        # typeof tolerates unresolvable identifiers.
        name, value = operand.name, _expression(operand)

        def type_of_name(rt: Interpreter, env: Environment) -> Any:
            if (s := rt.steps + charge) > rt.max_steps:
                _exceed(rt)
            rt.steps = s
            return type_of(value(rt, env)) if env.is_declared(name) else "undefined"

        return type_of_name
    if operator == "delete":
        return _delete(operand, charge)
    value = _expression(operand, charge + 1)
    if operator == "!":
        return lambda rt, env: not is_truthy(value(rt, env))
    if operator == "-":
        return lambda rt, env: -to_number(value(rt, env))
    if operator == "+":
        return lambda rt, env: to_number(value(rt, env))
    if operator == "typeof":
        return lambda rt, env: type_of(value(rt, env))

    def unknown(rt: Interpreter, env: Environment) -> Any:
        value(rt, env)
        raise JsRuntimeError(f"unknown unary operator {operator}")

    return unknown


def _delete(target: ast.Expression, charge: int) -> Code:
    if not isinstance(target, (ast.Member, ast.Index)):
        return _constant(True, charge)
    subject = _expression(target.obj, charge + 1)
    key = (
        _constant(target.property, 0)
        if isinstance(target, ast.Member)
        else _expression(target.index)
    )

    def delete(rt: Interpreter, env: Environment) -> Any:
        obj = subject(rt, env)
        name = to_string(key(rt, env))
        if isinstance(obj, JSObject):
            return obj.delete(name)
        raise JsTypeError("delete is only supported on plain objects")

    return delete


def _reference(
    target: ast.Expression, charge: int = 1
) -> tuple[Callable[..., Any], Callable[..., None]]:
    """``(read(rt, env), write(rt, env, value))`` for an assignment
    target; each evaluates the target's object (and index) afresh, the
    first with ``charge`` steps on entry."""
    if isinstance(target, ast.Identifier):
        name = target.name
        return (lambda rt, env: env.get(name)), (lambda rt, env, value: env.assign(name, value))
    if isinstance(target, ast.Member):
        name, get = target.property, _member_getter(target.property)
        read_obj, write_obj = _expression(target.obj, charge), _expression(target.obj)
        return (
            (lambda rt, env: get(read_obj(rt, env))),
            (lambda rt, env, value: _set_member(write_obj(rt, env), name, value)),
        )
    if isinstance(target, ast.Index):
        read_obj, write_obj = _expression(target.obj, charge), _expression(target.obj)
        index = _expression(target.index)
        return (
            (lambda rt, env: _get_indexed(read_obj(rt, env), index(rt, env))),
            (lambda rt, env, value: _set_indexed(write_obj(rt, env), index(rt, env), value)),
        )

    def invalid(*args: Any) -> Any:
        raise JsTypeError("invalid assignment target")

    return invalid, invalid


def _update_op(node: ast.UpdateOp, charge: int) -> Code:
    read, write = _reference(node.target)
    step = 1.0 if node.operator == "++" else -1.0
    prefix = node.prefix

    def update(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        old = to_number(read(rt, env))
        new = old + step
        write(rt, env, new)
        return new if prefix else old

    return update


def _assignment(node: ast.Assignment, charge: int) -> Code:
    target = node.target
    if node.operator == "=":
        value = _expression(node.value, charge + 1)
        if isinstance(target, ast.Identifier):
            name = target.name

            def assign_name(rt: Interpreter, env: Environment) -> Any:
                result = value(rt, env)
                env.assign(name, result)
                return result

            return assign_name
        _, write = _reference(target)

        def assign(rt: Interpreter, env: Environment) -> Any:
            result = value(rt, env)
            write(rt, env, result)
            return result

        return assign
    read, write = _reference(target)
    operand = _expression(node.value)
    operator = _binary_operator(node.operator[0])

    def compound(rt: Interpreter, env: Environment) -> Any:
        if (s := rt.steps + charge) > rt.max_steps:
            _exceed(rt)
        rt.steps = s
        current = read(rt, env)
        result = operator(current, operand(rt, env))
        write(rt, env, result)
        return result

    return compound


def _binary_op(node: ast.BinaryOp, charge: int) -> Code:
    operator = _binary_operator(node.operator)
    left = _expression(node.left, charge + 1)
    right_node = node.right
    if isinstance(right_node, (ast.NumberLiteral, ast.StringLiteral)):
        constant = right_node.value

        def binary_constant(rt: Interpreter, env: Environment) -> Any:
            value = left(rt, env)
            if (s := rt.steps + 1) > rt.max_steps:
                _exceed(rt)
            rt.steps = s
            return operator(value, constant)

        return binary_constant
    right = _expression(right_node)
    return lambda rt, env: operator(left(rt, env), right(rt, env))


def _logical_op(node: ast.LogicalOp, charge: int) -> Code:
    left = _expression(node.left, charge + 1)
    right = _expression(node.right)
    if node.operator == "&&":

        def and_(rt: Interpreter, env: Environment) -> Any:
            value = left(rt, env)
            return right(rt, env) if is_truthy(value) else value

        return and_

    def or_(rt: Interpreter, env: Environment) -> Any:
        value = left(rt, env)
        return value if is_truthy(value) else right(rt, env)

    return or_


def _conditional(node: ast.Conditional, charge: int) -> Code:
    test = _test(node.test, charge + 1)
    consequent, alternate = _expression(node.consequent), _expression(node.alternate)
    return lambda rt, env: consequent(rt, env) if test(rt, env) else alternate(rt, env)


def _member(node: ast.Member, charge: int) -> Code:
    get = _member_getter(node.property)
    obj = _expression(node.obj, charge + 1)
    return lambda rt, env: get(obj(rt, env))


def _index(node: ast.Index, charge: int) -> Code:
    obj = _expression(node.obj, charge + 1)
    index = _expression(node.index)
    return lambda rt, env: _get_indexed(obj(rt, env), index(rt, env))


def _arguments(nodes: list[ast.Expression]) -> Code:
    """The closure that evaluates a call's arguments, in order, to a list."""
    codes = [_expression(node) for node in nodes]
    if not codes:
        return lambda rt, env: []
    if len(codes) == 1:
        (first,) = codes
        return lambda rt, env: [first(rt, env)]
    if len(codes) == 2:
        first, second = codes
        return lambda rt, env: [first(rt, env), second(rt, env)]
    return lambda rt, env: [code(rt, env) for code in codes]


def _call(node: ast.Call, charge: int) -> Code:
    callee = node.callee
    arguments = _arguments(node.arguments)
    if isinstance(callee, ast.Member):
        get = _member_getter(callee.property)
        receiver = _expression(callee.obj, charge + 1)

        def call_method(rt: Interpreter, env: Environment) -> Any:
            this = receiver(rt, env)
            function = get(this)
            return rt._invoke(function, arguments(rt, env), this)

        return call_method
    if isinstance(callee, ast.Index):
        receiver = _expression(callee.obj, charge + 1)
        index = _expression(callee.index)

        def call_indexed(rt: Interpreter, env: Environment) -> Any:
            this = receiver(rt, env)
            function = _get_indexed(this, index(rt, env))
            return rt._invoke(function, arguments(rt, env), this)

        return call_indexed
    function = _expression(callee, charge + 1)
    return lambda rt, env: rt._invoke(function(rt, env), arguments(rt, env), UNDEFINED)


def _new(node: ast.New, charge: int) -> Code:
    callee = _expression(node.callee, charge + 1)
    arguments = _arguments(node.arguments)

    def new(rt: Interpreter, env: Environment) -> Any:
        constructor = callee(rt, env)
        args = arguments(rt, env)
        if isinstance(constructor, HostConstructor):
            return constructor.construct(rt, args)
        if isinstance(constructor, JSFunction):
            instance = JSObject()
            rt._invoke(constructor, args, instance)
            return instance
        raise JsTypeError(f"{to_string(constructor)} is not a constructor")

    return new


_EXPRESSIONS: dict[type, Callable[[Any, int], Code]] = {
    ast.NumberLiteral: _literal,
    ast.StringLiteral: _literal,
    ast.BooleanLiteral: _literal,
    ast.NullLiteral: _literal,
    ast.UndefinedLiteral: lambda node, charge: _constant(UNDEFINED, charge),
    ast.Identifier: _identifier,
    ast.ThisExpression: _this,
    ast.ArrayLiteral: _array_literal,
    ast.ObjectLiteral: _object_literal,
    ast.FunctionExpression: _function_expression,
    ast.UnaryOp: _unary_op,
    ast.UpdateOp: _update_op,
    ast.BinaryOp: _binary_op,
    ast.LogicalOp: _logical_op,
    ast.Conditional: _conditional,
    ast.Assignment: _assignment,
    ast.Call: _call,
    ast.New: _new,
    ast.Member: _member,
    ast.Index: _index,
}


# -- member protocol -----------------------------------------------------------------


def _get_member(obj: Any, name: str) -> Any:
    if obj is UNDEFINED or obj is None:
        raise JsTypeError(f"cannot read property {name!r} of {to_string(obj)}")
    if isinstance(obj, HostObject):
        return obj.js_get(name)
    if isinstance(obj, JSObject):
        return obj.get(name)
    if isinstance(obj, JSArray):
        return _native(obj, name, ARRAY_METHODS, float(obj.length))
    if isinstance(obj, str):
        return _native(obj, name, STRING_METHODS, float(len(obj)))
    if isinstance(obj, (int, float)):
        return _native(obj, name, NUMBER_METHODS, UNDEFINED)
    raise JsTypeError(f"cannot read property {name!r} of {type_of(obj)}")


def _native(obj: Any, name: str, methods: dict[str, Any], length: Any) -> Any:
    """Member ``name`` of a primitive or array: its length, or one of
    ``methods`` bound to it."""
    if name == "length":
        return length
    method = methods.get(name)
    return UNDEFINED if method is None else NativeFunction(name, method, obj)


def _member_getter(name: str) -> Callable[[Any], Any]:
    """``get(obj)`` reading property ``name``: :func:`_get_member` with
    the name's tables looked up once, here."""
    if name == "length":

        def get_length(obj: Any) -> Any:
            if isinstance(obj, JSArray):
                return float(len(obj.elements))
            if isinstance(obj, str):
                return float(len(obj))
            return _get_member(obj, name)

        return get_length
    array_method = ARRAY_METHODS.get(name)
    string_method = STRING_METHODS.get(name)

    def get(obj: Any) -> Any:
        if isinstance(obj, HostObject):
            return obj.js_get(name)
        if isinstance(obj, JSObject):
            return obj.get(name)
        if isinstance(obj, JSArray):
            return UNDEFINED if array_method is None else NativeFunction(name, array_method, obj)
        if isinstance(obj, str):
            return UNDEFINED if string_method is None else NativeFunction(name, string_method, obj)
        return _get_member(obj, name)

    return get


def _set_member(obj: Any, name: str, value: Any) -> None:
    if isinstance(obj, HostObject):
        obj.js_set(name, value)
    elif isinstance(obj, JSObject):
        obj.set(name, value)
    elif isinstance(obj, JSArray) and name == "length":
        obj.set_length(value)
    else:
        raise JsTypeError(f"cannot set property {name!r} on {type_of(obj)}")


def _is_number(key: Any) -> bool:
    return isinstance(key, (int, float)) and not isinstance(key, bool)


def _get_indexed(obj: Any, key: Any) -> Any:
    if _is_number(key) and isinstance(obj, (JSArray, str)):
        # A fraction, NaN and the infinities index nothing.
        index = int(key) if key % 1 == 0 else -1
        if isinstance(obj, JSArray):
            return obj.get_index(index)
        return obj[index] if 0 <= index < len(obj) else UNDEFINED
    return _get_member(obj, to_string(key))


def _set_indexed(obj: Any, key: Any, value: Any) -> None:
    # A fraction names a property, and an array holds none.
    if isinstance(obj, JSArray) and _is_number(key) and not 0 < key % 1 < 1:
        obj.set_index(key, value)
    else:
        _set_member(obj, to_string(key), value)


def _binary_operator(operator: str) -> Callable[[Any, Any], Any]:
    function = BINARY_OPERATORS.get(operator)
    if function is not None:
        return function

    def unknown(left: Any, right: Any) -> Any:
        raise JsRuntimeError(f"unknown binary operator {operator}")

    return unknown
