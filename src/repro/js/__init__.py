"""JavaScript substrate: lexer, parser, interpreter and call stack.

A from-scratch interpreter for the JavaScript subset that AJAX pages
exercise.  It replaces the Rhino engine of the thesis and reproduces the
Rhino facility hot-node detection depends on (section 4.4): an
inspectable call stack with actual argument values.
"""

from repro.js.callstack import CallStack, StackFrame
from repro.js.environment import Environment
from repro.js.interpreter import Interpreter, JsStepLimitError, JsThrownValue
from repro.js.lexer import Lexer, tokenize
from repro.js.parser import Parser, parse_expression, parse_program
from repro.js.values import (
    HostConstructor,
    HostObject,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    is_callable,
    is_truthy,
    to_number,
    to_string,
    type_of,
)

__all__ = [
    "CallStack",
    "StackFrame",
    "Environment",
    "Interpreter",
    "JsStepLimitError",
    "JsThrownValue",
    "Lexer",
    "tokenize",
    "Parser",
    "parse_expression",
    "parse_program",
    "HostConstructor",
    "HostObject",
    "JSArray",
    "JSFunction",
    "JSObject",
    "NativeFunction",
    "UNDEFINED",
    "is_callable",
    "is_truthy",
    "to_number",
    "to_string",
    "type_of",
]
