"""Abstract syntax tree for the JavaScript subset.

Plain dataclasses, one per construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

Expression = Union[
    "NumberLiteral",
    "StringLiteral",
    "BooleanLiteral",
    "NullLiteral",
    "UndefinedLiteral",
    "Identifier",
    "ThisExpression",
    "ArrayLiteral",
    "ObjectLiteral",
    "FunctionExpression",
    "UnaryOp",
    "UpdateOp",
    "BinaryOp",
    "LogicalOp",
    "Conditional",
    "Assignment",
    "Call",
    "New",
    "Member",
    "Index",
]

Statement = Union[
    "Program",
    "VarDeclaration",
    "FunctionDeclaration",
    "ExpressionStatement",
    "IfStatement",
    "WhileStatement",
    "ForStatement",
    "ForInStatement",
    "ReturnStatement",
    "BreakStatement",
    "ContinueStatement",
    "Block",
    "EmptyStatement",
]


@dataclass
class Node:
    pass


# -- expressions -------------------------------------------------------------


@dataclass
class NumberLiteral(Node):
    value: float


@dataclass
class StringLiteral(Node):
    value: str


@dataclass
class BooleanLiteral(Node):
    value: bool


@dataclass
class NullLiteral(Node):
    pass


@dataclass
class UndefinedLiteral(Node):
    pass


@dataclass
class Identifier(Node):
    name: str


@dataclass
class ThisExpression(Node):
    pass


@dataclass
class ArrayLiteral(Node):
    elements: list[Expression]


@dataclass
class ObjectLiteral(Node):
    #: (key, value) pairs in source order.
    properties: list[tuple[str, Expression]]


@dataclass
class FunctionExpression(Node):
    name: Optional[str]
    params: list[str]
    body: "Block"


@dataclass
class UnaryOp(Node):
    operator: str  # '-', '+', '!', 'typeof', 'delete'
    operand: Expression


@dataclass
class UpdateOp(Node):
    operator: str  # '++' or '--'
    target: Expression
    prefix: bool


@dataclass
class BinaryOp(Node):
    operator: str
    left: Expression
    right: Expression


@dataclass
class LogicalOp(Node):
    operator: str  # '&&' or '||'
    left: Expression
    right: Expression


@dataclass
class Conditional(Node):
    test: Expression
    consequent: Expression
    alternate: Expression


@dataclass
class Assignment(Node):
    operator: str  # '=', '+=', '-=', '*=', '/=', '%='
    target: Expression  # Identifier, Member or Index
    value: Expression


@dataclass
class Call(Node):
    callee: Expression
    arguments: list[Expression]


@dataclass
class New(Node):
    callee: Expression
    arguments: list[Expression]


@dataclass
class Member(Node):
    obj: Expression
    property: str


@dataclass
class Index(Node):
    obj: Expression
    index: Expression


# -- statements ---------------------------------------------------------------


@dataclass
class Program(Node):
    body: list[Statement]


@dataclass
class Block(Node):
    body: list[Statement]
    #: The interpreter's compiled form of this block as a function body,
    #: made on the function's first call (``None`` until then).
    code: Any = field(default=None, compare=False, repr=False)


@dataclass
class VarDeclaration(Node):
    #: (name, initializer or None) pairs.
    declarations: list[tuple[str, Optional[Expression]]]


@dataclass
class FunctionDeclaration(Node):
    name: str
    params: list[str]
    body: Block


@dataclass
class ExpressionStatement(Node):
    expression: Expression


@dataclass
class IfStatement(Node):
    test: Expression
    consequent: Statement
    alternate: Optional[Statement]


@dataclass
class WhileStatement(Node):
    test: Expression
    body: Statement


@dataclass
class DoWhileStatement(Node):
    body: Statement
    test: Expression


@dataclass
class SwitchStatement(Node):
    discriminant: Expression
    #: (test expression or None for default, statement list) in order.
    cases: list[tuple[Optional[Expression], list[Statement]]]


@dataclass
class ThrowStatement(Node):
    argument: Expression


@dataclass
class TryStatement(Node):
    block: "Block"
    catch_param: Optional[str]
    catch_block: Optional["Block"]
    finally_block: Optional["Block"]


@dataclass
class ForStatement(Node):
    init: Optional[Statement]
    test: Optional[Expression]
    update: Optional[Expression]
    body: Statement


@dataclass
class ForInStatement(Node):
    variable: str
    declare: bool
    obj: Expression
    body: Statement


@dataclass
class ReturnStatement(Node):
    argument: Optional[Expression]


@dataclass
class BreakStatement(Node):
    pass


@dataclass
class ContinueStatement(Node):
    pass


@dataclass
class EmptyStatement(Node):
    pass
