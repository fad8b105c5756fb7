"""Boolean filter expressions for attribute filtering (Section 3.6).

``Collection.delete(expr)`` and ``Collection.query(vec, params, expr)`` take
boolean expressions over scalar fields, e.g.::

    price > 0 and label in ["book", "food"]
    10 <= price < 100 or not in_stock
    name like "acme%"

The module provides a tokenizer, a recursive-descent parser producing a small
AST, and a vectorized evaluator that turns an expression into a boolean numpy
mask over column arrays.  Parsing is independent of any schema; evaluation
raises :class:`ExpressionError` when a referenced field is missing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from repro.errors import ExpressionError

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<op><=|>=|==|!=|<|>|\(|\)|\[|\]|,|-)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "in", "like", "true", "false"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'float' | 'string' | 'op' | 'name' | 'kw' | 'end'
    value: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Split an expression into tokens, raising on illegal characters."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(
                f"illegal character {text[pos]!r} at position {pos} "
                f"in expression {text!r}")
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "ws":
            if kind == "name" and value.lower() in _KEYWORDS:
                tokens.append(Token("kw", value.lower(), pos))
            else:
                tokens.append(Token(kind, value, pos))
        pos = match.end()
    tokens.append(Token("end", "", pos))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Literal = Union[int, float, str, bool]


@dataclass(frozen=True)
class Field:
    """Reference to a scalar column."""
    name: str


@dataclass(frozen=True)
class Const:
    """A literal constant."""
    value: Literal


@dataclass(frozen=True)
class Compare:
    """A (possibly chained) comparison: ``ops[i]`` joins operand i, i+1."""
    operands: tuple[Union[Field, Const], ...]
    ops: tuple[str, ...]


@dataclass(frozen=True)
class InList:
    """``field in [a, b, c]`` membership (negated for ``not in``)."""
    operand: Union[Field, Const]
    items: tuple[Literal, ...]
    negated: bool = False


@dataclass(frozen=True)
class Like:
    """SQL-style ``like`` with ``%`` wildcards at either end."""
    operand: Field
    pattern: str


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


Node = Union[Compare, InList, Like, Not, And, Or, Field, Const]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, tokens: Sequence[Token], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._i = 0

    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _next(self) -> Token:
        token = self._tokens[self._i]
        self._i += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            raise ExpressionError(
                f"expected {value or kind} at position {token.pos} "
                f"in {self._text!r}, found {token.value!r}")
        return token

    def parse(self) -> Node:
        node = self._or_expr()
        trailing = self._peek()
        if trailing.kind != "end":
            raise ExpressionError(
                f"unexpected trailing {trailing.value!r} at "
                f"position {trailing.pos} in {self._text!r}")
        return node

    def _or_expr(self) -> Node:
        children = [self._and_expr()]
        while self._peek().kind == "kw" and self._peek().value == "or":
            self._next()
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and_expr(self) -> Node:
        children = [self._not_expr()]
        while self._peek().kind == "kw" and self._peek().value == "and":
            self._next()
            children.append(self._not_expr())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _not_expr(self) -> Node:
        if self._peek().kind == "kw" and self._peek().value == "not":
            self._next()
            return Not(self._not_expr())
        return self._primary()

    def _primary(self) -> Node:
        token = self._peek()
        if token.kind == "op" and token.value == "(":
            self._next()
            node = self._or_expr()
            self._expect("op", ")")
            return self._maybe_comparison(node)
        operand = self._operand()
        return self._maybe_comparison(operand)

    def _operand(self) -> Union[Field, Const]:
        token = self._next()
        if token.kind == "op" and token.value == "-":
            number = self._next()
            if number.kind == "int":
                return Const(-int(number.value))
            if number.kind == "float":
                return Const(-float(number.value))
            raise ExpressionError(
                f"expected a number after '-' at position {number.pos} "
                f"in {self._text!r}")
        if token.kind == "name":
            return Field(token.value)
        if token.kind == "int":
            return Const(int(token.value))
        if token.kind == "float":
            return Const(float(token.value))
        if token.kind == "string":
            return Const(_unquote(token.value))
        if token.kind == "kw" and token.value in ("true", "false"):
            return Const(token.value == "true")
        raise ExpressionError(
            f"expected an operand at position {token.pos} "
            f"in {self._text!r}, found {token.value!r}")

    def _maybe_comparison(self, first: Node) -> Node:
        token = self._peek()
        # in / not in / like only make sense on operand heads
        if isinstance(first, (Field, Const)):
            if token.kind == "kw" and token.value == "in":
                self._next()
                return InList(first, self._literal_list(), negated=False)
            if (token.kind == "kw" and token.value == "not"
                    and self._tokens[self._i + 1].value == "in"):
                self._next()
                self._next()
                return InList(first, self._literal_list(), negated=True)
            if token.kind == "kw" and token.value == "like":
                self._next()
                pattern = self._expect("string")
                if not isinstance(first, Field):
                    raise ExpressionError("like requires a field operand")
                return Like(first, _unquote(pattern.value))
            if token.kind == "op" and token.value in _COMPARE_OPS:
                operands: list[Union[Field, Const]] = [first]
                ops: list[str] = []
                while (self._peek().kind == "op"
                       and self._peek().value in _COMPARE_OPS):
                    ops.append(self._next().value)
                    operands.append(self._operand())
                return Compare(tuple(operands), tuple(ops))
            if isinstance(first, Field):
                # bare boolean field reference
                return first
            if isinstance(first, Const) and isinstance(first.value, bool):
                return first
            raise ExpressionError(
                f"operand {first!r} is not a boolean expression "
                f"in {self._text!r}")
        return first

    def _literal_list(self) -> tuple[Literal, ...]:
        self._expect("op", "[")
        items: list[Literal] = []
        if not (self._peek().kind == "op" and self._peek().value == "]"):
            while True:
                operand = self._operand()
                if not isinstance(operand, Const):
                    raise ExpressionError(
                        "in-lists may only contain literals")
                items.append(operand.value)
                token = self._next()
                if token.kind == "op" and token.value == "]":
                    break
                if not (token.kind == "op" and token.value == ","):
                    raise ExpressionError(
                        f"expected ',' or ']' at position {token.pos}")
        else:
            self._next()
        return tuple(items)


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\")


def parse(text: str) -> Node:
    """Parse a filter expression into an AST."""
    if not text or not text.strip():
        raise ExpressionError("empty filter expression")
    return _Parser(tokenize(text), text).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def fields_referenced(node: Node) -> set[str]:
    """The set of column names an expression reads."""
    if isinstance(node, Field):
        return {node.name}
    if isinstance(node, Const):
        return set()
    if isinstance(node, Compare):
        out: set[str] = set()
        for operand in node.operands:
            out |= fields_referenced(operand)
        return out
    if isinstance(node, InList):
        return fields_referenced(node.operand)
    if isinstance(node, Like):
        return {node.operand.name}
    if isinstance(node, Not):
        return fields_referenced(node.child)
    if isinstance(node, (And, Or)):
        out = set()
        for child in node.children:
            out |= fields_referenced(child)
        return out
    raise ExpressionError(f"unknown AST node {node!r}")


def _column(columns: Mapping[str, object], name: str, n: int) -> np.ndarray:
    try:
        raw = columns[name]
    except KeyError:
        raise ExpressionError(f"unknown field {name!r} in filter") from None
    arr = np.asarray(raw)
    if arr.shape[0] != n:
        raise ExpressionError(
            f"column {name!r} has {arr.shape[0]} rows, expected {n}")
    return arr


def _operand_values(operand: Union[Field, Const],
                    columns: Mapping[str, object], n: int) -> np.ndarray:
    if isinstance(operand, Field):
        return _column(columns, operand.name, n)
    return np.full(n, operand.value)


_OP_FUNCS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def evaluate(node: Node, columns: Mapping[str, object],
             n: int) -> np.ndarray:
    """Evaluate an AST into a boolean mask of length ``n``.

    ``columns`` maps field names to arrays (numpy arrays or lists) holding
    the scalar values of each entity in order.
    """
    if isinstance(node, Field):
        values = _column(columns, node.name, n)
        if values.dtype != np.bool_:
            raise ExpressionError(
                f"field {node.name!r} used as boolean but has "
                f"dtype {values.dtype}")
        return values
    if isinstance(node, Const):
        if not isinstance(node.value, bool):
            raise ExpressionError(
                f"constant {node.value!r} is not a boolean expression")
        return np.full(n, node.value, dtype=bool)
    if isinstance(node, Compare):
        mask = np.ones(n, dtype=bool)
        left = _operand_values(node.operands[0], columns, n)
        for op, rhs in zip(node.ops, node.operands[1:]):
            right = _operand_values(rhs, columns, n)
            try:
                mask &= _OP_FUNCS[op](left, right)
            except TypeError:   # numpy has no loop for the two kinds
                raise ExpressionError(
                    f"cannot compare {left.dtype} with {right.dtype} "
                    f"values ({op})") from None
            left = right
        return mask
    if isinstance(node, InList):
        values = _operand_values(node.operand, columns, n)
        mask = np.isin(values, np.asarray(list(node.items)))
        return ~mask if node.negated else mask
    if isinstance(node, Like):
        values = _column(columns, node.operand.name, n)
        return _like_mask(values, node.pattern)
    if isinstance(node, Not):
        return ~evaluate(node.child, columns, n)
    if isinstance(node, And):
        mask = np.ones(n, dtype=bool)
        for child in node.children:
            mask &= evaluate(child, columns, n)
        return mask
    if isinstance(node, Or):
        mask = np.zeros(n, dtype=bool)
        for child in node.children:
            mask |= evaluate(child, columns, n)
        return mask
    raise ExpressionError(f"unknown AST node {node!r}")


def _like_mask(values: np.ndarray, pattern: str) -> np.ndarray:
    """Vectorized LIKE with ``%`` wildcards at the ends (or exact match)."""
    strings = values.astype(str)
    starts = pattern.startswith("%")
    ends = pattern.endswith("%")
    core = pattern.strip("%")
    if "%" in core:
        regex = re.compile(
            "^" + ".*".join(re.escape(p) for p in pattern.split("%")) + "$")
        return np.fromiter((bool(regex.match(s)) for s in strings),
                           dtype=bool, count=len(strings))
    if starts and ends:
        return np.char.find(strings, core) >= 0
    if ends:
        return np.char.startswith(strings, core)
    if starts:
        return np.char.endswith(strings, core)
    return strings == core


class FilterExpression:
    """A parsed, reusable filter with convenience evaluation helpers."""

    def __init__(self, text: str) -> None:
        if not isinstance(text, str):
            raise ExpressionError(
                f"a filter expression is text, got {text!r}")
        self.text = text
        self.ast = parse(text)
        self.fields = frozenset(fields_referenced(self.ast))

    def mask(self, columns: Mapping[str, object], n: int) -> np.ndarray:
        """Boolean mask of the entities passing the filter."""
        return evaluate(self.ast, columns, n)

    def __repr__(self) -> str:
        return f"FilterExpression({self.text!r})"
