"""Compiler and evaluator for closed-form source expressions.

The grammar is Python arithmetic with '^' for the power, and with
Python's precedence ('^' is right-associative and binds tighter than a
unary sign on its left: -2^2 = -4, 2^-2 = 0.25, 2^3^2 = 512):

    expr := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'
          | ('+' | '-') expr | expr ('+' | '-' | '*' | '/' | '^') expr

NUMBER is a decimal literal of ASCII digits (2, .5, 1., 1e-3); '**' is rejected.
Python's parser (`ast`) reads the text, so an integer literal has no
leading zeros (007 is rejected; 0 and 007.5 are fine) and a parameter
is not named after a Python keyword (in, if, ...).

Names resolve to the functions sin, cos, exp, the constants pi and e,
the coordinates (x for dim 1, x1..xd otherwise), or declared parameter
names.  Anything else is rejected at compile time with a position.  The
checked tree is flattened to postfix steps, so neither checking nor
evaluating it recurses.  Evaluation is vectorized over numpy arrays of points,
or over a grid's per-axis coordinates, broadcast against each other.
"""

from __future__ import annotations

import ast
import bisect
import itertools
import keyword
import operator
import re

import numpy as np

from .errors import ExpressionError
from .record import Record

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: np.power}

# The first character outside the grammar's alphabet, or a literal '**'.
_OUTSIDE = re.compile(r"\*\*|[^\sA-Za-z0-9_.+\-*/^()]")
_BLANK = re.compile(r"\s")
_NUMBER = re.compile(r"[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?")


def _name_step(name: str, dim: int, parameters: tuple[str, ...]):
    """The step that loads `name`, or None if it names nothing."""
    if name in _CONSTANTS:
        return ("num", _CONSTANTS[name])
    if name in parameters:
        return ("param", name)
    if dim == 1 and name in ("x", "x1"):
        return ("coord", 0)
    if dim > 1 and re.fullmatch(r"x\d+", name) and 1 <= int(name[1:]) <= dim:
        return ("coord", int(name[1:]) - 1)
    return None


def _flatten(tree: ast.expr, source: str, where, dim: int, parameters: tuple[str, ...]):
    """Postfix steps of a parsed tree; any node outside the grammar raises.

    `where` maps an index into `source` to one into the user's text.
    """
    steps, todo = [], [tree]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:  # an operator step, queued behind its operands
            steps.append(node)
            continue
        if kind is ast.BinOp and type(node.op) in _BINARY:
            todo += [("binary", _BINARY[type(node.op)]), node.right, node.left]
        elif kind is ast.UnaryOp and type(node.op) in (ast.UAdd, ast.USub):
            if type(node.op) is ast.USub:
                todo.append(("unary", operator.neg))
            todo.append(node.operand)
        # A call's name comes first: '(sin)(x)' is not a call.
        elif (kind is ast.Call and type(node.func) is ast.Name
              and node.func.col_offset == node.col_offset):
            if node.func.id not in _FUNCTIONS or len(node.args) != 1:
                raise ExpressionError(f"{node.func.id!r} is not sin, cos or exp of one "
                                      "argument", position=where(node.col_offset))
            todo += [("unary", _FUNCTIONS[node.func.id]), node.args[0]]
        elif kind is ast.Name:
            step = _name_step(node.id, dim, parameters)
            if step is None:
                raise ExpressionError(f"unknown name {node.id!r} in dimension {dim}",
                                      position=where(node.col_offset))
            steps.append(step)
        else:
            text = source[node.col_offset:node.end_col_offset]
            if kind is not ast.Constant or not _NUMBER.fullmatch(text):
                raise ExpressionError(f"unexpected {text!r}", position=where(node.col_offset))
            steps.append(("num", float(text)))
    return tuple(steps)


class CompiledExpression(Record):
    """A parsed expression bound to a dimension and a parameter list."""

    expression: str
    dim: int
    parameters: tuple[str, ...]
    steps: tuple
    used_parameters: tuple[str, ...]

    def __call__(self, x, params: dict | None = None) -> np.ndarray:
        """Values at points or on the axes of a grid.

        `x` is a scalar, an (N,) array (dim 1) or one point (dim > 1), or
        an (N, dim) batch, giving (N,) values; or a tuple of `dim`
        coordinate arrays that broadcast together, such as a tensor grid's
        axes shaped (m, 1, 1), (1, m, 1) and (1, 1, m), giving a read-only
        array of their broadcast shape.  Each value is computed by the same
        operations, so it has the same bits, as at its point; a coordinate
        that the expression does not use is never expanded.
        """
        params = dict(params or {})
        missing = [p for p in self.used_parameters if p not in params]
        if missing:
            raise ExpressionError(f"missing parameter values for {missing}")
        if isinstance(x, tuple):
            if len(x) != self.dim:
                raise ExpressionError(f"{len(x)} coordinate arrays do not match "
                                      f"dimension {self.dim}")
            coords = [np.asarray(axis, dtype=float) for axis in x]
            shapes = [axis.shape for axis in coords]
            try:
                shape = np.broadcast_shapes(*shapes)
            except ValueError:
                raise ExpressionError(f"coordinate arrays of shapes {shapes} "
                                      "do not broadcast") from None
        else:
            points = np.asarray(x, dtype=float)
            if points.ndim == 0:
                points = points.reshape(1, 1)
            elif points.ndim == 1:
                points = points.reshape(-1, 1) if self.dim == 1 else points.reshape(1, -1)
            if points.shape[1] != self.dim:
                raise ExpressionError(
                    f"points of shape {np.shape(x)} do not match dimension {self.dim}"
                )
            coords, shape = points.T, (points.shape[0],)
        stack = []
        with np.errstate(all="ignore"):
            for kind, arg in self.steps:
                if kind == "num":
                    stack.append(arg)
                elif kind == "coord":
                    stack.append(coords[arg])
                elif kind == "param":
                    stack.append(params[arg])
                elif kind == "unary":
                    stack[-1] = arg(stack[-1])
                else:
                    right = stack.pop()
                    stack[-1] = arg(stack[-1], right)
        values = np.broadcast_to(np.asarray(stack[0], dtype=float), shape)
        return values if isinstance(x, tuple) else values.copy()


def compile_expression(text: str, dim: int, parameters=()) -> CompiledExpression:
    """Parse `text` and bind names for a `dim`-dimensional domain.

    Parameters named in `parameters` may appear in the expression; their
    values are supplied at call time.  Raises ExpressionError with a
    character position on any lexical, syntactic, or name error.
    """
    if dim not in (1, 2, 3):
        raise ExpressionError(f"dimension must be 1, 2, or 3, got {dim}")
    parameters = tuple(str(p) for p in parameters)
    clash = [p for p in parameters if p in _FUNCTIONS or p in _CONSTANTS]
    if clash:
        raise ExpressionError(f"parameter names {clash} shadow built-ins")
    reserved = [p for p in parameters if keyword.iskeyword(p)]
    if reserved:
        raise ExpressionError(f"parameter names {reserved} are Python keywords")
    bad = _OUTSIDE.search(text)
    if bad:
        raise ExpressionError("'**' is not an operator; use '^'" if bad[0] == "**"
                              else f"unexpected character {bad[0]!r}", position=bad.start())
    # Every blank becomes a space, so newlines join lines; leading ones go.
    body = _BLANK.sub(" ", text).lstrip(" ")
    if not body:
        raise ExpressionError("empty expression", position=0)
    shift = len(text) - len(body)
    ends = list(itertools.accumulate(2 if c == "^" else 1 for c in body))
    source = body.replace("^", "**")

    def where(index: int) -> int:
        return shift + bisect.bisect_right(ends, index)

    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:  # offset is 1-based; 0 or None means the end
        at = min(exc.offset or len(source) + 1, len(source) + 1) - 1
        raise ExpressionError(exc.msg.split(";")[0], position=where(at)) from None
    except (RecursionError, MemoryError):  # the parser's own stack overflowed
        raise ExpressionError("expression is nested too deeply to parse") from None
    steps = _flatten(tree, source, where, dim, parameters)
    used = sorted({arg for kind, arg in steps if kind == "param"})
    return CompiledExpression(text, dim, parameters, steps, tuple(used))
