"""Straight-line kernels, generated as Python source and compiled on first use.

At n <= 7 a loop over lists spends most of its time on the loop itself:
iterators, ``zip``, ``sum(map(...))``, list appends and index arithmetic.
A kernel unrolled for one size does the same float operations in the same
order with none of that, so its results are bit for bit the loop's.  Each
kernel is generated once per key (a matrix size here, a set of kinematic
constants in ``model``) the first time it is needed, never at import, and
compiled under a filename that names it and its size, so that a traceback
points at the generated line.

- ``cholesky[n](M)`` is the row-oriented (Cholesky-Banachiewicz) factor
  M = L L^T of an n x n matrix given as rows, of which only the lower
  triangle is read.  Row i of L holds i + 1 entries.  A pivot that is not
  positive raises ``NotPositiveDefinite`` with its index.
- ``solve_lower[n](L, a)`` is y with L y = a (forward substitution) and
  ``solve_upper[n](L, y)`` is x with L^T x = y (back substitution).

``Expr`` traces a loop's float arithmetic into an expression graph, folding
the operations whose operand is the exact constant 0.0 or 1.0, and
``expr_kernel`` emits that graph as one function: ``model`` builds its
forward kinematics this way.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Callable


class NotPositiveDefinite(ValueError):
    """A Cholesky pivot that is not positive; ``index`` is its row."""

    def __init__(self, index: int):
        super().__init__(f"matrix not positive definite at pivot {index}")
        self.index = index


def compile_kernel(name: str, source: str) -> Callable:
    """The function ``name`` defined by ``source``, compiled under ``<name>``.

    The source is registered with ``linecache``, so a traceback through the
    kernel shows its generated line.
    """
    import linecache     # here, not at import: it pulls in tokenize

    filename = f"<{name}>"
    lines = source.splitlines(keepends=True)
    linecache.cache[filename] = (len(source), None, lines, filename)
    scope = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin,
             "NotPositiveDefinite": NotPositiveDefinite}
    exec(compile(source, filename, "exec"), scope)
    return scope[name]


class _PerSize(dict):
    """Kernels by size n, generated by ``make(n)`` on first use."""

    def __init__(self, make: Callable[[int], Callable]):
        super().__init__()
        self.make = make

    def __missing__(self, n: int) -> Callable:
        kernel = self[n] = self.make(n)
        return kernel


def unpacking(targets: list[str], source: str) -> str:
    """The statement unpacking ``source`` into ``targets``."""
    return ", ".join(targets) + ("," if len(targets) == 1 else "") + f" = {source}"


def _lower_rows(n: int) -> list[str]:
    """Unpacking targets for the rows of an n x n lower-triangular L."""
    return ["[" + ", ".join(f"l{i}_{j}" for j in range(i + 1)) + "]" for i in range(n)]


def _make_cholesky(n: int) -> Callable:
    name = f"cholesky_{n}"
    body = []
    if n:
        body.append(unpacking([f"M{i}" for i in range(n)], "M"))
    for i in range(n):
        for j in range(i):
            prods = [f"l{i}_{k} * l{j}_{k}" for k in range(j)]
            num = f"(M{i}[{j}] - ({' + '.join(prods)}))" if prods else f"M{i}[{j}]"
            body.append(f"l{i}_{j} = {num} / l{j}_{j}")
        prods = [f"l{i}_{k} * l{i}_{k}" for k in range(i)]
        body.append(f"d = M{i}[{i}] - ({' + '.join(prods)})" if prods else f"d = M{i}[{i}]")
        body.append("if not d > 0.0:")
        body.append(f"    raise NotPositiveDefinite({i})")
        body.append(f"l{i}_{i} = sqrt(d)")
    body.append(f"return [{', '.join(_lower_rows(n))}]")
    return compile_kernel(name, _function(name, "M", body))


def _make_solve_lower(n: int) -> Callable:
    name = f"solve_lower_{n}"
    body = []
    if n:
        body.append(unpacking(_lower_rows(n), "L"))
        body.append(unpacking([f"a{i}" for i in range(n)], "a"))
    for i in range(n):
        prods = [f"l{i}_{k} * y{k}" for k in range(i)]
        num = f"(a{i} - ({' + '.join(prods)}))" if prods else f"a{i}"
        body.append(f"y{i} = {num} / l{i}_{i}")
    body.append("return [" + ", ".join(f"y{i}" for i in range(n)) + "]")
    return compile_kernel(name, _function(name, "L, a", body))


def _make_solve_upper(n: int) -> Callable:
    name = f"solve_upper_{n}"
    body = []
    if n:
        body.append(unpacking(_lower_rows(n), "L"))
        body.append(unpacking([f"y{i}" for i in range(n)], "y"))
    for j in range(n - 1, -1, -1):
        # The loop subtracts L[i][j] x_i from y_j for i = n-1 down to j+1.
        num = f"y{j}"
        for i in range(n - 1, j, -1):
            num = f"({num} - l{i}_{j} * x{i})"
        body.append(f"x{j} = {num} / l{j}_{j}")
    body.append("return [" + ", ".join(f"x{i}" for i in range(n)) + "]")
    return compile_kernel(name, _function(name, "L, y", body))


def _function(name: str, params: str, body: list[str]) -> str:
    return f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)


cholesky = _PerSize(_make_cholesky)
solve_lower = _PerSize(_make_solve_lower)
solve_upper = _PerSize(_make_solve_upper)


# -- traced expressions --------------------------------------------------------

def _is_const(x, value: float) -> bool:
    return type(x) is float and x == value


class Expr:
    """A float-valued expression of a kernel's inputs, traced through a loop.

    Arithmetic with Python floats folds exactly as the loop computes it:
    constants combine into constants, and an operand that is the exact
    constant 0.0 or 1.0 drops out (x * 0.0 -> 0.0, x * 1.0 -> x, x + 0.0 -> x,
    x - 0.0 -> x, 0.0 - x -> -x).  Those folds equal the loop's result except,
    at most, in the sign of an exact zero.
    """

    __slots__ = ("op", "args", "uses", "name")

    def __init__(self, op: str, *args):
        self.op = op            # "+", "-", "*", "neg", a function name or "input"
        self.args = args
        self.uses = 0
        self.name: str | None = None

    @classmethod
    def input(cls, name: str) -> "Expr":
        leaf = cls("input")
        leaf.name = name
        return leaf

    def __add__(self, other):
        if _is_const(other, 0.0):
            return self
        return Expr("+", self, other)

    def __radd__(self, other):
        if _is_const(other, 0.0):
            return self
        return Expr("+", other, self)

    def __sub__(self, other):
        if _is_const(other, 0.0):
            return self
        return Expr("-", self, other)

    def __rsub__(self, other):
        if _is_const(other, 0.0):
            return -self
        return Expr("-", other, self)

    def __mul__(self, other):
        if _is_const(other, 0.0):
            return 0.0
        if _is_const(other, 1.0):
            return self
        return Expr("*", self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return Expr("neg", self)


def expr_kernel(name: str, params: str, prologue: list[str], outputs: str,
                values: list) -> Callable:
    """Compile ``def name(params)``: the ``prologue`` lines (which bind the
    inputs' names), then ``return outputs`` over traced expressions.

    ``outputs`` is a format string with one ``{}`` per entry of ``values``
    (each an ``Expr`` or a float).  An expression used more than once is
    computed once into a local; one used once is written inline.
    """
    stack = [v for v in values if isinstance(v, Expr)]
    while stack:        # count each node's uses, visiting a node's operands once
        node = stack.pop()
        node.uses += 1
        if node.uses == 1:
            stack.extend(a for a in node.args if isinstance(a, Expr))
    body = list(prologue)
    temps = count()

    def render(x) -> str:
        if not isinstance(x, Expr):
            return repr(x)
        if x.name is not None:
            return x.name
        if x.op == "neg":
            text = f"(-{render(x.args[0])})"
        elif x.op in ("+", "-", "*"):
            a, b = x.args
            text = f"({render(a)} {x.op} {render(b)})"
        else:
            text = f"{x.op}({render(x.args[0])})"
        if x.uses > 1:
            x.name = f"t{next(temps)}"
            body.append(f"{x.name} = {text}")
            return x.name
        return text

    rendered = [render(v) for v in values]
    body.append("return " + outputs.format(*rendered))
    return compile_kernel(name, _function(name, params, body))
