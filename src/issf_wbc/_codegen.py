"""Straight-line kernels, generated as Python source and compiled on first use.

At n <= 7 a loop over lists spends most of its time on the loop itself:
iterators, ``zip``, ``sum(map(...))``, list appends and index arithmetic.
A kernel unrolled for one size does the same float operations in the same
order with none of that, so its results are bit for bit the loop's.  Each
kernel is generated once per key (a matrix size here, a set of kinematic
constants in ``model``, of kinematic and inertial constants in ``_fastdyn``)
the first time it is needed, never at import, and compiled under a filename
that names it and its size, so that a traceback points at the generated
line.

- ``cholesky[n](M)`` is the row-oriented (Cholesky-Banachiewicz) factor
  M = L L^T of an n x n matrix given as rows, of which only the lower
  triangle is read.  Row i of L holds i + 1 entries.  A pivot that is not
  positive raises ``NotPositiveDefinite`` with its index.
- ``solve_lower[n](L, a)`` is y with L y = a (forward substitution) and
  ``solve_upper[n](L, y)`` is x with L^T x = y (back substitution).
- ``cholesky_solve[n](M, a)`` is x with M x = a: the factor and both
  substitutions in one function, raising as ``cholesky[n]`` does.

The four are emitted from one builder per step (``_factor``, ``_forward``,
``_backward``), so each formula is written once.

``Expr`` traces a loop's float arithmetic into an expression graph, folding
the operations whose operand is the exact constant 0.0 or 1.0, and
``expr_kernel`` emits that graph as straight-line code, a chain of
functions when it is long: ``model`` builds its forward kinematics this way
and ``_fastdyn`` its joint-space dynamics.
"""

from __future__ import annotations

import math
import zlib
from itertools import count
from typing import Callable


class NotPositiveDefinite(ValueError):
    """A Cholesky pivot that is not positive; ``index`` is its row."""

    def __init__(self, index: int):
        super().__init__(f"matrix not positive definite at pivot {index}")
        self.index = index


def compile_kernel(name: str, source: str | list[tuple[int, str]]) -> Callable:
    """The function ``name`` defined by ``source``, compiled under ``<name>``.

    ``source`` may also be a list of (first line, source) parts, compiled one
    at a time into one namespace, so that no part's syntax tree is held while
    the next is compiled.  The whole source is registered with ``linecache``,
    so a traceback through the kernel shows its generated line.
    """
    import linecache     # here, not at import: it pulls in tokenize

    parts = [(1, source)] if isinstance(source, str) else source
    filename = f"<{name}>"
    lines = [line for _, part in parts for line in part.splitlines(keepends=True)]
    linecache.cache[filename] = (sum(map(len, lines)), None, lines, filename)
    scope = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin,
             "NotPositiveDefinite": NotPositiveDefinite}
    for first, part in parts:
        exec(compile("\n" * (first - 1) + part, filename, "exec"), scope)
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


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _factor(n: int) -> list[str]:
    """Statements of the factor: l{i}_{j} from the rows M{i}."""
    body = []
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
    return body


def _forward(n: int) -> list[str]:
    """Statements of the forward substitution: y{i} from a{i} and the l{i}_{j}."""
    body = []
    for i in range(n):
        prods = [f"l{i}_{k} * y{k}" for k in range(i)]
        num = f"(a{i} - ({' + '.join(prods)}))" if prods else f"a{i}"
        body.append(f"y{i} = {num} / l{i}_{i}")
    return body


def _backward(n: int) -> list[str]:
    """Statements of the back substitution: x{j} from y{j} and the l{i}_{j}."""
    body = []
    for j in range(n - 1, -1, -1):
        # The loop subtracts L[i][j] x_i from y_j for i = n-1 down to j+1.
        num = f"y{j}"
        for i in range(n - 1, j, -1):
            num = f"({num} - l{i}_{j} * x{i})"
        body.append(f"x{j} = {num} / l{j}_{j}")
    return body


def _linalg_kernel(name: str, unpacked: dict[str, list[str]], body: list[str],
                   result: list[str]) -> Callable:
    """``def name(*unpacked)``: unpack each parameter into its names, run
    ``body`` and return the list of ``result``."""
    head = [unpacking(targets, param) for param, targets in unpacked.items() if targets]
    body = head + body + ["return [" + ", ".join(result) + "]"]
    return compile_kernel(name, _function(name, ", ".join(unpacked), body))


def _function(name: str, params: str, body: list[str]) -> str:
    return f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)


cholesky = _PerSize(lambda n: _linalg_kernel(
    f"cholesky_{n}", {"M": _names("M", n)}, _factor(n), _lower_rows(n)))
solve_lower = _PerSize(lambda n: _linalg_kernel(
    f"solve_lower_{n}", {"L": _lower_rows(n), "a": _names("a", n)}, _forward(n),
    _names("y", n)))
solve_upper = _PerSize(lambda n: _linalg_kernel(
    f"solve_upper_{n}", {"L": _lower_rows(n), "y": _names("y", n)}, _backward(n),
    _names("x", n)))
cholesky_solve = _PerSize(lambda n: _linalg_kernel(
    f"cholesky_solve_{n}", {"M": _names("M", n), "a": _names("a", n)},
    _factor(n) + _forward(n) + _backward(n), _names("x", n)))


# -- traced expressions --------------------------------------------------------

def _is_const(x, value: float) -> bool:
    return type(x) is float and x == value


class Expr:
    """A float-valued expression of a kernel's inputs, traced through a loop.

    Arithmetic with Python floats folds exactly as the loop computes it:
    constants combine into constants, and an operand that is the exact
    constant 0.0 or 1.0 drops out (x * 0.0 -> 0.0, x * 1.0 -> x, x + 0.0 -> x,
    x - 0.0 -> x, 0.0 - x -> -x).  Those folds equal the loop's result
    except, at most, in the sign of an exact zero.  A negation folds into a
    negation or a product with a constant (-(-x) -> x, -(x * c) -> x * -c),
    to the same bits.  Nodes are numbered in the order the loop creates
    them, which orders a kernel's statements.
    """

    __slots__ = ("op", "args", "uses", "name", "serial")
    _serials = count()

    def __init__(self, op: str, *args):
        self.op = op            # "+", "-", "*", "neg", a function name or "input"
        self.args = args
        self.uses = 0
        self.name: str | None = None
        self.serial = next(Expr._serials)

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
        if self.op == "neg":
            return self.args[0]
        if self.op == "*" and type(self.args[1]) is float:
            return self.args[0] * -self.args[1]
        return Expr("neg", self)


def kernel_name(prefix: str, n: int, constants: tuple) -> str:
    """A kernel's name: ``prefix``, its size and a digest of its constants,
    which keeps two kernels of one size apart in tracebacks.  The digest is
    a CRC-32 of the constants' repr, the same in every run (``hash`` is
    not: ``None``, which stands for an identity rotation, hashes by address)."""
    return f"{prefix}_{n}_{zlib.crc32(repr(constants).encode()):08x}"


# The most statements in one generated function.  A kernel longer than this
# is compiled as a chain of functions, each passing its live locals to the
# next: compiling one long function costs several times the memory.
CHAIN_STATEMENTS = 120


def expr_kernel(name: str, params: dict[str, list[str]], outputs: str,
                trace: Callable[[], list]) -> Callable:
    """Compile ``def name(*params)`` returning ``outputs`` over traced expressions.

    ``params`` maps each parameter to the input names unpacked from it.
    ``trace()`` runs the loop on those inputs (``Expr.input``) and gives the
    values to return: ``outputs`` is a format string with one ``{}`` per
    value (an ``Expr`` or a float).  An expression used more than once, and
    each output, is computed once into a local, in the order the loop
    created it; any other is written inline.  Beyond ``CHAIN_STATEMENTS``
    statements the body is split into a chain of functions ``name``,
    ``name_1``, ... (see ``_chain``).  The traced graph and the statements
    are freed before the source is compiled.
    """
    return compile_kernel(name, _chain(name, list(params),
                                       *_statements(params, outputs, trace())))


def _statements(params: dict[str, list[str]], outputs: str,
                values: list) -> tuple[list[tuple], str, set]:
    """The statements of ``expr_kernel``, each (names assigned, source line,
    names read), then the returned expression and the names it reads."""
    shared = []
    stack = [v for v in values if isinstance(v, Expr)]
    while stack:        # count each node's uses, visiting a node's operands once
        node = stack.pop()
        node.uses += 1
        if node.uses == 1:
            stack.extend(a for a in node.args if isinstance(a, Expr))
        elif node.uses == 2 and node.op != "input":
            shared.append(node)
    # Each output is computed into a local too, where the loop computes it,
    # so that a chain does not carry the locals it reads to the end.
    shared += [v for v in values if isinstance(v, Expr) and v.uses == 1 and v.op != "input"]

    def render(x, reads: set) -> str:
        if not isinstance(x, Expr):
            return repr(x)
        if x.name is not None:
            reads.add(x.name)
            return x.name
        if x.op == "neg":
            return f"(-{render(x.args[0], reads)})"
        if x.op in ("+", "-", "*"):
            a, b = x.args
            return f"({render(a, reads)} {x.op} {render(b, reads)})"
        return f"{x.op}({render(x.args[0], reads)})"

    statements = [(targets, unpacking(targets, param), {param})
                  for param, targets in params.items() if targets]
    for i, node in enumerate(sorted(shared, key=lambda node: node.serial)):
        reads: set = set()
        text = render(node, reads)
        node.name = f"t{i}"
        statements.append(([node.name], f"{node.name} = {text}", reads))
    reads = set()
    return statements, outputs.format(*(render(v, reads) for v in values)), reads


def _chain(name: str, params: list[str], statements: list[tuple],
           result: str, result_reads: set) -> list[tuple[int, str]]:
    """The source parts of ``statements`` then ``return result`` as a chain of
    functions of ``CHAIN_STATEMENTS`` statements each (the last may be
    shorter).

    Each link ends by calling the next on the locals still to be read.  Each
    is compiled on its own under the chain's filename, with the line numbers
    of the whole source (``compile_kernel``).
    """
    last_read = {}
    for k, (_, _, reads) in enumerate(statements):
        for var in reads:
            last_read[var] = k
    for var in result_reads:
        last_read[var] = len(statements)
    assigned = [(p, 0) for p in params]
    assigned += [(var, k + 1) for k, (targets, _, _) in enumerate(statements)
                 for var in targets]

    def live_at(k: int) -> list[str]:
        """The locals assigned before statement k and read at or after it."""
        return [var for var, start in assigned if start <= k <= last_read.get(var, -1)]

    cuts = [*range(0, max(len(statements), 1), CHAIN_STATEMENTS), len(statements)]
    names = [name] + [f"{name}_{i}" for i in range(1, len(cuts) - 1)]
    sources, line = [], 1
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        head = ", ".join(params) if i == 0 else ", ".join(live_at(lo))
        body = [text for _, text, _ in statements[lo:hi]]
        if i + 1 < len(names):
            body.append(f"return {names[i + 1]}({', '.join(live_at(hi))})")
        else:
            body.append(f"return {result}")
        source = _function(names[i], head, body)
        sources.append((line, source))
        line += source.count("\n")
    return sources
