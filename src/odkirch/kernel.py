"""A small expression language for Kirchhoff coefficients M(s, t).

Kernels are written over the two variables s (the solution norm) and t (the
gradient norm).  Grammar, in EBNF:

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | atom [ "^" unary ] ;
    atom   = NUMBER | "s" | "t" | NAME "(" expr { "," expr } ")" | "(" expr ")" ;

"^" is right-associative and binds tighter than unary minus, so -s^2 means
-(s^2) and 2^3^2 means 2^(3^2).  Available functions: exp, log, sqrt, abs
(one argument), min, max (two arguments).  A tree is the tuple
(op, *operands), op a key of `_OPS`, the one place where an operation is
defined; a leaf is ("num", value), ("s",) or ("t",).

Each tree is compiled once into a closure of numpy ufuncs, one per node, run
children first and left to right.  Evaluation is vectorized over numpy
arrays, and can carry the slope along (ds, dt) by the slope rules of `_OPS`
(forward mode), one-sided for a step forward at the kinks of abs, min and
max.  Every node checks its own value, so division by zero, log of a
non-positive value, overflow or a non-finite input surface as KernelEvalError
naming the first offending subexpression and point instead of silently
propagating nan through a root scan.
"""

import operator
import re
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import KernelEvalError, KernelSyntaxError

VARIABLES = ("s", "t")
# The longest battery or corpus kernel has 19 tokens.  The cap bounds the depth
# of every tree walk and of the parse (six frames per pair of parentheses).
MAX_TOKENS = 200


class _Op(NamedTuple):
    fn: Callable            # the ufunc (the operator for + - * and negation)
    level: int              # printer precedence level; higher binds tighter
    form: str               # printed form, one "{}" per operand
    operand_levels: tuple   # least level at which each operand prints bare
    slope: Callable         # (operands, their slopes, value) -> slope of value


def _chain(*partials):
    """The slope rule of a smooth operation: partial(*operands, value) * slope
    summed over the operands with a slope (not None); a partial None is 1."""
    def rule(x, dx, v):
        terms = [d if p is None else p(*x, v) * d
                 for p, d in zip(partials, dx) if d is not None]
        return sum(terms[1:], terms[0])
    return rule


def _select(before, pick):
    """The slope rule of min (np.less, np.minimum), max and abs(a) = max(a, -a):
    the selected operand's slope, on a tie pick(da, db), the one for a step forward."""
    def rule(x, dx, v):
        (a, b), dx = (x, dx) if len(x) == 2 else ((x[0], -x[0]), (dx[0], -dx[0]))
        da, db = [0.0 if d is None else d for d in dx]
        return np.where(before(a, b), da, np.where(before(b, a), db, pick(da, db)))
    return rule


# Precedence levels: 1 for + -, 2 for * /, 3 for negation, 4 for ^, 5 for
# calls and leaves.  The right operand of + - prints bare from level 2, as
# they group to the left; the grammar reads a signed operand after * /, ^ and
# negation, and only an atom as the base of ^.
_OPS = {
    "+": _Op(operator.add, 1, "{} + {}", (1, 2), _chain(None, None)),
    "-": _Op(operator.sub, 1, "{} - {}", (1, 2), _chain(None, lambda a, b, v: -1.0)),
    "*": _Op(operator.mul, 2, "{}*{}", (2, 3), _chain(lambda a, b, v: b, lambda a, b, v: a)),
    "/": _Op(np.divide, 2, "{}/{}", (2, 3),
             _chain(lambda a, b, v: 1.0 / b, lambda a, b, v: -v / b)),
    "neg": _Op(operator.neg, 3, "-{}", (3,), _chain(lambda a, v: -1.0)),
    "^": _Op(np.power, 4, "{}^{}", (5, 3),
             _chain(lambda a, b, v: b * a ** (b - 1.0), lambda a, b, v: v * np.log(a))),
    "exp": _Op(np.exp, 5, "exp({})", (0,), _chain(lambda a, v: v)),
    "log": _Op(np.log, 5, "log({})", (0,), _chain(lambda a, v: 1.0 / a)),
    "sqrt": _Op(np.sqrt, 5, "sqrt({})", (0,), _chain(lambda a, v: 0.5 / v)),
    "abs": _Op(np.abs, 5, "abs({})", (0,), _select(np.greater, np.maximum)),
    "min": _Op(np.minimum, 5, "min({}, {})", (0, 0), _select(np.less, np.minimum)),
    "max": _Op(np.maximum, 5, "max({}, {})", (0, 0), _select(np.greater, np.maximum)),
}
# The functions kernel text can call, with their number of arguments.
FUNCTIONS = {name: len(row.operand_levels) for name, row in _OPS.items() if row.level == 5}


_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise KernelSyntaxError(f"unrecognized character {m.group()!r}",
                                    m.start(), "a token")
        if m.lastgroup != "ws":
            if len(tokens) == MAX_TOKENS:
                raise KernelSyntaxError(f"kernel longer than {MAX_TOKENS} tokens",
                                        m.start(), "end of expression")
            tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def accept(self, ops: str):
        """Consume the next token and return its text if it is one of the
        operator characters ops; else None."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.i += 1
            return text
        return None

    def expect_op(self, op: str):
        if not self.accept(op):
            _, text, pos = self.peek()
            raise KernelSyntaxError(f"found {text or 'end of input'!r}", pos, f"'{op}'")

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise KernelSyntaxError(f"trailing input {text!r}", pos, "end of expression")
        return node

    def binary(self, ops: str, operand):
        """operand { ops operand }, grouped to the left."""
        node = operand()
        while op := self.accept(ops):
            node = (op, node, operand())
        return node

    def expr(self):
        return self.binary("+-", self.term)

    def term(self):
        return self.binary("*/", self.unary)

    def unary(self):
        if self.accept("-"):
            return ("neg", self.unary())
        node = self.atom()
        if self.accept("^"):
            # Exponent may itself carry a sign or another power: s^-t^2.
            return ("^", node, self.unary())
        return node

    def atom(self):
        kind, text, pos = self.peek()
        self.i += 1
        if kind == "num":
            value = float(text)
            if not np.isfinite(value):
                raise KernelSyntaxError(f"numeric literal {text!r} overflows",
                                        pos, "a representable number")
            return ("num", value)
        if kind == "name":
            if text in VARIABLES:
                return (text,)
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while self.accept(","):
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise KernelSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                        pos, f"{FUNCTIONS[text]} argument(s)"
                    )
                return (text, *args)
            raise KernelSyntaxError(
                f"unknown identifier {text!r}", pos,
                f"one of {', '.join(VARIABLES)} or a function name"
            )
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise KernelSyntaxError(
            f"found {text or 'end of input'!r}", pos, "a number, variable or '('"
        )


def parse_kernel(text: str):
    """Parse a kernel expression of at most MAX_TOKENS tokens into its tree."""
    if not isinstance(text, str) or not text.strip():
        raise KernelSyntaxError("empty kernel expression", 0, "an expression")
    return _Parser(text).parse()


def _render(node, min_level: int) -> str:
    op, *args = node
    if op == "num":
        return repr(args[0])
    if op in VARIABLES:
        return op
    row = _OPS[op]
    out = row.form.format(*map(_render, args, row.operand_levels))
    return f"({out})" if row.level < min_level else out


def kernel_to_string(node) -> str:
    """Render a syntax tree with minimal parentheses.

    Re-parsing the rendered text reproduces the tree exactly (the printer and
    the grammar agree on precedence and associativity), and the text has no
    more tokens than any source of the tree, so it stays within MAX_TOKENS.
    """
    return _render(node, 0)


def _first_bad(values, s, t):
    i = np.flatnonzero(~np.isfinite(np.broadcast_to(values, s.shape)))[0]
    return (float(s.ravel()[i]), float(t.ravel()[i]))


def _fault(node, v, s, t):
    """Raise node's fault at v's first non-finite point of the grid, if not empty."""
    s, t = np.broadcast_arrays(s, t)
    if s.size:
        raise KernelEvalError("non-finite value", kernel_to_string(node), _first_bad(v, s, t))


@cache
def _compile(node):
    """The closure (s, t, ds, dt) -> (value, slope along (ds, dt)) of node.
    Every node checks its value, a literal once here; the slope is
    unchecked, and None for a constant and when ds and dt are None.

    Cached per tree, compared by value: the parser never writes
    ("num", -0.0), the one literal equal to another (0.0) with other bits.
    """
    op, *args = node
    if op == "num":
        v = np.float64(args[0])
        if not np.isfinite(v):
            return lambda s, t, ds, dt: _fault(node, v, s, t) or (v, None)
        return lambda s, t, ds, dt: (v, None)
    if op in VARIABLES:
        def leaf(s, t, ds, dt):
            v, dv = (s, ds) if op == "s" else (t, dt)
            if not np.isfinite(v).all():
                _fault(node, v, s, t)
            return v, dv
        return leaf
    fn, slope = _OPS[op].fn, _OPS[op].slope
    args = [_compile(c) for c in args]
    if len(args) == 1:
        (a,) = args

        def unary(s, t, ds, dt):
            x, dx = a(s, t, ds, dt)
            v = fn(x)
            if not np.isfinite(v).all():
                _fault(node, v, s, t)
            return v, None if dx is None else slope((x,), (dx,), v)
        return unary
    a, b = args

    def binary(s, t, ds, dt):
        (x, dx), (y, dy) = a(s, t, ds, dt), b(s, t, ds, dt)
        v = fn(x, y)
        if not np.isfinite(v).all():
            _fault(node, v, s, t)
        return v, None if dx is None and dy is None else slope((x, y), (dx, dy), v)
    return binary


def eval_kernel(node, s, t, slope=None):
    """Evaluate a kernel tree at (s, t); scalars in, float out; arrays vectorize.

    Scalars and arrays may be mixed; broadcasting follows numpy rules.  Any
    non-finite intermediate raises KernelEvalError identifying the faulting
    subexpression and the first offending point.  With slope = (ds, dt) the
    result is the pair (value, its derivative along (ds, dt)); the derivative
    is one-sided at a kink and may be non-finite without error (sqrt at 0).
    """
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(s_arr.shape, t_arr.shape)
    # The closure runs on the operands as given: a subexpression of s alone
    # costs s.size operations, each value the same as on the broadcast grid.
    s_1, t_1 = np.atleast_1d(s_arr), np.atleast_1d(t_arr)
    with np.errstate(all="ignore"):
        out, tangent = _compile(node)(s_1, t_1, *(slope or (None, None)))
    pair = (out,) if slope is None else (out, 0.0 if tangent is None else tangent)
    outs = [np.array(v if np.shape(v) == shape else np.broadcast_to(v, shape), dtype=float)
            if shape else np.asarray(v, dtype=float).item() for v in pair]
    return outs[0] if slope is None else tuple(outs)
