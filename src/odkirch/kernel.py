"""A small expression language for Kirchhoff coefficients M(s, t).

Kernels are written over the two variables s (the solution norm) and t (the
gradient norm).  Grammar, in EBNF:

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = NUMBER | "s" | "t" | NAME "(" expr { "," expr } ")" | "(" expr ")" ;

"^" is right-associative and binds tighter than unary minus, so -s^2 means
-(s^2) and 2^3^2 means 2^(3^2).  Available functions: exp, log, sqrt, abs
(one argument), min, max (two arguments).

Each tree is compiled once into a closure of numpy ufuncs, applied in the
order and on the operand types of the tree walk, so its values are the walk's
bit for bit.  Evaluation is vectorized over numpy arrays.  A non-finite value
stays non-finite through +, -, *, negation, log, sqrt and abs, so the compiled
closure checks finiteness only at its result and on the operands of /, ^,
exp, min and max, through which a non-finite value can turn finite again
(1/inf, exp(-inf), min(inf, s), 1^nan).  When a check fails the tree is
walked node by node, so division by zero, log of a non-positive value or
overflow surface as KernelEvalError naming the first offending subexpression
and point instead of silently propagating nan through a root scan.
"""

import operator
import re
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import KernelEvalError, KernelSyntaxError


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "abs": 1, "min": 2, "max": 2}
VARIABLES = ("s", "t")

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise KernelSyntaxError(
                f"unrecognized character {text[pos]!r}", pos, "a token"
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise KernelSyntaxError(f"found {text or 'end of input'!r}", pos, f"'{op}'")

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise KernelSyntaxError(f"trailing input {text!r}", pos, "end of expression")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # Exponent may itself carry a sign or another power: s^-t^2.
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not np.isfinite(value):
                raise KernelSyntaxError(f"numeric literal {text!r} overflows",
                                        pos, "a representable number")
            return Num(value)
        if kind == "name":
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, t, _ = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise KernelSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                        pos, f"{FUNCTIONS[text]} argument(s)"
                    )
                return Call(text, tuple(args))
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
    """Parse a kernel expression into its syntax tree."""
    if not isinstance(text, str) or not text.strip():
        raise KernelSyntaxError("empty kernel expression", 0, "an expression")
    return _Parser(text).parse()


# Node precedence for the printer; higher binds tighter.
_PREC_ADD = 1.0
_PREC_MUL = 2.0
_PREC_NEG = 2.5
_PREC_POW = 3.0
_PREC_ATOM = 4.0


def _prec(node) -> float:
    if isinstance(node, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(node, Neg):
        return _PREC_NEG
    return {"+": _PREC_ADD, "-": _PREC_ADD,
            "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[node.op]


def _render(node, min_prec: float) -> str:
    if isinstance(node, Num):
        out = repr(node.value)
    elif isinstance(node, Var):
        out = node.name
    elif isinstance(node, Call):
        out = f"{node.fn}({', '.join(_render(a, 0.0) for a in node.args)})"
    elif isinstance(node, Neg):
        out = "-" + _render(node.arg, _PREC_POW)
    else:
        op = node.op
        if op in "+-":
            out = (_render(node.left, _PREC_ADD) + f" {op} "
                   + _render(node.right, _PREC_MUL))
        elif op in "*/":
            out = (_render(node.left, _PREC_MUL) + f"{op}"
                   + _render(node.right, _PREC_NEG))
        else:
            out = (_render(node.left, _PREC_ATOM) + "^"
                   + _render(node.right, _PREC_NEG))
    if _prec(node) < min_prec:
        return f"({out})"
    return out


def kernel_to_string(node) -> str:
    """Render a syntax tree with minimal parentheses.

    Re-parsing the rendered text reproduces the tree exactly (the printer and
    the grammar agree on precedence and associativity).
    """
    return _render(node, 0.0)


def _first_bad(values, s, t):
    flat_bad = np.nonzero(~np.isfinite(np.broadcast_to(values, s.shape).ravel()))[0]
    i = int(flat_bad[0])
    return (float(s.ravel()[i]), float(t.ravel()[i]))


_UFUNCS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
           "min": np.minimum, "max": np.maximum}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.divide, "^": np.power}
# Operations whose result can be finite while an operand is not.
_ABSORBING = {"/", "^", "exp", "min", "max"}


def _eval(node, s, t):
    """Walk the tree, checking every node; the error path of eval_kernel."""
    if isinstance(node, Num):
        v = np.float64(node.value)
    elif isinstance(node, Var):
        v = s if node.name == "s" else t
    elif isinstance(node, Neg):
        v = -_eval(node.arg, s, t)
    elif isinstance(node, Call):
        v = _UFUNCS[node.fn](*[_eval(a, s, t) for a in node.args])
    else:
        v = _BINOPS[node.op](_eval(node.left, s, t), _eval(node.right, s, t))
    if not np.all(np.isfinite(v)):
        raise KernelEvalError("non-finite value", kernel_to_string(node),
                              _first_bad(v, s, t))
    return v


class _NonFinite(Exception):
    """A compiled finiteness check failed; eval_kernel re-walks the tree."""


def _finite(f):
    """f, raising _NonFinite when a value it returns is not finite."""
    def checked(s, t):
        v = f(s, t)
        if not np.all(np.isfinite(v)):
            raise _NonFinite
        return v
    return checked


@cache
def _compile(node):
    """The closure (s, t) -> value of node, with _eval's ufuncs in _eval's
    order; finiteness is checked only on the operands of _ABSORBING ones.

    Cached per tree, compared by value: the parser never writes Num(-0.0),
    the one literal equal to another (0.0) with other bits.
    """
    if isinstance(node, Num):
        v = np.float64(node.value)
        return lambda s, t: v
    if isinstance(node, Var):
        return (lambda s, t: s) if node.name == "s" else (lambda s, t: t)
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda s, t: -arg(s, t)
    if isinstance(node, Call):
        op, fn, children = node.fn, _UFUNCS[node.fn], node.args
    else:
        op, fn, children = node.op, _BINOPS[node.op], (node.left, node.right)
    args = [_compile(c) for c in children]
    if op in _ABSORBING:
        args = [_finite(a) for a in args]
    if len(args) == 1:
        (a,) = args
        return lambda s, t: fn(a(s, t))
    a, b = args
    return lambda s, t: fn(a(s, t), b(s, t))


@cache
def kernel_variables(node) -> frozenset:
    """The names of the variables node reads, a subset of {"s", "t"}."""
    if isinstance(node, (Num, Var)):
        return frozenset([node.name] if isinstance(node, Var) else [])
    children = ((node.arg,) if isinstance(node, Neg) else node.args
                if isinstance(node, Call) else (node.left, node.right))
    return frozenset().union(*map(kernel_variables, children))


def eval_kernel(node, s, t):
    """Evaluate a kernel tree at (s, t); scalars in, float out; arrays vectorize.

    Scalars and arrays may be mixed; broadcasting follows numpy rules.  Any
    non-finite intermediate raises KernelEvalError identifying the faulting
    subexpression and the first offending point.
    """
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(s_arr.shape, t_arr.shape)
    # The closure runs on the operands as given, so a subexpression of s
    # alone costs s.size operations; each value is the same as on the
    # broadcast grid, elementwise.
    s_1, t_1 = np.atleast_1d(s_arr), np.atleast_1d(t_arr)
    with np.errstate(all="ignore"):
        try:
            out = _compile(node)(s_1, t_1)
            if not np.all(np.isfinite(out)):
                raise _NonFinite
        except _NonFinite:
            # Raises at the first non-finite node, in walk order.
            out = _eval(node, *np.broadcast_arrays(s_1, t_1))
    if not shape:
        return out.item()
    return np.array(np.broadcast_to(out, shape), dtype=float)
