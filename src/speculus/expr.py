"""Expression trees for real-valued piecewise-smooth formulas.

The AST supports polynomial arithmetic, integer powers, and the function
set {abs, sgn, exp, sqrt, sin, cos}.  ``elu`` is accepted by the parser as
sugar for ``g*(1+sgn(g))/2 + (exp(g)-1)*(1-sgn(g))/2``.  All nonsmoothness
must enter through abs/sgn of affine arguments; that restriction is what
lets the rest of the package enumerate singular hyperplanes exactly.

An ``Opaque`` leaf stands for a value with no closed form (a quadrature or
a finite difference): a Python function applied to the values of its
argument expressions.  It evaluates, substitutes and formats like any
node; ``diff`` raises ``NotSymbolic`` on it.

``eval_expr`` evaluates at one point and is the definition; ``eval_array``
evaluates at many points and is bitwise the same wherever it does not flag
a point.  It sends exp, sin, cos and integer powers through ``math`` and
Python ``**``, because numpy's versions differ from libm in the last bit
on some inputs.

``pin_signs`` defines the branch of a formula for one sign assignment: the
tree rebuilt bottom-up through the smart constructors, each abs/sgn node
replaced by its sign (times its argument) once its pinned argument is
resolved to a normalized affine form.  Only the nodes on a path down to an
abs/sgn node with a non-constant argument depend on the signs.  With a
memo (id(node) -> (node, entry)) shared across assignments, everything
else, and the form and orientation of each such node, is computed once,
so a formula is resolved once and each further pin rebuilds only the nodes
above its abs/sgn nodes; the trees are the ones a pin without the memo
builds, down to the sign of a zero.

``diff`` with a memo (id(node) -> (node, derivative); holding the node
keeps its id from being reused) differentiates each node object once.  A
piecewise function keeps one memo per axis, so its branches, which share
most of their subtrees, share their derivatives too, as equal trees.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ParseError):
    pass


class EvalDomainError(ExprError):
    pass


class NonAffineSingularity(ExprError):
    """An abs/sgn argument is not affine in the declared variables."""


class UnassignedForm(ExprError):
    """pin_signs met an abs/sgn argument with no sign assignment."""


class NotSymbolic(ExprError):
    """diff met an Opaque leaf, which has no symbolic derivative."""


FUNCTIONS = ("abs", "sgn", "exp", "sqrt", "sin", "cos")


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, n):
        return powi(self, n)

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class Opaque(Expr):
    fn: Callable[..., float]  # called with the values of args
    args: tuple               # tuple[Expr, ...]


ZERO = Const(0.0)
ONE = Const(1.0)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _const_val(e: Expr):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg) and isinstance(e.operand, Const):
        return -e.operand.value
    return None


# Smart constructors used by derived expressions (diff, pin_signs,
# substitution).  They fold constants and drop additive/multiplicative
# identities so that e.g. diff of a pinned linear branch is an exact Const.
# The parser never calls them: parse must return the literal tree.

def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0:
        return b
    if cb == 0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0:
        return a
    if ca == 0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0 or cb == 0:
        return ZERO
    if ca == 1:
        return b
    if cb == 1:
        return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if cb == 0:
        raise EvalDomainError("division by constant zero")
    if ca is not None and cb is not None:
        return Const(ca / cb)
    if ca == 0:
        return ZERO
    if cb == 1:
        return a
    return BinOp("/", a, b)


def neg(a: Expr) -> Expr:
    ca = _const_val(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def opaque(fn: Callable[..., float], args: Sequence[Expr]) -> Expr:
    """fn of the argument values; folded to a Const when no argument has a
    free variable."""
    args = tuple(args)
    if any(free_vars(a) for a in args):
        return Opaque(fn, args)
    return Const(float(fn(*(eval_expr(a, {}) for a in args))))


def powi(base: Expr, n: int) -> Expr:
    if not isinstance(n, int) or n < 0:
        raise ExprError("integer powers must have exponent >= 0")
    if n == 0:
        return ONE
    if n == 1:
        return base
    cb = _const_val(base)
    if cb is not None:
        return Const(cb ** n)
    return Pow(base, n)


# ---------------------------------------------------------------------------
# Parser

_ELU_SUGAR = "g*(1+sgn(g))/2 + (exp(g)-1)*(1-sgn(g))/2"


# One token after optional white space: a number (decimal digits, the ones
# float accepts, with at most one dot), a run of word characters (a name if
# it starts with a letter), an operator, any other character, or the end.
_TOKEN = re.compile(r"\s*(?:(?P<number>\d+\.?\d*|\.\d*)|(?P<ident>\w+)|(?P<op>[-+*/^()])|(?P<char>.)|(?P<end>\Z))")


def _tokens(text: str) -> list:
    """The tokens of text as (kind, text, offset) from one scan, ending with
    ("end", "", offset) or with the ParseError of the first character that
    starts no token, which the parser raises if it gets there."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lit, start = m[kind], m.start(kind)
        if kind == "char" or lit == "." or kind == "ident" and not lit[0].isalpha():
            message = "malformed number" if lit == "." else f"unexpected character {lit[0]!r}"
            return out + [ParseError(message, start)]
        out.append((lit if kind == "op" else kind, lit, start))
        if kind == "end":
            return out


class _Parser:
    def __init__(self, text: str, vars: Sequence[str]):
        self.toks = _tokens(text)
        self.i = 0
        self.vars = tuple(vars)

    def peek(self):
        tok = self.toks[self.i]
        if isinstance(tok, ParseError):
            raise tok
        return tok

    def take(self, *kinds):
        """The next token, consumed, if its kind is one of kinds; else None."""
        tok = self.peek()
        if tok[0] not in kinds:
            return None
        self.i += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while op := self.take("+", "-"):
            e = BinOp(op[0], e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.take("*", "/"):
            e = BinOp(op[0], e, self.factor())
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.take("^"):
            e = Pow(e, self._uint())
        return e

    def _uint(self) -> int:
        kind, val, off = self.peek()
        if kind != "number" or "." in val:
            raise ParseError("exponent must be a nonnegative integer", off)
        self.i += 1
        return int(val)

    def base(self) -> Expr:
        kind, val, off = self.peek()
        self.i += 1
        if kind == "number":
            return Const(float(val))
        if kind == "-":
            # '^' binds tighter than an outer unary minus: -x^2 == -(x^2)
            return Neg(self.factor())
        if kind == "(":
            e = self.expr()
            self._expect(")")
            return e
        if kind == "ident":
            if self.take("("):
                arg = self.expr()
                self._expect(")")
                if val == "elu":
                    return subst(parse(_ELU_SUGAR, ["g"]), {"g": arg})
                if val not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {val!r}", off)
                return Call(val, arg)
            if val not in self.vars:
                raise UnknownIdentifier(f"unknown identifier {val!r}", off)
            return Var(val)
        raise ParseError(f"expected expression, found {val or 'end of input'!r}", off)

    def _expect(self, kind: str):
        got, val, off = self.peek()
        if got != kind:
            raise ParseError(f"expected {kind!r}, found {val or 'end of input'!r}", off)
        self.i += 1


def parse(text: str, vars: Sequence[str]) -> Expr:
    return _Parser(text, vars).parse()


# ---------------------------------------------------------------------------
# Formatting (inverse of parse up to structural identity)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = e.value
        if v >= 0 and v == int(v) and abs(v) < 1e16:
            return (str(int(v)), _PREC["atom"])
        if v < 0:
            s, _ = _fmt(Const(-v))
            return ("-" + s, _PREC["neg"])
        return (repr(v), _PREC["atom"])
    if isinstance(e, Var):
        return (e.name, _PREC["atom"])
    if isinstance(e, Call):
        s, _ = _fmt(e.arg)
        return (f"{e.func}({s})", _PREC["atom"])
    if isinstance(e, Opaque):
        fn = e.fn.func if isinstance(e.fn, functools.partial) else e.fn
        args = ", ".join(_fmt(a)[0] for a in e.args)
        return (f"{getattr(fn, '__name__', 'opaque')}({args})", _PREC["atom"])
    if isinstance(e, Neg):
        s, p = _fmt(e.operand)
        if p < _PREC["neg"]:
            s = f"({s})"
        return ("-" + s, _PREC["neg"])
    if isinstance(e, Pow):
        s, p = _fmt(e.base)
        if p <= _PREC["pow"]:
            s = f"({s})"
        return (f"{s}^{e.exponent}", _PREC["pow"])
    if isinstance(e, BinOp):
        lp = _PREC[e.op]
        ls, lq = _fmt(e.left)
        rs, rq = _fmt(e.right)
        if lq < lp:
            ls = f"({ls})"
        # -, / are left-associative; parenthesize an equal-precedence rhs
        if rq < lp or (rq == lp and e.op in ("-", "/", "+", "*")):
            rs = f"({rs})"
        return (f"{ls} {e.op} {rs}", lp)
    raise TypeError(f"not an Expr node: {e!r}")


def format_expr(e: Expr) -> str:
    """The text of e; an Opaque leaf prints as its function's name applied
    to its arguments, which ``parse`` does not accept."""
    return _fmt(e)[0]


# ---------------------------------------------------------------------------
# Evaluation

def eval_expr(e: Expr, bindings: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise EvalDomainError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -eval_expr(e.operand, bindings)
    if isinstance(e, Pow):
        v = eval_expr(e.base, bindings)
        try:
            return v ** e.exponent
        except OverflowError:
            raise EvalDomainError(f"overflow in {v}^{e.exponent}") from None
    if isinstance(e, BinOp):
        a = eval_expr(e.left, bindings)
        b = eval_expr(e.right, bindings)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    if isinstance(e, Call):
        v = eval_expr(e.arg, bindings)
        if e.func == "abs":
            return abs(v)
        if e.func == "sgn":
            return float((v > 0.0) - (v < 0.0))
        if e.func == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise EvalDomainError(f"overflow in exp({v})") from None
        if e.func == "sqrt":
            if v < 0.0:
                raise EvalDomainError(f"sqrt of negative value {v}")
            return math.sqrt(v)
        try:
            return math.sin(v) if e.func == "sin" else math.cos(v)
        except ValueError:
            raise EvalDomainError(f"{e.func} of infinite value {v}") from None
    if isinstance(e, Opaque):
        return float(e.fn(*(eval_expr(a, bindings) for a in e.args)))
    raise TypeError(f"not an Expr node: {e!r}")


def _each(fn: Callable[[float], float], v: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """fn applied to every entry as a Python float; an entry where fn raises
    OverflowError or ValueError is set in bad."""
    try:
        return np.fromiter(map(fn, v.tolist()), float, count=len(v))
    except (OverflowError, ValueError):
        out = np.zeros(len(v))
        for i, a in enumerate(v.tolist()):
            try:
                out[i] = fn(a)
            except (OverflowError, ValueError):
                bad[i] = True
        return out


_MATH = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def eval_array(e: Expr, cols: Mapping[str, np.ndarray], bad: np.ndarray) -> np.ndarray:
    """eval_expr at many points at once: cols maps each variable to a float
    array, and the result is bitwise what eval_expr gives point by point.

    + - * /, abs, sgn and sqrt are single IEEE operations, the same in
    numpy as in Python.  exp, sin, cos and integer powers run entry by
    entry through ``math`` and Python ``**``, because numpy's own versions
    differ from libm in the last bit on a few percent of inputs.  An Opaque
    leaf is called point by point.  Where eval_expr would raise (a zero
    divisor, a negative sqrt argument, an overflow, an exception in an
    Opaque leaf) the point is set in bad instead, and its value is
    meaningless; nothing raises.  numpy's error state is set once, around
    the whole walk."""
    with np.errstate(all="ignore"):
        return _eval_array(e, cols, bad)


def _eval_array(e: Expr, cols: Mapping[str, np.ndarray], bad: np.ndarray) -> np.ndarray:
    n = len(bad)
    if isinstance(e, Const):
        return np.full(n, e.value, dtype=float)
    if isinstance(e, Var):
        if e.name not in cols:
            bad[:] = True
            return np.zeros(n)
        return np.asarray(cols[e.name], dtype=float)
    if isinstance(e, Neg):
        return -_eval_array(e.operand, cols, bad)
    if isinstance(e, Pow):
        return _each(lambda a: a ** e.exponent, _eval_array(e.base, cols, bad), bad)
    if isinstance(e, BinOp):
        a = _eval_array(e.left, cols, bad)
        b = _eval_array(e.right, cols, bad)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        zero = b == 0.0
        bad |= zero
        return a / np.where(zero, 1.0, b)
    if isinstance(e, Call):
        v = _eval_array(e.arg, cols, bad)
        if e.func == "abs":
            return np.abs(v)
        if e.func == "sgn":
            return (v > 0.0).astype(float) - (v < 0.0)
        if e.func == "sqrt":
            negative = v < 0.0
            bad |= negative
            return np.sqrt(np.where(negative, 0.0, v))
        return _each(_MATH[e.func], v, bad)
    if isinstance(e, Opaque):
        args = [_eval_array(a, cols, bad).tolist() for a in e.args]
        out = np.zeros(n)
        for i in np.flatnonzero(~bad).tolist():
            try:
                out[i] = float(e.fn(*(a[i] for a in args)))
            except Exception:  # the scalar path raises it again
                bad[i] = True
        return out
    raise TypeError(f"not an Expr node: {e!r}")


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, Opaque):
        return set().union(*(free_vars(a) for a in e.args))
    raise TypeError(f"not an Expr node: {e!r}")


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return neg(subst(e.operand, mapping))
    if isinstance(e, Pow):
        return powi(subst(e.base, mapping), e.exponent)
    if isinstance(e, BinOp):
        a = subst(e.left, mapping)
        b = subst(e.right, mapping)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](a, b)
    if isinstance(e, Call):
        return Call(e.func, subst(e.arg, mapping))
    if isinstance(e, Opaque):
        return opaque(e.fn, (subst(a, mapping) for a in e.args))
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation (classical rules; d|g| = sgn(g) dg, d sgn(g) = 0)

def diff(e: Expr, var: str, memo: dict | None = None) -> Expr:
    if memo is not None and id(e) in memo:
        return memo[id(e)][1]
    if isinstance(e, Const):
        d = ZERO
    elif isinstance(e, Var):
        d = ONE if e.name == var else ZERO
    elif isinstance(e, Neg):
        d = neg(diff(e.operand, var, memo))
    elif isinstance(e, Pow):
        d = ZERO if e.exponent == 0 else mul(
            mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), diff(e.base, var, memo))
    elif isinstance(e, BinOp):
        da, db = diff(e.left, var, memo), diff(e.right, var, memo)
        if e.op == "+":
            d = add(da, db)
        elif e.op == "-":
            d = sub(da, db)
        elif e.op == "*":
            d = add(mul(da, e.right), mul(e.left, db))
        else:
            d = div(sub(mul(da, e.right), mul(e.left, db)), powi(e.right, 2))
    elif isinstance(e, Call):
        dg = diff(e.arg, var, memo)
        if e.func == "abs":
            d = mul(Call("sgn", e.arg), dg)
        elif e.func == "sgn":
            d = ZERO
        elif e.func == "exp":
            d = mul(e, dg)
        elif e.func == "sqrt":
            d = div(dg, mul(Const(2.0), e))
        elif e.func == "sin":
            d = mul(Call("cos", e.arg), dg)
        else:
            d = neg(mul(Call("sin", e.arg), dg))
    elif isinstance(e, Opaque):
        raise NotSymbolic(f"no symbolic derivative of {format_expr(e)}")
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    if memo is not None:
        memo[id(e)] = (e, d)
    return d


# ---------------------------------------------------------------------------
# Affine singular structure

@dataclass(frozen=True)
class AffineForm:
    """The affine functional l(x) = a.x - b; its zero set is a candidate
    singular hyperplane.  Stored normalized: first nonzero coefficient +1."""

    coeffs: tuple[float, ...]
    offset: float

    def __post_init__(self):
        if not any(c != 0.0 for c in self.coeffs):
            raise ExprError("AffineForm requires a nonzero coefficient")

    def value(self, point: Sequence[float]) -> float:
        return math.fsum(c * p for c, p in zip(self.coeffs, point)) - self.offset

    def same_as(self, other: "AffineForm") -> bool:
        return (
            len(self.coeffs) == len(other.coeffs)
            and all(abs(a - b) <= 1e-9 for a, b in zip(self.coeffs, other.coeffs))
            and abs(self.offset - other.offset) <= 1e-9
        )

    def primary_axis(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                return i
        raise ExprError("degenerate form")


def normalize_affine(coeffs: Sequence[float], const: float) -> tuple[AffineForm, float]:
    """Return (form, scale) with a.x + const == scale * (form.coeffs.x - form.offset)."""
    lead = None
    for c in coeffs:
        if c != 0.0:
            lead = c
            break
    if lead is None:
        raise ExprError("affine argument has no variable part")
    return AffineForm(tuple(c / lead for c in coeffs), -const / lead), lead


def as_affine(e: Expr, vars: Sequence[str]):
    """Decompose e as a.x + c over vars; return (coeffs, c) or None."""
    if not free_vars(e):
        try:
            return (tuple(0.0 for _ in vars), eval_expr(e, {}))
        except EvalDomainError:
            return None
    if isinstance(e, Var):
        return (tuple(1.0 if v == e.name else 0.0 for v in vars), 0.0)
    if isinstance(e, Neg):
        r = as_affine(e.operand, vars)
        if r is None:
            return None
        return (tuple(-c for c in r[0]), -r[1])
    if isinstance(e, BinOp):
        if e.op in ("+", "-"):
            ra = as_affine(e.left, vars)
            rb = as_affine(e.right, vars)
            if ra is None or rb is None:
                return None
            s = 1.0 if e.op == "+" else -1.0
            return (tuple(a + s * b for a, b in zip(ra[0], rb[0])), ra[1] + s * rb[1])
        if e.op == "*":
            ra = as_affine(e.left, vars)
            rb = as_affine(e.right, vars)
            if ra is None or rb is None:
                return None
            if all(c == 0.0 for c in ra[0]):
                k = ra[1]
                return (tuple(k * c for c in rb[0]), k * rb[1])
            if all(c == 0.0 for c in rb[0]):
                k = rb[1]
                return (tuple(k * c for c in ra[0]), k * ra[1])
            return None
        if e.op == "/":
            ra = as_affine(e.left, vars)
            rb = as_affine(e.right, vars)
            if ra is None or rb is None or any(c != 0.0 for c in rb[0]) or rb[1] == 0.0:
                return None
            k = rb[1]
            return (tuple(c / k for c in ra[0]), ra[1] / k)
    if isinstance(e, Pow):
        if e.exponent == 1:
            return as_affine(e.base, vars)
        return None
    return None


def _singular_args(e: Expr) -> Iterable[Expr]:
    if isinstance(e, Call):
        if e.func in ("abs", "sgn"):
            yield e.arg
        yield from _singular_args(e.arg)
    elif isinstance(e, Neg):
        yield from _singular_args(e.operand)
    elif isinstance(e, Pow):
        yield from _singular_args(e.base)
    elif isinstance(e, BinOp):
        yield from _singular_args(e.left)
        yield from _singular_args(e.right)


def affine_arguments(e: Expr, vars: Sequence[str]) -> list[AffineForm]:
    """All normalized affine forms under abs/sgn, deduplicated in order of
    first appearance."""
    forms: list[AffineForm] = []
    for arg in _singular_args(e):
        aff = as_affine(arg, vars)
        if aff is None:
            raise NonAffineSingularity(
                f"abs/sgn argument {format_expr(arg)!r} is not affine in {list(vars)}"
            )
        if not any(c != 0.0 for c in aff[0]):
            continue  # constant argument, no singular set
        form, _ = normalize_affine(*aff)
        if not any(form.same_as(f) for f in forms):
            forms.append(form)
    return forms


def find_form(forms: Sequence[AffineForm], f: AffineForm) -> int:
    for i, g in enumerate(forms):
        if g.same_as(f):
            return i
    return -1


_BINOPS = {"+": add, "-": sub, "*": mul, "/": div}


def pin_signs(
    e: Expr,
    vars: Sequence[str],
    assignment: Sequence[tuple[AffineForm, int]],
    partial: bool = False,
    memo: dict | None = None,
) -> Expr:
    """Replace sgn(l) by the assigned sign and abs(l) by sign*l.

    The tree is rebuilt bottom-up through the smart constructors, and each
    abs/sgn argument is pinned, then resolved through as_affine and
    normalize_affine: a constant one folds, any other takes the sign of the
    first assigned form ``same_as`` its form (flipped back when stored with
    flipped orientation).  With ``partial=True`` unassigned abs/sgn nodes
    are left in place (used for limits along a form that stays identically
    zero).

    ``memo`` (id(node) -> (node, entry), for one ``vars``) keeps what
    depends on no sign: each such subtree pinned, and the pinned argument,
    form and scale of each abs/sgn node whose argument is such a subtree.
    Pins sharing it rebuild only the nodes above those abs/sgn nodes; the
    trees are the ones a pin without it builds, and a node that raises is
    not kept, so it raises again at its turn."""
    vars = tuple(vars)
    memo = {} if memo is None else memo

    def signed(func: str, arg: Expr, form: AffineForm, scale: float) -> Expr:
        for g, s in assignment:
            if g.same_as(form):
                sigma = float(s if scale > 0 else -s)
                return Const(sigma) if func == "sgn" else mul(Const(sigma), arg)
        if partial:
            return Call(func, arg)
        raise UnassignedForm(f"no sign assigned for form of {format_expr(arg)!r}")

    def pin(n: Expr) -> tuple:
        """(n pinned, whether that depends on no sign, and so is kept)."""
        if isinstance(n, (Const, Var)):
            return n, True
        kept = memo.get(id(n))
        if kept is not None:
            return (kept[1], True) if isinstance(kept[1], Expr) else (signed(n.func, *kept[1]), False)
        if isinstance(n, Neg):
            a, free = pin(n.operand)
            out = neg(a)
        elif isinstance(n, Pow):
            a, free = pin(n.base)
            out = powi(a, n.exponent)
        elif isinstance(n, BinOp):
            (a, fa), (b, fb) = pin(n.left), pin(n.right)
            out, free = _BINOPS[n.op](a, b), fa and fb
        elif isinstance(n, Call) and n.func in ("abs", "sgn"):
            a, free = pin(n.arg)
            aff = as_affine(a, vars)
            if aff is None:
                raise NonAffineSingularity(
                    f"abs/sgn argument {format_expr(a)!r} is not affine in {list(vars)}"
                )
            if any(c != 0.0 for c in aff[0]):
                resolved = (a, *normalize_affine(*aff))
                if free:
                    memo[id(n)] = (n, resolved)
                return signed(n.func, *resolved), False
            v = aff[1]
            out = Const(float((v > 0.0) - (v < 0.0))) if n.func == "sgn" else Const(abs(v))
        elif isinstance(n, Call):
            a, free = pin(n.arg)
            out = Call(n.func, a)
        else:
            raise TypeError(f"not an Expr node: {n!r}")
        if free:
            memo[id(n)] = (n, out)
        return out, free

    return pin(e)[0]


# ---------------------------------------------------------------------------
# Term-wise symbolic antiderivatives (enough for the solver fixtures:
# piecewise polynomials plus c*exp/sin/cos of affine arguments)

_MAX_DEGREE = 24


def poly_coeffs(e: Expr, var: str):
    """Coefficient list [c0, c1, ...] of e as a polynomial in var, or None
    (also when its degree would pass _MAX_DEGREE)."""
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Var):
        if e.name == var:
            return [0.0, 1.0]
        return None
    if isinstance(e, Neg):
        r = poly_coeffs(e.operand, var)
        return None if r is None else [-c for c in r]
    if isinstance(e, Pow):
        r = poly_coeffs(e.base, var)
        if r is None or (len(r) - 1) * e.exponent > _MAX_DEGREE:
            return None
        out = [1.0]
        for _ in range(e.exponent):
            out = _poly_mul(out, r)
        return out
    if isinstance(e, BinOp):
        ra = poly_coeffs(e.left, var)
        rb = poly_coeffs(e.right, var)
        if ra is None or rb is None:
            return None
        if e.op == "+":
            return _poly_add(ra, rb)
        if e.op == "-":
            return _poly_add(ra, [-c for c in rb])
        if e.op == "*":
            if len(ra) + len(rb) - 2 > _MAX_DEGREE:
                return None
            return _poly_mul(ra, rb)
        if len(rb) == 1 and rb[0] != 0.0:
            return [c / rb[0] for c in ra]
        return None
    return None


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0) for i in range(n)]


def _poly_mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_to_expr(coeffs: Sequence[float], var: str) -> Expr:
    e: Expr = ZERO
    x = Var(var)
    for i, c in enumerate(coeffs):
        if c != 0.0:
            e = add(e, mul(Const(c), powi(x, i)))
    return e


def _split_terms(e: Expr, sign: float = 1.0):
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        yield from _split_terms(e.left, sign)
        yield from _split_terms(e.right, sign if e.op == "+" else -sign)
    elif isinstance(e, Neg):
        yield from _split_terms(e.operand, -sign)
    else:
        yield (sign, e)


def _term_factor(term: Expr, var: str):
    """Split term into (constant, Call node) when it is c * f(affine), else None."""
    if isinstance(term, Call):
        return (1.0, term)
    if isinstance(term, BinOp) and term.op == "*":
        for a, b in ((term.left, term.right), (term.right, term.left)):
            if not free_vars(a) and isinstance(b, Call):
                return (eval_expr(a, {}), b)
    if isinstance(term, BinOp) and term.op == "/":
        if not free_vars(term.right) and isinstance(term.left, Call):
            d = eval_expr(term.right, {})
            if d != 0.0:
                return (1.0 / d, term.left)
    return None


def antiderivative(e: Expr, var: str):
    """A symbolic antiderivative in var, or None if outside the supported
    class (polynomials plus constant multiples of exp/sin/cos of affine)."""
    result: Expr = ZERO
    for sign, term in _split_terms(e):
        p = poly_coeffs(term, var)
        if p is not None:
            anti = [0.0] + [c / (i + 1) for i, c in enumerate(p)]
            result = add(result, mul(Const(sign), poly_to_expr(anti, var)))
            continue
        cf = _term_factor(term, var)
        if cf is None:
            return None
        c, node = cf
        aff = as_affine(node.arg, [var])
        if aff is None or aff[0][0] == 0.0:
            return None
        k = aff[0][0]
        if node.func == "exp":
            anti_term = mul(Const(c / k), node)
        elif node.func == "sin":
            anti_term = mul(Const(-c / k), Call("cos", node.arg))
        elif node.func == "cos":
            anti_term = mul(Const(c / k), Call("sin", node.arg))
        else:
            return None
        result = add(result, mul(Const(sign), anti_term))
    return result

