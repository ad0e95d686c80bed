"""Expression trees for real-valued piecewise-smooth formulas.

The AST supports polynomial arithmetic, integer powers, and the function
set {abs, sgn, exp, sqrt, sin, cos}.  ``elu`` is accepted by the parser as
sugar for ``g*(1+sgn(g))/2 + (exp(g)-1)*(1-sgn(g))/2``.  All nonsmoothness
must enter through abs/sgn of affine arguments; that restriction is what
lets the rest of the package enumerate singular hyperplanes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


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


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        c = self.text[self.pos]
        start = self.pos
        if c.isdigit() or c == ".":
            j = start
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit() or (self.text[j] == "." and not seen_dot)):
                if self.text[j] == ".":
                    seen_dot = True
                j += 1
            lit = self.text[start:j]
            if lit == ".":
                raise ParseError("malformed number", start)
            return ("number", lit, start)
        if c.isalpha():
            j = start
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[start:j], start)
        if c in "+-*/^()":
            return (c, c, start)
        raise ParseError(f"unexpected character {c!r}", start)

    def next(self):
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


class _Parser:
    def __init__(self, text: str, vars: Sequence[str]):
        self.lex = _Lexer(text)
        self.vars = tuple(vars)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.lex.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, _, _ = self.lex.peek()
            if kind in ("+", "-"):
                self.lex.next()
                rhs = self.term()
                e = BinOp(kind, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, _, _ = self.lex.peek()
            if kind in ("*", "/"):
                self.lex.next()
                rhs = self.factor()
                e = BinOp(kind, e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        kind, _, _ = self.lex.peek()
        if kind == "^":
            self.lex.next()
            e = Pow(e, self._uint())
        return e

    def _uint(self) -> int:
        kind, val, off = self.lex.peek()
        if kind != "number" or "." in val:
            raise ParseError("exponent must be a nonnegative integer", off)
        self.lex.next()
        return int(val)

    def base(self) -> Expr:
        kind, val, off = self.lex.peek()
        if kind == "number":
            self.lex.next()
            return Const(float(val))
        if kind == "-":
            self.lex.next()
            # '^' binds tighter than an outer unary minus: -x^2 == -(x^2)
            return Neg(self.factor())
        if kind == "(":
            self.lex.next()
            e = self.expr()
            self._expect(")")
            return e
        if kind == "ident":
            self.lex.next()
            nkind, _, _ = self.lex.peek()
            if nkind == "(":
                self.lex.next()
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
        got, val, off = self.lex.peek()
        if got != kind:
            raise ParseError(f"expected {kind!r}, found {val or 'end of input'!r}", off)
        self.lex.next()


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
        return eval_expr(e.base, bindings) ** e.exponent
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
            return math.exp(v)
        if e.func == "sqrt":
            if v < 0.0:
                raise EvalDomainError(f"sqrt of negative value {v}")
            return math.sqrt(v)
        if e.func == "sin":
            return math.sin(v)
        return math.cos(v)
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
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation (classical rules; d|g| = sgn(g) dg, d sgn(g) = 0)

def diff(e: Expr, var: str) -> Expr:
    if isinstance(e, (Const,)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(diff(e.operand, var))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        return mul(mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), diff(e.base, var))
    if isinstance(e, BinOp):
        da, db = diff(e.left, var), diff(e.right, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), powi(e.right, 2))
    if isinstance(e, Call):
        dg = diff(e.arg, var)
        if e.func == "abs":
            return mul(Call("sgn", e.arg), dg)
        if e.func == "sgn":
            return ZERO
        if e.func == "exp":
            return mul(e, dg)
        if e.func == "sqrt":
            return div(dg, mul(Const(2.0), e))
        if e.func == "sin":
            return mul(Call("cos", e.arg), dg)
        return neg(mul(Call("sin", e.arg), dg))
    raise TypeError(f"not an Expr node: {e!r}")


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

    def same_as(self, other: "AffineForm", tol: float = 1e-9) -> bool:
        return (
            len(self.coeffs) == len(other.coeffs)
            and all(abs(a - b) <= tol for a, b in zip(self.coeffs, other.coeffs))
            and abs(self.offset - other.offset) <= tol
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


def pin_signs(
    e: Expr,
    vars: Sequence[str],
    assignment: Sequence[tuple[AffineForm, int]],
    partial: bool = False,
) -> Expr:
    """Replace sgn(l) by the assigned sign and abs(l) by sign*l.

    ``assignment`` maps normalized forms to signs in {-1,+1}; an argument
    stored with flipped orientation gets its sign flipped back.  With
    ``partial=True`` unassigned abs/sgn nodes are left in place (used for
    limits along a form that stays identically zero)."""

    def rec(node: Expr) -> Expr:
        if isinstance(node, (Const, Var)):
            return node
        if isinstance(node, Neg):
            return neg(rec(node.operand))
        if isinstance(node, Pow):
            return powi(rec(node.base), node.exponent)
        if isinstance(node, BinOp):
            return {"+": add, "-": sub, "*": mul, "/": div}[node.op](rec(node.left), rec(node.right))
        if isinstance(node, Call):
            arg = rec(node.arg)
            if node.func not in ("abs", "sgn"):
                return Call(node.func, arg)
            aff = as_affine(arg, vars)
            if aff is None:
                raise NonAffineSingularity(
                    f"abs/sgn argument {format_expr(arg)!r} is not affine in {list(vars)}"
                )
            if not any(c != 0.0 for c in aff[0]):
                v = aff[1]
                s = float((v > 0.0) - (v < 0.0))
                return Const(s) if node.func == "sgn" else Const(abs(v))
            form, scale = normalize_affine(*aff)
            sigma = None
            for g, s in assignment:
                if g.same_as(form):
                    sigma = s if scale > 0 else -s
                    break
            if sigma is None:
                if partial:
                    return Call(node.func, arg)
                raise UnassignedForm(f"no sign assigned for form of {format_expr(arg)!r}")
            if node.func == "sgn":
                return Const(float(sigma))
            return mul(Const(float(sigma)), arg)
        raise TypeError(f"not an Expr node: {node!r}")

    return rec(e)


# ---------------------------------------------------------------------------
# Term-wise symbolic antiderivatives (enough for the solver fixtures:
# piecewise polynomials plus c*exp/sin/cos of affine arguments)

def poly_coeffs(e: Expr, var: str, max_degree: int = 24):
    """Coefficient list [c0, c1, ...] of e as a polynomial in var, or None."""
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Var):
        if e.name == var:
            return [0.0, 1.0]
        return None
    if isinstance(e, Neg):
        r = poly_coeffs(e.operand, var, max_degree)
        return None if r is None else [-c for c in r]
    if isinstance(e, Pow):
        r = poly_coeffs(e.base, var, max_degree)
        if r is None or (len(r) - 1) * e.exponent > max_degree:
            return None
        out = [1.0]
        for _ in range(e.exponent):
            out = _poly_mul(out, r)
        return out
    if isinstance(e, BinOp):
        ra = poly_coeffs(e.left, var, max_degree)
        rb = poly_coeffs(e.right, var, max_degree)
        if ra is None or rb is None:
            return None
        if e.op == "+":
            return _poly_add(ra, rb)
        if e.op == "-":
            return _poly_add(ra, [-c for c in rb])
        if e.op == "*":
            if len(ra) + len(rb) - 2 > max_degree:
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


def expr_to_callable(e: Expr, vars: Sequence[str]) -> Callable[..., float]:
    names = tuple(vars)

    def f(*args: float) -> float:
        return eval_expr(e, dict(zip(names, args)))

    return f
