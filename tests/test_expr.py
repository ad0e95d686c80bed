"""Expression layer: grammar, evaluation, differentiation, affine analysis.

Sign pinning is checked against a per-assignment recursion with no memo,
which this file keeps as its oracle."""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speculus.cli as cli
import speculus.expr as expr
from speculus.expr import (
    AffineForm,
    BinOp,
    Call,
    Const,
    EvalDomainError,
    ExprError,
    Neg,
    NotSymbolic,
    Opaque,
    ParseError,
    UnknownIdentifier,
    affine_arguments,
    antiderivative,
    as_affine,
    diff,
    eval_array,
    eval_expr,
    format_expr,
    free_vars,
    normalize_affine,
    opaque,
    parse,
    pin_signs,
    poly_coeffs,
    poly_to_expr,
    Pow,
    UnassignedForm,
    Var,
    add,
    div,
    mul,
    neg,
    powi,
    sub,
    subst,
)
from speculus.expr import NonAffineSingularity
from speculus.piecewise import filled, from_expression


XY = ("x", "y")
X = ("x",)
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
PARSE_ALPHABET = "".join(map(chr, range(32, 127))) + "é²½٣Ⅻ\t\n"
PARSE_FRAGMENTS = ["x", "y", "z", "abs", "sgn", "elu", "exp", "foo", "(", ")", "^", "2",
                   "3.5", ".", "٣", "²", " ", "+", "-", "*", "/"]


class TestParse:
    def test_basic_arithmetic(self):
        e = parse("2*x + 3", X)
        assert eval_expr(e, {"x": 5.0}) == 13.0

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse("-x^2", X)
        assert eval_expr(e, {"x": 3.0}) == -9.0

    def test_power_right_assoc_integer_only(self):
        assert eval_expr(parse("2^3", ()), {}) == 8.0
        with pytest.raises(ParseError):
            parse("x^(-2)", X)
        with pytest.raises(ParseError):
            parse("x^2.5", X)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x^2/(x+1", X)
        assert exc.value.offset == 8

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("x + z", X)

    def test_abs_sgn_sqrt_exp_trig(self):
        e = parse("abs(-3) + sgn(-2) + sqrt(4) + exp(0) + sin(0) + cos(0)", ())
        assert eval_expr(e, {}) == pytest.approx(3 - 1 + 2 + 1 + 0 + 1)

    def test_elu_sugar(self):
        e = parse("elu(x)", X)
        assert eval_expr(e, {"x": 2.0}) == pytest.approx(2.0)
        assert eval_expr(e, {"x": -1.0}) == pytest.approx(math.exp(-1.0) - 1.0)
        assert eval_expr(e, {"x": 0.0}) == pytest.approx(0.0)

    def test_paper_table_function_parses(self):
        e = parse("abs(2*x - y) + abs(x - 3)", XY)
        assert eval_expr(e, {"x": 3.0, "y": 6.0}) == 0.0


# ---------------------------------------------------------------------------
# The parser against the lexer it replaced, which re-scanned the current
# token on every peek.  One change is carried over: a number takes only
# decimal digits (str.isdecimal, the digits float accepts).  With
# str.isdigit, "2²" lexed as a number and float() raised ValueError.

class OracleLexer:
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
        if c.isdecimal() or c == ".":
            j = start
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdecimal() or (self.text[j] == "." and not seen_dot)):
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


class OracleParser:
    def __init__(self, text, vars):
        self.lex = OracleLexer(text)
        self.vars = tuple(vars)

    def parse(self):
        e = self.expr()
        kind, val, off = self.lex.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, _, _ = self.lex.peek()
            if kind in ("+", "-"):
                self.lex.next()
                rhs = self.term()
                e = BinOp(kind, e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, _, _ = self.lex.peek()
            if kind in ("*", "/"):
                self.lex.next()
                rhs = self.factor()
                e = BinOp(kind, e, rhs)
            else:
                return e

    def factor(self):
        e = self.base()
        kind, _, _ = self.lex.peek()
        if kind == "^":
            self.lex.next()
            e = Pow(e, self._uint())
        return e

    def _uint(self):
        kind, val, off = self.lex.peek()
        if kind != "number" or "." in val:
            raise ParseError("exponent must be a nonnegative integer", off)
        self.lex.next()
        return int(val)

    def base(self):
        kind, val, off = self.lex.peek()
        if kind == "number":
            self.lex.next()
            return Const(float(val))
        if kind == "-":
            self.lex.next()
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
                    return subst(OracleParser(expr._ELU_SUGAR, ["g"]).parse(), {"g": arg})
                if val not in expr.FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {val!r}", off)
                return Call(val, arg)
            if val not in self.vars:
                raise UnknownIdentifier(f"unknown identifier {val!r}", off)
            return Var(val)
        raise ParseError(f"expected expression, found {val or 'end of input'!r}", off)

    def _expect(self, kind):
        got, val, off = self.lex.peek()
        if got != kind:
            raise ParseError(f"expected {kind!r}, found {val or 'end of input'!r}", off)
        self.lex.next()


def parse_outcome(parser, text):
    """The tree's repr, or the ParseError's type, message and offset."""
    try:
        return repr(parser(text, XY))
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.offset


PARSE_ERRORS = [
    ("x) $", "ParseError", "unexpected token ')'", 1),
    ("x $", "ParseError", "unexpected character '$'", 2),
    ("1.2.3", "ParseError", "unexpected token '.3'", 3),
    ("..", "ParseError", "malformed number", 0),
    (".", "ParseError", "malformed number", 0),
    ("2 3", "ParseError", "unexpected token '3'", 2),
    ("x^2.5", "ParseError", "exponent must be a nonnegative integer", 2),
    ("x^(-2)", "ParseError", "exponent must be a nonnegative integer", 2),
    ("abs(x", "ParseError", "expected ')', found 'end of input'", 5),
    ("foo(x)", "UnknownIdentifier", "unknown function 'foo'", 0),
    ("z", "UnknownIdentifier", "unknown identifier 'z'", 0),
    ("", "ParseError", "expected expression, found 'end of input'", 0),
    ("  ", "ParseError", "expected expression, found 'end of input'", 2),
    ("x +", "ParseError", "expected expression, found 'end of input'", 3),
    (".5x", "ParseError", "unexpected token 'x'", 2),
    ("x_1", "UnknownIdentifier", "unknown identifier 'x_1'", 0),
    ("1e3", "ParseError", "unexpected token 'e3'", 1),
    ("x ^ 2 ^ 3", "ParseError", "unexpected token '^'", 6),
    ("(x))", "ParseError", "unexpected token ')'", 3),
    ("é", "UnknownIdentifier", "unknown identifier 'é'", 0),
    ("½", "ParseError", "unexpected character '½'", 0),
    ("Ⅻ", "ParseError", "unexpected character 'Ⅻ'", 0),
    # a superscript digit is no number: these raised ValueError from float/int
    ("2²*abs(x)", "ParseError", "unexpected character '²'", 1),
    ("x^²", "ParseError", "unexpected character '²'", 2),
    ("x²", "UnknownIdentifier", "unknown identifier 'x²'", 0),
]


class TestTokenizer:
    @pytest.mark.parametrize("text, kind, message, offset", PARSE_ERRORS)
    def test_error_type_message_offset(self, text, kind, message, offset):
        want = (kind, f"{message} (offset {offset})", offset)
        assert parse_outcome(parse, text) == want
        assert parse_outcome(lambda t, v: OracleParser(t, v).parse(), text) == want

    @pytest.mark.parametrize("text, tree", [
        ("3.", Const(3.0)),
        ("x\t+\n1", BinOp("+", Var("x"), Const(1.0))),
        ("x^٣", Pow(Var("x"), 3)),
    ])
    def test_accepted(self, text, tree):
        assert repr(parse(text, XY)) == repr(tree)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(PARSE_ALPHABET, max_size=12),
        st.lists(st.sampled_from(PARSE_FRAGMENTS) | st.text(PARSE_ALPHABET, max_size=2),
                 max_size=10).map("".join),
    ))
    def test_matches_oracle(self, text):
        try:
            want = parse_outcome(lambda t, v: OracleParser(t, v).parse(), text)
        except Exception:  # not a ParseError: the oracle decides nothing
            return
        assert parse_outcome(parse, text) == want

    def test_one_scan_per_token(self, monkeypatch):
        """Each token, and the end, is matched once per parse."""
        text = "(1/2)*(x + abs(x)) + (1/2)*y + (3/2)*abs(y)"  # corner2d.prob
        lex, tokens = OracleLexer(text), 0
        while lex.next()[0] != "end":
            tokens += 1
        real, scans = expr._TOKEN, []

        class Counted:
            def finditer(self, s):
                for m in real.finditer(s):
                    scans.append(m)
                    yield m

        monkeypatch.setattr(expr, "_TOKEN", Counted())
        parse(text, XY)
        assert tokens == 33 and len(scans) == tokens + 1


class TestEval:
    def test_sgn_zero_is_zero(self):
        assert eval_expr(parse("sgn(x)", X), {"x": 0.0}) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse("1/x", X), {"x": 0.0})

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse("sqrt(x)", X), {"x": -1.0})

    @pytest.mark.parametrize("func", ["sin", "cos"])
    def test_trig_of_infinity(self, func):
        e = parse(f"{func}(x)", X)
        with pytest.raises(EvalDomainError, match=f"{func} of infinite value -inf"):
            eval_expr(e, {"x": -math.inf})
        bad = np.zeros(2, dtype=bool)
        eval_array(e, {"x": np.array([-math.inf, 1.0])}, bad)
        assert bad.tolist() == [True, False]  # the batch leaves it to eval_expr

    @pytest.mark.parametrize("node", [2.0, "x", None, BinOp("+", Var("x"), 2.0)])
    @pytest.mark.parametrize("walk", ["eval_expr", "eval_array", "diff"])
    def test_non_expr_node_raises_type_error(self, walk, node):
        """Each walk tests its node types in turn and ends in TypeError."""
        calls = {"eval_expr": lambda e: eval_expr(e, {"x": 1.0}),
                 "eval_array": lambda e: eval_array(e, {"x": np.ones(2)}, np.zeros(2, dtype=bool)),
                 "diff": lambda e: diff(e, "x")}
        with pytest.raises(TypeError, match="not an Expr node"):
            calls[walk](node)

    def test_q_function(self):
        e = parse("(1/2)*x*abs(x)", X)
        assert eval_expr(e, {"x": -2.0}) == -2.0

    @staticmethod
    def assert_batch_is_scalar(e, xs):
        """eval_array over xs has length len(xs), sets bad exactly where
        eval_expr raises, and equals it bit for bit elsewhere."""
        bad = np.zeros(len(xs), dtype=bool)
        values = eval_array(e, {"x": np.array(xs)}, bad)
        assert values.shape == (len(xs),)
        for x, v, failed in zip(xs, values.tolist(), bad.tolist()):
            try:
                want = eval_expr(e, {"x": x})
            except EvalDomainError:
                assert failed, x
                continue
            assert not failed and np.float64(v).view(np.int64) == np.float64(want).view(np.int64), x

    @pytest.mark.parametrize("e", [Const(2.5), Const(-0.0), parse("2^3 + exp(1) - sgn(-3)", X),
                                   parse("1/0", X)])
    def test_constant_tree_has_one_value_per_point(self, e):
        self.assert_batch_is_scalar(e, [0.0, -1.0, 7.5])

    def test_opaque_with_constant_argument(self):
        leaf = opaque(math.hypot, (Var("x"), Const(-2.0)))
        assert isinstance(leaf, Opaque)
        self.assert_batch_is_scalar(mul(leaf, parse("sgn(3)", X)), [0.0, -1.5, 3.0, -0.0])

    def test_power_overflow_sets_bad(self):
        e = parse("x^2 - 2^3*x", X)
        with pytest.raises(EvalDomainError, match="overflow"):
            eval_expr(e, {"x": 1e200})
        self.assert_batch_is_scalar(e, [1e200, 3.0, -1e200, 1e-200, -0.0])

    def test_failing_leaf_stops_its_batch(self):
        """An Opaque leaf that fails at 2 and at 4 is called no further in
        the batch after 2, which sets every later point in bad; ``filled``
        then meets the failure at 2 first and raises its message, as a
        point-by-point pass does."""
        calls = []

        def leaf(x):
            calls.append(x)
            if x in (2.0, 4.0):
                raise ValueError(f"no value at {x}")
            return -x

        e = add(Var("x"), Opaque(leaf, (Var("x"),)))
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        bad = np.zeros(len(xs), dtype=bool)
        values = eval_array(e, {"x": xs}, bad)
        assert calls == [1.0, 2.0] and bad.tolist() == [False, True, True, True, True]
        calls.clear()
        with pytest.raises(ValueError, match=r"^no value at 2\.0$"):
            filled((xs,), [(values, ~bad, lambda p: eval_expr(e, {"x": p[0]}))])
        assert calls == [2.0]


class TestFormatRoundTrip:
    CASES = [
        "abs(2*x - y) + abs(x - 3)",
        "-x^2 + 3*x - 1",
        "(x + 1)*(x - 1)",
        "exp(x - y)/(1 + x^2)",
        "sgn(x)*abs(y) - sqrt(1 + x^2)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        e = parse(text, XY)
        e2 = parse(format_expr(e), XY)
        for x in (-2.0, -0.5, 0.3, 1.7):
            for y in (-1.1, 0.2, 2.9):
                assert eval_expr(e, {"x": x, "y": y}) == eval_expr(
                    e2, {"x": x, "y": y}
                )

    @pytest.mark.parametrize("value, text", [(1e-05, "0.00001"), (1e16, "10000000000000000"),
                                             (2.5e-07, "0.00000025"), (-0.0, "0"), (3.0, "3")])
    def test_constant_digits(self, value, text):
        assert format_expr(Const(value)) == text

    @given(st.recursive(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(Const),
                  st.sampled_from((Const(1e-300), Const(1e300), Var("x"), Var("y")))),
        lambda kids: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
            st.builds(Neg, kids),
            st.builds(Call, st.sampled_from(("abs", "sgn", "exp", "sqrt", "sin", "cos")), kids),
            st.builds(Pow, kids, st.integers(0, 3))),
        max_leaves=8))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_fuzz(self, e):
        """Every tree with finite constants prints as text that parses
        back to a tree of equal values (== : -0.0 prints as 0)."""
        def value(tree, p):  # the value, or the type of the error raised
            try:
                return eval_expr(tree, dict(zip(XY, p)))
            except ExprError as exc:
                return type(exc)

        e2 = parse(format_expr(e), XY)
        for p in ((-2.0, 0.5), (0.3, -1.7), (1e-3, 4.0)):
            got = [value(tree, p) for tree in (e, e2)]
            assert got[0] == got[1] or all(v != v for v in got), got  # nan: inf - inf


class TestDiff:
    def test_q_prime_is_abs(self):
        e = parse("(1/2)*x*abs(x)", X)
        d = diff(e, "x")
        for v in (-2.0, -0.3, 0.4, 1.5):
            assert eval_expr(d, {"x": v}) == pytest.approx(abs(v), abs=1e-14)

    def test_constant(self):
        assert eval_expr(diff(parse("7", X), "x"), {"x": 1.0}) == 0.0

    def test_exp_chain(self):
        d = diff(parse("exp(x - t)", ("x", "t")), "t")
        for x, t in ((0.3, 0.1), (1.0, 2.0)):
            assert eval_expr(d, {"x": x, "t": t}) == pytest.approx(
                -math.exp(x - t), rel=1e-12
            )

    @given(
        st.floats(-3, 3).filter(lambda v: abs(v) > 1e-3),
        st.sampled_from(
            ["x^3 - 2*x", "sin(2*x)", "exp(x)/(2 + cos(x))", "sqrt(4 + x^2)"]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_diff_matches_richardson_fd(self, v, text):
        e = parse(text, X)
        d = diff(e, "x")
        h = 1e-5
        f = lambda z: eval_expr(e, {"x": z})
        fd = (8 * (f(v + h) - f(v - h)) - (f(v + 2 * h) - f(v - 2 * h))) / (12 * h)
        assert eval_expr(d, {"x": v}) == pytest.approx(fd, rel=1e-7, abs=1e-7)


class TestAffine:
    def test_affine_arguments_normalized(self):
        forms = affine_arguments(parse("abs(2*x - y) + abs(x - 3)", XY), XY)
        assert forms == [
            AffineForm((1.0, -0.5), 0.0),
            AffineForm((1.0, 0.0), 3.0),
        ]

    def test_smooth_has_no_forms(self):
        assert affine_arguments(parse("x^2 + y", XY), XY) == []

    def test_nonaffine_rejected(self):
        with pytest.raises(NonAffineSingularity):
            affine_arguments(parse("abs(x*y)", XY), XY)

    def test_normalize_orientation(self):
        form, scale = normalize_affine((-2.0, 1.0), 4.0)
        assert form == AffineForm((1.0, -0.5), 2.0)
        assert scale == -2.0

    def test_as_affine(self):
        coeffs, const = as_affine(parse("(2*x - y + 6)/2", XY), XY)
        assert coeffs == (1.0, -0.5)
        assert const == 3.0
        assert as_affine(parse("x*y", XY), XY) is None

    def test_pin_signs_four_case_table(self):
        e = parse("abs(2*x - y) + abs(x - 3)", XY)
        forms = affine_arguments(e, XY)
        pinned = pin_signs(e, XY, [(forms[0], 1), (forms[1], -1)])
        # 2x - y >= 0, x - 3 < 0  ->  (2x - y) - (x - 3) = x - y + 3
        for x, y in ((1.0, 0.5), (2.0, 1.0)):
            assert eval_expr(pinned, {"x": x, "y": y}) == pytest.approx(
                x - y + 3, abs=1e-12
            )

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_pin_signs_consistent_with_eval(self, x, y):
        e = parse("abs(2*x - y) + abs(x - 3)", XY)
        forms = affine_arguments(e, XY)
        sig = []
        for f in forms:
            v = f.value((x, y))
            if v == 0.0:
                return  # measure-zero; on-line handling is piecewise's job
            sig.append((f, 1 if v > 0 else -1))
        pinned = pin_signs(e, XY, sig)
        assert eval_expr(pinned, {"x": x, "y": y}) == pytest.approx(
            eval_expr(e, {"x": x, "y": y}), rel=1e-12, abs=1e-12
        )

    def test_pin_elu_negative_branch(self):
        e = parse("elu(x)", X)
        forms = affine_arguments(e, X)
        pinned = pin_signs(e, X, [(forms[0], -1)])
        for v in (-2.0, -0.5):
            assert eval_expr(pinned, {"x": v}) == pytest.approx(
                math.exp(v) - 1.0, rel=1e-12
            )


class TestPolyAndAntiderivative:
    def test_poly_coeffs(self):
        assert poly_coeffs(parse("(x + 1)^2 - x", X), "x") == [1.0, 1.0, 1.0]
        assert poly_coeffs(parse("abs(x)", X), "x") is None

    def test_poly_to_expr_round_trip(self):
        e = poly_to_expr([2.0, 0.0, -1.0], "x")
        assert eval_expr(e, {"x": 3.0}) == 2.0 - 9.0

    @pytest.mark.parametrize(
        "text",
        ["x^2 - 3*x + 1", "2*exp(3*x - 1)", "sin(2*x)", "cos(x - 4)", "5"],
    )
    def test_antiderivative_differentiates_back(self, text):
        e = parse(text, X)
        F = antiderivative(e, "x")
        assert F is not None
        d = diff(F, "x")
        for v in (-1.3, 0.0, 0.7, 2.1):
            assert eval_expr(d, {"x": v}) == pytest.approx(
                eval_expr(e, {"x": v}), rel=1e-12, abs=1e-12
            )

    def test_antiderivative_unavailable(self):
        assert antiderivative(parse("exp(x^2)", X), "x") is None


class TestMisc:
    def test_free_vars_and_subst(self):
        e = parse("x + 2*y", XY)
        assert free_vars(e) == {"x", "y"}
        e2 = subst(e, {"y": parse("x - 1", X)})
        assert eval_expr(e2, {"x": 2.0}) == 2.0 + 2.0 * 1.0


class TestOpaque:
    """An Opaque leaf is a function applied to its argument expressions."""

    def leaf(self):
        return opaque(math.hypot, (parse("x - 1", XY), Var("y")))

    def test_eval(self):
        assert eval_expr(self.leaf(), {"x": 4.0, "y": 4.0}) == 5.0
        assert eval_expr(add(mul(Const(2.0), self.leaf()), Const(1.0)), {"x": 1.0, "y": -3.0}) == 7.0

    def test_free_vars(self):
        assert free_vars(self.leaf()) == {"x", "y"}
        assert free_vars(opaque(math.hypot, (Var("x"), Const(2.0)))) == {"x"}

    def test_subst(self):
        e = subst(self.leaf(), {"x": parse("2*y + 1", XY)})
        assert isinstance(e, Opaque)
        assert free_vars(e) == {"y"}
        assert eval_expr(e, {"y": 3.0}) == math.hypot(6.0, 3.0)

    def test_subst_to_constant_folds(self):
        e = subst(self.leaf(), {"x": Const(4.0), "y": Const(-4.0)})
        assert e == Const(5.0)

    def test_format(self):
        assert format_expr(self.leaf()) == "hypot(x - 1, y)"
        assert format_expr(neg(self.leaf())) == "-hypot(x - 1, y)"

    def test_diff_raises(self):
        with pytest.raises(NotSymbolic):
            diff(self.leaf(), "x")
        # also when the leaf sits inside a larger tree
        with pytest.raises(NotSymbolic):
            diff(add(parse("x^2", XY), mul(Const(3.0), self.leaf())), "y")

    @staticmethod
    def hypot_partials(a, b):
        h = opaque(math.hypot, (a, b), TestOpaque.hypot_partials)
        return div(a, h), div(b, h)

    def test_diff_chain_rule_through_partials(self):
        # d/dx hypot(x - 1, x*y) = ((x - 1) + x*y*y) / hypot
        leaf = opaque(math.hypot, (parse("x - 1", XY), parse("x*y", XY)), self.hypot_partials)
        for x, y in ((4.0, 0.5), (-1.0, 2.0)):
            h = math.hypot(x - 1, x * y)
            assert eval_expr(diff(leaf, "x"), {"x": x, "y": y}) == pytest.approx(((x - 1) + x * y * y) / h)
            assert eval_expr(diff(leaf, "y"), {"x": x, "y": y}) == pytest.approx(x * x * y / h)

    def test_partials_survive_subst_and_are_ignored_by_equality(self):
        leaf = opaque(math.hypot, (parse("x - 1", XY), Var("y")), self.hypot_partials)
        assert leaf == self.leaf() and hash(leaf) == hash(self.leaf()) and repr(leaf) == repr(self.leaf())
        e = subst(leaf, {"x": parse("2*y + 1", XY)})  # hypot(2y, y) = sqrt(5) |y|
        assert eval_expr(diff(e, "y"), {"y": 3.0}) == pytest.approx(math.sqrt(5.0))

    def test_opaque_folds_constant_arguments(self):
        calls = []

        def fn(a, b):
            calls.append((a, b))
            return a * b

        assert opaque(fn, (Const(3.0), parse("2 - 4", XY))) == Const(-6.0)
        assert calls == [(3.0, -2.0)]
        assert isinstance(opaque(fn, (Const(3.0), Var("x"))), Opaque)

    def test_no_antiderivative_or_polynomial(self):
        leaf = opaque(math.exp, (Var("x"),))
        assert poly_coeffs(leaf, "x") is None
        assert antiderivative(leaf, "x") is None
        assert antiderivative(add(parse("x", X), leaf), "x") is None


# ---------------------------------------------------------------------------
# Sign pinning, with a memo shared across assignments, against a plain recursion

def pin_signs_oracle(e, vars, assignment, partial=False):
    """One walk of e per assignment: every abs/sgn argument is pinned, then
    resolved through as_affine/normalize_affine, then looked up."""

    def rec(node):
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


def outcome(pin):
    """The pinned tree's repr (which shows -0.0), or the error raised."""
    try:
        return repr(pin())
    except (ExprError, TypeError) as exc:
        return type(exc), str(exc)


# abs/sgn arguments: flipped orientation, constants, forms within the 1e-9
# same_as tolerance of each other, and arguments that are not affine
AFFINE = st.one_of(
    st.sampled_from([
        "x", "1 - x", "2*x - y", "x - 3", "-x + y", "x - 1", "x - 1.0000000005",
        "x/2 - 0.5", "-2", "0", "3 - 1", "0*x", "(x + y)*2", "x*y", "abs(x) - 1", "1/0",
        "y - 0.0000000001",
    ]),
    st.builds("{}*x + {}*y - {}".format, *[st.sampled_from(["0", "1", "2", "0.5"])] * 3),
)
SINGULAR = st.builds("{}({})".format, st.sampled_from(["abs", "sgn", "elu"]), AFFINE)
FORMULAS = st.recursive(
    st.sampled_from(["x", "y", "2", "0", "0.5"]) | SINGULAR,
    lambda kids: st.one_of(
        st.builds("({}) {} ({})".format, kids, st.sampled_from("+-*/"), kids),
        st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos", "sqrt", "abs", "sgn"]), kids),
        st.builds("({})^{}".format, kids, st.integers(0, 3)),
        st.builds("-({})".format, kids),
    ),
    max_leaves=8,
)
EXTRA_FORMS = [AffineForm((1.0, 0.0), 1.0), AffineForm((1.0, -0.5), 0.0),
               AffineForm((0.0, 1.0), 0.0), AffineForm((1.0, 0.0), 1.0 + 4e-10)]


def _forms_of(e):
    try:
        return affine_arguments(e, XY)
    except NonAffineSingularity:
        return []


def count_outer_as_affine(monkeypatch):
    """A list of the arguments of the outermost ``as_affine`` calls made
    from now on (its own recursion is not counted)."""
    depth, calls = [0], []
    real = expr.as_affine

    def counted(arg, vars):
        if depth[0] == 0:
            calls.append(arg)
        depth[0] += 1
        try:
            return real(arg, vars)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expr, "as_affine", counted)
    return calls


class TestSignPinner:
    """pin_signs, with one memo shared across assignments where given."""

    @given(FORMULAS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_assignment_recursion(self, text, data):
        e = parse(text, XY)
        pool = _forms_of(e) + EXTRA_FORMS
        memo = {}  # one memo across every assignment, forms and partial flag
        for _ in range(4):
            forms = data.draw(st.lists(st.sampled_from(pool), max_size=6))
            for _ in range(3):
                signs = data.draw(st.lists(st.sampled_from([1, -1, 0]), min_size=len(forms),
                                           max_size=len(forms)))
                partial = data.draw(st.booleans())
                assignment = list(zip(forms, signs))
                want = outcome(lambda: pin_signs_oracle(e, XY, assignment, partial))
                assert outcome(lambda: pin_signs(e, XY, assignment, partial, memo)) == want
                assert outcome(lambda: pin_signs(e, XY, assignment, partial)) == want

    @pytest.mark.parametrize("text", [
        "abs(1 - x)*x", "abs(-2)*x", "sgn(0)", "sgn(3 - 1)*y", "elu(x - 3)",
        "exp(abs(x))*sin(sgn(y - 1)) + sqrt(abs(x - y))^3", "abs(x - 1) + abs(x - 1.0000000005)",
        "-abs(-x) - sgn(-y)", "abs(x)*(0*y)", "sgn(abs(x) - 1)",
    ])
    def test_listed_cases(self, text):
        e = parse(text, XY)
        forms = _forms_of(e) or [AffineForm((1.0, 0.0), 0.0), AffineForm((1.0, 0.0), 1.0)]
        memo = {}
        for signs in itertools.product((1, 0, -1), repeat=len(forms)):
            for partial in (False, True):
                # partial pins leave a 0 out here
                assignment = [(f, s) for f, s in zip(forms, signs) if s or not partial]
                got = outcome(lambda: pin_signs(e, XY, assignment, partial, memo))
                assert got == outcome(lambda: pin_signs_oracle(e, XY, assignment, partial))

    def test_memo_keeps_the_sign_free_work(self, monkeypatch):
        """Each abs/sgn argument that depends on no sign is resolved once
        per memo, and each subtree that depends on none is built once and
        shared by the pinned trees."""
        e = parse("exp(x*y)*abs(x - 1) + sgn(y)*cos(x) - abs(2 - 1)", XY)
        forms = affine_arguments(e, XY)
        calls = count_outer_as_affine(monkeypatch)
        memo = {}
        trees = [pin_signs(e, XY, list(zip(forms, s)), memo=memo)
                 for s in itertools.product((1, -1), repeat=2)]
        assert len(calls) == 3
        assert len({id(t.left.left.left) for t in trees}) == 1  # exp(x*y), built once
        for t, s in zip(trees, itertools.product((1, -1), repeat=2)):
            assert repr(t) == repr(pin_signs_oracle(e, XY, list(zip(forms, s))))

    @pytest.mark.parametrize("text, error", [
        ("abs(x) + abs(x*y)", NonAffineSingularity),
        ("abs(y - 1) + abs(x*y)", UnassignedForm),  # the first error in walk order
        ("abs(x) * abs(y - 1)", UnassignedForm),
        ("x/(0*y + 0) + abs(x*y)", EvalDomainError),
        ("abs(x*y) + x/(0*y)", NonAffineSingularity),
        ("2^2000*abs(x)", OverflowError),
    ])
    def test_raises_as_the_recursion(self, text, error):
        e = parse(text, XY)
        assignment = [(AffineForm((1.0, 0.0), 0.0), 1)]
        with pytest.raises(error) as want:
            pin_signs_oracle(e, XY, assignment)
        with pytest.raises(error) as got:
            pin_signs(e, XY, assignment)
        assert str(got.value) == str(want.value)

    def test_opaque_leaf_is_pinned_through_its_arguments(self):
        """An Opaque leaf is rebuilt from its pinned arguments, so a
        function whose source holds one evaluates on its line too."""
        e = add(opaque(math.hypot, (Call("abs", Var("x")), Var("y"))), Call("abs", Var("x")))
        pinned = pin_signs(e, XY, [(AffineForm((1.0, 0.0), 0.0), -1)])
        assert eval_expr(pinned, {"x": -3.0, "y": 4.0}) == math.hypot(3.0, 4.0) + 3.0
        minus_x = mul(Const(-1.0), Var("x"))
        assert pinned == add(opaque(math.hypot, (minus_x, Var("y"))), minus_x)
        u = from_expression(parse("sgn(x)", X), X)
        u = replace(u, source=add(u.source, Opaque(math.atan, (Var("x"),))))
        assert u.evaluate((0.5,)) == 1.0 + math.atan(0.5)
        assert u.evaluate((0.0,)) == 0.0


def fixture_formulas():
    """(expression, vars) of every formula the problem files hold, and of
    the worked examples of the suite."""
    found = []

    def record(e, vars, *args):
        found.append((e, tuple(vars)))
        return from_expression(e, vars, *args)

    mp = pytest.MonkeyPatch()
    mp.setattr(cli, "from_expression", record)
    try:
        for path in sorted(PROBLEMS.glob("*.prob")):
            cli.load_problem(str(path))
    finally:
        mp.undo()
    for text in ("abs(2*x - y) + abs(x - 3)", "abs(x) - abs(y) - x - y", "sgn(x) + sgn(y)"):
        found.append((parse(text, XY), XY))
    found.append((parse("elu(x - 3)", X), X))
    return found


@pytest.mark.parametrize("e, vars", fixture_formulas())
def test_fixture_branches_match_oracle(e, vars):
    u = from_expression(e, vars)
    forms = affine_arguments(e, vars)
    if not forms:
        assert u.branches == (((), e),)
        return
    assert u.branches == ()
    for s in itertools.product((1, 0, -1), repeat=len(forms)):
        assignment = list(zip(forms, s))  # a 0 pins sgn(l) and abs(l) to 0
        if 0 in s:
            assert u.match(s) is None
        else:
            assert repr(u.match(s)) == repr(pin_signs_oracle(e, vars, assignment))
        assert repr(u.branch(s)) == repr(pin_signs_oracle(e, vars, assignment, partial=True))


def test_from_expression_resolves_each_argument_once(monkeypatch):
    """as_affine calls, counted at the outermost level: affine_arguments
    resolves each of the 4 abs/sgn arguments once at construction, and the
    first pin once more, through the function's ``pin_signs`` memo; the
    other 80 sign vectors that branch() pins reuse it.  One pin walk per
    pattern would make 4 + 81*4 = 328."""
    e = parse("1.5*abs(x - y - 0.5)*sqrt(1 + (x/2)^2) - sgn(2*x + y - 1)"
              " + abs(x + 2*y + 0.5)*exp(x/2) - 2*abs(y - 1)", XY)
    calls = count_outer_as_affine(monkeypatch)
    u = from_expression(e, XY)
    assert len(calls) == 4
    u.branch((1, 1, 1, 1))
    assert len(calls) == 8
    for s in itertools.product((1, 0, -1), repeat=4):
        u.branch(s)
    assert len(calls) == 8
    from_expression(e, XY)
    assert len(calls) == 12
