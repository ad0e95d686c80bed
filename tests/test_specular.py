"""Specular calculus: A-combination (against the F1 oracle of
``paper_checks``), semi/specular derivatives, fields, the continuity
verdict of 1D data, the fundamental-theorem condition, odd reflection, S2
membership."""

import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speculus.expr as expr
import speculus.piecewise as piecewise
from speculus.cli import _residual, load_problem, solve_problem
from speculus.expr import (
    ONE,
    ZERO,
    AffineForm,
    BinOp,
    Call,
    Const,
    Neg,
    NotSymbolic,
    Opaque,
    Pow,
    Var,
    add,
    div,
    format_expr,
    mul,
    neg,
    parse,
    powi,
    sub,
)
from speculus.piecewise import (
    PiecewiseFn,
    classify_continuity,
    from_branches,
    from_expression,
    is_proper,
    proper_leaf,
)
from speculus.specular import (
    a_combine,
    partial_field,
    s2_membership,
    semi_derivatives,
    specular_field,
    specular_partial,
)
from speculus.waves import solve_wave_homogeneous

from paper_checks import a_combine_f1, mixed_partial_residual, odd_reflection_check

X = ("x",)
XY = ("x", "y")
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

finite_slopes = st.floats(-50.0, 50.0, allow_nan=False)


class TestACombine:
    def test_known_values(self):
        assert a_combine(1.0, 0.0) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert a_combine(2.0, -1.0) == pytest.approx(math.sqrt(10) - 3, abs=1e-12)
        assert a_combine(2.0, 0.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
        assert a_combine(3.0, -3.0) == 0.0

    def test_classical_case(self):
        rng = np.random.default_rng(7)
        for m in rng.uniform(-100, 100, 1000):
            assert a_combine(m, m) == pytest.approx(m, abs=1e-12 * (1 + abs(m)))

    @pytest.mark.xfail(
        strict=True,
        reason="tan(atan v) has relative error about |v| * 2e-16 (max 2.1e-9 "
        "at |v| near 1e7), so A(v, v) of large equal slopes is not v to a few ulps",
    )
    def test_classical_case_large_slopes(self):
        rng = np.random.default_rng(7)
        for v in 1e7 * rng.uniform(0.5, 2.0, 1000):
            assert abs(a_combine(v, v) - v) <= 1e-15 * abs(v)

    def test_f1_f2_agreement_bulk(self):
        rng = np.random.default_rng(11)
        pairs = rng.uniform(-30, 30, size=(10000, 2))
        for a, b in pairs:
            if abs(a + b) <= 1e-6:
                continue
            f1 = a_combine_f1(a, b)
            f2 = a_combine(a, b)
            assert abs(f1 - f2) <= 1e-12 * (1 + abs(f1))

    @given(finite_slopes, finite_slopes)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_bitwise(self, a, b):
        assert a_combine(a, b) == a_combine(b, a)

    @given(finite_slopes, finite_slopes)
    @settings(max_examples=200, deadline=None)
    def test_monotone_bracketing(self, a, b):
        v = a_combine(a, b)
        assert min(a, b) - 1e-12 <= v <= max(a, b) + 1e-12

    @given(finite_slopes)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric_pair_zero(self, a):
        assert a_combine(a, -a) == 0.0


class TestSemiAndPartial:
    def test_table_point(self, table_fn):
        pair = semi_derivatives(table_fn, (3.0, 6.0), 0)
        assert pair.right == pytest.approx(3.0, abs=1e-12)
        assert pair.left == pytest.approx(-3.0, abs=1e-12)
        assert specular_partial(table_fn, (3.0, 6.0), 0) == 0.0

    def test_smooth_reduces_to_classical(self):
        u = from_expression(parse("x^2*y + sin(x)", XY), XY)
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-3, 3, size=(50, 2)):
            assert specular_partial(u, (x, y), 0) == pytest.approx(
                2 * x * y + math.cos(x), rel=1e-12, abs=1e-12
            )

    def test_abs_at_zero(self):
        u = from_expression(parse("abs(x)", X), X)
        assert specular_partial(u, (0.0,), 0) == 0.0


class TestSpecularField:
    def test_nine_case_table(self, table_fn):
        f = specular_field(table_fn, 0)
        cases = [
            ((5.0, 1.0), 3.0),                       # both positive
            ((5.0, 11.0), -1.0),                     # 2x-y<0, x-3>0
            ((1.0, -1.0), 1.0),                      # 2x-y>0, x-3<0
            ((0.0, 1.0), -3.0),                      # both negative
            ((4.0, 8.0), a_combine(3.0, -1.0)),      # on 2x-y=0, x>3
            ((1.0, 2.0), a_combine(1.0, -3.0)),      # on 2x-y=0, x<3
            ((3.0, 2.0), a_combine(3.0, 1.0)),       # on x=3, 2x-y>0
            ((3.0, 10.0), a_combine(-1.0, -3.0)),    # on x=3, 2x-y<0
            ((3.0, 6.0), 0.0),                       # crossing: A(3,-3)
        ]
        for p, want in cases:
            assert f.evaluate(p) == pytest.approx(want, abs=1e-12), p

    def test_field_classification(self, table_fn):
        f = specular_field(table_fn, 0)
        rep = classify_continuity(f)
        assert rep.verdict == "piecewise-continuous"
        assert sorted(rep.jump_forms) == [0, 1]

    def test_partial_field_far_from_origin(self):
        u = from_expression(parse("abs(x-20000)+abs(y)", XY), XY)
        f = partial_field(u, 0)
        assert len(f.branches) == 4
        assert f.evaluate((20001.0, 1.0)) == 1.0

    def test_smooth_field_single_branch(self):
        u = from_expression(parse("x^3 - x*y", XY), XY)
        f = specular_field(u, 0)
        assert f.evaluate((2.0, 1.0)) == pytest.approx(12 - 1)

    def test_q_second_field_is_proper_sgn(self):
        q = from_expression(parse("(1/2)*x*abs(x)", X), X)
        d1 = partial_field(q, 0)
        d2 = specular_field(d1, 0)
        assert d1.evaluate((0.5,)) == pytest.approx(0.5)
        assert d1.evaluate((0.0,)) == 0.0          # A(1,-1) of |x| slopes
        assert d2.evaluate((2.0,)) == 1.0
        assert d2.evaluate((-2.0,)) == -1.0
        assert d2.evaluate((0.0,)) == 0.0
        ok, _ = is_proper(d2)
        assert ok

    def test_field_built_once_per_function(self):
        u = from_expression(parse("abs(x - y) + x*y", XY), XY)
        ux = partial_field(u, 0)
        assert partial_field(u, 0) is ux
        assert partial_field(u, 1) is not ux
        assert specular_field(ux, 1) is specular_field(ux, 1)
        assert specular_field(ux, 1) is not specular_field(ux, 0)

    def test_replace_does_not_share_fields(self):
        u = from_expression(parse("abs(x - y) + x*y", XY), XY)
        ux = partial_field(u, 0)
        assert replace(u) == u and ux not in replace(u).derived.values()
        half = replace(u, domain=((AffineForm((0.0, 1.0), 0.0), 1),))
        assert half.derived == {}
        assert partial_field(half, 0) is not ux
        assert partial_field(half, 0).domain == half.domain

    def test_elu_chain(self):
        elu = from_expression(parse("elu(x)", X), X)
        d1 = partial_field(elu, 0)
        assert classify_continuity(d1).verdict == "continuous"
        assert d1.evaluate((0.0,)) == pytest.approx(1.0)  # A(1,1)
        d2 = specular_field(d1, 0)
        assert d2.evaluate((1.0,)) == 0.0
        assert d2.evaluate((-1.0,)) == pytest.approx(math.exp(-1.0))
        assert d2.evaluate((0.0,)) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)


class TestFTCAndReflection:
    def test_differentiability_flags(self):
        """The transport precondition: 1D data is specularly differentiable
        where it is continuous."""
        assert classify_continuity(from_expression(parse("abs(x)", X), X)).verdict == "continuous"
        heav = from_expression(parse("(1 + sgn(x))/2", X), X)
        assert classify_continuity(heav).verdict != "continuous"

    def test_sgn_satisfies_ftc_condition(self):
        f = from_expression(parse("sgn(x)", X), X)
        assert is_proper(f)[0]

    def test_heaviside_fails_ftc_condition(self):
        f = from_expression(parse("(1 + sgn(x))/2", X), X)
        # direct policy stores 1/2 at 0, but A(0,1) = sqrt(2)-1
        assert not is_proper(f)[0]

    def test_odd_reflection(self):
        u = from_expression(parse("abs(x) + x^2", X), X)
        for p in (0.5, 1.0, 2.0):
            assert odd_reflection_check(u, (p,), 0) <= 1e-9


class TestS2Membership:
    def test_q_plus_q_is_s2(self):
        u = from_expression(
            parse("(1/2)*x*abs(x) + (1/2)*y*abs(y)", XY), XY
        )
        rep = s2_membership(u)
        assert rep.verdict == "S2"
        assert mixed_partial_residual(u) <= 1e-9

    def test_smooth_is_s2(self):
        u = from_expression(parse("x^2*y - y^3", XY), XY)
        rep = s2_membership(u)
        assert rep.verdict == "S2"
        assert mixed_partial_residual(u) <= 1e-12

    def test_regularity_chain_heaviside_not_s1(self):
        # 2D embedding of the Heaviside jump: not even continuous
        u = from_expression(parse("(1 + sgn(x))/2 + 0*y", XY), XY)
        rep = s2_membership(u)
        assert rep.verdict in ("S0-only", "fails")

    def test_counterexample_fails_with_lines_named(self, printed_counterexample_u):
        rep = s2_membership(printed_counterexample_u)
        assert rep.verdict != "S2"
        named = {(f.coeffs, f.offset) for f in rep.failure_forms}
        assert ((1.0, -1.0), 0.0) in named or ((1.0, -1.0), -0.0) in named
        assert ((1.0, 1.0), 0.0) in named or ((1.0, 1.0), -0.0) in named


# ---------------------------------------------------------------------------
# The diff memo against the memo-free recursion

def diff_oracle(e, var, *memo):
    """expr.diff without a memo (one passed is ignored): every visit of a
    node differentiates it again."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(diff_oracle(e.operand, var))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        return mul(mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), diff_oracle(e.base, var))
    if isinstance(e, BinOp):
        da, db = diff_oracle(e.left, var), diff_oracle(e.right, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), powi(e.right, 2))
    if isinstance(e, Call):
        dg = diff_oracle(e.arg, var)
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
    if isinstance(e, Opaque):
        if e.grads is None:
            raise NotSymbolic(f"no symbolic derivative of {format_expr(e)}")
        d = ZERO
        for g, a in zip(e.grads(*e.args), e.args):
            d = add(d, mul(g, diff_oracle(a, var)))
        return d
    raise TypeError(f"not an Expr node: {e!r}")


def derivative_fields(u, depth=2):
    """{path: field, or the (type, message) it raised} for the partial and
    specular fields of u along each axis, and in turn of each partial field."""
    out = {}
    for axis in range(u.d):
        for make in (partial_field, specular_field):
            key = (make.__name__, axis)
            try:
                out[key] = fld = make(u, axis)
            except Exception as exc:
                out[key] = (type(exc).__name__, str(exc))
                continue
            if make is partial_field and depth > 1:
                out.update({key + k: v for k, v in derivative_fields(fld, depth - 1).items()})
    return out


FIXTURES = sorted(p.stem for p in PROBLEMS.glob("*.prob"))


def fixture_function(name):
    prob = load_problem(str(PROBLEMS / f"{name}.prob"))
    return prob, (prob.u if prob.kind is None else solve_problem(prob))


@pytest.mark.parametrize("name", FIXTURES)
def test_memoised_diff_matches_oracle(name, monkeypatch):
    """Every branch of the first- and second-level partial and specular
    fields is equal, and has the same repr, whether the branches are
    differentiated through the memo or by the memo-free recursion."""
    _, u = fixture_function(name)
    assert_memoised_diff_matches_oracle(u, monkeypatch)


def assert_memoised_diff_matches_oracle(u, monkeypatch):
    monkeypatch.setattr(piecewise, "diff", diff_oracle)
    want = derivative_fields(u)
    for cache in (u.derived, u._slopes, u._memos):
        cache.clear()
    monkeypatch.setattr(piecewise, "diff", expr.diff)
    got = derivative_fields(u)
    assert got.keys() == want.keys()
    assert any(isinstance(fld, PiecewiseFn) for fld in got.values())
    for key, fld in got.items():
        assert fld == want[key], key
        if isinstance(fld, PiecewiseFn):
            assert [(pat, repr(rhs)) for pat, rhs in fld.branches] == [
                (pat, repr(rhs)) for pat, rhs in want[key].branches]


def test_memoised_diff_matches_oracle_through_leaves(monkeypatch):
    """The same through Opaque leaves that carry partials: the solution for
    a velocity with no symbolic antiderivative (one quadrature leaf per
    region), and a table whose on-line slopes along a vertical specular
    line are derivatives of the proper_leaf of non-constant limits."""
    psi = from_expression(parse("exp(x^2)", X), X)
    line = AffineForm((1.0, 0.0), 0.0)
    table = from_branches((line,), [((1,), parse("x*y^2", XY)), ((-1,), parse("y^3 - x*y", XY))], XY)
    for u in (solve_wave_homogeneous(from_expression(parse("0", X), X), psi), table):
        assert_memoised_diff_matches_oracle(u, monkeypatch)
    # d/dy A(-y, y^2) on x = 0, which proper_leaf builds from the limits
    # across the line
    want = diff_oracle(proper_leaf(parse("-y", XY), parse("y^2", XY)), "y")
    for y in (-1.5, 0.3, 2.0):
        pair = semi_derivatives(partial_field(table, 0), (0.0, y), 1)
        assert pair.right == pair.left == expr.eval_expr(want, {"x": 0.0, "y": y})


@pytest.mark.parametrize("a, b", [(0.3, -1.7), (2.0, 5.0), (-0.5, 0.25), (1e-3, 4.0), (-3.0, -0.1)])
def test_proper_leaf_partials_match_sympy(a, b):
    """The partials of proper_leaf are those of tan((atan a + atan b) / 2)."""
    sympy = pytest.importorskip("sympy")
    sa, sb = sympy.symbols("a b")
    A = sympy.tan((sympy.atan(sa) + sympy.atan(sb)) / 2)
    leaf = proper_leaf(Var("a"), Var("b"))
    for var, sym in (("a", sa), ("b", sb)):
        want = float(sympy.diff(A, sym).subs({sa: a, sb: b}))
        got = expr.eval_expr(expr.diff(leaf, var), {"a": a, "b": b})
        assert got == pytest.approx(want, rel=1e-13)


def test_diff_visits_each_node_once_per_field(monkeypatch):
    """s2_membership and the residual check on fixture halfline differentiate
    each node object at most once per field and variable: 1376 node visits,
    where the memo-free recursion made 3376."""
    prob, u = fixture_function("halfline")
    visits, real = [], expr.diff

    def counted(e, var, memo=None):
        if memo is None or id(e) not in memo:
            visits.append((memo, e, var))
        return real(e, var, memo)

    monkeypatch.setattr(expr, "diff", counted)
    monkeypatch.setattr(piecewise, "diff", counted)
    s2_membership(u)
    _residual(u, prob)
    owner, stack = {}, [u]
    while stack:
        fld = stack.pop()
        owner.update((id(memo), fld) for memo in fld._memos.values())
        stack.extend(fld.derived.values())
    assert visits and all(memo is not None for memo, _, _ in visits)
    per_field = Counter((id(owner[id(memo)]), id(e), var) for memo, e, var in visits)
    assert max(per_field.values()) == 1
