"""Integration layer: singular-aware 1D quadrature, FTC checks, dependence
triangle, Green-identity verifier."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speculus import quad
from speculus.expr import EvalDomainError, Opaque, Var, add, parse
from speculus.piecewise import PiecewiseFn, from_expression
from speculus.quad import (
    MAX_DEPTH,
    QUAD_TOL,
    DependenceTriangle,
    QuadratureError,
    TypeIIIRegion,
    adaptive_panel,
    antiderivative_check,
    green_check,
    integrate_1d,
    integrate_triangle,
    singular_points_1d,
    triangle_nodes,
)

X = ("x",)
XY = ("x", "y")
XT = ("x", "t")


class TestIntegrate1D:
    def test_sgn_over_minus1_2(self):
        f = from_expression(parse("sgn(x)", X), X)
        assert integrate_1d(f, -1.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_abs_exact(self):
        f = from_expression(parse("abs(x)", X), X)
        assert integrate_1d(f, -2.0, 3.0) == pytest.approx(6.5, abs=1e-10)

    def test_orientation(self):
        f = from_expression(parse("abs(x)", X), X)
        assert integrate_1d(f, 3.0, -2.0) == pytest.approx(-6.5, abs=1e-10)

    def test_plain_callable(self):
        assert integrate_1d(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_singular_points(self):
        f = from_expression(parse("abs(x - 1) + abs(2*x + 3)", X), X)
        assert singular_points_1d(f, -5.0, 5.0) == pytest.approx([-1.5, 1.0])

    @given(
        st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4)
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, a, b, c):
        f = from_expression(parse("abs(x) - sgn(x - 1)", X), X)
        whole = integrate_1d(f, a, c)
        split = integrate_1d(f, a, b) + integrate_1d(f, b, c)
        assert whole == pytest.approx(split, abs=1e-9)


class TestAntiderivativeCheck:
    def test_sgn_abs_pair(self):
        f = from_expression(parse("sgn(x)", X), X)
        F = from_expression(parse("abs(x)", X), X)
        assert antiderivative_check(f, F, -1.0, 2.0) <= 1e-10

    def test_abs_q_pair(self):
        f = from_expression(parse("abs(x)", X), X)
        F = from_expression(parse("(1/2)*x*abs(x)", X), X)
        assert antiderivative_check(f, F, -2.0, 1.5) <= 1e-10

    def test_wrong_antiderivative_detected(self):
        f = from_expression(parse("sgn(x)", X), X)
        F = from_expression(parse("abs(x) + x", X), X)
        assert antiderivative_check(f, F, -1.0, 2.0) > 0.5


class TestDependenceTriangle:
    def test_geometry(self):
        tri = DependenceTriangle((2.0, 1.0))
        assert tri.base == (1.0, 3.0)
        assert tri.inner_interval(0.5) == (1.5, 2.5)

    def test_rejects_nonpositive_height(self):
        with pytest.raises(QuadratureError):
            DependenceTriangle((0.0, 0.0))

    def test_constant_force_area(self):
        f = from_expression(parse("1 + 0*x + 0*t", XT), XT)
        for x0, t0 in ((0.0, 1.0), (2.0, 0.5), (-1.0, 2.0)):
            assert integrate_triangle(f, x0, t0) == pytest.approx(
                t0 * t0, abs=1e-10
            )

    def test_polynomial_oracle(self):
        # apex (0,1): int_0^1 int_{s-1}^{1-s} (x^2 + t) dx dt = 1/6 + 1/3
        f = from_expression(parse("x^2 + t", XT), XT)
        assert integrate_triangle(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_step_force_half_area(self):
        # force supported on x > 0 cuts the apex-(0,1) triangle in half
        f = from_expression(parse("(1 + sgn(x))/2 + 0*t", XT), XT)
        assert integrate_triangle(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_characteristic_step(self):
        # jump along x - t = 0 inside the apex-(1,1) triangle:
        # region x > t has area 3/2 of the total 1
        f = from_expression(parse("(1 + sgn(x - t))/2", XT), XT)
        # triangle apex (1,1): base [0,2]; the line t = x crosses it.
        # area where x > t: integrate 1 over {0 < t < 1, t < x < 2 - t}
        # intersected with x > t -> int_0^1 (2 - 2t) dt = 1... the region
        # x > t within the triangle is bounded by x from t to 2-t: width
        # 2 - 2t, total 1.
        assert integrate_triangle(f, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def _pw(text, variables=XY):
    return from_expression(parse(text, variables), variables)


class TestGreenCheck:
    def test_q_fixture_exact_value(self):
        # P = q(x), Q = 0 on [-1,1]^2: both sides equal 2
        P = _pw("(1/2)*x*abs(x) + 0*y")
        Q = _pw("0*x + 0*y")
        R = TypeIIIRegion.from_rectangle(-1.0, 1.0, -1.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert lhs == pytest.approx(2.0, abs=1e-8)
        assert rhs == pytest.approx(2.0, abs=1e-8)
        assert gap <= 1e-8
        assert class_ok

    def test_smooth_fixture(self):
        P = _pw("x^2*y")
        Q = _pw("x*sin(y)")
        R = TypeIIIRegion.from_rectangle(0.0, 2.0, -1.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        assert class_ok
        # oracle: iint (2xy - x*cos(y)) over [0,2]x[-1,1] = -4*sin(1)
        assert lhs == pytest.approx(-4.0 * math.sin(1.0), abs=1e-8)

    def test_symmetric_kinks_cancel(self):
        P = _pw("abs(x) + 0*y")
        Q = _pw("abs(y) + 0*x")
        R = TypeIIIRegion.from_rectangle(-1.0, 1.0, -1.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert class_ok

    def test_q_in_second_slot(self):
        # P = 0, Q = q(y) on [-2,1]x[0,3]: both sides equal -13.5
        P = _pw("0*x + 0*y")
        Q = _pw("(1/2)*y*abs(y) + 0*x")
        R = TypeIIIRegion.from_rectangle(-2.0, 1.0, 0.0, 3.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert lhs == pytest.approx(-13.5, abs=1e-8)
        assert gap <= 1e-8
        assert class_ok

    def test_diagonal_singular_line(self):
        P = _pw("abs(x - y)")
        Q = _pw("0*x + 0*y")
        R = TypeIIIRegion.from_rectangle(0.0, 1.0, 0.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert class_ok

    def test_parabolic_type_iii_region(self):
        # region between y = x^2 and y = 1 over [-1,1]
        P = _pw("x*y")
        Q = _pw("0*x + 0*y")
        R = TypeIIIRegion(
            -1.0, 1.0,
            lambda x: x * x, lambda x: 1.0,
            0.0, 1.0,
            lambda y: -math.sqrt(y), lambda y: math.sqrt(y),
        )
        assert R.spot_check()
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        # oracle: iint y dA = int_{-1}^1 (1 - x^4)/2 dx = 4/5
        assert lhs == pytest.approx(0.8, abs=1e-8)
        assert class_ok

    def test_region_spot_check_rejects_mismatch(self):
        R = TypeIIIRegion(
            -1.0, 1.0,
            lambda x: 0.0, lambda x: 1.0,
            0.0, 1.0,
            lambda y: 0.0, lambda y: 0.5,  # wrong horizontal extent
        )
        assert not R.spot_check()


# ---------------------------------------------------------------------------
# Bit identity with depth-first, point-by-point quadrature

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl15(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * math.fsum(w * f(mid + half * x) for x, w in zip(_NODES, _WEIGHTS))


def _recursive(f, a, b, tol=QUAD_TOL, max_depth=MAX_DEPTH):
    """Adaptive GL15 by depth-first recursion, one point at a time: the
    oracle the breadth-first engine must equal bit for bit."""
    if a == b:
        return 0.0

    def rec(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = _gl15(f, lo, mid)
        right = _gl15(f, mid, hi)
        better = left + right
        if abs(better - whole) <= tol * (1.0 + abs(better)):
            return better
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature panel [{lo}, {hi}] failed to converge "
                f"(estimate gap {abs(better - whole):.3e})",
                panel=(lo, hi),
            )
        return rec(lo, mid, left, depth + 1) + rec(mid, hi, right, depth + 1)

    return rec(a, b, _gl15(f, a, b), 0)


def _pieces_sum(f, nodes):
    return math.fsum(_recursive(f, lo, hi) for lo, hi in zip(nodes, nodes[1:]))


def _oracle_1d(f, a, b):
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if isinstance(f, PiecewiseFn):
        return sign * _pieces_sum(lambda x: f.evaluate((x,)), [a] + singular_points_1d(f, a, b) + [b])
    return sign * _pieces_sum(f, [a, b])


def _oracle_triangle(f, x0, t0):
    outer, inner_nodes = triangle_nodes(f, x0, t0)
    return _pieces_sum(lambda s: _pieces_sum(lambda y: f.evaluate((y, s)), inner_nodes(s)), outer)


def _outcome(thunk):
    """The value, or the type and message of what was raised."""
    try:
        return thunk()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _n(v):
    return f"({v!r})"


DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3), (3, 2)]
LEAF = Opaque(math.atan, (Var("t"),))


def _factor(draw, arg):
    p, q = draw(st.sampled_from([0.5, -0.25, 1.0])), draw(st.sampled_from([0.75, -1.0]))
    lin = f"{_n(p)}*({arg}) + {_n(q)}"
    return draw(st.sampled_from(["1", f"exp({lin})", f"cos({lin})", f"sqrt(1 + ({lin})^2)"]))


def _with_leaf(f, leaf):
    """The formula function f plus an Opaque leaf: a table of its pinned
    branches for every sign vector off the lines, each plus the leaf, and
    the source plus the leaf."""
    table = tuple((pat, add(f.match(pat), leaf))
                  for pat in itertools.product((1, -1), repeat=len(f.forms)))
    return replace(f, branches=table, source=add(f.source, leaf))


@st.composite
def triangle_case(draw):
    """1-3 abs/sgn lines through interior points of a dependence triangle,
    some far from the origin, with exp/cos/sqrt factors, plus an Opaque
    leaf in every branch."""
    x0 = draw(st.sampled_from([0.0, 0.5, -3.25, 250.0, -10000.5]))
    t0 = draw(st.sampled_from([0.25, 1.0, 1.5]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(DIRECTIONS))
        px = x0 + draw(st.sampled_from([-0.375, -0.125, 0.0, 0.25])) * t0
        pt = draw(st.sampled_from([0.25, 0.375, 0.5])) * t0
        kink = draw(st.sampled_from(["abs", "sgn"]))
        coef = draw(st.sampled_from([-1.5, 0.5, 2.0]))
        terms.append(f"{_n(coef)}*{kink}({a}*(x - {_n(px)}) + {b}*(t - {_n(pt)}))"
                     f"*{_factor(draw, f'x - {_n(x0)} + t')}")
    return _with_leaf(from_expression(parse(" + ".join(terms), XT), XT), LEAF), x0, t0


@st.composite
def line_case(draw):
    """A 1D integrand with 1-3 abs/sgn kinks inside [a, b] (some far from
    the origin, either orientation) and an Opaque leaf; the same function
    as a plain callable, which is integrated without splitting."""
    c = draw(st.sampled_from([0.0, 37.5, -5000.25]))
    w = draw(st.sampled_from([0.5, 2.0]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        d = c + draw(st.sampled_from([-0.75, -0.25, 0.125, 0.5])) * w
        kink = draw(st.sampled_from(["abs", "sgn"]))
        terms.append(f"{kink}(x - {_n(d)})*{_factor(draw, f'x - {_n(c)}')}")
    f = _with_leaf(from_expression(parse(" + ".join(terms), X), X), Opaque(math.atan, (Var("x"),)))
    a, b = c - w, c + w
    return f, *((b, a) if draw(st.booleans()) else (a, b))


class TestBitIdentity:
    @given(triangle_case())
    @settings(max_examples=25, deadline=None)
    def test_triangle_equals_depth_first(self, case):
        f, x0, t0 = case
        got = _outcome(lambda: integrate_triangle(f, x0, t0))
        assert isinstance(got, float), got
        assert got == _outcome(lambda: _oracle_triangle(f, x0, t0))

    @given(line_case())
    @settings(max_examples=25, deadline=None)
    def test_1d_equals_depth_first(self, case):
        f, a, b = case
        assert integrate_1d(f, a, b) == _oracle_1d(f, a, b)
        g = lambda x: f.evaluate((x,))
        assert _outcome(lambda: integrate_1d(g, a, b)) == _outcome(lambda: _oracle_1d(g, a, b))

    def test_green_check_equals_depth_first(self):
        P = _pw("abs(x - y) + sgn(x + 2*y - 0.3)*exp(x)")
        Q = _pw("abs(y - 0.2)*cos(x)")
        R = TypeIIIRegion.from_rectangle(-1.0, 1.5, -0.5, 1.0)
        # pinned from the depth-first implementation
        assert green_check(P, Q, R) == (
            3.5315233348552533, 6.8329405613030545, 3.3014172264478012, True)


class TestQuadratureErrors:
    def test_nonconvergent_panel(self):
        step = lambda x: 1.0 if x > 0.3 else 0.0
        panels = [(-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
        values, exc = adaptive_panel(lambda X, _: ((X > 0.3) * 1.0, None), panels, max_depth=4)
        assert values == [_recursive(step, -1.0, 0.0, max_depth=4)]
        with pytest.raises(QuadratureError) as want:
            _recursive(step, 0.0, 1.0, max_depth=4)
        assert isinstance(exc, QuadratureError)
        assert str(exc) == str(want.value)
        assert exc.panel == want.value.panel == (0.25, 0.3125)

    def test_nonconvergent_integral_raises(self):
        tall_step = lambda x: 1e6 if x > 0.3 else 0.0
        with pytest.raises(QuadratureError) as got:
            integrate_1d(tall_step, 0.0, 1.0)
        assert got.value.panel is not None
        assert _outcome(lambda: _oracle_1d(tall_step, 0.0, 1.0)) == (
            "QuadratureError", str(got.value))

    @pytest.mark.parametrize("text, x0, message", [
        ("sqrt(x + 0.5) + t", 0.0, "sqrt of negative value -0.4820608668424723"),
        ("sqrt(0.3 - x)*abs(x + t - 0.2) + t", 0.0,
         "sqrt of negative value -0.006630662862077585"),
        ("sqrt(0.3 - x)*abs(x + t - 0.2) + t", 0.1,
         "sqrt of negative value -0.02070996334355696"),
    ])
    def test_first_domain_error_of_depth_first_order(self, text, x0, message):
        f = from_expression(parse(text, XT), XT)
        with pytest.raises(EvalDomainError) as got:
            integrate_triangle(f, x0, 1.0)
        assert str(got.value) == message  # pinned from the depth-first implementation
        assert _outcome(lambda: _oracle_triangle(f, x0, 1.0)) == ("EvalDomainError", message)


class TestBatching:
    def test_off_line_triangle_needs_no_scalar_evaluation(self, monkeypatch):
        """Every node of this triangle lies off the lines, so the batch
        covers all of them: no ``evaluate`` call, and one
        ``evaluate_many`` call per round of the inner engine."""
        f = from_expression(parse("abs(x - t + 0.25)*exp(0.5*x) + sgn(x + 2*t - 0.5)", XT), XT)
        want = _oracle_triangle(f, 0.0, 1.0)
        counts = {"evaluate": 0, "evaluate_many": 0, "rounds": 0, "points": 0}

        def counted(name):
            real = getattr(PiecewiseFn, name)

            def method(self, *args):
                counts[name] += 1
                return real(self, *args)
            return method

        for name in ("evaluate", "evaluate_many"):
            monkeypatch.setattr(PiecewiseFn, name, counted(name))
        engine, nesting = quad.adaptive_panel, []

        def traced(g, panels, *args, **kwargs):
            inner = bool(nesting)

            def g_counted(X, owner):
                if inner:
                    counts["rounds"] += 1
                    counts["points"] += X.size
                return g(X, owner)
            nesting.append(1)
            try:
                return engine(g_counted, panels, *args, **kwargs)
            finally:
                nesting.pop()

        monkeypatch.setattr(quad, "adaptive_panel", traced)
        assert integrate_triangle(f, 0.0, 1.0) == want
        assert counts["evaluate"] == 0
        assert counts["evaluate_many"] == counts["rounds"] > 0
        assert counts["points"] >= 100 * counts["rounds"]
