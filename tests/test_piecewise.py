"""Piecewise layer: branch tables, one-sided limits, continuity, properness,
field algebra."""

import functools
import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speculus.piecewise as piecewise
from speculus.expr import (
    FUNCTIONS,
    AffineForm,
    BinOp,
    Call,
    Const,
    EvalDomainError,
    Expr,
    Neg,
    Opaque,
    Pow,
    Var,
    eval_expr,
    normalize_affine,
    parse,
)
from speculus.piecewise import (
    BranchLookupError,
    CoverageError,
    EDGE_POINTS,
    TOL_ZERO,
    PiecewiseFn,
    Points,
    _edge_samples,
    _faces,
    classify_continuity,
    from_branches,
    from_expression,
    is_proper,
    pattern_groups,
    proper_value,
    proper_values,
    pw_add,
    pw_compose_affine,
    pw_scale,
    pw_select,
    regions,
    sign_matrix,
)
from speculus.specular import a_combine, semi_derivatives

X = ("x",)
XY = ("x", "y")


def heaviside(value_at_zero: float):
    return from_branches(
        (AffineForm((1.0,), 0.0),),
        [((1,), Const(1.0)), ((0,), Const(value_at_zero)), ((-1,), Const(0.0))],
        X,
        policy="branch",
    )


COORD = st.integers(-10**6, 10**6)


@st.composite
def arrangement(draw):
    """Up to four small-integer lines a*x + b*y = c through integer anchor
    points, integer points on and off them, and whether the domain y > 0
    applies."""
    anchors = draw(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=3))
    lines, points = [], list(anchors)
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        qx, qy = draw(st.sampled_from(anchors))
        lines.append((a, b, a * qx + b * qy))
        for j in draw(st.lists(st.integers(-10**5, 10**5), max_size=3)) + [1, -1]:
            points.append((qx - j * b, qy + j * a))
    return lines, points, draw(st.booleans())


def exact_signs(lines, p):
    """Sign of each normalized form at an integer point, exactly: the sign
    of a*x + b*y - c times the sign of the leading coefficient."""
    out = []
    for a, b, c in lines:
        lead = a if a else b
        v = (a * p[0] + b * p[1] - c) * (1 if lead > 0 else -1)
        out.append((v > 0) - (v < 0))
    return tuple(out)


def tolerant_signs(forms, p):
    """Sign of each form at a float point in exact rational arithmetic, 0
    within 1e-12 of the size of its terms."""
    x, y = map(Fraction, p)
    out = []
    for f in forms:
        c0, c1, off = map(Fraction, (*f.coeffs, f.offset))
        v = c0 * x + c1 * y - off
        tol = Fraction(1e-12) * (1 + abs(off) + abs(c0 * x) + abs(c1 * y))
        out.append(0 if abs(v) <= tol else (1 if v > 0 else -1))
    return tuple(out)


class TestConstruction:
    def test_from_expression_branch_count(self):
        """A formula function keeps no table; each of its 4 sign vectors off
        the lines has its own branch, pinned when first asked for and kept."""
        u = from_expression(parse("abs(2*x - y) + abs(x - 3)", XY), XY)
        assert u.branches == ()
        full = list(itertools.product((1, -1), repeat=2))
        trees = [u.match(s) for s in full]
        assert len({repr(t) for t in trees}) == 4
        assert all(u.match(s) is t for s, t in zip(full, trees))
        assert u.match((0, 1)) is None and u.branch((0, 1)) is not None

    def test_smooth_single_branch(self):
        u = from_expression(parse("x^2 + y", XY), XY)
        assert u.forms == ()
        assert u.evaluate((2.0, 1.0)) == 5.0

    def test_elu_two_branches(self):
        u = from_expression(parse("elu(x - 3)", X), X)
        assert len(u.forms) == 1
        assert u.evaluate((5.0,)) == pytest.approx(2.0)
        assert u.evaluate((2.0,)) == pytest.approx(math.exp(-1.0) - 1.0)

    def test_coverage_gap_raises(self):
        with pytest.raises(CoverageError):
            from_branches(
                (AffineForm((1.0,), 0.0),),
                [((1,), Const(1.0))],
                X,
            )

    def test_pattern_length_mismatch(self):
        with pytest.raises(CoverageError):
            from_branches(
                (AffineForm((1.0,), 0.0),),
                [((1, 1), Const(1.0)), ((-1,), Const(0.0))],
                X,
            )


def scan_match(u, s):
    """The first branch whose pattern agrees with s, None a wildcard."""
    return next((rhs for pat, rhs in u.branches
                 if all(q is None or q == t for q, t in zip(pat, s))), None)


@st.composite
def branch_table(draw, m):
    """A table over m forms: duplicate patterns and 0 entries, and None
    wildcards in about half the tables; each branch a distinct object."""
    entry = st.sampled_from((-1, 0, 1, None) if draw(st.booleans()) else (-1, 0, 1))
    pool = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=5))
    pats = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return tuple((pat, Var(f"b{i}")) for i, pat in enumerate(pats))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_branch_index_matches_scan(data):
    """match returns the object the first-match scan returns, for random
    sign vectors with 0 entries and for the patterns of the table, and a
    copy made by replace with other branches does not keep the index."""
    m = data.draw(st.integers(1, 3))
    forms = tuple(AffineForm((1.0,), float(k)) for k in range(m))
    u = PiecewiseFn(X, forms, data.draw(branch_table(m)), "branch")
    signs = st.tuples(*[st.sampled_from((-1, 0, 1))] * m)
    queries = data.draw(st.lists(signs, min_size=1, max_size=10))

    def check(w):
        for s in queries + [pat for pat, _ in w.branches if None not in pat]:
            assert w.match(s) is scan_match(w, s), (w.branches, s)

    check(u)
    v = replace(u, branches=data.draw(branch_table(m)))
    check(v)
    check(u)
    assert v._index is False or v._index is not u._index


class TestEvaluation:
    def test_region_values(self, table_fn):
        # 2x - y > 0, x - 3 > 0: u = (2x - y) + (x - 3)
        assert table_fn.evaluate((5.0, 1.0)) == pytest.approx(9.0 + 2.0)
        # both negative
        assert table_fn.evaluate((0.0, 1.0)) == pytest.approx(1.0 + 3.0)

    def test_on_line_direct_policy_uses_sgn0(self, table_fn):
        # from_expression defaults to direct evaluation: abs(0) = 0
        assert table_fn.evaluate((3.0, 6.0)) == 0.0

    def test_branch_policy_on_line(self):
        h = heaviside(0.25)
        assert h.evaluate((0.0,)) == 0.25

    def test_specular_policy_proper_value(self):
        f = from_branches(
            (AffineForm((1.0,), 0.0),),
            [((1,), Const(1.0)), ((-1,), Const(0.0))],
            X,
            policy="specular",
        )
        assert f.evaluate((0.0,)) == pytest.approx(a_combine(1.0, 0.0))

    def test_specular_policy_zero_sum(self):
        f = from_expression(parse("sgn(x)", X), X)
        g = from_branches(
            f.forms, [(b[0], b[1]) for b in f.branches], X, policy="specular",
            source=f.source,
        )
        assert g.evaluate((0.0,)) == 0.0

    @pytest.mark.parametrize("p", [(math.inf, 0.5), (-math.inf, 0.5), (0.5, math.nan)])
    def test_non_finite_point_raises(self, p):
        """No sign places a coordinate that is not finite: (inf, 0.5) gave 0
        on x = t, so the on-line value 1.0 where the value is inf, and one
        sided limits (-inf, inf).  The batch leaves such points uncovered."""
        f = from_expression(parse("abs(x - t) + 1", ("x", "t")), ("x", "t"))
        for method in (f.evaluate, lambda p: f.one_sided_limits(p, 0),
                       lambda p: semi_derivatives(f, p, 1)):
            with pytest.raises(EvalDomainError, match=r"^non-finite point \("):
                method(p)
        _, covered = f.evaluate_many([np.array([c]) for c in p])
        assert not covered.any()

class TestOneSidedLimits:
    def test_heaviside(self):
        h = heaviside(0.5)
        lim = h.one_sided_limits((0.0,), 0)
        assert lim.left == 0.0
        assert lim.right == 1.0
        assert lim.mid == 0.5

    def test_continuous_fn(self, table_fn):
        lim = table_fn.one_sided_limits((3.0, 6.0), 0)
        assert lim.left == pytest.approx(0.0, abs=1e-12)
        assert lim.right == pytest.approx(0.0, abs=1e-12)

    def test_counterexample_limits(self, printed_counterexample_u):
        lim = printed_counterexample_u.one_sided_limits((1.0, 1.0), 0)
        assert lim.right == pytest.approx(2.5, abs=1e-12)
        assert lim.left == pytest.approx(3.0, abs=1e-12)


class TestContinuity:
    def test_table_fn_continuous(self, table_fn):
        assert classify_continuity(table_fn).verdict == "continuous"

    def test_sgn_field_piecewise(self):
        f = from_expression(parse("sgn(x) + sgn(y)", XY), XY)
        rep = classify_continuity(f)
        assert rep.verdict == "piecewise-continuous"
        assert sorted(rep.jump_forms) == [0, 1]

    def test_counterexample_jumps(self, printed_counterexample_u):
        rep = classify_continuity(printed_counterexample_u)
        assert rep.verdict == "piecewise-continuous"
        assert sorted(rep.jump_forms) == [0, 1]

    def test_line_outside_the_domain_is_unsampled(self):
        # x = -1 lies outside the domain x > 0, so no edge of it is sampled
        lines = (AffineForm((1.0, 0.0), -1.0), AffineForm((0.0, 1.0), 0.0))
        u = from_branches(lines, [((1, 1), Var("y")), ((1, -1), Const(0.0))], XY,
                          domain=((AffineForm((1.0, 0.0), 0.0), 1),))
        rep = classify_continuity(u)
        assert rep.unsampled == [0] and list(rep.samples) == [1]
        assert rep.verdict == "continuous"

    @pytest.mark.parametrize("check", [classify_continuity, is_proper])
    def test_three_variables_raise_one_line(self, check):
        """The edge samples lie on lines in one or two variables; three
        raised a ValueError from unpacking the coefficients."""
        xyt = ("x", "y", "t")
        u = from_expression(parse("abs(x) + abs(y - t)", xyt), xyt)
        with pytest.raises(piecewise.PiecewiseError) as info:
            check(u)
        assert str(info.value) == "edge samples need a function of one or two variables, not 3"


class TestProper:
    def test_sgn_proper(self):
        f = from_expression(parse("sgn(x)", X), X)
        ok, _ = is_proper(f)
        assert ok

    def test_heaviside_half_not_proper(self):
        ok, rep = is_proper(heaviside(0.5))
        assert not ok
        assert rep.violations

    def test_heaviside_a_value_proper(self):
        ok, _ = is_proper(heaviside(a_combine(1.0, 0.0)))
        assert ok


class TestPatternGeometry:
    def test_empty_pattern_under_domain(self):
        forms = (AffineForm((1.0, -1.0), 0.0), AffineForm((1.0, 1.0), 0.0))
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)  # t > 0
        assert (1, 1) in regions(forms, dom, 2)
        # x > t and x < -t is impossible for t > 0
        assert (1, -1) not in regions(forms, dom, 2)
        assert (1, -1) in regions(forms, (), 2)

    def test_half_plane_cell(self):
        forms = (AffineForm((1.0, 0.0), 0.0),)
        assert regions(forms, (), 2) == [(1,), (-1,)]
        assert _faces(forms, (), 2)[(1,)][0] > 0

    def test_zero_entry_is_on_the_line(self):
        forms = (AffineForm((1.0, -1.0), 0.0), AffineForm((1.0, 1.0), 0.0))
        assert (0, 1) in regions(forms, (), 2, values=(1, 0, -1))
        p = _faces(forms, (), 2)[(0, 1)]
        assert forms[0].value(p) == pytest.approx(0.0, abs=1e-9)
        assert forms[1].value(p) > 0
        # x = t and x < -t cannot both hold with t > 0
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)
        assert (0, -1) not in regions(forms, dom, 2, values=(1, 0, -1))

    def test_region_far_from_origin(self):
        forms = (AffineForm((1.0,), 20000.0),)
        assert regions(forms, (), 1) == [(1,), (-1,)]
        with pytest.raises(CoverageError):
            from_branches(forms, [((-1,), Const(0.0))], X)

    @given(arrangement(), st.lists(st.tuples(COORD, COORD), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_faces_against_exact_signs(self, arr, extra):
        lines, points, upper = arr
        forms = tuple(normalize_affine((a, b), -c)[0] for a, b, c in lines)
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),) if upper else ()
        listed = set(regions(forms, dom, 2, values=(1, 0, -1)))
        for p in points + extra:
            if not upper or p[1] > 0:
                assert exact_signs(lines, p) in listed
        for pat, w in _faces(forms, dom, 2).items():
            assert pat in listed
            assert tolerant_signs(forms, w) == pat
            assert not upper or Fraction(w[1]) > 0

    def test_regions_order_fixed_and_values(self):
        forms = (AffineForm((1.0, -1.0), 0.0), AffineForm((1.0, 1.0), 0.0))
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)  # t > 0
        assert list(regions(forms, dom, 2)) == [(1, 1), (-1, 1), (-1, -1)]
        assert list(regions(forms, dom, 2, values=(1, 0, -1))) == [
            (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)
        ]

    def test_edge_samples_cover_every_edge(self):
        """Lines x = 0, y = 0 and x - y = 1 with the domain x + y > -3: each
        line has two crossings, one clipped end and one ray, and every one
        of the nine edges (a pattern with one 0 among ``_faces``) gets
        EDGE_POINTS samples of its line, none on another line or outside
        the domain."""
        forms = (AffineForm((1.0, 0.0), 0.0), AffineForm((0.0, 1.0), 0.0),
                 AffineForm((1.0, -1.0), 1.0))
        dom = ((AffineForm((1.0, 1.0), -3.0), 1),)
        edges = [pat for pat in _faces(forms, dom, 2) if pat.count(0) == 1]
        assert len(edges) == 9
        samples = _edge_samples(forms, dom, 2)
        hit = []
        for k, pts in enumerate(samples):
            for p in pts:
                signs = tolerant_signs(forms, p)
                assert [t == 0 for t in signs] == [m == k for m in range(3)]
                assert tolerant_signs([dom[0][0]], p) == (1,)
                hit.append(signs)
        assert sorted(hit) == sorted(pat for pat in edges for _ in range(EDGE_POINTS))
        assert _edge_samples(forms, (), 2) is _edge_samples(forms, (), 2)
        assert [len(pts) for pts in _edge_samples(forms, (), 2)] == [3 * EDGE_POINTS] * 3


class TestAlgebra:
    def test_pw_add(self):
        u = from_expression(parse("abs(x)", X), X)
        v = from_expression(parse("abs(x - 1)", X), X)
        w = pw_add(u, v)
        for p in (-0.5, 0.3, 2.0):
            assert w.evaluate((p,)) == pytest.approx(abs(p) + abs(p - 1))

    def test_pw_add_with_coefficient(self):
        u = from_expression(parse("abs(x)", X), X)
        w = pw_add(u, u, cv=-1.0)
        assert w.evaluate((2.0,)) == 0.0

    def test_pw_scale(self):
        u = from_expression(parse("abs(x)", X), X)
        assert pw_scale(3.0, u).evaluate((-2.0,)) == 6.0

    def test_pw_compose_affine(self):
        h = from_expression(parse("abs(x - 1)", X), X)
        u = pw_compose_affine(h, (1.0, -1.0), 0.0, ("x", "t"))
        for x, t in ((2.0, 0.5), (0.0, 3.0), (1.5, 0.5)):
            assert u.evaluate((x, t)) == pytest.approx(abs(x - t - 1))
        assert any(f.same_as(AffineForm((1.0, -1.0), 1.0)) for f in u.forms)

    def test_pw_select(self):
        pos = from_expression(parse("x + y", XY), XY)
        neg = from_expression(parse("x - y", XY), XY)
        sel = pw_select(AffineForm((1.0, 0.0), 0.0), pos, neg)
        assert sel.evaluate((2.0, 1.0)) == 3.0
        assert sel.evaluate((-2.0, 1.0)) == -3.0

    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=80, deadline=None)
    def test_evaluate_matches_source_off_lines(self, x, y):
        u = from_expression(parse("abs(2*x - y) + abs(x - 3)", XY), XY)
        if any(abs(f.value((x, y))) < 1e-9 for f in u.forms):
            return
        assert u.evaluate((x, y)) == pytest.approx(
            abs(2 * x - y) + abs(x - 3), rel=1e-12, abs=1e-12
        )


class TestDomain:
    def test_domain_excludes(self):
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)
        u = from_expression(parse("x + t", ("x", "t")), ("x", "t"), domain=dom)
        assert u.in_domain((0.0, 1.0))
        assert not u.in_domain((0.0, -1.0))

    def test_missing_branch_raises(self):
        from speculus.piecewise import PiecewiseFn

        u = PiecewiseFn(
            X,
            (AffineForm((1.0,), 0.0),),
            (((1,), Const(1.0)),),
            "direct",
        )
        with pytest.raises(BranchLookupError):
            u.evaluate((-1.0,))


def _log_abs(a: float) -> float:
    return math.log(abs(a))  # raises ValueError at 0, as an Opaque leaf may


LEAF = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.floats(-3, 3).map(Const),
)


def _grow(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda a: BinOp(*a)),
        st.tuples(children, st.integers(2, 5)).map(lambda a: Pow(*a)),
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: Call(*a)),
        children.map(lambda c: Opaque(_log_abs, (c,))),
    )


EXPRS = st.recursive(LEAF, _grow, max_leaves=10)
ANCHORS = [(0, 0), (3, -1), (20000, 0)]


@st.composite
def batch_case(draw):
    """A branch table over up to three lines through integer anchors (one
    near (2e4, 0)), with random expressions as branches, some patterns
    missing and some wildcards, and points: random ones, exact on-line
    ones, ones within about 1e-12 relative of a line (at the edge of the
    sign tolerance), and ones near the far anchor."""
    lines, points = [], []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        qx, qy = draw(st.sampled_from(ANCHORS))
        f = normalize_affine((a, b), -(a * qx + b * qy))[0]
        lines.append(f)
        axis = f.primary_axis()  # moving along it changes l by the same step
        for j in draw(st.lists(st.integers(-50, 50), min_size=1, max_size=3)):
            on = [float(qx - j * b), float(qy + j * a)]
            points.append(tuple(on))
            # steps of about the tolerance of _sign, straddling its edge
            tol = 1e-12 * (1 + abs(f.offset) + sum(abs(c * x) for c, x in zip(f.coeffs, on)))
            edge = (0.5, 1 - 2**-40, 1 - 2**-48, 1.0, 1 + 2**-48, 1 + 2**-40, 10.0)
            for k in draw(st.lists(st.sampled_from(edge), max_size=6)):
                q = list(on)
                q[axis] += draw(st.sampled_from((1.0, -1.0))) * k * tol
                points.append(tuple(q))
    points += draw(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=8))
    points += draw(st.lists(st.tuples(st.floats(19999, 20001), st.floats(-1, 1)), max_size=4))
    table = []
    for pat in itertools.product((1, -1), repeat=len(lines)):
        if draw(st.integers(0, 5)) == 0:
            continue  # no branch: the pattern is not covered
        if draw(st.integers(0, 5)) == 0:
            pat = (None,) + pat[1:]
        table.append((pat, draw(EXPRS)))
    u = PiecewiseFn(XY, tuple(lines), tuple(table), "direct")
    return u, points


def _exprs(names):
    leaf = st.one_of(st.sampled_from([Var(n) for n in names]), st.floats(-3, 3).map(Const))
    return st.recursive(leaf, _grow, max_leaves=8)


def _form_expr(f: AffineForm, names) -> BinOp:
    terms = [BinOp("*", Const(c), Var(n)) for c, n in zip(f.coeffs, names)]
    return BinOp("-", functools.reduce(lambda a, b: BinOp("+", a, b), terms), Const(f.offset))


@st.composite
def online_case(draw):
    """A function of one variable (one or two singular points) or two
    (one to three lines through two anchors, some axis-parallel, so some
    adjacent patterns keep a 0) with one on-line policy; a table over the
    on-line patterns too, some missing, some wildcards, and, for a domain
    edge, none where the first form is negative; maybe a source built
    from abs/sgn of the forms.  Points lie on the lines, at crossings and
    off them."""
    d = draw(st.sampled_from((1, 2)))
    names = XY[:d]
    exprs = _exprs(names)
    lines, points = [], []
    if d == 1:
        for c in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2, unique=True)):
            lines.append(AffineForm((1.0,), float(c)))
            points += [(float(c),), (c + 0.5,), (c - 0.25,)]
        points += [(math.inf,), (math.nan,)]
    else:
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.one_of(st.sampled_from(((1, 0), (0, 1))),
                                  st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)))
            qx, qy = draw(st.sampled_from(ANCHORS[:2]))
            f = normalize_affine((a, b), -(a * qx + b * qy))[0]
            if any(g.same_as(f) for g in lines):
                continue
            lines.append(f)
            for j in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)) + [0]:
                points.append((float(qx - j * b), float(qy + j * a)))
        points += draw(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=4))
        # l(p) may overflow or be no number: only the scalar path judges those
        points += [(1e308, -1e308), (math.inf, 1.0), (math.nan, 0.0)]
    policy = draw(st.sampled_from(("direct", "specular", "branch")))
    half = draw(st.booleans())
    table = []
    for pat in itertools.product((1, 0, -1), repeat=len(lines)):
        if (half and pat[0] < 0) or draw(st.integers(0, 5)) == 0:
            continue
        if draw(st.integers(0, 5)) == 0:
            pat = (None,) + pat[1:]
        table.append((pat, draw(exprs)))
    source = None
    if draw(st.booleans()):
        source = functools.reduce(lambda a, b: BinOp("+", a, b), [
            BinOp("*", Call(draw(st.sampled_from(("abs", "sgn"))), _form_expr(f, names)), draw(exprs))
            for f in lines])
    u = PiecewiseFn(names, tuple(lines), tuple(table), policy, source=source,
                    domain=((lines[0], 1),) if half else ())
    return u, points


def _scalar(fn, *args):
    """repr of the scalar result, None when it raises."""
    try:
        return repr(fn(*args))
    except Exception:
        return None


def _trees(node) -> list:
    """The branch trees of a node of ``_value_node`` or ``_limit_node``."""
    if isinstance(node, tuple):
        return [t for m in node for t in _trees(m)]
    return [node] if isinstance(node, Expr) else []


def _failing_leaf_trees(u, points, keys) -> set:
    """The ids of the trees with an Opaque leaf that raise at a point they
    are asked at (key None: the value; (axis, direction): a limit).  Such a
    leaf stops at its first failing point in ``eval_array`` and leaves the
    rest of its tree's batch, where the scalar path may have values."""
    out = set()
    for p in points:
        try:
            s = u.sign_vector(p)
        except (OverflowError, ValueError, EvalDomainError):
            continue
        for key in keys:
            node = u._value_node(s) if key is None else u._limit_node(s, *key)
            out |= {id(t) for t in _trees(node) if "Opaque(" in repr(t)
                    and _scalar(eval_expr, t, dict(zip(u.vars, p))) is None}
    return out


def _left_by_a_leaf(node, failing: set) -> bool:
    """Whether a tree of the node is one of the failing leaf trees."""
    return any(id(t) in failing for t in _trees(node))


class TestBatchEvaluation:
    @given(online_case())
    @settings(max_examples=300, deadline=None)
    def test_on_line_batches_match_scalar(self, case):
        """The limits of evaluate_batch and evaluate_many equal
        one_sided_value and evaluate bit for bit (-0.0 included) wherever
        they cover a point, a 0 left in an adjacent pattern included, and
        leave a finite point only where the scalar path raises, or where a
        tree of its node has an Opaque leaf that fails at some point of the
        same batch."""
        u, points = case
        cols = np.array(points, dtype=float).T
        finite = [max(map(abs, p)) < 1e300 for p in points]
        batch = u.evaluate_batch(cols, range(u.d))
        keys = [None] + [(axis, direction) for axis in range(u.d) for direction in (-1, 1)]
        failing = _failing_leaf_trees(u, points, keys)
        for axis in range(u.d):
            for direction in (-1, 1):
                values, covered = batch[axis, direction]
                for p, v, ok, fin in zip(points, values.tolist(), covered.tolist(), finite):
                    try:
                        s = u.sign_vector(p)
                    # fsum of an overflow or of inf - inf, or a coordinate not finite
                    except (OverflowError, ValueError, EvalDomainError):
                        assert not ok, p
                        continue
                    want = _scalar(u.one_sided_value, p, s, axis, direction)
                    if ok:
                        assert repr(v) == want, p
                    elif fin:
                        node = u._limit_node(s, axis, direction)
                        assert want is None or _left_by_a_leaf(node, failing), p
        values, covered = u.evaluate_many(cols)
        failing = _failing_leaf_trees(u, points, [None])
        for p, v, ok, fin in zip(points, values.tolist(), covered.tolist(), finite):
            want = _scalar(u.evaluate, p)
            if not fin:
                assert not ok or repr(v) == want, p
                continue
            if ok:
                assert repr(v) == want, p
            else:
                node = u._value_node(u.sign_vector(p))
                assert want is None or _left_by_a_leaf(node, failing), p

    def test_on_line_points_are_covered(self, table_fn):
        """On-line points of every policy take the batch."""
        from speculus.specular import partial_field

        pts = np.array([[3.0, 3.0, 1.0, 0.0], [6.0, 1.0, 2.0, 7.0]])  # on a line, or both
        for u in (table_fn, partial_field(table_fn, 0), partial_field(table_fn, 1)):
            values, covered = u.evaluate_many(pts)
            assert covered.all(), u.policy
            assert values.tolist() == [u.evaluate(p) for p in pts.T.tolist()]
        h = heaviside(0.25)
        values, covered = h.evaluate_many([[0.0, 1.0]])
        assert covered.all() and values.tolist() == [0.25, 1.0]
        values, covered = h.evaluate_batch([[0.0, 1.0]], [0])[0, -1]
        assert covered.all() and values.tolist() == [0.0, 1.0]

    @given(batch_case())
    @settings(max_examples=200, deadline=None)
    def test_evaluate_many_matches_scalar(self, case):
        u, points = case
        cols = np.array(points, dtype=float).T
        for row, p in zip(sign_matrix(u.forms, cols).tolist(), points):
            assert tuple(row) == u.sign_vector(p), p
        values, covered = u.evaluate_many(cols)
        failing = _failing_leaf_trees(u, points, [None])
        for p, v, ok in zip(points, values.tolist(), covered.tolist()):
            s = u.sign_vector(p)
            try:
                want = u.evaluate(p)
            except Exception:
                want = None
            if ok:
                assert want is not None, p
                assert repr(v) == repr(want), p  # bit for bit, -0.0 included
            elif 0 not in s and u.match(s) is not None:
                # only a failing point is left over, or one after a failing leaf
                assert want is None or _left_by_a_leaf(u.match(s), failing), p

    def test_transcendentals_are_libm(self):
        """exp and integer powers go through math and Python **: at points
        where numpy's exp and power disagree with libm, the batch still
        equals the scalar path bit for bit."""
        rng = np.random.default_rng(7)
        xs = rng.uniform(-20.0, 20.0, 20000)
        libm = np.array([math.exp(x) + x ** 3 for x in xs.tolist()])
        xs = xs[np.exp(xs) + np.power(xs, 3) != libm]
        assert len(xs) > 10
        u = from_expression(parse("exp(x) + x^3 + 0*abs(y)", XY), XY)
        values, covered = u.evaluate_many([xs, np.ones(len(xs))])
        assert covered.all()
        assert values.tolist() == [u.evaluate((x, 1.0)) for x in xs.tolist()]

    def test_errors_are_not_covered(self):
        u = from_expression(parse("sqrt(x) + 1/(y - 2) + exp(x) + abs(y)", XY), XY)
        values, covered = u.evaluate_many([[4.0, -1.0, 4.0, 800.0], [1.0, 1.0, 2.0, 1.0]])
        assert covered.tolist() == [True, False, False, False]
        assert values[0] == u.evaluate((4.0, 1.0))

    def test_no_forms_and_no_points(self, table_fn):
        u = from_expression(parse("x*y", XY), XY)
        values, covered = u.evaluate_many([[2.0], [3.0]])
        assert values.tolist() == [6.0] and covered.all()
        values, covered = table_fn.evaluate_many([[], []])
        assert len(values) == len(covered) == 0


class TestProperValues:
    """``proper_values`` is ``proper_value`` entry by entry, bit for bit."""

    SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5, -0.3,
               TOL_ZERO, -TOL_ZERO, 0.5 * TOL_ZERO, 1e7, -1e7, 1e308, -1e308)

    def test_matches_scalar_bitwise(self):
        pairs = [(a, b) for a in self.SPECIAL for b in self.SPECIAL]
        # sums just inside, at and just past the zero-sum tolerance
        for edge in (TOL_ZERO, -TOL_ZERO):
            for step in (-1.0, 0.0, 1.0):
                near = np.nextafter(edge, step * math.inf) if step else edge
                pairs += [(near, 0.0), (0.0, near), (0.75 + near, -0.75), (-3.0, 3.0 + near)]
        # slopes near 1e7, where A(v, v) = tan(atan v) loses about |v| * 2e-16
        rng = np.random.default_rng(7)
        big = rng.uniform(1e7 - 50.0, 1e7 + 50.0, 40)
        pairs += list(zip(big.tolist(), big.tolist())) + list(zip(big.tolist(), (-big[::-1]).tolist()))
        pairs += [(v, -v) for v in big.tolist()] + [(-v, v + 1e-9) for v in big.tolist()]
        # pairs where numpy's arctan and tan would give another value
        base = len(pairs)
        for a, b in rng.uniform(-5.0, 5.0, (4000, 2)).tolist():
            if np.tan(0.5 * (np.arctan(min(a, b)) + np.arctan(max(a, b)))) != proper_value(a, b):
                pairs.append((a, b))
        assert len(pairs) > base + 10
        left, right = (np.array(c) for c in zip(*pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = proper_values(left, right)
        want = np.array([proper_value(a, b) for a, b in pairs])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        # both sides of the zero-sum test and a nan are exercised
        assert (want == 0.0).sum() > 20 and (want != 0.0).sum() > 100 and np.isnan(want).any()

    def test_empty(self):
        assert proper_values(np.zeros(0), np.zeros(0)).tolist() == []


def group_oracle(signs, bad):
    """Rows grouped by sign pattern with a dict, bad rows left out."""
    groups = {}
    for i, row in enumerate(signs.tolist()):
        if not bad[i]:
            groups.setdefault(tuple(row), []).append(i)
    return groups


class TestPatternGroups:
    """``pattern_groups`` equals a dict grouping of the sign rows: each
    pattern once, its indices ascending, and the bad rows left out; the
    groups list the rows in the order of ``np.lexsort`` of the sign
    columns (int16 codes up to 9 forms, int64 codes renumbered every 20
    forms past that)."""

    @staticmethod
    def check(forms, cols, signs, bad):
        groups = [(s, idx.tolist()) for s, idx in pattern_groups(forms, cols)]
        assert len({s for s, _ in groups}) == len(groups)
        assert all(idx == sorted(idx) for _, idx in groups)
        assert dict(groups) == group_oracle(signs, bad)
        rows = np.flatnonzero(~bad)
        order = rows[np.lexsort(signs[rows].T)] if len(forms) else rows
        assert [i for _, idx in groups for i in idx] == order.tolist()

    @pytest.mark.parametrize("m", [*range(7), 9, 10, 12, 41])
    @pytest.mark.parametrize("n", [1, 2, 7, 300, 10000])
    def test_random_sign_matrices(self, m, n, monkeypatch):
        rng = np.random.default_rng(100 * m + n)
        # few distinct rows, so that groups have many members
        signs = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
        if n > 2:
            signs = signs[rng.integers(0, max(1, n // 50), n)]
        bad = rng.random(n) < 0.2  # rows whose l(p) is not finite

        def fake_sign_matrix(forms, cols, into=None):
            if into is not None:
                into |= bad
            return signs.copy()

        monkeypatch.setattr(piecewise, "sign_matrix", fake_sign_matrix)
        forms = tuple(AffineForm((1.0, float(k)), 0.0) for k in range(m))
        self.check(forms, [np.zeros(n), np.zeros(n)], signs, bad)

    def test_non_finite_points_are_left_out(self, table_fn):
        rng = np.random.default_rng(3)
        # integer points, so many lie on the lines; some are not finite
        cols = [rng.integers(-4, 5, 2000).astype(float) for _ in range(2)]
        for c in cols:
            c[rng.random(2000) < 0.1] = rng.choice([math.inf, -math.inf, math.nan])
        bad = np.zeros(2000, dtype=bool)
        signs = sign_matrix(table_fn.forms, cols, bad)
        assert 0 < bad.sum() < 2000 and (signs == 0).any()
        self.check(table_fn.forms, cols, signs, bad)

    @given(batch_case())
    @settings(max_examples=100, deadline=None)
    def test_fields_on_one_points_share_its_groups(self, case):
        """Fields on the same forms (an equal tuple too) evaluated on one
        ``Points`` give the bits they give on fresh columns, and the Points
        calls ``pattern_groups`` once per forms tuple."""
        u, points = case
        same = tuple(AffineForm(f.coeffs, f.offset) for f in u.forms)
        other = normalize_affine((1.0, 1.0), -0.5)[0]
        fields = [u, pw_scale(-2.0, u), replace(u, policy="specular"), replace(u, forms=same),
                  PiecewiseFn(XY, (other,), (((1,), Var("x")), ((-1,), Var("y"))), "specular")]
        asked, real = [], piecewise.pattern_groups
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(piecewise, "pattern_groups", lambda forms, cols: asked.append(forms) or real(forms, cols))
            pts = Points(np.array(points, dtype=float).T)
            shared = [fld.evaluate_batch(pts, range(2)) for fld in fields]
        assert asked == [u.forms, (other,)]
        for fld, got in zip(fields, shared):
            fresh = fld.evaluate_batch(np.array(points, dtype=float).T, range(2))
            assert got.keys() == fresh.keys()
            for key, (values, covered) in fresh.items():
                assert values.view(np.int64).tolist() == got[key][0].view(np.int64).tolist()
                assert covered.tolist() == got[key][1].tolist()

    def test_constant_branch_keeps_negative_zero(self):
        """A Const branch is filled, not walked: -0.0 stays -0.0."""
        u = from_branches((AffineForm((1.0,), 0.0),), [((1,), Const(-0.0)), ((-1,), Const(2.0))], X)
        values, covered = u.evaluate_many([[1.0, -1.0, 0.0]])
        assert covered.all() and math.copysign(1.0, values[0]) == -1.0
        assert list(map(repr, values.tolist())) == [repr(u.evaluate((x,))) for x in (1.0, -1.0, 0.0)]
