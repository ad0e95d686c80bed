"""Piecewise layer: branch tables, one-sided limits, continuity, properness,
field algebra."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from speculus.expr import AffineForm, Const, parse
from speculus.piecewise import (
    BranchLookupError,
    CoverageError,
    classify_continuity,
    feasible_pattern,
    from_branches,
    from_expression,
    interior_point,
    is_proper,
    line_samples,
    pw_add,
    pw_compose_affine,
    pw_scale,
    pw_select,
    regions,
)
from speculus.specular import a_combine

X = ("x",)
XY = ("x", "y")


def heaviside(value_at_zero: float):
    return from_branches(
        (AffineForm((1.0,), 0.0),),
        [((1,), Const(1.0)), ((0,), Const(value_at_zero)), ((-1,), Const(0.0))],
        X,
        policies=("branch",),
    )


class TestConstruction:
    def test_from_expression_branch_count(self):
        u = from_expression(parse("abs(2*x - y) + abs(x - 3)", XY), XY)
        full = [b for b in u.branches if all(s in (1, -1) for s in b[0])]
        assert len(full) == 4

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
            policies=("specular",),
        )
        assert f.evaluate((0.0,)) == pytest.approx(a_combine(1.0, 0.0))

    def test_specular_policy_zero_sum(self):
        f = from_expression(parse("sgn(x)", X), X)
        g = from_branches(
            f.forms, [(b[0], b[1]) for b in f.branches], X, policies=("specular",),
            source=f.source,
        )
        assert g.evaluate((0.0,)) == 0.0


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
    def test_feasible_pattern(self):
        forms = (AffineForm((1.0, -1.0), 0.0), AffineForm((1.0, 1.0), 0.0))
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)  # t > 0
        assert feasible_pattern(forms, (1, 1), dom, 2)
        # x > t and x < -t is impossible for t > 0
        assert not feasible_pattern(forms, (1, -1), dom, 2)

    def test_interior_point_margin(self):
        forms = (AffineForm((1.0, 0.0), 0.0),)
        found = interior_point(forms, (1,), (), 2)
        assert found is not None
        center, margin = found
        assert center[0] > 0 and margin > 1e-7

    def test_interior_point_zero_entry_is_equality(self):
        forms = (AffineForm((1.0, -1.0), 0.0), AffineForm((1.0, 1.0), 0.0))
        center, margin = interior_point(forms, (0, 1), (), 2)
        assert forms[0].value(center) == pytest.approx(0.0, abs=1e-9)
        assert forms[1].value(center) >= margin > 1e-7
        # x = t and x < -t cannot both hold with t > 0
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)
        assert interior_point(forms, (0, -1), dom, 2) is None

    def test_regions_order_fixed_and_values(self):
        forms = (AffineForm((1.0, -1.0), 0.0), AffineForm((1.0, 1.0), 0.0))
        dom = ((AffineForm((0.0, 1.0), 0.0), 1),)  # t > 0
        assert list(regions(forms, dom, 2)) == [(1, 1), (-1, 1), (-1, -1)]
        assert list(regions(forms, dom, 2, fixed=(-1, 0))) == [(-1, 1), (-1, -1)]
        assert list(regions(forms, dom, 2, values=(1, 0, -1))) == [
            (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)
        ]

    def test_line_samples_avoid_intersections(self, table_fn):
        pts = line_samples(table_fn, 0)
        assert len(pts) == 17
        for p in pts:
            assert abs(table_fn.forms[0].value(p)) < 1e-9
            assert abs(table_fn.forms[1].value(p)) > 1e-6


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
            ("direct",),
        )
        with pytest.raises(BranchLookupError):
            u.evaluate((-1.0,))
