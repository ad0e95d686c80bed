"""Tangent geometry of 2D piecewise-smooth functions through its one entry,
``tangent_data``: sphere points, strong criterion, specular normal, weak
tangent planes."""

import math

import numpy as np
import pytest

from speculus.expr import AffineForm, Const, parse
from speculus.piecewise import from_branches, from_expression
from speculus.specular import a_combine
import speculus.tangent2d as tangent2d
from speculus.tangent2d import CenterMismatch, tangent_data

XY = ("x", "y")
SQ2, SQ5, SQ10 = math.sqrt(2), math.sqrt(5), math.sqrt(10)


def assert_close_vec(got, want, tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol, (got, want)


class TestSpherePoints:
    def test_corner_four_points(self, corner_fn):
        p1, q1, p2, q2 = tangent_data(corner_fn, (0.0, 0.0)).points
        assert_close_vec(p1, (1 / SQ2, 0.0, 1 / SQ2), 1e-12)
        assert_close_vec(q1, (-1.0, 0.0, 0.0), 1e-12)
        assert_close_vec(p2, (0.0, 1 / SQ5, 2 / SQ5), 1e-12)
        assert_close_vec(q2, (0.0, -1 / SQ2, 1 / SQ2), 1e-12)

    def test_unit_distance_invariant(self, corner_fn, saddle_fn, table_fn):
        cases = [
            (corner_fn, (0.0, 0.0)),
            (saddle_fn, (0.0, 0.0)),
            (table_fn, (3.0, 6.0)),
            (table_fn, (4.0, 8.0)),
            (table_fn, (1.0, -1.0)),
        ]
        for u, a in cases:
            data = tangent_data(u, a)
            anchor = np.array([a[0], a[1], u.one_sided_limits(a, 0).mid])
            assert data.anchor == tuple(anchor.tolist())
            for p in data.points:
                assert np.linalg.norm(np.asarray(p) - anchor) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_center_mismatch_raises(self):
        # jump across x = 0 whose stored on-line value differs from the
        # midpoint of the x-limits: the two phototangent centers disagree
        u = from_branches(
            (AffineForm((1.0, 0.0), 0.0),),
            [((1,), Const(1.0)), ((0,), Const(0.3)), ((-1,), Const(0.0))],
            XY,
            policy="branch",
        )
        with pytest.raises(CenterMismatch):
            tangent_data(u, (0.0, 0.0))


class TestStrongCriterion:
    def test_corner_residual_value(self, corner_fn):
        res = tangent_data(corner_fn, (0.0, 0.0)).criterion_residual
        assert res == pytest.approx(SQ5 - 2 * SQ2 - 3, abs=1e-12)

    def test_saddle_residual_value(self, saddle_fn):
        res = tangent_data(saddle_fn, (0.0, 0.0)).criterion_residual
        assert res == pytest.approx(4 * (1 + SQ5), abs=1e-12)

    def test_smooth_residual_zero(self):
        u = from_expression(parse("x^2 - x*y + 3*y", XY), XY)
        for a in ((0.0, 0.0), (1.0, -2.0), (0.5, 0.25)):
            assert tangent_data(u, a).criterion_residual == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_kink_residual_zero(self):
        # equal jumps in both variables keep the criterion balanced
        u = from_expression(parse("abs(x) + abs(y)", XY), XY)
        assert tangent_data(u, (0.0, 0.0)).criterion_residual == pytest.approx(
            0.0, abs=1e-12
        )


class TestSpecularNormal:
    def test_smooth_matches_gradient(self):
        u = from_expression(parse("x^2 - x*y + 3*y", XY), XY)
        for x, y in ((0.0, 0.0), (1.0, -2.0), (0.5, 0.25)):
            n = tangent_data(u, (x, y)).normal
            assert_close_vec(n, (2 * x - y, -x + 3, -1.0), 1e-12)

    def test_symmetric_kink_normal(self):
        u = from_expression(parse("abs(x) + abs(y)", XY), XY)
        n = tangent_data(u, (0.0, 0.0)).normal
        assert_close_vec(n, (0.0, 0.0, -1.0), 1e-12)

    def test_corner_has_no_normal_but_a_would_be_one(self, corner_fn):
        data = tangent_data(corner_fn, (0.0, 0.0))
        assert data.normal is None
        assert data.criterion_residual == pytest.approx(SQ5 - 2 * SQ2 - 3, abs=1e-12)
        would_be = (*(a_combine(p.right, p.left) for p in data.pairs), -1.0)
        assert_close_vec(would_be, (SQ2 - 1, SQ10 - 3, -1.0), 1e-12)


class TestWeakPlanes:
    PRINTED = [
        (SQ2 - 1, -(SQ10 - SQ5 - 2), SQ2 - 1),
        (SQ2 - 1, -(SQ2 - 1), SQ2 - 1),
        (-(SQ10 - 3), SQ10 - 3, SQ5 - SQ2),
        (SQ5 - SQ2, SQ10 - 3, SQ5 - SQ2),
    ]

    def test_corner_reproduces_all_four(self, corner_fn):
        data = tangent_data(corner_fn, (0.0, 0.0))
        assert not data.degenerate_triples
        assert len(data.planes) == 4
        for want in self.PRINTED:
            assert any(
                all(abs(g - w) <= 1e-9 for g, w in zip(got, want))
                for got in data.planes
            ), want

    def test_none_perpendicular_to_specular_normal(self, corner_fn):
        # the point of the example: no weak plane has normal
        # (sqrt(2)-1, sqrt(10)-3, -1)
        for c1, c2, _c0 in tangent_data(corner_fn, (0.0, 0.0)).planes:
            assert abs(c1 - (SQ2 - 1)) > 1e-6 or abs(c2 - (SQ10 - 3)) > 1e-6

    def test_smooth_collapses_to_tangent_plane(self):
        u = from_expression(parse("x^2 - x*y + 3*y", XY), XY)
        planes = tangent_data(u, (1.0, -2.0)).planes
        assert len(planes) == 1
        c1, c2, c0 = planes[0]
        # z = u(a) + ux (x - 1) + uy (y + 2)
        assert c1 == pytest.approx(4.0, abs=1e-9)
        assert c2 == pytest.approx(2.0, abs=1e-9)
        assert c0 == pytest.approx(-3.0 - 4.0 * 1.0 - 2.0 * (-2.0), abs=1e-9)

    def test_translation_keeps_all_four(self):
        # |x - X| + |y| at (X, 1): the same four slopes wherever the kink is
        slopes = []
        for X in (0.0, 5000.0, 20000.0):
            u = from_expression(parse(f"abs(x - {X!r}) + abs(y)", XY), XY)
            data = tangent_data(u, (X, 1.0))
            assert not data.degenerate_triples and len(data.planes) == 4, X
            slopes.append([(c1, c2) for c1, c2, _c0 in data.planes])
        for other in slopes[1:]:
            for got, want in zip(other, slopes[0]):
                assert_close_vec(got, want, 1e-6)


class TestTangentData:
    def test_corner_summary(self, corner_fn):
        data = tangent_data(corner_fn, (0.0, 0.0))
        assert data.anchor == (0.0, 0.0, 0.0)
        assert data.normal is None
        assert len(data.planes) == 4
        assert data.criterion_residual == pytest.approx(
            SQ5 - 2 * SQ2 - 3, abs=1e-12
        )
        assert data.pairs[0].right == 1.0 and data.pairs[0].left == 0.0
        assert data.pairs[1].right == 2.0 and data.pairs[1].left == -1.0

    def test_smooth_summary(self):
        u = from_expression(parse("sin(x)*cos(y)", XY), XY)
        data = tangent_data(u, (0.5, -0.3))
        assert data.normal is not None
        assert data.criterion_residual == pytest.approx(0.0, abs=1e-12)
        assert len(data.planes) == 1

    def test_criterion_runs_once_per_call(self, corner_fn, monkeypatch):
        # the normal and the weak planes read the verdict tangent_data takes
        calls = []
        real = tangent2d._criterion
        monkeypatch.setattr(tangent2d, "_criterion", lambda *pairs: calls.append(pairs) or real(*pairs))
        smooth = from_expression(parse("sin(x)*cos(y)", XY), XY)
        assert tangent_data(corner_fn, (0.0, 0.0)).normal is None
        assert tangent_data(smooth, (0.5, -0.3)).normal is not None
        assert len(calls) == 2


class TestLazyPlanes:
    @pytest.mark.parametrize("text, a", [
        ("(1/2)*(x + abs(x)) + (1/2)*y + (3/2)*abs(y)", (0.0, 0.0)),  # weak: four planes
        ("abs(2*x - y) + abs(x - 3)", (3.0, 1.0)),                      # weak, on x = 3
        ("x^2 - x*y + 3*y", (1.0, -2.0)),                               # strong, smooth
        ("abs(x) + abs(y)", (0.0, 0.0)),                                # strong, on both lines
    ])
    def test_planes_on_first_access_are_those_of_the_points(self, text, a):
        """``planes`` and ``degenerate_triples``, computed on first access,
        are ``_weak_planes`` of the sphere points and the strong verdict."""
        data = tangent_data(from_expression(parse(text, XY), XY), a)
        assert "_weak" not in vars(data)
        planes, degenerate = tangent2d._weak_planes(data.points, data.normal is not None)
        assert data.planes == planes and data.degenerate_triples == degenerate
        assert data.planes is data.planes


def test_float_cross_is_np_cross_bit_for_bit():
    """``_cross`` runs np.cross's operations on floats: the same bits on
    seeded vectors of mixed magnitudes, so the parallelism test of the
    normal, which takes np.linalg.norm of them, is unchanged."""
    rng = np.random.default_rng(35)
    for _ in range(2000):
        a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-8, 8, size=(2, 1))
        got = np.array(tangent2d._cross(a.tolist(), b.tolist()))
        assert got.view(np.int64).tolist() == np.cross(a, b).view(np.int64).tolist()
