"""``piecewise.filled``, the one rule for the points a batch leaves, and
the order it gives the check sites: each uncovered entry is taken row by
row, and within a row column by column, so a check raises the error a
row-major scalar pass meets first."""

import numpy as np
import pytest

from speculus.expr import ExprError, parse
from speculus.piecewise import filled, from_expression
from speculus.specular import semi_derivative_one_sided
from speculus.waves import initial_conditions_residual, residual_max, wave_operator_fields

X, XT = ("x",), ("x", "t")


def fn(text, vars=XT):
    return from_expression(parse(text, vars), vars)


class TestFilled:
    COLS = [np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.0, 7.0])]

    def test_holes_are_taken_row_major(self):
        calls = []

        def recorder(name):
            def scalar(p):
                calls.append((name, p))
                return 10.0 * len(calls)
            return scalar

        columns = [(np.array([1.0, 2.0, 3.0]), np.array([True, False, False]), recorder("a")),
                   (np.array([4.0, 5.0, 6.0]), np.array([False, True, False]), recorder("b")),
                   (np.array([7.0, 8.0, 9.0]), np.array([True, True, True]), recorder("c"))]
        out = filled(self.COLS, columns)
        assert calls == [("b", (0.0, 5.0)), ("a", (1.0, 6.0)), ("a", (2.0, 7.0)), ("b", (2.0, 7.0))]
        assert all(type(x) is float for _, p in calls for x in p)
        assert [v.tolist() for v in out] == [[1.0, 20.0, 30.0], [10.0, 5.0, 40.0], [7.0, 8.0, 9.0]]
        assert all(v is c[0] for v, c in zip(out, columns))  # filled in place

    def test_nothing_uncovered_makes_no_scalar_call(self):
        def scalar(p):
            raise AssertionError(f"scalar called at {p}")

        values = np.array([1.0, 2.0, 3.0])
        out = filled(self.COLS, [(values, np.ones(3, dtype=bool), scalar)] * 2)
        assert out[0] is values and values.tolist() == [1.0, 2.0, 3.0]

    def test_first_error_stops_the_pass(self):
        calls = []

        def scalar(p):
            calls.append(p)
            raise ZeroDivisionError(f"at {p}")

        with pytest.raises(ZeroDivisionError, match=r"at \(1.0, 6.0\)"):
            filled(self.COLS, [(np.zeros(3), np.array([True, True, False]), scalar),
                               (np.zeros(3), np.array([True, False, True]), scalar)])
        assert calls == [(1.0, 6.0)]


# ---------------------------------------------------------------------------
# The order at the check sites, against a scalar pass over every cell

def first_error(points, scalars, row_major=True):
    """The first error of the scalars over the points, taken row-major or
    column-major."""
    cells = ([(p, s) for p in points for s in scalars] if row_major
             else [(p, s) for s in scalars for p in points])
    for p, s in cells:
        try:
            s(p)
        except ExprError as exc:
            return type(exc).__name__, str(exc)
    raise AssertionError("the scalar pass raised nothing")


def raised(check, *args):
    with pytest.raises(ExprError) as info:
        check(*args)
    return type(info.value).__name__, str(info.value)


class TestWaveResidualOrder:
    """The residual column W - f, whose scalar takes W, then f: W = wtt -
    wxx is undefined left of x = -1 and above t = 1, f below t = 1."""

    U, F = "sqrt(x + 1) + sqrt(1 - t)", "sqrt(t - 1)"

    def scalars(self):
        u, f = fn(self.U), fn(self.F)
        return u, f, [wave_operator_fields(u)[2].evaluate, f.evaluate]

    def test_rows_before_columns(self):
        # f is a hole at the first point, W only at the second
        points = [(0.0, 0.5), (-2.0, 2.0)]
        u, f, scalars = self.scalars()
        want = first_error(points, scalars)
        assert want == ("EvalDomainError", "sqrt of negative value -0.5")
        assert first_error(points, scalars, row_major=False) != want
        assert raised(residual_max, u, "wave", f, points) == want

    def test_w_before_f(self):
        # W and f are holes at the same point, with different errors
        points = [(-2.0, 0.5)]
        u, f, scalars = self.scalars()
        want = first_error(points, scalars)
        assert first_error(points, scalars[::-1]) != want
        assert raised(residual_max, u, "wave", f, points) == want


class TestInitialResidualOrder:
    """The columns (u, phi, slope, psi) at the points (x, 0)."""

    @staticmethod
    def scalars(u, phi, psi):
        return [u.evaluate, lambda p: phi.evaluate(p[:1]),
                lambda p: semi_derivative_one_sided(u, p, 1, +1), lambda p: psi.evaluate(p[:1])]

    def test_rows_before_columns(self):
        # phi is a hole at x = -0.75, u only at x = -2
        u, phi, psi = fn("sqrt(x + 1)"), fn("sqrt(x + 0.5)", X), fn("x", X)
        xs = [-0.75, -2.0]
        scalars = self.scalars(u, phi, psi)
        points = [(x, 0.0) for x in xs]
        want = first_error(points, scalars)
        assert want == ("EvalDomainError", "sqrt of negative value -0.25")
        assert first_error(points, scalars, row_major=False) != want
        assert raised(initial_conditions_residual, u, phi, psi, xs) == want

    @pytest.mark.parametrize("u, phi, psi, x, swap", [
        # u and phi are holes at x = -2
        ("sqrt(x + 1)", "sqrt(x + 0.5)", "x", -2.0, (0, 1)),
        # u and phi are defined at 0; the t-slope divides by 0, psi is a hole
        ("sqrt(x*x + t*t)", "abs(x)", "sqrt(x - 1)", 0.0, (2, 3)),
    ])
    def test_columns_in_order(self, u, phi, psi, x, swap):
        u, phi, psi = fn(u), fn(phi, X), fn(psi, X)
        scalars = self.scalars(u, phi, psi)
        swapped = list(scalars)
        swapped[swap[0]], swapped[swap[1]] = scalars[swap[1]], scalars[swap[0]]
        want = first_error([(x, 0.0)], scalars)
        assert first_error([(x, 0.0)], swapped) != want
        assert raised(initial_conditions_residual, u, phi, psi, [x]) == want
