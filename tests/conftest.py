"""Shared fixtures: the worked-example functions and solver outputs used
across the suite.  Session-scoped so expensive solves run once."""

import pytest

from speculus.expr import AffineForm, Const, parse
from speculus.piecewise import _edge_samples, from_branches, from_expression, pw_add
from speculus.expr import affine_arguments
from speculus.specular import partial_field, semi_derivatives
from speculus.tangent2d import CenterMismatch, _check_center, _criterion
from speculus.waves import (
    FORM_T,
    solve_wave_halfline,
    solve_wave_nonhomogeneous,
)

VARS_X = ("x",)
VARS_XY = ("x", "y")
VARS_XT = ("x", "t")


@pytest.fixture(scope="session")
def table_fn():
    """u = |2x - y| + |x - 3|: two crossing singular lines."""
    e = parse("abs(2*x - y) + abs(x - 3)", VARS_XY)
    return from_expression(e, VARS_XY)


@pytest.fixture(scope="session")
def corner_fn():
    """u = (x + |x|)/2 + y/2 + 3|y|/2: no strong tangent plane at 0."""
    e = parse("(1/2)*(x + abs(x)) + (1/2)*y + (3/2)*abs(y)", VARS_XY)
    return from_expression(e, VARS_XY)


@pytest.fixture(scope="session")
def saddle_fn():
    """u = |x| - |y| - x - y: strong criterion residual 4(1+sqrt5) at 0."""
    e = parse("abs(x) - abs(y) - x - y", VARS_XY)
    return from_expression(e, VARS_XY)


@pytest.fixture(scope="session")
def halfline_data():
    phi = from_expression(
        parse("(1/2)*(x - 1)*abs(x - 1) + (1/2)*x^2 + 1/2", VARS_X), VARS_X
    )
    psi = from_expression(parse("abs(x - 1) - 1", VARS_X), VARS_X)
    return phi, psi


@pytest.fixture(scope="session")
def halfline_sol(halfline_data):
    return solve_wave_halfline(*halfline_data)


@pytest.fixture(scope="session")
def counterexample_data():
    """Force with constant branches -1 / 0 / 1 across the characteristic
    lines through the origin, and matched C^1 initial displacement."""
    forms = affine_arguments(parse("abs(x-t) + abs(x+t)", VARS_XT), VARS_XT)
    f = from_branches(
        forms,
        [
            ((1, 1), Const(-1.0)),
            ((-1, 1), Const(0.0)),
            ((-1, -1), Const(1.0)),
            ((1, -1), Const(-1.0)),
        ],
        VARS_XT,
        domain=((FORM_T, 1),),
    )
    phi = from_branches(
        affine_arguments(parse("abs(x)", VARS_X), VARS_X),
        [
            ((1,), parse("(1/2)*x^2 + 2*x", VARS_X)),
            ((-1,), parse("2*exp(x) - (1/2)*x^2 - 2", VARS_X)),
        ],
        VARS_X,
    )
    psi = from_expression(parse("0", VARS_X), VARS_X)
    return phi, psi, f


@pytest.fixture(scope="session")
def counterexample_sol(counterexample_data):
    phi, psi, f = counterexample_data
    return solve_wave_nonhomogeneous(phi, psi, f)


@pytest.fixture(scope="session")
def printed_counterexample_u():
    """The three-region closed form printed for the counterexample, with the
    line x = t assigned to the first branch and x = -t to the second."""
    f_xt = AffineForm((1.0, -1.0), 0.0)
    f_xpt = AffineForm((1.0, 1.0), 0.0)
    omega1 = parse("(1/2)*x^2 + 2*x", VARS_XT)
    omega2 = parse("exp(x - t) + x*t + x + t - 1", VARS_XT)
    omega3 = parse("exp(x + t) + exp(x - t) - (1/2)*x^2 - 2", VARS_XT)
    return from_branches(
        (f_xt, f_xpt),
        [
            ((1, 1), omega1),
            ((0, 1), omega1),      # Gamma_1 carries the Omega_1 branch
            ((-1, 1), omega2),
            ((-1, 0), omega2),     # Gamma_2 carries the Omega_2 branch
            ((-1, -1), omega3),
        ],
        VARS_XT,
        policy="branch",
        domain=((FORM_T, 1),),
    )


def _scalar_h_rows(u):
    """The rows of ``hypothesis_h_check`` by the scalar path alone:
    the semi-derivative pairs of v = u_t - u_x along x and t, then
    ``_check_center`` of its mids, at each edge sample of v's lines, in
    order, with each residual and float as its repr."""
    v = pw_add(partial_field(u, 1), partial_field(u, 0), -1.0)
    rows = []
    for p in (p for line in _edge_samples(v.forms, v.domain, v.d) for p in line):
        try:
            pair1, pair2 = semi_derivatives(v, p, 0), semi_derivatives(v, p, 1)
            _check_center(v.one_sided_limits(p, 0).mid, v.one_sided_limits(p, 1).mid)
        except CenterMismatch as e:
            rows.append((tuple(p), None, f"center mismatch: {e}"))
        else:
            rows.append((tuple(p), repr(_criterion(pair1, pair2)[0]), ""))
    return rows


@pytest.fixture(scope="session")
def scalar_h_rows():
    return _scalar_h_rows


@pytest.fixture(scope="session")
def h_rows():
    """The rows of a ``hypothesis_h_check`` report in the form of ``scalar_h_rows``."""
    return lambda rep: [(p, None if r is None else repr(r), note) for p, r, note in rep.rows]
