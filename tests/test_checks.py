"""The on-line checks (continuity, properness, S^2) and the wave residual
and initial-condition checks against the scalar point-by-point versions
they replaced, which this file keeps as oracles: equal reports bit for
bit, the same first exception, and counters of the scalar work that is
left."""

import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speculus.cli as cli
import speculus.piecewise as piecewise
import speculus.specular as specular
import speculus.waves as waves
from speculus.cli import _check_points, cmd_check, load_problem, solve_problem
from speculus.expr import AffineForm, Call, Const, Opaque, Var, affine_arguments, parse
from speculus.piecewise import (
    ContinuityReport,
    PiecewiseFn,
    ProperReport,
    _edge_samples,
    _faces,
    classify_continuity,
    from_branches,
    from_expression,
    is_proper,
    merge_forms,
    proper_value,
    tol_jump,
)
from speculus.specular import S2Report, partial_field, s2_membership, specular_field
from speculus.specular import semi_derivative_one_sided
from speculus.waves import (
    FORM_T,
    ResidualReport,
    initial_conditions_residual,
    solve_transport,
    solve_wave_halfline,
    solve_wave_homogeneous,
    solve_wave_nonhomogeneous,
    wave_operator_fields,
    wave_residual,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
X, XY, XT = ("x",), ("x", "y"), ("x", "t")


# ---------------------------------------------------------------------------
# The scalar oracles: every sample point through one_sided_limits/evaluate

def edge_samples(u):
    return _edge_samples(u.forms, u.domain, u.d)


def classify_scalar(u):
    jump, indet, unsampled = [], [], []
    samples = {}
    for (k, f), pts in zip(enumerate(u.forms), edge_samples(u)):
        if not pts:
            unsampled.append(k)
            continue
        axis = f.primary_axis()
        rows = []
        n_jump = 0
        for p in pts:
            lim = u.one_sided_limits(p, axis)
            rows.append((p, lim.left, lim.right))
            if abs(lim.left - lim.right) > tol_jump(lim.left, lim.right):
                n_jump += 1
        samples[k] = rows
        if n_jump == len(rows):
            jump.append(k)
        elif n_jump > 0:
            indet.append(k)
    if indet:
        verdict = "not-piecewise-continuous"
    elif jump:
        verdict = "piecewise-continuous"
    else:
        verdict = "continuous"
    return ContinuityReport(jump, indet, verdict, samples, unsampled)


def is_proper_scalar(u):
    cont = classify_scalar(u)
    violations = []
    for k, rows in cont.samples.items():
        for p, _, _ in rows:
            stored = u.evaluate(p)
            for axis in range(u.d):
                lim = u.one_sided_limits(p, axis)
                expected = proper_value(lim.left, lim.right)
                if abs(stored - expected) > tol_jump(lim.left, lim.right):
                    violations.append((k, p, axis, stored, expected))
    ok = cont.verdict != "not-piecewise-continuous" and not violations
    return ok, ProperReport(ok, cont, violations)


def s2_scalar(u):
    notes = []
    cont = classify_scalar(u)
    if cont.verdict != "continuous":
        ok, _ = is_proper_scalar(u)
        bad = [u.forms[k] for k in cont.jump_forms + cont.indeterminate]
        verdict = "S0-only" if ok else "fails"
        notes.append("u itself is not continuous")
        return S2Report(verdict, cont.verdict, {}, {}, {}, math.inf, bad, notes)

    fields = {0: partial_field(u, 0), 1: partial_field(u, 1)}
    first_proper, failure_forms = {}, []
    for axis, fld in fields.items():
        ok, rep = is_proper_scalar(fld)
        first_proper[axis] = ok
        if not ok:
            failure_forms.extend(u.forms[k] for k, *_ in rep.violations)

    second = {(i, j): specular_field(fields[j], i) for i in (0, 1) for j in (0, 1)}
    second_proper = {}
    for key, fld in second.items():
        ok, rep = is_proper_scalar(fld)
        second_proper[key] = ok
        if not ok:
            failure_forms.extend(u.forms[k] for k, *_ in rep.violations)

    mixed_continuous = {}
    for key in ((0, 1), (1, 0)):
        rep = classify_scalar(second[key])
        mixed_continuous[key] = rep.verdict == "continuous"
        if not mixed_continuous[key]:
            failure_forms.extend(second[key].forms[k] for k in rep.jump_forms + rep.indeterminate)

    pts = [p for line in edge_samples(u) for p in line]
    pts += [p for pat, p in _faces(u.forms, u.domain, 2).items() if 0 not in pat]
    residual = 0.0
    for p in pts:
        residual = max(residual, abs(second[(0, 1)].evaluate(p) - second[(1, 0)].evaluate(p)))

    firsts_ok = all(first_proper.values())
    seconds_ok = all(second_proper.values()) and all(mixed_continuous.values())
    if firsts_ok and seconds_ok:
        verdict = "S2"
    elif firsts_ok:
        verdict = "S1-only"
    else:
        ok_u, _ = is_proper_scalar(u)
        verdict = "S0-only" if ok_u else "fails"
    return S2Report(verdict, cont.verdict, first_proper, second_proper,
                    mixed_continuous, residual, merge_forms([failure_forms]), notes)


def wave_residual_scalar(u, f, points):
    wtt, wxx, W = wave_operator_fields(u)
    rows = []
    worst = 0.0
    for p in points:
        val = W.evaluate(p)
        fval = f.evaluate(p) if f is not None else 0.0
        resid = val - fval
        rows.append((tuple(p), val, fval, resid, wtt.evaluate(p), wxx.evaluate(p)))
        worst = max(worst, abs(resid))
    return ResidualReport(rows, worst)


def initial_scalar(u, phi, psi, xs):
    worst_u = worst_v = 0.0
    for x in xs:
        p = (float(x), 0.0)
        worst_u = max(worst_u, abs(u.evaluate(p) - phi.evaluate((float(x),))))
        alpha = semi_derivative_one_sided(u, p, 1, +1)
        worst_v = max(worst_v, abs(alpha - psi.evaluate((float(x),))))
    return worst_u, worst_v


def outcome(fn, *args):
    """repr of the result (floats bit for bit, -0.0 included), or the
    exception's type and message."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:
        return "raises", type(exc).__name__, str(exc)


def assert_checks_match(u):
    """classify_continuity, is_proper and (in 2D) s2_membership equal their
    oracles on u and on its partial fields."""
    fields = [u] + [partial_field(u, axis) for axis in range(u.d)]
    for fld in fields:
        assert outcome(classify_continuity, fld) == outcome(classify_scalar, fld)
        assert outcome(is_proper, fld) == outcome(is_proper_scalar, fld)
    if u.d == 2:
        assert outcome(s2_membership, u) == outcome(s2_scalar, u)


def assert_residuals_match(u, phi, psi, f, points, xs):
    """wave_residual and initial_conditions_residual equal their oracles."""
    assert outcome(wave_residual, u, f, points) == outcome(wave_residual_scalar, u, f, points)
    assert (outcome(initial_conditions_residual, u, phi, psi, xs)
            == outcome(initial_scalar, u, phi, psi, xs))


# grid points, many of them on the lines x +/- t = c of the generated kinks
GRID = [(x, t) for t in (0.0, 0.5, 1.0, 1.5) for x in np.arange(-2.0, 2.25, 0.25).tolist()]
XS = np.arange(0.0, 2.25, 0.25).tolist()


# ---------------------------------------------------------------------------
# Fixture problems and generated wave, half-line and forced problems

@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.prob")))
def test_fixture_reports_match_oracle(name):
    prob = load_problem(str(PROBLEMS / f"{name}.prob"))
    u = prob.u if prob.kind is None else solve_problem(prob)
    assert_checks_match(u)
    if prob.kind is not None and prob.kind.startswith("wave"):
        xs = np.linspace(max(prob.grid.x_range[0], 0.0), prob.grid.x_range[1], 33).tolist()
        assert_residuals_match(u, prob.phi, prob.psi, prob.f, _check_points(u, prob), xs)
    for data in (prob.phi, prob.psi, prob.h, prob.f):
        if data is not None:
            assert_checks_match(data)


KINK = st.sampled_from((-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5))
COEF = st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))


@given(st.sampled_from(("wave", "halfline", "transport")), COEF, KINK, COEF, KINK, COEF)
@settings(max_examples=12, deadline=None)
def test_generated_solutions_match_oracle(kind, a, c, b, d, p1):
    """Solutions with a C^1 kink of phi at c and a kink of psi at d (moved
    to the right half-line, with phi(0) = psi(0) = 0, for the half-line)."""
    if kind == "halfline":
        c, d = abs(c) + 0.5, abs(d) + 0.75
        phi = f"{a / 2}*(x - {c})*abs(x - {c}) + {a / 2 * c * c} + {p1}*x"
        psi = f"{b}*abs(x - {d}) - {b * d} + {p1}*x"
    else:
        phi = f"{a / 2}*(x - {c})*abs(x - {c}) + {p1}*x^2 + 1"
        psi = f"{b}*abs(x - {d}) + {p1}*x"
    phi, psi = (from_expression(parse(text, X), X) for text in (phi, psi))
    if kind == "transport":
        sol = solve_transport(from_expression(parse(f"{b}*abs(x - {d}) + {a}*abs(x - {c})", X), X))
    else:
        sol = (solve_wave_halfline if kind == "halfline" else solve_wave_homogeneous)(phi, psi)
        assert_residuals_match(sol, phi, psi, None, [p for p in GRID if sol.in_domain(p)], XS)
    assert_checks_match(sol)


@given(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
       st.lists(st.sampled_from((-2.0, -1.0, 0.0, 1.0, 2.0)), min_size=4, max_size=4),
       COEF, KINK)
@settings(max_examples=8, deadline=None)
def test_forced_solutions_match_oracle(a, values, b, d):
    """A force constant between the characteristic lines x - t = a and
    x + t = a, and a kink of psi at d."""
    forms = affine_arguments(parse(f"abs(x - t - {a}) + abs(x + t - {a})", XT), XT)
    table = [(s, Const(v)) for s, v in zip(((1, 1), (-1, 1), (-1, -1), (1, -1)), values)]
    f = from_branches(forms, table, XT, domain=((FORM_T, 1),))
    phi = from_expression(parse("(1/2)*x^2 + x", X), X)
    psi = from_expression(parse(f"{b}*abs(x - {d})", X), X)
    sol = solve_wave_nonhomogeneous(phi, psi, f)
    assert_checks_match(sol)
    assert_checks_match(f)
    assert_residuals_match(sol, phi, psi, f, [p for p in GRID if sol.in_domain(p)], XS)


# ---------------------------------------------------------------------------
# Branches that raise at on-line samples

LINE_X = AffineForm((1.0, 0.0), 0.0)
LINE_XY = AffineForm((1.0, -1.0), 1.0)
LINE_Y = AffineForm((0.0, 1.0), 0.5)


def _raising_fields():
    y = Var("y")
    sqrt_y = Call("sqrt", parse("y - 3", XY))
    root = Opaque(math.sqrt, (y,))  # ValueError below y = 0, as an Opaque leaf may raise
    return [
        # an adjacent branch fails on part of the line
        from_branches((LINE_X,), [((1,), sqrt_y), ((-1,), Const(0.0))], XY),
        # an Opaque leaf fails on part of the line
        from_branches((LINE_X,), [((1,), root), ((-1,), y)], XY),
        # the stored on-line branch fails where the limits do not
        from_branches((LINE_X,), [((1,), y), ((0,), sqrt_y), ((-1,), y)], XY,
                      policies=("branch",)),
        # a slanted line, and a vertical one whose limits along y recurse
        from_branches((LINE_X, LINE_XY),
                      [((1, 1), sqrt_y), ((1, -1), y), ((-1, None), Const(1.0))], XY),
        # the table misses a side: no adjacent branch
        PiecewiseFn(XY, (LINE_X,), (((1,), y),), ("specular",)),
    ] + _two_line_fields()


def _two_line_fields():
    """Fields whose samples on x = 0 (line 0) raise EvalDomainError below
    y = -1, with the value in the message, and whose samples on y = 1/2
    (line 1) raise ValueError from x = -1 leftwards."""
    y = Var("y")
    sqrt_y = Call("sqrt", parse("y + 1", XY))
    log_x = Opaque(math.log, (parse("x + 1", XY),))
    return [
        # both lines fail in their limits: line 0 raises first
        from_branches((LINE_X, LINE_Y),
                      [((1, None), sqrt_y), ((-1, 1), log_x), ((-1, -1), Const(0.0))], XY),
        # line 0 fails only in its stored values, line 1 in its limits: the
        # continuity pass over line 1 raises before any value is checked
        from_branches((LINE_X, LINE_Y),
                      [((1, None), y), ((-1, 1), log_x), ((-1, -1), Const(0.0)), ((0, None), sqrt_y)],
                      XY, policies=("branch", "specular")),
        # line 0 fails in its limits along y (a parallel 0), line 1 in its
        # stored values: the properness pass over line 0 raises first
        from_branches((LINE_X, LINE_Y),
                      [((None, 0), log_x), ((0, -1), sqrt_y), ((1, None), y), ((-1, None), Const(0.0))],
                      XY, policies=("specular", "branch")),
    ]


@pytest.mark.parametrize("index", range(8))
def test_raising_branch_raises_as_scalar(index):
    u = _raising_fields()[index]
    got = [outcome(fn, u) for fn in (classify_continuity, is_proper, s2_membership)]
    assert got == [outcome(fn, u) for fn in (classify_scalar, is_proper_scalar, s2_scalar)]
    assert any(out[0] == "raises" for out in got[:2])


@pytest.mark.parametrize("index, error", [(5, "EvalDomainError"), (6, "ValueError"),
                                          (7, "EvalDomainError")])
def test_two_line_first_error(index, error):
    """In the two-line fields each line has a raising sample point, and
    is_proper raises the error of the line the scalar pass reaches first."""
    u = _raising_fields()[index]
    for k, pts in enumerate(edge_samples(u)):
        stored = [outcome(u.evaluate, p) for p in pts]
        limits = [outcome(u.one_sided_limits, p, axis) for p in pts for axis in range(2)]
        assert any(out[0] == "raises" for out in stored + limits), k
    assert outcome(is_proper, u)[:2] == ("raises", error)


# ---------------------------------------------------------------------------
# Counters (independent of wall time)

@pytest.mark.parametrize("name, scalar_calls", [("halfline", 0), ("corner2d", 0)])
def test_s2_scalar_work_counters(name, scalar_calls, monkeypatch):
    """s2_membership calls the scalar evaluate and one_sided_value only at
    points that a batch left uncovered (calls nested in a batch or in a
    scalar call, as an Opaque leaf's finite difference makes them, are not
    counted), and differentiates each branch at most once per (pattern,
    axis) of each field.  The scalar checks made 3450 and 1750 such calls,
    and 92 and 52 diff calls; the lines of corner2d are parallel to the
    axes, so its limits along a line resolve a 0 of the other line, which
    the batch does too."""
    prob = load_problem(str(PROBLEMS / f"{name}.prob"))
    u = prob.u if prob.kind is None else solve_problem(prob)
    depth, uncovered, scalar_points, diffs = [0], set(), [], []

    def spy(name, record):
        real = getattr(PiecewiseFn, name)

        def wrapped(self, *args):
            top = depth[0] == 0
            depth[0] += 1
            try:
                out = real(self, *args)
            finally:
                depth[0] -= 1
            if top:
                record(*args, out)
            return out
        monkeypatch.setattr(PiecewiseFn, name, wrapped)

    def uncover(cols, covered):
        pts = np.asarray(cols, dtype=float).T.tolist()
        uncovered.update(tuple(p) for p, ok in zip(pts, covered.tolist()) if not ok)

    spy("evaluate_many", lambda cols, out: uncover(cols, out[1]))
    spy("evaluate_batch", lambda cols, *args: [uncover(cols, c) for _, c in args[-1].values()])
    spy("evaluate", lambda p, out: scalar_points.append(tuple(p)))
    spy("one_sided_value", lambda p, *args: scalar_points.append(tuple(p)))
    real_diff = specular.diff

    def diff(e, var, *rest):
        diffs.append((e, var))
        return real_diff(e, var, *rest)

    monkeypatch.setattr(specular, "diff", diff)
    s2_membership(u)
    assert len(scalar_points) == scalar_calls
    assert set(scalar_points) <= uncovered
    fields, stack = [], [u]
    while stack:
        fields.append(stack.pop())
        stack.extend(fields[-1].derived.values())
    assert len(fields) == 7
    assert 0 < len(diffs) <= sum(len(f._slopes) for f in fields)


@pytest.mark.parametrize("name, reports", [("halfline", 2), ("wave_fullline", 5), ("zero", 9)])
def test_check_work_counters(name, reports, monkeypatch):
    """check takes the initial velocity at its 33 points from one batch,
    with no scalar semi_derivative_one_sided call, and builds one
    properness report per field: zero lists both s2 and proper, which
    made 11 reports when each check ran is_proper on its own."""
    scalar, built = [], []
    real_slope, real_report = waves.semi_derivative_one_sided, piecewise.ProperReport
    monkeypatch.setattr(waves, "semi_derivative_one_sided",
                        lambda *args: scalar.append(args) or real_slope(*args))
    monkeypatch.setattr(piecewise, "ProperReport", lambda *args: built.append(args) or real_report(*args))
    cmd_check(str(PROBLEMS / f"{name}.prob"), out=io.StringIO())
    assert scalar == [] and len(built) == reports


def test_boundary_check_makes_no_scalar_evaluate(monkeypatch):
    """The boundary check of halfline takes its 33 values from one batch:
    no top-level scalar evaluate call while it runs (it made 33)."""
    calls, depth, inside = [], [0], [False]
    real_evaluate, real_boundary = PiecewiseFn.evaluate, cli.boundary_residual

    def evaluate(self, p):
        if inside[0] and depth[0] == 0:
            calls.append(tuple(p))
        depth[0] += 1
        try:
            return real_evaluate(self, p)
        finally:
            depth[0] -= 1

    def boundary(u, ts):
        inside[0] = True
        try:
            return real_boundary(u, ts)
        finally:
            inside[0] = False

    monkeypatch.setattr(PiecewiseFn, "evaluate", evaluate)
    monkeypatch.setattr(cli, "boundary_residual", boundary)
    out = io.StringIO()
    cmd_check(str(PROBLEMS / "halfline.prob"), out=out)
    assert "boundary.pass = true\n" in out.getvalue()
    assert calls == []


def _count_batch_work(monkeypatch) -> dict:
    """Count pattern_groups calls and record the tree of every eval_array
    call the piecewise engine makes."""
    work = {"pattern_groups": 0, "eval_array": []}
    real_groups, real_eval = PiecewiseFn.pattern_groups, piecewise.eval_array

    def groups(self, cols):
        work["pattern_groups"] += 1
        return real_groups(self, cols)

    def eval_array(e, cols, bad):
        work["eval_array"].append(e)
        return real_eval(e, cols, bad)

    monkeypatch.setattr(PiecewiseFn, "pattern_groups", groups)
    monkeypatch.setattr(piecewise, "eval_array", eval_array)
    return work


@pytest.mark.parametrize("name", ["corner2d", "counterexample", "halfline", "table2d"])
def test_is_proper_is_one_batch(name, monkeypatch):
    """is_proper on a function and on each of its derivative fields groups
    its points by sign pattern once and evaluates each branch tree it
    touches at most once."""
    prob = load_problem(str(PROBLEMS / f"{name}.prob"))
    u = prob.u if prob.kind is None else solve_problem(prob)
    fields = [u] + [partial_field(u, axis) for axis in range(u.d)]
    fields += [specular_field(fields[1 + j], i) for i in range(u.d) for j in range(u.d)]
    work = _count_batch_work(monkeypatch)
    for fld in fields:
        work["pattern_groups"], work["eval_array"] = 0, []
        is_proper(fld)
        assert work["pattern_groups"] == 1
        assert 0 < len(work["eval_array"]) == len({id(e) for e in work["eval_array"]})


@pytest.mark.parametrize("name, calls", [("corner2d", 47), ("zero", 2)])
def test_s2_eval_array_counters(name, calls, monkeypatch):
    """s2_membership makes at most the pinned number of eval_array passes
    (one batch per field per check; 104 and 2 with one batch per line,
    axis and side)."""
    prob = load_problem(str(PROBLEMS / f"{name}.prob"))
    u = prob.u if prob.kind is None else solve_problem(prob)
    work = _count_batch_work(monkeypatch)
    s2_membership(u)
    assert len(work["eval_array"]) <= calls


@pytest.mark.parametrize("name, batches", [
    ("counterexample", [6] * 7 + [9, 9]),
    ("halfline", [18] * 7 + [24, 24]),
])
def test_s2_sample_counts(name, batches, monkeypatch):
    """s2_membership batches its checks of u and of the six derivative
    fields at the edge samples (3 on each edge of a line inside t > 0:
    counterexample has two lines with one edge each, halfline four lines
    with two, two, one and one), then the symmetry residual of the two
    mixed fields there and at one witness per cell (3 and 6 cells).  The
    box sampler took 34 and 68 points per field and 59 and 93 for the
    residual."""
    prob = load_problem(str(PROBLEMS / f"{name}.prob"))
    u = solve_problem(prob)
    sizes, real = [], PiecewiseFn.evaluate_batch

    def counted(self, cols, *args):
        sizes.append(len(cols[0]))
        return real(self, cols, *args)

    monkeypatch.setattr(PiecewiseFn, "evaluate_batch", counted)
    s2_membership(u)
    assert sizes == batches
