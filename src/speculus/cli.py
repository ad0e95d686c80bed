"""Batch front end: problem files in, derivative reports / CSV samples /
check reports out.

Problem files are line-oriented ``key = value`` under ``[section]`` headers.
The ``[problem]`` section declares either a bare function (``u = <expr>``
with ``vars = x, y``) or a solver problem (``kind`` one of ``transport``,
``wave``, ``wave-halfline``, ``wave-nonhomogeneous`` with data ``phi``,
``psi``, ``h``, ``f``).  A data value is either a raw expression string or a
reference ``@name`` to a branch-table section::

    [f]
    vars = x, t
    forms = x - t; x + t
    branch = ++ : -1
    branch = -+ : 0
    branch = -- : 1
    branch = +- : -1

Pattern characters: ``+`` ``-`` ``0`` per form, ``*`` for wildcard.

``[grid]`` holds ``x_range = a, b``, ``t_range = a, b``, ``nx``, ``nt`` and
the on-line offset ``delta``; ``[check]`` holds ``checks = ...`` drawn from
{residual, s2, proper, hypothesis-h, boundary, initial}.

The commands print their reports to ``out``; the default, None, prints
to whatever ``sys.stdout`` is at the call.

Exit codes: 0 success, 1 check failure, 2 parse error (including a branch
table that leaves a non-empty region uncovered, a ``--point`` that is not
finite numbers, and a file that cannot be read or written), 3 math-domain
error (including a point outside the function's domain, a non-finite or
overflowing value and a quadrature panel that fails to converge), 4 solver
precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .expr import (
    EvalDomainError,
    ExprError,
    ParseError,
    as_affine,
    normalize_affine,
    free_vars,
    parse,
)
from .piecewise import (
    BranchLookupError,
    CoverageError,
    PiecewiseFn,
    PointQuery,
    Points,
    a_combine,
    filled,
    from_branches,
    from_expression,
    is_proper,
    line_values,
    safe_eval,
)
from .quad import QuadratureError
from .specular import (
    SpecularError,
    partial_field,
    s2_membership,
    semi_derivatives,
)
from .tangent2d import CenterMismatch, TangentError, tangent_data
from .waves import (
    FORM_T,
    SolverPrecondition,
    boundary_residual,
    hypothesis_h_check,
    initial_conditions_residual,
    residual_column,
    residual_max,
    solve_transport,
    solve_wave_halfline,
    solve_wave_homogeneous,
    solve_wave_nonhomogeneous,
)

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_PARSE = 2
EXIT_MATH_DOMAIN = 3
EXIT_PRECONDITION = 4

# each solver kind's data, in the order its solver takes them
KIND_DATA = {"transport": ("h",), "wave": ("phi", "psi"), "wave-halfline": ("phi", "psi"),
             "wave-nonhomogeneous": ("phi", "psi", "f")}
KINDS = tuple(KIND_DATA)


class ProblemFileError(Exception):
    pass


# ---------------------------------------------------------------------------
# Problem-file parsing

@dataclass
class Section:
    name: str
    values: dict = field(default_factory=dict)      # key -> last value
    repeated: dict = field(default_factory=dict)    # key -> all values, in order


def parse_problem_file(text: str) -> dict:
    sections: dict[str, Section] = {}
    current: Optional[Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ProblemFileError(f"line {lineno}: empty section name")
            if name in sections:
                raise ProblemFileError(f"line {lineno}: duplicate section [{name}]")
            current = Section(name)
            sections[name] = current
            continue
        if current is None:
            raise ProblemFileError(f"line {lineno}: content before any [section]")
        if "=" not in line:
            raise ProblemFileError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key:
            raise ProblemFileError(f"line {lineno}: empty key")
        current.values[key] = value
        current.repeated.setdefault(key, []).append(value)
    if "problem" not in sections:
        raise ProblemFileError("missing [problem] section")
    return sections


def _parse_vars(s: str) -> tuple:
    names = tuple(v.strip() for v in s.split(",") if v.strip())
    if not names:
        raise ProblemFileError("empty vars list")
    if len(set(names)) < len(names):
        raise ProblemFileError(f"vars {', '.join(names)} repeats a name")
    return names


_PATTERN_CHARS = {"+": 1, "-": -1, "0": 0, "*": None}


def _build_branch_table(sec: Section) -> PiecewiseFn:
    if "vars" not in sec.values:
        raise ProblemFileError(f"[{sec.name}] needs vars = ...")
    if "forms" not in sec.values:
        raise ProblemFileError(f"[{sec.name}] needs forms = ...")
    vars = _parse_vars(sec.values["vars"])
    forms, flips = [], []
    for chunk in sec.values["forms"].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        e = parse(chunk, vars)
        aff = as_affine(e, vars)
        if aff is None or all(c == 0.0 for c in aff[0]):
            raise ProblemFileError(f"[{sec.name}] form {chunk!r} is not affine")
        form, scale = normalize_affine(aff[0], aff[1])
        if any(form.same_as(g) for g in forms):
            raise ProblemFileError(f"[{sec.name}] form {chunk!r} repeats an earlier form")
        forms.append(form)
        flips.append(-1 if scale < 0 else 1)
    if not forms:
        raise ProblemFileError(f"[{sec.name}] has no forms")
    table = []
    for spec in sec.repeated.get("branch", []):
        pat_str, sep, expr_str = spec.partition(":")
        if not sep:
            raise ProblemFileError(f"[{sec.name}] branch needs 'pattern : expr'")
        pat_str = pat_str.strip()
        if len(pat_str) != len(forms):
            raise ProblemFileError(
                f"[{sec.name}] pattern {pat_str!r} length != {len(forms)} forms"
            )
        pat = []
        for ch, flip in zip(pat_str, flips):
            if ch not in _PATTERN_CHARS:
                raise ProblemFileError(f"[{sec.name}] bad pattern char {ch!r}")
            s = _PATTERN_CHARS[ch]
            pat.append(s if s in (None, 0) else s * flip)
        table.append((tuple(pat), parse(expr_str.strip(), vars)))
    if not table:
        raise ProblemFileError(f"[{sec.name}] has no branch lines")
    policy = sec.values.get("policy", "specular")
    if policy not in ("specular", "direct", "branch"):
        raise ProblemFileError(f"[{sec.name}] unknown policy {policy!r}")
    return from_branches(forms, table, vars, policy=policy)


def _resolve_data(sections: dict, value: str, default_vars: tuple) -> PiecewiseFn:
    value = value.strip()
    if value.startswith("@"):
        name = value[1:].strip()
        if name not in sections:
            raise ProblemFileError(f"referenced section [{name}] not found")
        return _build_branch_table(sections[name])
    e = parse(value, default_vars)
    return from_expression(e, default_vars)


@dataclass
class Grid:
    x_range: tuple = (-2.0, 2.0)
    t_range: tuple = (0.0, 2.0)
    nx: int = 21
    nt: int = 21
    delta: float = 1e-6


def _parse_grid(sections: dict) -> Grid:
    g = Grid()
    sec = sections.get("grid")
    if sec is None:
        return g
    def number(key, text, kind=float):
        try:
            value = kind(text)
        except ValueError as exc:
            raise ProblemFileError(f"[grid] {key}: {exc}") from None
        if not math.isfinite(value):
            raise ProblemFileError(f"[grid] {key} has a value that is not finite")
        return value
    def pair(key, cur):
        if key not in sec.values:
            return cur
        parts = [p.strip() for p in sec.values[key].split(",")]
        if len(parts) != 2:
            raise ProblemFileError(f"[grid] {key} needs 'a, b'")
        a, b = number(key, parts[0]), number(key, parts[1])
        if not b > a:
            raise ProblemFileError(f"[grid] {key}: need a < b")
        return (a, b)
    g.x_range = pair("x_range", g.x_range)
    g.t_range = pair("t_range", g.t_range)
    if "nx" in sec.values:
        g.nx = number("nx", sec.values["nx"], int)
    if "nt" in sec.values:
        g.nt = number("nt", sec.values["nt"], int)
    if "delta" in sec.values:
        g.delta = number("delta", sec.values["delta"])
    if g.nx < 2 or g.nt < 2:
        raise ProblemFileError("[grid] nx and nt must be >= 2")
    if not g.delta > 0:
        raise ProblemFileError("[grid] delta must be positive")
    return g


def _parse_checks(sections: dict) -> list:
    sec = sections.get("check")
    if sec is None:
        return []
    names = []
    for spec in sec.repeated.get("checks", []) + sec.repeated.get("check", []):
        for item in spec.split(","):
            item = item.strip().replace("_", "-")
            if not item:
                continue
            if item not in CHECKS:
                raise ProblemFileError(f"unknown check {item!r}")
            if item not in names:
                names.append(item)
    return names


@dataclass
class Problem:
    kind: Optional[str]                 # None for a bare function file
    u: Optional[PiecewiseFn]            # bare function, if given
    phi: Optional[PiecewiseFn] = None
    psi: Optional[PiecewiseFn] = None
    h: Optional[PiecewiseFn] = None
    f: Optional[PiecewiseFn] = None
    grid: Grid = field(default_factory=Grid)
    checks: list = field(default_factory=list)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    sections = parse_problem_file(text)
    prob_sec = sections["problem"]
    kind = prob_sec.values.get("kind")
    if kind is not None and kind not in KINDS:
        raise ProblemFileError(f"unknown kind {kind!r}; expected one of {KINDS}")
    prob = Problem(kind, None, grid=_parse_grid(sections), checks=_parse_checks(sections))

    if "u" in prob_sec.values:
        value, uvars = prob_sec.values["u"], ()
        if "vars" in prob_sec.values:
            uvars = _parse_vars(prob_sec.values["vars"])
        elif not value.strip().startswith("@"):
            free = free_vars(parse(value, ("x", "y", "t")))
            uvars = tuple(v for v in ("x", "y", "t") if v in free) or ("x",)
        prob.u = _resolve_data(sections, value, uvars)

    for name in KIND_DATA.get(kind, ()):
        if name not in prob_sec.values:
            raise ProblemFileError(f"{kind} needs {name} = ...")
        force = name == "f"
        fn = _resolve_data(sections, prob_sec.values[name], ("x", "t") if force else ("x",))
        if (fn.vars != ("x", "t")) if force else (fn.d != 1):
            need = "x, t" if force else "one variable"
            raise ProblemFileError(f"{name} must be a function of {need}, not of {', '.join(fn.vars)}")
        # the force lives on t > 0; restrict so classification and
        # properness are judged on the physical domain
        setattr(prob, name, replace(fn, domain=((FORM_T, 1),)) if force else fn)
    if kind is None and prob.u is None:
        raise ProblemFileError("[problem] needs either kind = ... or u = ...")
    return prob


def solve_problem(prob: Problem) -> PiecewiseFn:
    if prob.kind is None:
        raise ProblemFileError("problem file has no solver kind")
    # looked up at each call, so that a rebound module-level solver is used
    solver = {"transport": solve_transport, "wave": solve_wave_homogeneous,
              "wave-halfline": solve_wave_halfline,
              "wave-nonhomogeneous": solve_wave_nonhomogeneous}[prob.kind]
    return solver(*(getattr(prob, name) for name in KIND_DATA[prob.kind]))


# ---------------------------------------------------------------------------
# Shared output helpers

def fmt(v: float) -> str:
    """Shortest round-trip decimal (<= 17 significant digits)."""
    return repr(float(v))


def form_str(form, vars) -> str:
    parts = []
    for c, name in zip(form.coeffs, vars):
        if c == 0.0:
            continue
        if c == 1.0:
            term = name
        elif c == -1.0:
            term = f"-{name}"
        else:
            term = f"{fmt(c)}*{name}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    lhs = " ".join(parts) if parts else "0"
    return f"{lhs} = {fmt(form.offset)}"


# ---------------------------------------------------------------------------
# deriv

def cmd_deriv(path: str, point_str: str, axis: str, out=None) -> int:
    prob = load_problem(path)
    u = prob.u if prob.u is not None else solve_problem(prob)
    try:
        point = tuple(float(p.strip()) for p in point_str.split(","))
    except ValueError as exc:
        raise ProblemFileError(f"point {point_str!r}: {exc}") from None
    if not all(map(math.isfinite, point)):
        raise ProblemFileError(f"point {point_str!r} has a coordinate that is not finite")
    if len(point) != u.d:
        raise ProblemFileError(f"point has {len(point)} coordinates but the function has {u.d}")
    if axis not in u.vars:
        raise ProblemFileError(f"axis {axis!r} not among variables {u.vars}")
    k = u.vars.index(axis)
    q = PointQuery(u, point)  # one pass over the point: each tree evaluated once
    pair = semi_derivatives(u, q, k)
    value = a_combine(pair.right, pair.left)
    print(f"point = {', '.join(fmt(c) for c in point)}", file=out)
    print(f"axis = {axis}", file=out)
    print(f"alpha = {fmt(pair.right)}", file=out)
    print(f"beta = {fmt(pair.left)}", file=out)
    print(f"specular = {fmt(value)}", file=out)
    if u.d == 2:
        pairs = [pair if j == k else semi_derivatives(u, q, j) for j in (0, 1)]
        try:
            data = tangent_data(u, q, pairs)
        except CenterMismatch as exc:
            print(f"tangent = none ({exc})", file=out)
            return EXIT_OK
        print(f"criterion_residual = {fmt(data.criterion_residual)}", file=out)
        if data.normal is not None:
            print(
                "normal = ("
                + ", ".join(fmt(c) for c in data.normal)
                + ")",
                file=out,
            )
        else:
            print(f"weak_planes = {len(data.planes)}", file=out)
            for c1, c2, c0 in data.planes:
                print(
                    f"plane: z = {fmt(c1)}*{u.vars[0]} + {fmt(c2)}*{u.vars[1]} + {fmt(c0)}",
                    file=out,
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve: CSV export

def _linspace(a: float, b: float, n: int):
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _grid_segment(form, g: Grid):
    """(unit normal, point p0 nearest the origin, unit direction d, lo, hi)
    of the zero line of a 2D form, where p0 + s * d for s in [lo, hi] is
    its part inside the grid box, shrunk by a relative 1e-9 at both ends;
    None when the line misses the box."""
    a = np.array(form.coeffs, dtype=float)
    norm = float(np.hypot(a[0], a[1]))
    nhat = a / norm
    p0, d = nhat * (form.offset / norm), np.array([-nhat[1], nhat[0]])
    lo, hi = -math.inf, math.inf
    for k, (c0, c1) in enumerate((g.x_range, g.t_range)):
        if abs(d[k]) < 1e-15:
            if not (c0 - 1e-12 <= p0[k] <= c1 + 1e-12):
                lo, hi = math.inf, -math.inf
            continue
        s0, s1 = (c0 - p0[k]) / d[k], (c1 - p0[k]) / d[k]
        lo, hi = max(lo, min(s0, s1)), min(hi, max(s0, s1))
    if not lo < hi:
        return None
    shrink = 1e-9 * (1.0 + abs(lo) + abs(hi))
    return nhat, p0, d, lo + shrink, hi - shrink


def _online_points(u: PiecewiseFn, g: Grid) -> tuple:
    """The on-line supplements as an x and a t array, form by form: at
    ``max(nx, nt)`` parameters along its line's part inside the grid box,
    the point moved by -delta, 0 and +delta along the unit normal, unless
    l(p) (``line_values``) puts it within 2 delta of the domain's edge or
    of another form's line."""
    ns, margin = max(g.nx, g.nt), 2 * g.delta
    sides = np.array([-1.0, 0.0, 1.0]) * g.delta
    xs, ts = [np.zeros(0)], [np.zeros(0)]
    for form in u.forms:
        if (segment := _grid_segment(form, g)) is None:
            continue
        nhat, p0, d, lo, hi = segment
        s = lo + (hi - lo) * np.arange(ns) / (ns - 1)
        base = [p0[0] + s * d[0], p0[1] + s * d[1]]
        keep = np.ones(ns, dtype=bool)
        for f, sign in u.domain:
            keep &= sign * line_values(f, base)[0] > margin
        for other in u.forms:
            if other is not form:
                keep &= ~(np.abs(line_values(other, base)[0]) <= margin)
        xs.append((base[0][keep, None] + sides * nhat[0]).ravel())
        ts.append((base[1][keep, None] + sides * nhat[1]).ravel())
    return np.concatenate(xs), np.concatenate(ts)


def _solution_rows(u: PiecewiseFn, prob: Problem) -> np.ndarray:
    """The (n, 6) sample table x, t, u, ux, ut, residual: grid rows (t
    outer, x inner) then the ``_online_points`` supplements.  Each column
    is evaluated over all points at once, on one ``Points``, whose groups
    the fields on u's lines share, and copied in whole.  The residual is
    ``residual_column``; for ``transport`` the batches of ux and ut also
    carry their own-axis limits, from which it takes the operator on the
    lines.  The entries the batches do not cover are ``filled``, with
    ``safe_eval`` as the scalar of the fields."""
    ux, ut = partial_field(u, 0), partial_field(u, 1)
    g = prob.grid
    xs = np.array(_linspace(*g.x_range, g.nx))
    ts = np.array(_linspace(*g.t_range, g.nt))
    grid = (np.tile(xs, len(ts)), np.repeat(ts, len(xs)))
    cols = Points(np.concatenate([c, extra]) for c, extra in zip(grid, _online_points(u, g)))
    transport = prob.kind == "transport"
    axes = ((), (0,), (1,)) if transport else ((), (), ())
    batches = [fld.evaluate_batch(cols, a) for fld, a in zip((u, ux, ut), axes)]
    table = [(*batch[None], functools.partial(safe_eval, fld))
             for batch, fld in zip(batches, (u, ux, ut))]
    table.append(residual_column(u, prob.kind, prob.f, cols, batches[1:] if transport else None))
    return np.column_stack([*cols, *filled(cols, table)])


def write_csv(table: np.ndarray, out_path: str) -> None:
    """Write the sample table as CSV: ``repr`` (the text of ``fmt``) runs
    once per distinct bit pattern of a column (-0.0 and 0.0 stay apart), and
    its text is indexed back into every cell that holds it.  A path that
    cannot be opened for writing is a ProblemFileError."""
    if not np.isfinite(table).all():
        raise EvalDomainError("non-finite value in sample table")
    columns = []
    for col in table.T:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        columns.append(texts[inverse].tolist())
    lines = ["x,t,u,ux,ut,residual", *map(",".join, zip(*columns))]
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ProblemFileError(f"cannot write {out_path}: {exc}") from exc


def cmd_solve(path: str, out_csv: str, out=None) -> int:
    prob = load_problem(path)
    if prob.kind is None:
        raise ProblemFileError("solve needs a problem with kind = ...")
    u = solve_problem(prob)
    table = _solution_rows(u, prob)
    write_csv(table, out_csv)
    print(f"wrote {len(table)} rows to {out_csv}", file=out)
    rep = s2_membership(u)
    if rep.verdict != "S2":
        names = ", ".join(form_str(g, u.vars) for g in rep.failure_forms)
        print(
            f"warning: solution is not S2 (verdict {rep.verdict}"
            + (f"; failing on {names}" if names else "")
            + ")",
            file=out,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# check

def _check_points(u: PiecewiseFn, prob: Problem):
    g = prob.grid
    xs = _linspace(*g.x_range, min(g.nx, 9))
    ts = _linspace(*g.t_range, min(g.nt, 9))
    pts = [(x, t) for t in ts for x in xs if u.in_domain((x, t))]
    # on-line points too: a sweep along the in-grid part of each singular line
    for form in u.forms:
        if (segment := _grid_segment(form, g)) is None:
            continue
        _, p0, d, lo, hi = segment
        sweep = [tuple(p0 + s * d) for s in _linspace(lo, hi, 7)]
        pts += [p for p in sweep if u.in_domain(p)]
    return pts


def _residual(u: PiecewiseFn, prob: Problem):
    return [("max", residual_max(u, prob.kind, prob.f, _check_points(u, prob)))], True


def _s2(u: PiecewiseFn, prob: Problem):
    rep = s2_membership(u)
    lines = [("verdict", rep.verdict)]
    if rep.failure_forms:
        lines.append(("failure_forms", "; ".join(form_str(q, u.vars) for q in rep.failure_forms)))
    return lines, rep.verdict == "S2"


def _proper(u: PiecewiseFn, prob: Problem):
    lines = [(label, is_proper(fld)[0])
             for label, fld in (("u", u), ("ux", partial_field(u, 0)), ("ut", partial_field(u, 1)))]
    return lines, all(good for _, good in lines)


def _hypothesis_h(u: PiecewiseFn, prob: Problem):
    rep = hypothesis_h_check(u)
    lines = [("max", max((abs(r[1]) for r in rep.rows if r[1] is not None), default=0.0))]
    if rep.failures:
        lines.append(("failures", len(rep.failures)))
    return lines, not rep.failures


def _boundary(u: PiecewiseFn, prob: Problem):
    if prob.kind != "wave-halfline":
        return None
    g = prob.grid
    return [("max", boundary_residual(u, _linspace(max(g.t_range[0], 1e-6), g.t_range[1], 33)))], True


def _initial(u: PiecewiseFn, prob: Problem):
    g = prob.grid
    phi, psi = (prob.h, None) if prob.kind == "transport" else (prob.phi, prob.psi)
    lo = max(g.x_range[0], 0.0) if prob.kind == "wave-halfline" else g.x_range[0]
    value, velocity = initial_conditions_residual(u, phi, psi, _linspace(lo, g.x_range[1], 33))
    lines = [("value", value)]
    if velocity is not None:
        lines.append(("velocity", velocity))
    return lines, True


# each check of a solver problem: a function of (u, problem) that returns
# its report lines as (key, value) pairs and its own verdict, or None where
# it does not apply
CHECKS = {"residual": _residual, "s2": _s2, "proper": _proper, "hypothesis-h": _hypothesis_h,
          "boundary": _boundary, "initial": _initial}
# a report line with a threshold passes when its value is <= it (NaN fails)
THRESHOLDS = {"residual.max": 1e-8, "boundary.max": 1e-10,
              "initial.value": 1e-10, "initial.velocity": 1e-8}


def _print_line(key: str, value, out) -> None:
    """``key = value``: floats by ``fmt``, bools as true/false."""
    text = fmt(value) if isinstance(value, float) else str(value)
    print(f"{key} = {text.lower() if isinstance(value, bool) else text}", file=out)


def cmd_check(path: str, out=None) -> int:
    prob = load_problem(path)
    if prob.kind is None:
        # bare function file: report continuity / proper status
        if prob.u.d > 2:
            raise ProblemFileError(f"check takes a function of one or two variables, "
                                   f"not of {', '.join(prob.u.vars)}")
        good, rep = is_proper(prob.u)
        _print_line("continuity.verdict", rep.continuity.verdict, out)
        _print_line("proper.u", good, out)
        all_ok = rep.continuity.verdict != "not-piecewise-continuous"
    else:
        u = solve_problem(prob)
        all_ok = True
        for name in prob.checks or ["residual"]:
            record = CHECKS[name](u, prob)
            if record is None:
                print(f"{name}.pass = true  # not applicable", file=out)
                continue
            lines, ok = record
            for key, value in lines:
                line = f"{name}.{key}"
                _print_line(line, value, out)
                if line in THRESHOLDS:
                    ok = ok and bool(value <= THRESHOLDS[line])
            _print_line(f"{name}.pass", ok, out)
            all_ok = all_ok and ok
    _print_line("all.pass", all_ok, out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAIL


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="speculus",
        description="Specular-derivative calculus: derivative reports, "
        "transport/wave solvers, verification checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ap_d = sub.add_parser("deriv", help="semi/specular derivatives at a point")
    ap_d.add_argument("file")
    ap_d.add_argument("--point", required=True, help="x or x,y")
    ap_d.add_argument("--axis", required=True, choices=["x", "y", "t"])

    ap_s = sub.add_parser("solve", help="solve and export a sampled field as CSV")
    ap_s.add_argument("file")
    ap_s.add_argument("--out", required=True, help="output CSV path")

    ap_c = sub.add_parser("check", help="run the checks requested in the file")
    ap_c.add_argument("file")
    return ap


# built once per process: in-process callers run main() many times
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --point -1,0.5 as --point=-1,0.5: argparse takes a value that starts
    # with '-' for an option unless it is one number
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--point" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"--point={argv[i]}"]
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "deriv":
            return cmd_deriv(args.file, args.point, args.axis)
        if args.command == "solve":
            return cmd_solve(args.file, args.out)
        return cmd_check(args.file)
    except (ProblemFileError, ParseError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SolverPrecondition as exc:
        print(f"solver precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ExprError, BranchLookupError, SpecularError, TangentError, QuadratureError) as exc:
        print(f"math-domain error: {exc}", file=sys.stderr)
        return EXIT_MATH_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
