"""Seeded inputs for the four benchmark workloads.

Every input is built from ``random.Random(f"{workload}:{seed}")`` so the
same seed always gives the same problem files and call arguments.  Each
generated problem also carries the benchmark's own model of its exact
solution (``Wave1D``, ``Sum2D``, ``Sum1D``); the oracles in ``oracles.py``
evaluate those models without calling the package under test.

All coefficients are dyadic rationals, so the decimal text written into a
problem file parses to exactly the float the model uses, and points that
are meant to lie on a singular line lie on it exactly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("arrangement", "grid", "pointwise", "quadrature")

# Fixtures shipped in problems/ and their solver kind (None for a bare function).
FIXTURES = {
    "corner2d": None,
    "counterexample": "wave-nonhomogeneous",
    "halfline": "wave-halfline",
    "table2d": None,
    "transport_abs": "transport",
    "wave_fullline": "wave",
    "zero": "wave",
}
SOLVER_FIXTURES = tuple(k for k, v in FIXTURES.items() if v is not None)

GRID_N = 101


def num(v: float) -> str:
    """Decimal text of a dyadic float, readable by the problem-file grammar."""
    v = float(v)
    if v == int(v):
        return str(int(v))
    return repr(v)


def lin(a: float, b: float, c: float, vars=("x", "y")) -> str:
    """Text of a*v0 + b*v1 + c with explicit signs."""
    parts = []
    for coef, name in ((a, vars[0]), (b, vars[1]), (c, None)):
        if coef == 0:
            continue
        mag = abs(coef)
        body = num(mag) if name is None else (name if mag == 1 else f"{num(mag)}*{name}")
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# 1D wave data: kinked piecewise polynomials with closed-form antiderivatives


@dataclass(frozen=True)
class Data1D:
    """sum_i a_i/2 (x-c_i)|x-c_i| + sum_j b_j |x-d_j| + p0 + p1 x + p2 x^2."""

    quad_kinks: tuple = ()   # (a, c): a/2 (x-c)|x-c|, C^1 with a second-derivative jump
    abs_kinks: tuple = ()    # (b, d): b |x-d|
    poly: tuple = (0.0, 0.0, 0.0)

    def text(self) -> str:
        parts = []
        for a, c in self.quad_kinks:
            parts.append(f"{num(a / 2)}*({lin(1, 0, -c)})*abs({lin(1, 0, -c)})")
        for b, d in self.abs_kinks:
            parts.append(f"{num(b)}*abs({lin(1, 0, -d)})")
        p0, p1, p2 = self.poly
        for coef, mono in ((p0, ""), (p1, "x"), (p2, "x^2")):
            if coef:
                parts.append(num(coef) if not mono else f"{num(coef)}*{mono}")
        if not parts:
            return "0"
        return " + ".join(f"({p})" for p in parts)

    def kinks(self) -> set:
        return {c for _, c in self.quad_kinks} | {d for _, d in self.abs_kinks}

    def __call__(self, x):
        import numpy as np

        out = self.poly[0] + self.poly[1] * x + self.poly[2] * x * x
        for a, c in self.quad_kinks:
            out = out + 0.5 * a * (x - c) * np.abs(x - c)
        for b, d in self.abs_kinks:
            out = out + b * np.abs(x - d)
        return out

    def antiderivative(self, x):
        """An antiderivative; only quad_kinks-free data is integrated."""
        import numpy as np

        if self.quad_kinks:
            raise ValueError("antiderivative of quadratic kinks is not needed")
        p0, p1, p2 = self.poly
        out = p0 * x + p1 * x * x / 2 + p2 * x ** 3 / 3
        for b, d in self.abs_kinks:
            out = out + 0.5 * b * (x - d) * np.abs(x - d)
        return out


@dataclass(frozen=True)
class Wave1D:
    """A solver problem and the benchmark's model of its exact solution."""

    kind: str                # transport | wave | wave-halfline | wave-nonhomogeneous
    phi: Data1D              # h for transport
    psi: Data1D = Data1D()
    # wave-nonhomogeneous: force constant between the lines x - t = a and
    # x + t = b; values[(s1, s2)] with s1 = sign(x - t - a), s2 = sign(x + t - b)
    force: tuple = ()        # (a, b, ((s1, s2, value), ...))
    grid: tuple = (-3.0, 3.0, 0.0, 2.0, 13, 9)
    checks: tuple = ()

    def lines(self) -> list:
        """Singular lines (cx, ct, offset) of the solution: cx*x + ct*t = offset."""
        out = set()
        if self.kind == "transport":
            out |= {(1.0, -1.0, c) for c in self.phi.kinks()}
        else:
            for c in self.phi.kinks() | self.psi.kinks():
                out |= {(1.0, 1.0, c), (1.0, -1.0, c)}
                if self.kind == "wave-halfline":
                    out.add((1.0, -1.0, -c))
        if self.kind == "wave-halfline":
            out.add((1.0, -1.0, 0.0))
        if self.force:
            a, b, _ = self.force
            for c in (a, b):
                out |= {(1.0, 1.0, c), (1.0, -1.0, c)}
        return sorted(out)

    def text(self) -> str:
        x0, x1, t0, t1, nx, nt = self.grid
        lines = ["[problem]", f"kind = {self.kind}"]
        if self.kind == "transport":
            lines.append(f"h = {self.phi.text()}")
        else:
            lines += [f"phi = {self.phi.text()}", f"psi = {self.psi.text()}"]
        if self.force:
            a, b, values = self.force
            lines += ["f = @f", "", "[f]", "vars = x, t",
                      f"forms = {lin(1, -1, -a, ('x', 't'))}; {lin(1, 1, -b, ('x', 't'))}"]
            for s1, s2, v in values:
                pat = ("+" if s1 > 0 else "-") + ("+" if s2 > 0 else "-")
                lines.append(f"branch = {pat} : {num(v)}")
        lines += ["", "[grid]", f"x_range = {num(x0)}, {num(x1)}",
                  f"t_range = {num(t0)}, {num(t1)}", f"nx = {nx}", f"nt = {nt}"]
        if self.checks:
            lines += ["", "[check]", f"checks = {', '.join(self.checks)}"]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bare functions: sums of kinked terms times smooth factors


@dataclass(frozen=True)
class Term:
    coef: float
    line: int        # index into the model's lines; -1 for a smooth term
    kink: str        # abs | sgn | none
    factor: tuple    # ("one",) or (func, p, q, r) with func in exp, sin, cos, sqrt, lin


@dataclass(frozen=True)
class Sum2D:
    """sum_k coef_k * kink_k(line_k) * factor_k over two variables.

    A ``sqrt`` factor means sqrt(1 + (p*v0 + q*v1 + r)^2), a ``lin`` factor
    is p*v0 + q*v1 + r itself (used only by the fixture models), and the
    other factors apply their function to p*v0 + q*v1 + r."""

    vars: tuple
    lines: tuple     # (a, b, c): a*v0 + b*v1 + c
    terms: tuple

    def text(self) -> str:
        out = []
        for t in self.terms:
            fac = []
            if t.kink != "none":
                a, b, c = self.lines[t.line]
                fac.append(f"{t.kink}({lin(a, b, c, self.vars)})")
            if t.factor[0] == "sqrt":
                _, p, q, r = t.factor
                fac.append(f"sqrt(1 + ({lin(p, q, r, self.vars)})^2)")
            elif t.factor[0] != "one":
                f, p, q, r = t.factor
                fac.append(f"{f}({lin(p, q, r, self.vars)})")
            body = "*".join([num(abs(t.coef))] + fac)
            out.append(("- " if t.coef < 0 else "+ ") + body)
        s = " ".join(out)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def line_value(self, k: int, p) -> Fraction:
        a, b, c = self.lines[k]
        return Fraction(a) * Fraction(p[0]) + Fraction(b) * Fraction(p[1]) + Fraction(c)


@dataclass(frozen=True)
class Sum1D:
    """sum_k coef_k * |x - d_k| * factor_k(x) + smooth, for integrate_1d."""

    terms: tuple     # (coef, d, func, p, r): coef*|x-d|*func(p*x + r); func in one, exp, cos

    def text(self) -> str:
        parts = []
        for coef, d, func, p, r in self.terms:
            body = f"{num(coef)}*abs({lin(1, 0, -d)})"
            if func != "one":
                body += f"*{func}({lin(p, 0, r)})"
            parts.append(f"({body})")
        return " + ".join(parts)

    def kinks(self) -> list:
        return sorted({d for _, d, *_ in self.terms})


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One benchmark operation and what its result must satisfy.

    kind is check | solve | deriv (CLI calls on ``path``) or triangle | line
    (calls into ``speculus.quad``).  ``ref`` names a recorded fixture output;
    ``model`` is the benchmark's model of the exact answer."""

    kind: str
    label: str
    m: int = 0                        # singular lines of the problem's field
    path: str = ""
    ref: str = ""
    model: object = None
    args: tuple = ()                  # deriv: (point, axis); triangle/line: numbers
    fn: object = None                 # triangle/line: the PiecewiseFn integrand
    extra: dict = field(default_factory=dict)


def _pick(rng: random.Random, values, k: int) -> list:
    return rng.sample(list(values), k)


def _coef(rng: random.Random) -> float:
    return rng.choice((-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0))


def _small(rng: random.Random) -> float:
    # never 0, so that every term is present and expression sizes do not
    # depend on the seed
    return rng.choice((-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0))


def wave_problem(rng: random.Random, kind: str, n_kinks: int, grid, checks=()) -> Wave1D:
    """A solver problem whose solution has singular lines at n_kinks data
    kink locations (two lines each, three for the half-line reflection)."""
    if kind == "wave-halfline":
        locs = _pick(rng, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), n_kinks)
    else:
        locs = _pick(rng, (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0), n_kinks)
    if kind == "transport":
        h = Data1D(abs_kinks=tuple((_coef(rng), c) for c in locs),
                   poly=(_small(rng), _small(rng), _small(rng)))
        return Wave1D(kind, h, grid=grid, checks=checks)
    quad, kinked = [], []
    for i, c in enumerate(locs):
        # each location kinks phi (C^1 quadratic kink), psi, or both
        where = ("both", "phi", "psi")[i % 3]
        if where in ("phi", "both"):
            quad.append((_coef(rng), c))
        if where in ("psi", "both"):
            kinked.append((_coef(rng), c))
    phi = Data1D(tuple(quad), (), (_small(rng), _small(rng), _small(rng)))
    psi = Data1D((), tuple(kinked), (_small(rng), _small(rng), 0.0))
    if kind == "wave-halfline":
        # compatibility phi(0) = psi(0) = 0
        p0 = -float(phi(0.0) - phi.poly[0])
        phi = Data1D(phi.quad_kinks, (), (p0, phi.poly[1], phi.poly[2]))
        q0 = -float(psi(0.0) - psi.poly[0])
        psi = Data1D((), psi.abs_kinks, (q0, psi.poly[1], 0.0))
    return Wave1D(kind, phi, psi, grid=grid, checks=checks)


def nonhomogeneous_problem(rng: random.Random, n_data_kinks: int, grid, checks=()) -> Wave1D:
    """Force constant between x - t = a and x + t = a (two solution lines),
    plus data kinks elsewhere."""
    a = rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0))
    values = tuple((s1, s2, rng.choice((-2.0, -1.0, 0.0, 1.0, 2.0)))
                   for s1, s2 in ((1, 1), (-1, 1), (-1, -1), (1, -1)))
    base = wave_problem(rng, "wave", n_data_kinks, grid) if n_data_kinks else None
    if base is not None and a in base.phi.kinks() | base.psi.kinks():
        a = next(v for v in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
                 if v not in base.phi.kinks() | base.psi.kinks())
    if base is None:
        phi = Data1D(poly=(_small(rng), _small(rng), _small(rng)))
        psi = Data1D(poly=(_small(rng), _small(rng), 0.0))
    else:
        phi, psi = base.phi, base.psi
    return Wave1D("wave-nonhomogeneous", phi, psi, force=(a, a, values), grid=grid, checks=checks)


def rescale_grid(text: str, n: int) -> str:
    text = re.sub(r"(?m)^nx = \d+$", f"nx = {n}", text)
    return re.sub(r"(?m)^nt = \d+$", f"nt = {n}", text)


_LINE_DIRS_2D = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2))
_TRIANGLE_DIRS = ((1, 0), (0, 1), (2, 1), (1, 2), (2, -1), (1, -2), (1, 3), (3, -1))


def _rotated(dirs: tuple, i: int) -> tuple:
    """The line directions of slot i: fixed per slot, distinct within it."""
    k = (3 * i) % len(dirs)
    return dirs[k:] + dirs[:k]


def sum2d(rng: random.Random, vars, n_lines: int, dirs, factors, kinks, through=None) -> Sum2D:
    """A Sum2D with one kinked term per line plus a smooth term.

    The structure is fixed by the arguments: line k has direction dirs[k],
    term k has kink kinks[k] and factor factors[k] (cycled), so seeds change
    only the numbers.  With ``through``, line k passes through the point
    through[k]."""
    lines = []
    for k, (a, b) in enumerate(dirs[:n_lines]):
        if through is None:
            c = rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
        else:
            c = -(a * through[k][0] + b * through[k][1])
        lines.append((float(a), float(b), float(c)))
    terms = []
    for k in range(n_lines):
        func = factors[k % len(factors)]
        factor = ("one",) if func == "one" else (
            func, rng.choice((-0.5, 0.5, 0.75)), rng.choice((-0.5, -0.25, 0.25, 0.5)),
            rng.choice((-0.5, 0.25, 0.5)))
        terms.append(Term(_coef(rng), k, kinks[k % len(kinks)], factor))
    terms.append(Term(_coef(rng), -1, "none", (factors[-1] if factors[-1] != "one" else "cos",
                                                 0.5, -0.25, 0.25)))
    return Sum2D(tuple(vars), tuple(lines), tuple(terms))


def _fixture_models() -> dict:
    """Models of the two bare-function fixtures, for the derivative oracle.

    corner2d: (1/2)*(x + abs(x)) + (1/2)*y + (3/2)*abs(y)
    table2d:  abs(2*x - y) + abs(x - 3)"""
    one = ("one",)
    corner = Sum2D(("x", "y"), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (
        Term(0.5, 0, "abs", one),
        Term(1.5, 1, "abs", one),
        Term(0.5, -1, "none", ("lin", 1.0, 1.0, 0.0)),
    ))
    table = Sum2D(("x", "y"), ((2.0, -1.0, 0.0), (1.0, 0.0, -3.0)), (
        Term(1.0, 0, "abs", one),
        Term(1.0, 1, "abs", one),
    ))
    return {"corner2d": corner, "table2d": table}


def _exact_point_on(model: Sum2D, k: int, rng: random.Random):
    """A dyadic point lying exactly on line k."""
    a, b, c = model.lines[k]
    s = rng.choice((-1.5, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 1.5, 2.0))
    # "+ 0.0" turns a computed -0.0 into 0.0
    if b != 0:
        p = (s, -(a * s + c) / b + 0.0)
    else:
        p = (-(b * s + c) / a + 0.0, s)
    if model.line_value(k, p) != 0:
        raise ValueError(f"{p} is not on line {model.lines[k]}")
    return p


def _intersection(model: Sum2D, i: int, j: int):
    a1, b1, c1 = (Fraction(v) for v in model.lines[i])
    a2, b2, c2 = (Fraction(v) for v in model.lines[j])
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    p = ((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)
    fp = (float(p[0]), float(p[1]))
    if Fraction(fp[0]) != p[0] or Fraction(fp[1]) != p[1]:
        return None
    return fp


def deriv_points(model: Sum2D, rng: random.Random, n: int) -> list:
    """n (point, axis) pairs: about a third exactly on a line, a few at line
    intersections, the rest at least 0.05 away from every line."""
    m = len(model.lines)
    pts = []
    crossings = [q for i in range(m) for j in range(i + 1, m)
                 if (q := _intersection(model, i, j)) is not None]
    for k in range(n):
        if k % 6 == 5 and crossings:
            p = crossings[k // 6 % len(crossings)]
        elif k % 3 == 0:
            p = _exact_point_on(model, rng.randrange(m), rng)
        else:
            while True:
                p = (rng.randint(-24, 24) / 8, rng.randint(-24, 24) / 8)
                if all(abs(model.line_value(i, p)) >= 0.05 for i in range(m)):
                    break
        pts.append((p, model.vars[k % 2]))
    return pts


# ---------------------------------------------------------------------------
# Workload composition


def problem_dir(root: Path, workload: str, seed: int) -> Path:
    return root / ".perfbench" / f"{workload}-{seed}"


def build(workload: str, seed: int, root: Path) -> list:
    """Write the workload's problem files under ``.perfbench/`` and return
    one cycle of operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = problem_dir(root, workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    fixtures = root / "problems"
    ops = []

    def write(name: str, text: str) -> str:
        path = out / f"{name}.prob"
        path.write_text(text, encoding="utf-8")
        return str(path)

    if workload == "arrangement":
        for name in FIXTURES:
            ops.append(Op("check", f"fixture:{name}", path=str(fixtures / f"{name}.prob"),
                          ref=f"check:{name}"))
        for name in SOLVER_FIXTURES:
            ops.append(Op("solve", f"fixture:{name}", path=str(fixtures / f"{name}.prob"),
                          ref=f"solve:{name}"))
        small = (-3.0, 3.0, 0.0, 2.0, 13, 9)
        full = ("residual", "s2", "proper", "initial")
        forced = ("residual", "s2", "initial")
        gen = [  # (problem, operations); m = 6 runs only the residual check
            (wave_problem(rng, "wave", 1, small, full), ("check", "solve")),
            (wave_problem(rng, "wave", 2, small, full), ("check",)),
            (wave_problem(rng, "wave", 3, small, ("residual", "initial")), ("check",)),
            (wave_problem(rng, "wave-halfline", 1, (0.0, 4.0, 0.0, 2.0, 9, 5),
                          ("residual", "boundary", "initial")), ("check", "solve")),
            (nonhomogeneous_problem(rng, 0, small, forced), ("check", "solve")),
            (nonhomogeneous_problem(rng, 1, small, forced), ("check", "solve")),
        ]
        for i, (prob, kinds) in enumerate(gen):
            path = write(f"gen{i}-{prob.kind}", prob.text())
            m = len(prob.lines())
            for kind in kinds:
                ops.append(Op(kind, f"gen:{prob.kind}:m{m}", m=m, path=path, model=prob))
    elif workload == "grid":
        for name in SOLVER_FIXTURES:
            text = (fixtures / f"{name}.prob").read_text(encoding="utf-8")
            path = write(f"{name}-{GRID_N}", rescale_grid(text, GRID_N))
            ops.append(Op("solve", f"fixture:{name}", path=path, ref=f"solve{GRID_N}:{name}"))
        big = (-3.0, 3.0, 0.0, 2.0, GRID_N, GRID_N)
        gen = [wave_problem(rng, "wave", 1, big), wave_problem(rng, "transport", 1, big)]
        for i, prob in enumerate(gen):
            path = write(f"gen{i}-{prob.kind}", prob.text())
            m = len(prob.lines())
            ops.append(Op("solve", f"gen:{prob.kind}:m{m}", m=m, path=path, model=prob))
    elif workload == "pointwise":
        models = _fixture_models()
        for name in ("corner2d", "table2d"):
            for p, axis in deriv_points(models[name], rng, 6):
                ops.append(Op("deriv", f"fixture:{name}", m=2, path=str(fixtures / f"{name}.prob"),
                              model=models[name], args=(p, axis)))
        factor_sets = (("exp", "one", "sin"), ("sqrt", "one", "exp"),
                       ("sin", "sqrt", "one"), ("one", "exp", "sqrt"))
        for i, n_lines in enumerate((2, 3, 4) * 8):
            model = sum2d(rng, ("x", "y"), n_lines, _rotated(_LINE_DIRS_2D, i),
                          factor_sets[i % 4], ("abs", "sgn", "abs", "abs"))
            path = write(f"fn{i}", f"[problem]\nu = {model.text()}\nvars = x, y\n")
            for p, axis in deriv_points(model, rng, 6):
                ops.append(Op("deriv", f"gen:fn:m{n_lines}", m=n_lines, path=path,
                              model=model, args=(p, axis)))
    else:
        factor_sets = (("exp", "one", "cos"), ("one", "cos", "exp"))
        # cost grows with the line count; the mix puts the median among the
        # ten m = 2 triangles and the tail among the four m = 3 ones, away
        # from the jumps between groups
        for i, n_lines in enumerate((1, 2, 2, 3, 2, 2, 3, 2) * 2):
            x0, t0 = rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)), 1.0
            # every line crosses the triangle, through a dyadic interior point
            through = [(x0 + rng.choice((-0.5, -0.25, 0.0, 0.25, 0.5)) * t0,
                        t0 * rng.choice((0.25, 0.375))) for _ in range(n_lines)]
            model = sum2d(rng, ("x", "t"), n_lines, _rotated(_TRIANGLE_DIRS, i),
                          factor_sets[i % 2], ("abs", "sgn", "abs"), through)
            ops.append(Op("triangle", f"gen:triangle:m{n_lines}", m=n_lines, model=model,
                          args=(x0, t0), extra={"text": model.text()}))
        for n_kinks in (1, 2, 3, 2):
            ds = _pick(rng, (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5), n_kinks)
            model = Sum1D(tuple((_coef(rng), d, ("one", "exp", "cos")[k % 3],
                                 rng.choice((0.5, 1.0, -0.5)), _small(rng))
                                for k, d in enumerate(ds)))
            ops.append(Op("line", f"gen:line:m{n_kinks}", m=n_kinks, model=model,
                          args=(-2.0, 2.0), extra={"text": model.text()}))
    return ops


def build_integrands(ops: list) -> None:
    """Parse the quadrature integrands into PiecewiseFn objects (set-up work
    done through the package's public API)."""
    from speculus import from_expression, parse

    for op in ops:
        if op.kind == "triangle":
            op.fn = from_expression(parse(op.extra["text"], ("x", "t")), ("x", "t"))
        elif op.kind == "line":
            op.fn = from_expression(parse(op.extra["text"], ("x",)), ("x",))
