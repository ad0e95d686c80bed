"""speculus benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload arrangement --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` in
this process; every operation is an in-process ``speculus.cli.main([...])``
call with stdout captured, except on ``quadrature``, which calls
``speculus.quad`` directly.  Operations run one after another in a fixed
cycle that repeats until ``--seconds`` of wall time have passed.  Every
output is checked (see ``oracles.py``); an operation that raises or differs
from its expected output counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one cycle
untraced and one cycle with spans around each layer (``spans.py``),
whatever ``--seconds`` says, so that counts repeat exactly for a seed, and
prints the per-layer metrics.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5      # fresh interpreters timed for setup_s; the median is reported
SETUP_BURSTS = 5      # reference bursts before each of them and after the last
TAIL_P = 90           # op_tail_s: percentile of the per-operation medians


class StdoutSwitch:
    """sys.stdout stand-in whose target can be swapped.  It is installed
    before ``speculus.cli`` is imported, because the CLI binds
    ``out=sys.stdout`` as a default argument at import time."""

    def __init__(self, target):
        self.target = target

    def write(self, text):
        return self.target.write(text)

    def flush(self):
        self.target.flush()


def checkout_problem(root: Path):
    """Why this directory cannot be benchmarked, or None."""
    for need in ("src/speculus/cli.py", "problems/zero.prob"):
        if not (root / need).is_file():
            return f"{need} not found under {root}; run from a speculus checkout"
    return None


class Session:
    """The package loaded in this process plus one workload's operations."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.real_stdout = sys.stdout
        self.switch = StdoutSwitch(self.real_stdout)
        sys.stdout = self.switch
        sys.path[:0] = [str(root / "src"), str(HERE)]
        import speculus.cli
        import speculus.quad
        import workloads

        if not Path(speculus.__file__).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"imported speculus from {speculus.__file__}, not {root / 'src'}")
        self.cli, self.quad = speculus.cli, speculus.quad
        self.ops = workloads.build(workload, seed, root)
        if workload == "quadrature":
            workloads.build_integrands(self.ops)
        self.out_csv = workloads.problem_dir(root, workload, seed) / "out.csv"
        # warm-up: loads what the first call imports lazily (scipy.optimize)
        self.execute_cli(["check", str(root / "problems" / "zero.prob")])

    def execute_cli(self, argv: list) -> tuple:
        """Run the CLI; stderr is captured and dropped (the exit code tells
        a failure), stdout is returned with the CSV path replaced."""
        buf, err = io.StringIO(), io.StringIO()
        self.switch.target = buf
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
        finally:
            self.switch.target = self.real_stdout
        return code, buf.getvalue().replace(str(self.out_csv), "<out>"), None

    def execute(self, op) -> tuple:
        """(exit code, captured output, returned value) of one operation."""
        if op.kind == "triangle":
            return 0, "", self.quad.integrate_triangle(op.fn, *op.args)
        if op.kind == "line":
            return 0, "", self.quad.integrate_1d(op.fn, *op.args)
        argv = [op.kind, op.path]
        if op.kind == "solve":
            argv += ["--out", str(self.out_csv)]
        elif op.kind == "deriv":
            (x, y), axis = op.args
            argv += [f"--point={x!r},{y!r}", "--axis", axis]
        return self.execute_cli(argv)


# ---------------------------------------------------------------------------
# Verification


class Verifier:
    """Checks each result; derivative reports are checked after the timed
    phase, so that sympy is not loaded into the measured process before
    its peak memory is read."""

    def __init__(self, session: Session):
        import oracles

        self.oracles = oracles
        self.session = session
        self.reference = oracles.load_reference()
        for op in session.ops:
            if op.ref.startswith("solve"):
                op.model = oracles.FIXTURE_MODELS[op.ref.split(":")[1]]
            elif op.kind == "triangle":
                op.extra["expect"] = oracles.triangle_integral(op.model, *op.args)
            elif op.kind == "line":
                op.extra["expect"] = oracles.line_integral(op.model, *op.args)
        self.deferred: list = []
        self.failures: list = []

    def rows(self, op, code, text) -> int:
        """Rows an operation produced: CSV rows for solve, else 1."""
        if op.kind != "solve" or code != 0 or not text.startswith("wrote "):
            return 1
        return int(text.split()[1])

    def check(self, k: int, op, result) -> bool:
        """True when the result is correct (or deferred)."""
        o = self.oracles
        code, text, value = result
        try:
            if op.kind == "deriv":
                self.deferred.append((k, op, code, text))
                return True
            if op.kind in ("triangle", "line"):
                o.check_value(value, op.extra["expect"])
            elif op.ref:
                want = self.reference[op.ref]
                if code != want["exit"] or text != want["stdout"]:
                    raise o.Mismatch(f"exit {code} / report differs from the recorded reference")
                if op.kind == "solve":
                    _, digest = o.check_csv(self.session.out_csv, op.model, want["rows"])
                    if digest != want["csv_sha256"]:
                        raise o.Mismatch("CSV bytes differ from the recorded reference")
            elif op.kind == "check":
                o.check_report(text, code, op.model)
            else:
                o.check_csv(self.session.out_csv, op.model, o.solve_report(text, code, op.model))
        except (o.Mismatch, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"{op.label} ({op.kind}): {exc}")
            return False
        return True

    def finish(self) -> int:
        """Check the deferred derivative reports; returns how many failed."""
        o = self.oracles
        expected = {}
        failed = 0
        for k, op, code, text in self.deferred:
            p, axis = op.args
            if k not in expected:
                i = op.model.vars.index(axis)
                expected[k] = (o.semi_derivative(op.model, p, i, +1),
                               o.semi_derivative(op.model, p, i, -1))
            try:
                o.deriv_report(text, code, p, axis, *expected[k])
            except (o.Mismatch, ValueError, KeyError) as exc:
                self.failures.append(f"{op.label} at {p} along {axis}: {exc}")
                failed += 1
        return failed


# ---------------------------------------------------------------------------
# The timed loop


def run_cycles(session: Session, verifier: Verifier, seconds: float, wrap=None) -> list:
    """Run the operation cycle once in full, then on until ``seconds`` of
    wall time (checks included) have passed since the start, stopping
    after the operation that crosses that mark, with reference bursts
    running throughout (``speed.py``).  An operation is timed by the CPU
    time of this thread, which leaves out the periods in which the host ran
    other guests on this CPU (the operations never block).  Returns (op,
    scaled seconds, rows, raw CPU seconds, ok) samples; raw seconds leave
    out the bursts."""
    raw = []
    clock, cpu = time.perf_counter, time.thread_time
    with speed.Sampler() as sampler:
        start = clock()
        cycles = 0
        while not (cycles and clock() - start >= seconds):
            for k, op in enumerate(session.ops):
                if cycles and clock() - start >= seconds:
                    break
                t0, c0 = clock(), cpu()
                try:
                    result = wrap(session.execute, op) if wrap else session.execute(op)
                except Exception as exc:  # the failure is counted, the loop goes on
                    raw.append((op, t0, clock(), cpu() - c0, 1, False))
                    verifier.failures.append(f"{op.label} ({op.kind}) raised {exc!r}")
                    continue
                c1, t1 = cpu(), clock()
                raw.append((op, t0, t1, c1 - c0, verifier.rows(op, result[0], result[1]),
                            verifier.check(k, op, result)))
            cycles += 1
    samples = []
    for op, t0, t1, dc, rows, ok in raw:
        dt = dc - sampler.stolen(t0, t1)
        samples.append((op, dt * sampler.factor(t0, t1), rows, dt, ok))
    return samples


def per_op_medians(samples: list) -> list:
    """(op, median scaled seconds, rows, sample count) for each operation of
    the cycle, in cycle order."""
    by_op = {}
    for op, dt, rows, *_ in samples:
        by_op.setdefault(id(op), (op, [], rows))[1].append(dt)
    return [(op, statistics.median(ts), rows, len(ts)) for op, ts, rows in by_op.values()]


def nearest_rank(values: list, p: int) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s) / 100) - 1)]


def measure_setup(workload: str, seed: int) -> list:
    """(scaled, raw) wall time of fresh interpreters from launch until the
    first operation could start (``--probe`` mode prints 'ready' at that
    point).  All probes are scaled by the median of the SETUP_BURSTS
    reference bursts run before each of them and after the last."""
    raw, bursts = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        bursts += [speed.burst() for _ in range(SETUP_BURSTS)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    bursts += [speed.burst() for _ in range(SETUP_BURSTS)]
    factor = speed.NOMINAL_BURST_S / statistics.median(bursts)
    return [(dt * factor, dt) for dt in raw]


def end_to_end(session, verifier, workload, seed, seconds, out) -> tuple:
    setups = measure_setup(workload, seed)
    samples = run_cycles(session, verifier, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not ok for *_, ok in samples) + verifier.finish()
    per_op = per_op_medians(samples)
    medians = [t for _, t, _, _ in per_op]
    cycle_s = sum(medians)
    n = len(samples)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "op_p50_s": (statistics.median(medians), "s"),
        "op_tail_s": (nearest_rank(medians, TAIL_P), "s"),
        "ops_per_s": (len(per_op) / cycle_s, "1/s"),
        "rows_per_s": (sum(r for _, _, r, _ in per_op) / cycle_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"setup: {SETUP_PROBES} fresh interpreters, scaled (raw) "
          f"{', '.join(f'{t:.3f} ({r:.3f})' for t, r in setups)} s", file=out)
    print(f"ops: {n} samples of {len(per_op)} operations per cycle, "
          f"{sum(raw for *_, raw, _ in samples):.3f} CPU s raw; op_p50_s and op_tail_s "
          f"(p{TAIL_P}, nearest rank) are taken over the per-operation medians, "
          f"whose sum ({cycle_s:.3f} s) is the cycle time behind ops_per_s and rows_per_s",
          file=out)
    print(f"speed factor (scaled / raw time, speed.py): median "
          f"{statistics.median(dt / raw for _, dt, _, raw, _ in samples if raw > 0):.4f}", file=out)
    print(f"failed_frac = {failed}/{n} = {failed / n:.4g}", file=out)
    by_label = {}
    for op, t, _, k in per_op:
        by_label.setdefault(f"{op.kind} {op.label}", []).append((t, k))
    for key, group in by_label.items():
        print(f"  {key}: {len(group)} ops, {sum(k for _, k in group)} samples, "
              f"median {statistics.median(t for t, _ in group):.4f} s", file=out)
    return metrics, n, failed


def per_layer(session, verifier, workload, seed, out) -> tuple:
    import spans

    untraced = run_cycles(session, verifier, 0.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_cycles(session, verifier, 0.0, wrap=tracer.root("op"))
    finally:
        tracer.uninstall()
    layer = tracer.per_layer()
    samples = untraced + traced
    failed = sum(not ok for *_, ok in samples) + verifier.finish()
    p50 = statistics.median(dt for _, dt, *_ in untraced)
    layer["trace.overhead"] = statistics.median(dt for _, dt, *_ in traced) / p50
    for m in spans.M_BUCKETS:
        ts = [dt for op, dt, *_ in untraced if op.m == m] if workload == "arrangement" else []
        layer[f"arrangement.m{m}.op_p50_s"] = statistics.median(ts) if ts else 0.0
    metrics = {name: (layer.get(name, 0), unit) for name, unit, _ in spans.metric_specs()}
    path = ROOT / ".perfbench" / f"spans-{workload}-{seed}.npz"
    tracer.save(path)
    print(f"traced 1 cycle of {len(session.ops)} ops ({len(tracer.span_name)} spans, "
          f"written to {path.relative_to(ROOT)}); untraced op_p50_s {p50:.6f} s", file=out)
    if workload == "arrangement":
        by_m = {m: len([op for op in session.ops if op.m == m]) for m in spans.M_BUCKETS}
        print("arrangement latency by singular-line count (ops per cycle): "
              + ", ".join(f"m={m}: {layer[f'arrangement.m{m}.op_p50_s']:.4f} s ({c})"
                          for m, c in by_m.items()), file=out)
    return metrics, len(samples), failed


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on one CPU, so
    that the reference bursts run on the core the timed work runs on."""
    try:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    problem = checkout_problem(ROOT)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    session = Session(ROOT, args.workload, args.seed)
    out = session.real_stdout
    if args.probe:
        print("ready", file=out, flush=True)
        return 0
    verifier = Verifier(session)
    if args.trace:
        metrics, attempted, failed = per_layer(session, verifier, args.workload, args.seed, out)
    else:
        metrics, attempted, failed = end_to_end(
            session, verifier, args.workload, args.seed, args.seconds, out)
    for line in verifier.failures[:20]:
        print(f"FAILED {line}", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}", file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
