"""Record alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent d530cf6 --pr 26 grid:11:3 arrangement:11:2

Each WORKLOAD:SEED:PAIRS argument runs PAIRS pairs of

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once in the parent's committed files and once in the working tree.  Pair 0
runs the parent first, pair 1 the working tree first, and so on.  The
parent's files are unpacked with ``git archive`` into a temporary directory,
which leaves nothing behind in the repository.  The results go to
``BENCH_<pr>.json`` at the root of the repository, with the keys
``command``, ``parent``, ``change``, ``order``, ``seeds``, ``machine`` and
``runs``; each run holds ``workload``, ``seed``, ``pair``, ``side`` and the
``result`` object that ``run.py`` prints last.  When all runs are done, a
summary goes to stderr: for each workload and seed, the median of each
end-to-end metric on each side, their change/parent ratio, and the median
number of operations attempted, next to which a peak RSS reads (memory
that grows with the operations a run completes moves with it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0"
ORDER = "alternating pairs: pair 0 runs the parent first, pair 1 the change first, and so on"


def spec(text: str) -> tuple:
    """WORKLOAD:SEED:PAIRS as (workload, seed, pairs)."""
    try:
        workload, seed, pairs = text.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not WORKLOAD:SEED:PAIRS") from None


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One ``run.py`` run in the checkout at root: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list) -> str:
    """For each workload and seed: each end-to-end metric's median per side
    and the change/parent ratio, then the median ``attempted`` per side."""
    lines, groups = [], {}
    for run in runs:
        groups.setdefault((run["workload"], run["seed"]), {}).setdefault(run["side"], []).append(
            run["result"])
    for (workload, seed), sides in groups.items():
        lines.append(f"{workload} seed {seed}: median of {len(sides.get('change', []))} runs a side")
        lines.append(f"  {'metric':<12} {'parent':>12} {'change':>12} {'ratio':>7}")
        names = list(next(iter(sides.values()))[0]["metrics"])
        rows = [(name, [[r["metrics"][name]["value"] for r in sides.get(side, [])]
                        for side in ("parent", "change")]) for name in names]
        rows.append(("attempted", [[r["attempted"] for r in sides.get(side, [])]
                                   for side in ("parent", "change")]))
        for name, (parent, change) in rows:
            p, c = (float(np.median(v)) if v else float("nan") for v in (parent, change))
            lines.append(f"  {name:<12} {p:>12.5g} {c:>12.5g} {c / p if p else float('nan'):>7.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--pr", required=True, help="the number in the file name BENCH_<pr>.json")
    ap.add_argument("specs", nargs="+", type=spec, metavar="WORKLOAD:SEED:PAIRS")
    args = ap.parse_args(argv)

    git = ["git", "-C", str(ROOT)]
    parent = subprocess.run(git + ["rev-parse", "--short", args.parent], check=True,
                            capture_output=True, text=True).stdout.strip()
    seeds: dict = {}
    for workload, seed, _ in args.specs:
        seeds.setdefault(workload, []).append(seed)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(git + ["archive", parent], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}
        for workload, seed, n_pairs in args.specs:
            for pair in range(n_pairs):
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    result = run_once(roots[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "result": result})
                    print(f"{workload} seed {seed} pair {pair} {side}: failed {result['failed']}",
                          file=sys.stderr)
    record = {
        "command": COMMAND,
        "parent": parent,
        "change": "the commit that adds this file",
        "order": ORDER,
        "seeds": seeds,
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}; run.py pins itself and its probes to one CPU",
        "runs": runs,
    }
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(summary(runs), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
