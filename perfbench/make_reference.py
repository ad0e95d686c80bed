"""Record the fixture outputs that later runs must reproduce byte for byte.

    python3 perfbench/make_reference.py

Writes ``reference.json``: exit code and captured report of ``check`` on
every fixture and ``solve`` on every solver fixture (at its own grid and at
101 x 101), with the CSV row count and SHA-256.  Re-record only when a
change to the output format is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    session = run.Session(run.ROOT, "arrangement", 0)
    reference = {}
    import workloads

    ops = [op for op in session.ops if op.ref]
    ops += [op for op in workloads.build("grid", 0, run.ROOT) if op.ref]
    for op in ops:
        code, text, _ = session.execute(op)
        entry = {"exit": code, "stdout": text}
        if op.kind == "solve":
            data = session.out_csv.read_bytes()
            entry["rows"] = data.count(b"\n") - 1
            entry["csv_sha256"] = hashlib.sha256(data).hexdigest()
        reference[op.ref] = entry
        print(op.ref, code, entry.get("rows", ""), file=session.real_stdout)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} entries to {path.relative_to(run.ROOT)}", file=session.real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
