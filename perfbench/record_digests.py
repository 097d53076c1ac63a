"""Record the stdout sha256 of every op any seed can produce.

    python3 perfbench/record_digests.py            # all workloads
    python3 perfbench/record_digests.py verify-mid # one workload

Run from the repository root, at a commit whose outputs are the reference.
Each op runs through the same subprocess path as the benchmark and must pass
the invariant gate before its digest is recorded.  Existing digests of other
workloads are kept; digests of ops no workload can deal any more are dropped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
import workloads
from run import Bench


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    bench = Bench(Path.cwd())
    bench.check_sources()
    path = gate.DIGESTS_PATH
    doc = json.loads(path.read_text()) if path.is_file() else {"digests": {}}
    digests = doc["digests"]
    for name in names:
        ops = workloads.universe(name)
        for n, op in enumerate(ops, 1):
            r = bench.run_op(op)
            problems = [f"exit code {r.returncode}"] if r.returncode else []
            problems += gate.invariant_problems(op, r.stdout.decode("utf-8"))
            if problems:
                print(f"{name}: {op.key}: {problems}", file=sys.stderr)
                return 1
            digests[op.key] = gate.sha256(r.stdout)
            print(f"{name} {n}/{len(ops)} {r.wall_s:.2f}s {op.key}", file=sys.stderr)
    dealt = {op.key for name in workloads.WORKLOADS for op in workloads.universe(name)}
    doc["digests"] = {k: v for k, v in sorted(digests.items()) if k in dealt}
    path.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
