"""The truncpoisson benchmark: the CLI as a user pays for it.

    python3 perfbench/run.py --workload instance-large --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each op is one ``python -m truncpoisson``
subprocess over the package in ./src, issued in a single-client closed loop
(the next op starts when the previous one has exited) for --seconds seconds.
Every op is gated for correctness (gate.py); a failed op counts in
``failed``.  The program's caches are never cleared: each op is a fresh
process, so its caches start cold, as a user's do.

--trace 0 prints the end-to-end metrics.  Between ops the run times a fixed
reference computation (reference.py) that never changes, and scales every
timing to the host speed at which that reference takes REFERENCE_NOMINAL_S:
the host this runs on is shared, and its speed drifts by up to 1.7x over
seconds to minutes.  --trace 1 plays one round of the workload's deck, each
op once untraced and once under traced_main.py (alternating which goes
first), and prints the per-layer metrics plus the tracing overhead, as
measured.  The last stdout line is the JSON result; the line before it
records the run's context (seed, nproc, Python, commit, tail percentile,
host speed and the end-to-end figures as measured).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
SETUP_CODE = "import truncpoisson.cli as c; c.build_parser()"
# Time of reference.py on the host the timings are scaled to (a quiet
# 2-core VM, Python 3.11).
REFERENCE_NOMINAL_S = 0.125
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
SETUP_EVERY = 3

E2E_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "instances_per_s": "1/s",
    "ab_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class OpRun:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes


class Bench:
    """Runs ops against the package sources under one checkout root."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_build" / "perfbench"
        # Children write bytecode next to the sources, as an installed package has it.
        dropped = ("TRUNCPOISSON_THREADS", "PYTHONDONTWRITEBYTECODE")
        base = {k: v for k, v in os.environ.items() if k not in dropped}
        base["PYTHONPATH"] = str(self.src)
        base["PYTHONIOENCODING"] = "utf-8"
        self.env = base

    def check_sources(self) -> None:
        """Refuse to run unless ./src holds the package and the children import it from there."""
        if not (self.src / "truncpoisson" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no package sources at {self.src}/truncpoisson; "
                             "run from the repository root")
        self.work.mkdir(parents=True, exist_ok=True)
        # Also compiles the bytecode once, which users do not pay per run.
        probe = subprocess.run(
            [sys.executable, "-c", "import truncpoisson.cli as c; print(c.__file__)"],
            capture_output=True, env=self.env, cwd=self.root, timeout=OP_TIMEOUT_S,
        )
        origin = Path(probe.stdout.decode().strip() or "?").resolve()
        if probe.returncode != 0 or self.src.resolve() not in origin.parents:
            raise SystemExit(f"perfbench: truncpoisson imports from {origin}, not {self.src}")

    def run(self, cmd: list[str], extra_env=()) -> OpRun:
        env = dict(self.env, **dict(extra_env))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=env, cwd=self.root,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return OpRun(time.perf_counter() - t0, -1, exc.stdout or b"", b"timeout")
        return OpRun(time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr)

    def run_op(self, op: workloads.Op, spans: Path | None = None, op_id: int = 0) -> OpRun:
        """Run op; with spans, run it traced and without op.env (spans nest on one thread)."""
        if spans is None:
            return self.run([sys.executable, "-m", "truncpoisson", *op.argv], op.env)
        return self.run([sys.executable, str(HERE / "traced_main.py"), "--spans", str(spans),
                         "--op-id", str(op_id), "--", *op.argv])

    def setup_once(self) -> float:
        """Time for a fresh interpreter to import the CLI and build its parser."""
        r = self.run([sys.executable, "-c", SETUP_CODE])
        if r.returncode != 0:
            raise SystemExit(f"perfbench: setup failed: {r.stderr.decode(errors='replace')}")
        return r.wall_s

    def reference_once(self) -> float:
        """Time of the fixed reference work, which gauges the host's speed."""
        r = self.run([sys.executable, "-I", str(HERE / "reference.py")])
        if r.returncode != 0:
            raise SystemExit(f"perfbench: reference failed: {r.stderr.decode(errors='replace')}")
        return r.wall_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= TAIL_BEYOND samples beyond it.

    With n samples sorted ascending, that is the sample with exactly
    TAIL_BEYOND samples above it; with fewer samples it is the minimum.
    """
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def context(workload: str, seed: int, root: Path) -> dict:
    try:
        ceiling = str(root.resolve().parent)
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, cwd=root, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=ceiling),
        )
        commit_id = commit.stdout.decode().strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit_id = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "truncpoisson").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": commit_id,
        "src_sha256": digest.hexdigest(),
    }


def deck_times(samples: list[tuple[workloads.Op, float, bool]]) -> dict[workloads.Op, tuple[float, bool]]:
    """Per op: (mean wall time of its runs, whether every run of it passed)."""
    runs: dict[workloads.Op, list[float]] = {}
    passed: dict[workloads.Op, bool] = {}
    for op, wall_s, ok in samples:
        runs.setdefault(op, []).append(wall_s)
        passed[op] = passed.get(op, True) and ok
    return {op: (statistics.fmean(walls), passed[op]) for op, walls in runs.items()}


def at_nominal_speed(measured: dict[str, float], speed: float) -> dict[str, float]:
    """Scale timings to a host on which reference.py takes REFERENCE_NOMINAL_S.

    speed is REFERENCE_NOMINAL_S over the run's mean reference time, so it
    is below 1 while the host runs slow: times are multiplied by it, rates
    divided.  Memory is left as measured.
    """
    out = dict(measured)
    for name in ("latency_p50_s", "latency_tail_s", "setup_s"):
        out[name] = measured[name] * speed
    for name in ("instances_per_s", "ab_per_s"):
        out[name] = measured[name] / speed
    return out


def measure(bench: Bench, workload: str, seed: int, seconds: float, digests) -> tuple[dict, dict]:
    """Untraced closed loop; returns (result, extra context).

    Every round replays the same ops, so each op is timed several times
    across the run.  The throughput figures are the deck's instances (and
    sum of a*b) over the sum of its ops' mean wall times, counting only ops
    whose every run passed the gate, so a partial last round does not tilt
    the mix.  After every op the fixed reference work runs, and after every
    SETUP_EVERY-th op a set-up probe, so both sample the whole run as the
    ops do; neither counts in the op figures.  The reported figures are
    scaled to nominal host speed by the reference times (at_nominal_speed);
    the figures as measured go to the context line.
    """
    samples, setups, references, failures, timeline = [], [], [], [], []
    dealer = workloads.rounds(workload, seed)
    batch: list[workloads.Op] = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        if not batch:
            batch = next(dealer)
        op = batch.pop(0)
        r = bench.run_op(op)
        timeline.append([round(time.perf_counter() - start, 3), r.wall_s, op.key, bool(op.env)])
        problems = gate.op_problems(op, r.returncode, r.stdout, digests)
        if problems:
            failures.append({"op": op.key, "problems": problems,
                             "stderr": r.stderr.decode(errors="replace")[-500:]})
        samples.append((op, r.wall_s, not problems))
        references.append(bench.reference_once())
        if len(samples) % SETUP_EVERY == 1:
            setups.append(bench.setup_once())
    deck = deck_times(samples)
    deck_s = sum(wall_s for wall_s, _ in deck.values())
    instances = sum(len(op.instances) for op, (_, ok) in deck.items() if ok)
    ab = sum(op.ab_sum for op, (_, ok) in deck.items() if ok)
    latencies = [wall_s for _, wall_s, _ in samples]
    tail_value, tail_pct = tail(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    measured = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "instances_per_s": instances / deck_s,
        "ab_per_s": ab / deck_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    speed = REFERENCE_NOMINAL_S / statistics.fmean(references)
    metrics = at_nominal_speed(measured, speed)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }
    extra = {
        "measured": measured,
        "host_speed": speed,
        "reference_s": statistics.fmean(references),
        "ops_failed_ratio": len(failures) / len(samples),
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(samples),
        "setup_samples": len(setups),
        "references": references,
        "setups": setups,
        "failures": failures,
        "ops": timeline,
    }
    return result, extra


def measure_traced(bench: Bench, workload: str, seed: int, seconds: float, digests) -> tuple[dict, dict]:
    """One round of the deck, each op untraced and traced; per-layer totals."""
    spans_dir = bench.work / "spans" / workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob("op*.json"):
        old.unlink()
    totals = layers.LayerTotals()
    overheads, failures = [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    for op_id, op in enumerate(next(workloads.rounds(workload, seed))):
        if time.perf_counter() >= deadline:
            break
        op = replace(op, env=())  # untraced twin runs single-threaded too
        spans = spans_dir / f"op{op_id}.json"
        if op_id % 2 == 0:
            plain = bench.run_op(op)
            traced = bench.run_op(op, spans, op_id)
        else:
            traced = bench.run_op(op, spans, op_id)
            plain = bench.run_op(op)
        attempted += 2
        for label, r in (("untraced", plain), ("traced", traced)):
            problems = gate.op_problems(op, r.returncode, r.stdout, digests)
            if label == "traced" and r.stdout != plain.stdout:
                problems.append("traced stdout differs from untraced stdout")
            if problems:
                failures.append({"op": op.key, "run": label, "problems": problems,
                                 "stderr": r.stderr.decode(errors="replace")[-500:]})
        if traced.returncode != 0 or not spans.is_file():
            continue
        with open(spans, encoding="utf-8") as fh:
            totals.add(json.load(fh))
        overheads.append(traced.wall_s - plain.wall_s)
    overhead = statistics.median(overheads) if overheads else 0.0
    units = layers.metric_units()
    values = totals.metrics(overhead)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    extra = {"traced_ops": len(overheads), "spans_dir": str(spans_dir), "failures": failures}
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="truncpoisson CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = Bench(root)
    bench.check_sources()
    digests = gate.load_digests()
    if args.trace:
        result, extra = measure_traced(bench, args.workload, args.seed, args.seconds, digests)
    else:
        result, extra = measure(bench, args.workload, args.seed, args.seconds, digests)
    info = dict(context(args.workload, args.seed, root), trace=args.trace, **extra)
    record = bench.work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"context": info, "result": result}, fh, indent=1)
    for failure in extra["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    info.pop("failures")
    for bulky in ("ops", "references", "setups"):
        info.pop(bulky, None)
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
