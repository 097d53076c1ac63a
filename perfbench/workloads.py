"""The benchmark's workloads: fixed decks of op slots, replayed in seeded rounds.

An op is one ``python -m truncpoisson`` invocation.  Each workload is a deck
of slots; a slot fixes everything that sets an op's cost: subcommand, size
and orientation, twist kind (explicit twists by family) and, on sweep-grid,
whether the op runs with TRUNCPOISSON_THREADS=2.  The seed deals one op per
slot for the whole run, picking the output format and, for an explicit
twist, a member of the slot's twist family; every round then replays those
ops in a fresh seeded order.  So every seed has the same cost profile, and
each op repeats across the run, which lets the run time each op several
times at different moments.

The set of ops a seed can produce is finite (``universe``), so the stdout
digest of every one of them is recorded once, in ``digests.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

FORMATS = ("json", "csv", "markdown")

POOL_ENV = (("TRUNCPOISSON_THREADS", "2"),)

# (command, a, b, twist kind or None).  Dense elimination over the (ab)x2ab
# operators dominates at these sizes.  The ops cost about 0.3 s to 0.9 s
# on 2 cores, six of them 0.5 s to 0.65 s, so neither the median nor the
# tail sample falls into a gap between two clusters of op costs.
INSTANCE_LARGE = (
    ("cohomology", 18, 12, None),
    ("cohomology", 18, 16, None),
    ("cohomology", 17, 18, None),
    ("cohomology", 16, 20, None),
    ("cohomology", 20, 20, None),
    ("homology", 16, 16, "trivial"),
    ("homology", 14, 18, "nakayama"),
    ("homology", 16, 16, "lines"),
    ("homology", 12, 20, "rational"),
    ("homology", 18, 18, "rational"),
    ("ring", 16, 16, None),
    ("ring", 18, 18, None),
    ("duality", 14, 12, None),
    ("duality", 16, 14, None),
)

# (kind, a range, b range, twist kind or None, pooled).  Many small instances
# per process: per-instance fixed cost, the lru_cache layers and, on half the
# slots, the thread pool.  Costs spread evenly from about 0.3 s to 0.7 s.
SWEEP_GRID = (
    ("cohomology", (2, 8), (2, 8), None, False),
    ("cohomology", (2, 10), (2, 6), None, True),
    ("cohomology", (2, 10), (2, 8), None, False),
    ("homology", (2, 8), (2, 8), "trivial", True),
    ("homology", (2, 12), (2, 6), "trivial", False),
    ("homology", (2, 6), (2, 14), "nakayama", True),
    ("homology", (2, 9), (2, 9), "nakayama", False),
    ("homology", (2, 10), (2, 8), "trivial", True),
)

# (a, b) for verify: operator builds, matmul and Matrix.apply dominate, the
# rank engine carries little.
VERIFY_MID = ((6, 6), (7, 8), (8, 6), (9, 7), (8, 8), (10, 7), (9, 9), (6, 10))

DECKS = {"instance-large": INSTANCE_LARGE, "sweep-grid": SWEEP_GRID, "verify-mid": VERIFY_MID}
WORKLOADS = tuple(DECKS)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its answer must satisfy."""

    argv: tuple[str, ...]
    command: str
    fmt: str
    instances: tuple[tuple[int, int], ...]  # the (a, b) pairs answered
    twist: str | None = None  # trivial | nakayama | explicit
    sweep_kind: str | None = None
    env: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> str:
        """Digest key: the argv alone, since the output must not depend on env."""
        return " ".join(self.argv)

    @property
    def ab_sum(self) -> int:
        return sum(a * b for a, b in self.instances)


def twist_family(a: int, b: int, family: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """Explicit twists for size (a, b) whose ops cost about the same.

    ``lines``: integer points on both rank-drop lines, alpha = -j and
    beta = i (0 <= i < a, 0 <= j < b), near the middle of the box.
    ``rational``: generic twists p/7, q/11, on no line.
    """
    F = Fraction
    if family == "lines":
        return tuple((F(-j), F(i)) for j in (b // 2 - 1, b // 2, b // 2 + 1)
                     for i in (a // 3, a // 3 + 1))
    return tuple((F(p, 7), F(q, 11)) for p in (3, -4, 5) for q in (-5, 6))


def _twist_arg(twist) -> str:
    if isinstance(twist, str):
        return f"--twist={twist}"
    alpha, beta = twist
    return f"--twist={alpha},{beta}"


def _range_arg(r: tuple[int, int]) -> str:
    return f"{r[0]}..{r[1]}"


def instance_op(command: str, a: int, b: int, twist, fmt: str) -> Op:
    """twist: None, "trivial", "nakayama" or an explicit (alpha, beta)."""
    argv = [command, "-a", str(a), "-b", str(b)]
    if twist is not None:
        argv.append(_twist_arg(twist))
    argv += ["--format", fmt]
    kind = twist if twist is None or isinstance(twist, str) else "explicit"
    return Op(tuple(argv), command, fmt, ((a, b),), kind)


def sweep_op(kind: str, ra, rb, twist: str | None, fmt: str, pooled: bool = False) -> Op:
    argv = ["sweep", "-a", _range_arg(ra), "-b", _range_arg(rb), "--kind", kind]
    if twist is not None:
        argv.append(_twist_arg(twist))
    argv += ["--format", fmt]
    instances = tuple(
        (a, b) for a in range(ra[0], ra[1] + 1) for b in range(rb[0], rb[1] + 1)
    )
    return Op(tuple(argv), "sweep", fmt, instances, twist, kind, POOL_ENV if pooled else ())


def _slot_ops(workload: str, slot) -> list[Op]:
    """Every op a slot can deal: the slot's twists x formats."""
    if workload == "instance-large":
        command, a, b, twist = slot
        twists = twist_family(a, b, twist) if twist in ("lines", "rational") else (twist,)
        return [instance_op(command, a, b, t, fmt) for t in twists for fmt in FORMATS]
    if workload == "sweep-grid":
        return [sweep_op(*slot[:4], fmt, slot[4]) for fmt in FORMATS]
    a, b = slot
    return [instance_op("verify", a, b, None, fmt) for fmt in FORMATS]


def rounds(workload: str, seed: int):
    """Endless seeded rounds of ops; the same seed yields the same sequence.

    The seed deals one op per slot, drawn uniformly from the slot's ops, for
    the whole run; each round plays those ops once, in a fresh seeded order.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    dealt = [rng.choice(_slot_ops(workload, slot)) for slot in DECKS[workload]]
    while True:
        ops = list(dealt)
        rng.shuffle(ops)
        yield ops


def universe(workload: str) -> list[Op]:
    """Every op any seed can deal for the workload."""
    return [op for slot in DECKS[workload] for op in _slot_ops(workload, slot)]
