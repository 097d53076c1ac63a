"""Per-layer metrics from the spans of traced ops.

Layers are the package modules.  A span's self time is its duration minus
the time its direct child spans cover (children nest on one thread, so they
never overlap).  Metrics named ``*_self_s`` sum self times; other ``*_s``
metrics sum the wall time of the outermost spans of the named functions, so
a function that calls itself is not counted twice.  Time the tracer's hooks
spent counting (rref entries) is left out of both.  Every value is a total over the traced
ops of one run.

Which end-to-end metric each layer metric should move, and on which
workload, is listed in README.md.
"""

from __future__ import annotations

LAYERS = ("linalg", "algebra", "cochain", "chain", "checks", "reporting", "cli")

VERIFY_CHECKS = (
    "check_delta_complex",
    "check_boundary_complex",
    "check_jacobi",
    "check_leibniz",
    "check_predicate_agreement",
    "check_normalization",
    "check_euler",
    "check_ring_table",
    "check_twisted_duality",
    "check_duality_failure",
)

# metric name -> (kind, function names); kind is calls | wall | self.
SPAN_METRICS = {
    "linalg.rref_calls": ("calls", ("linalg.rref",)),
    "linalg.rref_s": ("self", ("linalg.rref",)),
    "linalg.nullspace_s": ("wall", ("linalg.nullspace",)),
    "linalg.column_space_s": ("wall", ("linalg.column_space",)),
    "linalg.solve_quotient_s": ("wall", ("linalg.solve", "linalg.quotient_coordinates")),
    "linalg.apply_matmul_s": ("wall", ("linalg.Matrix.apply", "linalg.Matrix.__matmul__")),
    "linalg.echelon_add_calls": ("calls", ("linalg.EchelonAccumulator.add",)),
    "linalg.echelon_add_s": ("wall", ("linalg.EchelonAccumulator.add",)),
    "cochain.operator_build_calls": ("calls", ("cochain.delta0_matrix", "cochain.delta1_matrix")),
    "cochain.operator_build_s": ("wall", ("cochain.delta0_matrix", "cochain.delta1_matrix")),
    "cochain.cohomology_self_s": ("self", ("cochain.cohomology",)),
    "cochain.ring_table_self_s": ("self", ("cochain.ring_table",)),
    "cochain.cup_calls": ("calls", ("cochain.cup",)),
    "chain.operator_build_calls": ("calls", ("chain.partial1_matrix", "chain.partial2_matrix")),
    "chain.operator_build_s": ("wall", ("chain.partial1_matrix", "chain.partial2_matrix")),
    "chain.homology_self_s": ("self", ("chain.homology",)),
    "algebra.multiply_calls": ("calls", ("algebra.multiply",)),
    "algebra.bracket_calls": ("calls", ("algebra.bracket",)),
    "reporting.bundle_self_s": ("self", (
        "reporting.cohomology_bundle", "reporting.homology_bundle", "reporting.ring_bundle",
        "reporting.duality_bundle", "reporting.sweep_bundle", "reporting.verify_bundle",
    )),
    "reporting.render_s": ("wall", ("reporting.render",)),
    "cli.main_s": ("wall", ("cli.main",)),
}
SPAN_METRICS.update(
    {f"checks.{fn}_s": ("wall", (f"checks.{fn}",)) for fn in VERIFY_CHECKS}
)

UNITS = {"calls": "count", "wall": "s", "self": "s"}


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {name: UNITS[kind] for name, (kind, _) in SPAN_METRICS.items()}
    units["linalg.rref_entries"] = "count"
    units["linalg.rref_density"] = "1"
    units["cochain.cache_hit_ratio"] = "1"
    units["chain.cache_hit_ratio"] = "1"
    units["reporting.render_bytes"] = "bytes"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace_overhead_s"] = "s"
    return units


def span_times(doc: dict) -> tuple[list[float], list[float]]:
    """(self time, wall time) of each span in a traced op's span document.

    Both leave out the time hooks spent counting, in the span and below it.
    A child is appended after its parent, so a reverse pass sees every child
    before its parent.
    """
    spans = doc["spans"]
    excluded = [s[4] for s in spans]
    for n in range(len(spans) - 1, -1, -1):
        if spans[n][3] >= 0:
            excluded[spans[n][3]] += excluded[n]
    wall = [s[2] - s[1] - excluded[n] for n, s in enumerate(spans)]
    own = list(wall)
    for n, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= wall[n]
    return own, wall


class LayerTotals:
    """Accumulates per-layer figures over the traced ops of a run."""

    def __init__(self):
        self.values = {name: 0.0 for name in SPAN_METRICS}
        self.values.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        self.counters = {"rref_entries": 0, "rref_nonzero": 0, "render_bytes": 0}
        self.caches = {"cochain": [0, 0], "chain": [0, 0]}

    def add(self, doc: dict) -> None:
        names = doc["names"]
        spans = doc["spans"]
        own, wall = span_times(doc)
        by_name: dict[int, list[int]] = {}
        for n, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(n)
        for key, members in by_name.items():
            layer = names[key].split(".", 1)[0]
            self.values[f"{layer}.self_s"] += sum(own[n] for n in members)
        for metric, (kind, fns) in SPAN_METRICS.items():
            wanted = {names.index(f) for f in fns if f in names}
            for n in (n for key in wanted for n in by_name.get(key, ())):
                if kind == "calls":
                    self.values[metric] += 1
                elif kind == "self":
                    self.values[metric] += own[n]
                elif not self._nested_in(spans, spans[n][3], wanted):
                    self.values[metric] += wall[n]
        for key in self.counters:
            self.counters[key] += doc["counters"][key]
        for name, (hits, misses) in doc["caches"].items():
            layer = name.split(".", 1)[0]
            if layer in self.caches:
                self.caches[layer][0] += hits
                self.caches[layer][1] += hits + misses

    @staticmethod
    def _nested_in(spans, parent: int, wanted: set) -> bool:
        while parent >= 0:
            if spans[parent][0] in wanted:
                return True
            parent = spans[parent][3]
        return False

    def metrics(self, trace_overhead_s: float) -> dict[str, float]:
        out = dict(self.values)
        entries = self.counters["rref_entries"]
        out["linalg.rref_entries"] = entries
        out["linalg.rref_density"] = self.counters["rref_nonzero"] / entries if entries else 0.0
        for layer, (hits, calls) in self.caches.items():
            out[f"{layer}.cache_hit_ratio"] = hits / calls if calls else 0.0
        out["reporting.render_bytes"] = self.counters["render_bytes"]
        out["trace_overhead_s"] = trace_overhead_s
        return {name: out[name] for name in metric_units()}
