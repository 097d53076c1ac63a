"""Run one truncpoisson CLI invocation with every layer boundary traced.

Usage: python3 traced_main.py --spans FILE --op-id N -- <truncpoisson argv>

The package is imported unchanged; this script wraps, from outside, the
public functions of each package module (plus Matrix.apply, Matrix.__matmul__
and EchelonAccumulator.add) and rebinds every module attribute that holds one
of them, so calls made through ``from .linalg import rref`` are traced too.
Spans (name, start, end, parent, excluded time) are kept in memory and written
to FILE as JSON once the command has returned.  Stdout and the exit code are
exactly those of ``python -m truncpoisson <argv>``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("linalg", "algebra", "cochain", "chain", "checks", "reporting", "cli")
METHODS = (("linalg", "Matrix", "apply"), ("linalg", "Matrix", "__matmul__"),
           ("linalg", "EchelonAccumulator", "add"))


class Tracer:
    """Span store for one process; spans nest on the calling thread only."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # each span: [name index, start, end, parent span index or -1, excluded seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"rref_entries": 0, "rref_nonzero": 0, "render_bytes": 0}

    def wrap(self, fn, name: str, hook=None):
        """Return fn wrapped in a span; hook(args, result) may return seconds to exclude."""
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        key = self.name_index[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[4] = hook(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count_rref(self, args, result) -> float:
        """Record entries and nonzeros of the eliminated matrix; return the time it took."""
        t0 = time.perf_counter()
        m = args[0]
        self.counters["rref_entries"] += m.rows * m.cols
        self.counters["rref_nonzero"] += sum(sum(map(bool, row)) for row in m.data)
        return time.perf_counter() - t0

    def count_render(self, args, result) -> float:
        self.counters["render_bytes"] += len(result.encode("utf-8"))
        return 0.0


def _is_traceable(obj, module_name: str) -> bool:
    if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return getattr(obj, "__module__", None) == module_name


def install(tracer: Tracer):
    """Wrap the package's public functions; return the lru-cached originals by name."""
    package = importlib.import_module("truncpoisson")
    modules = {name: importlib.import_module(f"truncpoisson.{name}") for name in MODULES}
    holders = [package] + list(modules.values())
    cached = {}
    hooks = {"linalg.rref": tracer.count_rref, "reporting.render": tracer.count_render}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.wrap(obj, name, hooks.get(name))
            if hasattr(obj, "cache_info"):
                cached[name] = obj
            for holder in holders:
                for other, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, other, wrapped)
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), f"{short}.{cls_name}.{method}"))
    return modules["cli"], cached


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file to write the spans to")
    parser.add_argument("--op-id", type=int, default=0, help="identifier shared by this op's spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the truncpoisson arguments")
    ns = parser.parse_args()
    argv = ns.argv[1:] if ns.argv[:1] == ["--"] else ns.argv

    tracer = Tracer()
    cli, cached = install(tracer)
    rc = cli.main(argv)
    sys.stdout.flush()

    caches = {}
    for name, fn in cached.items():
        info = fn.cache_info()
        caches[name] = [info.hits, info.misses]
    with open(ns.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "op_id": ns.op_id,
                "names": tracer.names,
                "spans": tracer.spans,
                "counters": tracer.counters,
                "caches": caches,
            },
            fh,
            separators=(",", ":"),
        )
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
