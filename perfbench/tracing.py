"""Per-layer spans for the fig4 benchmark, recorded from outside the program.

:func:`install` wraps the coordinator-side call sites of each layer in
place (module attributes and class methods) so a traced fig4 invocation
records one span per call: name, start, end and the span that caused it.
Callables that are shipped to worker processes (``mine_curve_task``,
``_execute_work``) are never wrapped: a wrapper is a closure, and an
unpicklable callable makes ``parallel_map`` degrade the process backend
to threads, which would trace a different program.

Spans and counts stay in memory; :meth:`Tracer.layer_metrics` reduces
them to the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

MIB = 1024 * 1024


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a span-recording wrapper."""
        raw = owner.__dict__.get(attr, getattr(owner, attr))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, self._wrap(name, raw, count))

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        child_time: Counter = Counter()
        for _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(
            end - start - child_time[index]
            for index, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name
        )

    def layer_metrics(self) -> dict[str, float]:
        counts = self.counts

        def ratio(hits: str, lookups: str) -> float:
            return counts[hits] / counts[lookups] if counts[lookups] else 0.0

        return {
            "corpus.build_s": self.total("corpus.generate_dataset")
            + self.total("corpus.from_view"),
            "models.simulate_s": self.total("models.execute_batch"),
            "models.simulate_runs": counts["simulate_runs"],
            "models.handoff_s": self.self_time("models.ensemble_curves"),
            "analysis.mine_s": self.total("analysis.parallel_map"),
            "analysis.mine_tasks": counts["mine_tasks"],
            "runtime.fingerprint_s": self.total("runtime.fingerprint"),
            "runtime.run_cache.get_s": self.total("runtime.run_cache.get"),
            "runtime.run_cache.put_s": self.total("runtime.run_cache.put"),
            "runtime.run_cache.hit_ratio": ratio("run_hits", "run_gets"),
            "runtime.run_cache.read_mib": counts["run_read_bytes"] / MIB,
            "runtime.curve_cache.get_s": self.total("runtime.curve_cache.get"),
            "runtime.curve_cache.put_s": self.total("runtime.curve_cache.put"),
            "runtime.curve_cache.hit_ratio": ratio("curve_hits", "curve_gets"),
            "runtime.sweep_s": self.total("runtime.execute_sweep"),
            "analysis.empirical_s": self.total("analysis.combination_curve"),
            "analysis.score_s": self.total("analysis.evaluate_models"),
            "experiments.fig4_s": self.total("experiments.run_fig4"),
            "trace.unattributed_s": self.self_time("experiments.run_fig4"),
        }


def _count_batch(counts, args, result):
    counts["simulate_runs"] += len(args[0].seeds)


def _count_map(counts, args, result):
    counts["mine_tasks"] += len(result)


def _count_run_get(counts, args, result):
    counts["run_gets"] += 1
    if result is not None:
        store, key = args[0], args[1]
        counts["run_hits"] += 1
        counts["run_read_bytes"] += os.path.getsize(store.path_for(key))


def _count_curve_get(counts, args, result):
    counts["curve_gets"] += 1
    counts["curve_hits"] += result is not None


def install() -> Tracer:
    """Wrap every traced call site and return the recording tracer."""
    from repro.experiments import fig4
    from repro.models import ensemble
    from repro.models.params import CuisineSpec
    from repro.runtime import runner
    from repro.runtime.cache import RunCache
    from repro.runtime.curve_cache import CurveCache
    from repro.synthesis.worldgen import WorldKitchen

    tracer = Tracer()
    tracer.patch(WorldKitchen, "generate_dataset", "corpus.generate_dataset")
    tracer.patch(CuisineSpec, "from_view", "corpus.from_view")
    tracer.patch(fig4, "run_fig4", "experiments.run_fig4")
    tracer.patch(fig4, "execute_sweep", "runtime.execute_sweep")
    tracer.patch(fig4, "ensemble_curves", "models.ensemble_curves")
    tracer.patch(fig4, "combination_curve", "analysis.combination_curve")
    tracer.patch(fig4, "evaluate_models", "analysis.evaluate_models")
    tracer.patch(runner, "execute_batch", "models.execute_batch", _count_batch)
    tracer.patch(ensemble, "parallel_map", "analysis.parallel_map", _count_map)
    tracer.patch(ensemble, "transactions_fingerprint", "runtime.fingerprint")
    tracer.patch(RunCache, "get", "runtime.run_cache.get", _count_run_get)
    tracer.patch(RunCache, "put", "runtime.run_cache.put")
    tracer.patch(CurveCache, "get", "runtime.curve_cache.get", _count_curve_get)
    tracer.patch(CurveCache, "put", "runtime.curve_cache.put")
    return tracer
