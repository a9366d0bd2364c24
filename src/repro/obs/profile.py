"""Wall-clock phase profiling: the one profiler of planner and simulator.

A :class:`PhaseProfiler` accumulates host wall time per named phase, plus
named event counters, in one flat table. Two layers feed it:

* the offline planner — candidate enumeration, constrained k-means
  grouping, swap perturbation, objective evaluation (the §III-C3 claim,
  28.57 % faster than DistServe's search, rests on *which* phases the
  heuristics cut; ``bench_planner_time`` prints that breakdown);
* the serving simulator's hot path — every event handler timed under its
  event tag (``arrival``, ``decode_iter`` ...), the engine sections
  ``engine.batch_formation`` / ``engine.link_load`` /
  ``engine.controller_tick``, the controller's ``controller.poll`` /
  ``controller.refresh``, and the ``engine.run`` bracket with its
  ``engine.requests_finished`` / ``engine.events_fired`` counters
  (``bench_engine_throughput`` reduces them to requests per second).

Thread-safe: the planner's asynchronous prefill/decode estimation runs
phases from two worker threads concurrently. :meth:`PhaseProfiler.phase`
returns a slotted context manager rather than a ``@contextmanager``
generator, because the engine opens one per event handler.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter

__all__ = ["PhaseStat", "PhaseProfiler", "NullProfiler", "NULL_PROFILER"]


@dataclass
class PhaseStat:
    """Accumulated wall time for one phase."""

    total: float = 0.0
    count: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


class PhaseProfiler:
    """Accumulates wall-clock time per named phase.

    Besides timed phases it keeps named event *counters* (``count``) —
    used by the planner's estimation cache to report hit/miss totals in
    the same breakdown the benchmarks print.
    """

    enabled = True

    def __init__(self) -> None:
        self._stats: dict[str, PhaseStat] = {}
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, name: str, elapsed: float) -> None:
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = PhaseStat()
            stat.total += elapsed
            stat.count += 1

    def phase(self, name: str) -> "_Phase":
        """Context manager timing its body as one ``name`` occurrence."""
        return _Phase(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named event counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counters(self) -> dict[str, int]:
        """Counter name -> total, sorted by descending count."""
        with self._lock:
            items = sorted(self._counters.items(), key=lambda kv: -kv[1])
        return dict(items)

    def breakdown(self) -> dict[str, PhaseStat]:
        """Phase -> stats, sorted by descending total time."""
        with self._lock:
            items = sorted(
                self._stats.items(), key=lambda kv: -kv[1].total
            )
        return dict(items)

    def phase_times(self) -> dict[str, float]:
        """Phase -> total seconds (the flat view reports embed)."""
        return {k: v.total for k, v in self.breakdown().items()}

    def report(self, title: str = "phase breakdown") -> str:
        rows = self.breakdown()
        counters = self.counters()
        if not rows and not counters:
            return f"{title}: (no phases recorded)"
        lines = [title]
        if rows:
            width = max(len(k) for k in rows)
            for name, stat in rows.items():
                lines.append(
                    f"  {name:<{width}s}  {stat.total * 1e3:9.2f} ms"
                    f"  x{stat.count:<6d} mean {stat.mean * 1e3:8.3f} ms"
                )
        if counters:
            width = max(len(k) for k in counters)
            for name, n in counters.items():
                lines.append(f"  {name:<{width}s}  {n:9d} events")
        return "\n".join(lines)


class _Phase:
    """One timed phase; records its elapsed time on exit, also on error."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: PhaseProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        self._t0 = perf_counter()

    def __exit__(self, *exc) -> bool:
        self._profiler.record(self._name, perf_counter() - self._t0)
        return False


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullProfiler:
    """No-op profiler: ``phase()`` returns a shared, allocation-free
    context manager, so disabled profiling costs two attribute lookups."""

    enabled = False

    def record(self, name: str, elapsed: float) -> None:
        pass

    def phase(self, name: str):
        return _NULL_CONTEXT

    def count(self, name: str, n: int = 1) -> None:
        pass

    def counters(self) -> dict[str, int]:
        return {}

    def breakdown(self) -> dict[str, PhaseStat]:
        return {}

    def phase_times(self) -> dict[str, float]:
        return {}

    def report(self, title: str = "phase breakdown") -> str:
        return f"{title}: (profiling disabled)"


#: Shared instance for default arguments.
NULL_PROFILER = NullProfiler()
