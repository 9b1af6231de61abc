"""The metrics registry: counters, gauges, histograms, pull collectors.

Two acquisition paths feed one registry:

* **Push instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) are updated from instrumented hot paths.  Every
  such call site is guarded by an ``if <layer>.obs is not None`` check,
  so a cluster without observability attached pays a single attribute
  load — nothing else (the zero-cost-when-disabled contract that keeps
  the batching speedups intact).
* **Pull collectors** read the plain integer counters the subsystems
  maintain anyway (``network.messages_delivered``,
  ``manager.bytes_sent_total``, ...) at :meth:`MetricsRegistry.snapshot`
  time.  They cost nothing during the run, which is why the benchmark
  (``perf/``) can read metric snapshots without touching the measured
  hot paths at all.

Metric names use dots as namespace separators (``net.messages_sent``);
the Prometheus exporter sanitizes them to underscores.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket bounds for "how many items" distributions.
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500)

#: Default histogram bucket bounds for virtual-time durations (seconds).
TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Default histogram bucket bounds for payload sizes (bytes).
SIZE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (set to the latest observation)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bounds`` are the inclusive upper edges; one implicit +Inf bucket
    catches everything above the last edge.  ``counts`` are per-bucket
    (not cumulative); the exporters cumulate.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[float] = COUNT_BUCKETS,
                 help: str = "") -> None:
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                ("+Inf" if index == len(self.bounds) else repr(self.bounds[index])): n
                for index, n in enumerate(self.counts)
            },
        }


Collector = Callable[[], Dict[str, float]]


class MetricsRegistry:
    """Owns every instrument of one observed cluster.

    Instruments are created idempotently by name, so two layers asking
    for the same counter share it.  ``snapshot()`` merges the push-side
    instruments with the output of every registered pull collector.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name, help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, help)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = COUNT_BUCKETS,
                  help: str = "") -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds, help)
        return instrument

    def add_collector(self, collector: Collector) -> Collector:
        """Register a pull-side source: a callable returning a flat
        ``{metric_name: number}`` dict, evaluated at snapshot time."""
        self._collectors.append(collector)
        return collector

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, float]:
        """Run every pull collector and merge the results."""
        merged: Dict[str, float] = {}
        for collector in self._collectors:
            merged.update(collector())
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-serializable view of everything the registry knows.

        Collector output lands under ``counters`` next to the push-side
        counters (most collected values are monotone counts; the few
        level-like ones are documented in docs/OBSERVABILITY.md).
        """
        counters = {name: c.value for name, c in self._counters.items()}
        counters.update(self.collect())
        return {
            "counters": counters,
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: h.to_dict() for name, h in self._histograms.items()
            },
        }
