"""The metrics registry: counters, gauges, histograms.

One process-wide :class:`MetricsRegistry` is the single sink for every
quantity the repo already counts piecemeal — kernel-cache hit/miss
(in-memory and on-disk), optimizer pass deltas, worker-pool
faults, fault-injection recoveries, scan throughput.  Unlike
tracing, metrics are *always on*: instruments are updated at coarse
aggregation points (once per compile, once per scan, once per cache
lookup), never inside per-word loops, so the cost is a handful of
dict/attribute operations per pipeline stage.

Instruments support optional labels (``counter.inc(2, app="Snort")``);
each label set keeps its own series, exactly the Prometheus data
model, and :func:`repro.obs.export.prometheus_text` renders the whole
registry as text exposition format.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared series bookkeeping for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def series(self) -> Dict[LabelKey, object]:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)


class Gauge(_Instrument):
    """Last-set value, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def value(self, **labels) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)


#: Default histogram buckets — seconds-scale, matching the span
#: durations the tracer records (compile ~ms, scans ~ms-s).
DEFAULT_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
                   5.0, 10.0)


class Histogram(_Instrument):
    """Cumulative-bucket histogram with sum/count, per label set."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        self._series: Dict[LabelKey, Dict[str, object]] = {}

    def _cell(self, key: LabelKey) -> Dict[str, object]:
        cell = self._series.get(key)
        if cell is None:
            cell = {"buckets": [0] * len(self.buckets),
                    "sum": 0.0, "count": 0}
            self._series[key] = cell
        return cell

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            cell = self._cell(key)
            cell["sum"] += value
            cell["count"] += 1
            for index, edge in enumerate(self.buckets):
                if value <= edge:
                    cell["buckets"][index] += 1

    def series(self) -> Dict[LabelKey, Dict[str, object]]:
        with self._lock:
            return {key: {"buckets": list(cell["buckets"]),
                          "sum": cell["sum"], "count": cell["count"]}
                    for key, cell in self._series.items()}


class MetricsRegistry:
    """Name → instrument, get-or-create.  Re-registering a name
    returns the existing instrument (kind mismatches raise)."""

    def __init__(self):
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}")
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help,
                                   buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view of every series, for reports and tests."""
        out: Dict[str, Dict[str, object]] = {}
        for instrument in self.instruments():
            out[instrument.name] = {
                "kind": instrument.kind,
                "series": {",".join(f"{k}={v}" for k, v in key) or "":
                           value
                           for key, value in instrument.series().items()},
            }
        return out

    def reset(self) -> None:
        """Zero every series in place (test isolation).  Instruments
        stay registered, so module-level cached handles stay live."""
        for instrument in self.instruments():
            with instrument._lock:
                if isinstance(instrument, Histogram):
                    instrument._series.clear()
                else:
                    instrument._values.clear()


#: The process-wide registry; ``registry()`` is the supported accessor.
_GLOBAL_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _GLOBAL_REGISTRY
