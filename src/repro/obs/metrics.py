"""A labeled metrics namespace: one registry type for hosts and worlds.

Components count with :class:`repro.sim.monitor.Counter` (``stats``
on an ``AgentServer``, transport, secure channel, fault injector, ...),
the one counter type in the package.  :class:`MetricsRegistry` pulls
them behind one namespace without touching their hot paths: a
registered *source* is read lazily at :meth:`~MetricsRegistry.flatten`
time (zero per-increment cost).  Its own labelled counters, gauges and
histograms are for instrumentation with no owning object (proxy
invocation latency, deny counts).  A registry can also fold other
registries at read time (:meth:`~MetricsRegistry.include`): the
testbed's world view is every host's telemetry registry plus its own.

Naming follows Prometheus conventions loosely: a metric is
``name{label=value,...}`` with labels sorted, e.g.
``server.transfers_out{server=urn:server:site1.net/s1}``.

Histograms use **fixed log-spaced buckets** (powers of two by default) so
``observe`` is a bisect into a static tuple — allocation-free, in the
spirit of :mod:`repro.sim.monitor`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping

__all__ = ["Gauge", "Histogram", "MetricsRegistry", "render_scrape"]


def _label_suffix(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Gauge:
    """A settable instantaneous value, or a lazily sampled callable."""

    __slots__ = ("_value", "_fn")

    def __init__(self, fn: Callable[[], float] | None = None) -> None:
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("cannot set a callable-backed gauge")
        self._value = value

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


# Default bounds: 2^8 .. 2^32 — tuned for nanosecond latencies (256 ns to
# ~4.3 s) but serviceable for byte sizes and virtual-time milliseconds.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    float(2**k) for k in range(8, 33)
)


class Histogram:
    """Fixed log-spaced buckets; ``observe`` is a bisect, no allocation."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Iterable[float] | None = None) -> None:
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        )
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        # counts[i] tallies observations <= bounds[i]; the final slot is
        # the overflow bucket (> bounds[-1]).
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Upper bucket bound containing the ``q`` quantile (bucket estimate)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    # -- mergeable state (federated aggregation, repro.obs.aggregate) ------

    def state(self) -> dict[str, Any]:
        """The full mergeable state (bounds + per-bucket counts).

        Unlike :meth:`summary` this loses nothing: two histograms with
        the same bounds merge bucket-wise with total mass preserved.
        """
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Histogram":
        hist = cls(state["bounds"])
        counts = list(state["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram state has {len(counts)} buckets for "
                f"{len(hist.counts)} bounds slots"
            )
        if any(c < 0 for c in counts):
            raise ValueError("histogram bucket counts cannot be negative")
        hist.counts = counts
        hist.count = int(state["count"])
        hist.total = float(state["total"])
        hist.min = float(state["min"])
        hist.max = float(state["max"])
        return hist

    def merge(self, other: "Histogram | Mapping[str, Any]") -> "Histogram":
        """Fold another histogram (or its :meth:`state`) into this one.

        Bucket-wise: both histograms must use identical bounds — the
        log-spaced default makes that the normal case across servers.
        Raises :class:`ValueError` on a bounds mismatch rather than
        silently re-bucketing (which would shift quantiles).
        """
        if not isinstance(other, Histogram):
            other = Histogram.from_state(other)
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{other.bounds[:3]}... vs {self.bounds[:3]}..."
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self


class MetricsRegistry:
    """Labelled counters, gauges, histograms, sources and folded registries.

    Each host's :class:`~repro.obs.aggregate.TelemetryUnit` owns one;
    the :class:`~repro.server.testbed.Testbed` owns another that folds
    them all.  :meth:`flatten` is the one read walk, and :meth:`scrape`
    and the federated snapshots are both built on it.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # (prefix, labels suffix) -> object with as_dict()
        self._sources: list[tuple[str, str, Any]] = []
        self._included: list[MetricsRegistry] = []

    # -- first-class instruments ------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        key = name + _label_suffix(labels)
        self._counters[key] = self._counters.get(key, 0) + amount

    def gauge(self, name: str, fn: Callable[[], float] | None = None,
              **labels: Any) -> Gauge:
        key = name + _label_suffix(labels)
        cell = self._gauges.get(key)
        if cell is None:
            cell = self._gauges[key] = Gauge(fn)
        return cell

    def histogram(self, name: str, bounds: Iterable[float] | None = None,
                  **labels: Any) -> Histogram:
        key = name + _label_suffix(labels)
        cell = self._histograms.get(key)
        if cell is None:
            cell = self._histograms[key] = Histogram(bounds)
        return cell

    # -- absorbing per-object counters and other registries ----------------

    def register_source(self, prefix: str, source: Any, **labels: Any) -> None:
        """Read an existing stats object under ``prefix.``.

        ``source`` is anything with ``as_dict() -> dict[str, number]``
        (:class:`repro.sim.monitor.Counter` included).  Nothing is copied
        now: the source is read when flattened, so the owning hot paths
        are untouched.
        """
        if not hasattr(source, "as_dict"):
            raise TypeError(f"metrics source {source!r} has no as_dict()")
        self._sources.append((prefix, _label_suffix(labels), source))

    def include(self, registry: "MetricsRegistry") -> None:
        """Fold ``registry`` into every read of this one (nothing copied)."""
        self._included.append(registry)

    # -- the one read walk -------------------------------------------------

    def flatten(
        self,
    ) -> tuple[dict[str, int | float], dict[str, float], dict[str, Histogram]]:
        """``(counters, gauges, histogram cells)``, sources and included
        registries folded in.

        Source values are counters by construction
        (:class:`repro.sim.monitor.Counter`); a non-numeric source value
        is skipped, a float source value lands with the gauges.  The
        histogram dict holds the *live* cells — snapshot them via
        :meth:`Histogram.state` before letting go of the registry.
        Folded registries are host units whose labels keep their keys
        disjoint.
        """
        counters: dict[str, int | float] = {}
        gauges: dict[str, float] = {}
        cells: dict[str, Histogram] = {}
        self._fold_into(counters, gauges, cells)
        return counters, gauges, cells

    def _fold_into(
        self,
        counters: dict[str, int | float],
        gauges: dict[str, float],
        cells: dict[str, Histogram],
    ) -> None:
        for registry in self._included:
            registry._fold_into(counters, gauges, cells)
        for prefix, suffix, source in self._sources:
            for name, value in source.as_dict().items():
                key = f"{prefix}.{name}{suffix}"
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                if isinstance(value, float):
                    gauges[key] = value
                else:
                    counters[key] = counters.get(key, 0) + value
        for key, value in self._counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, gauge in self._gauges.items():
            gauges[key] = gauge.value
        cells.update(self._histograms)

    # -- output ------------------------------------------------------------

    def scrape(self) -> dict[str, Any]:
        """Everything, flattened: ``{"name{labels}": value-or-summary}``."""
        counters, gauges, cells = self.flatten()
        out: dict[str, Any] = {**counters, **gauges}
        for key, hist in cells.items():
            out[key] = hist.summary()
        return out

    def render_text(self) -> str:
        """Sorted ``key value`` lines (histograms one line per stat)."""
        return render_scrape(self.scrape())


def render_scrape(scrape: Mapping[str, Any]) -> str:
    """Render any flattened scrape dict as sorted ``key value`` lines.

    Shared by :meth:`MetricsRegistry.render_text` and the offline
    ``python -m repro telemetry print`` CLI, so a scrape saved to disk
    pretty-prints identically to a live one.
    """
    lines: list[str] = []
    for key, value in sorted(scrape.items()):
        if isinstance(value, dict):
            for stat, v in value.items():
                if isinstance(v, (int, float)):
                    lines.append(f"{key}.{stat} {v:g}")
                else:  # pragma: no cover - foreign summary entries
                    lines.append(f"{key}.{stat} {v}")
        elif isinstance(value, float):
            lines.append(f"{key} {value:g}")
        else:
            lines.append(f"{key} {value}")
    return "\n".join(lines) + ("\n" if lines else "")
