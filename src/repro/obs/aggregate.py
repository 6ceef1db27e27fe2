"""Federated metrics: per-host telemetry units and the cluster collector.

The testbed's :class:`~repro.obs.metrics.MetricsRegistry` sees one
process: it folds every host's registry into a single omniscient view.
A federation of thousands of servers has no such view: each host only
knows its own numbers.  This module closes the gap the way Prometheus
federation does:

* every host owns a :class:`TelemetryUnit` — a local registry plus the
  host's identifying labels — and serves *cumulative* snapshots of it
  over the authenticated ``telemetry.scrape`` secure-channel op;
* a :class:`TelemetryCollector` pulls those snapshots in synchronous
  scrape rounds (:meth:`TelemetryCollector.scrape_round`, run from a
  simulated thread) and materializes one cluster-level registry.

Counters travel **cumulative** on the wire and the collector computes
deltas against the last value it saw per target.  Serving deltas would
lose increments whenever a scrape reply is dropped; cumulative values
make the scrape idempotent — the final successful scrape alone yields
exact totals, which is what the O1 bench's conservation check pins.  A
counter observed *below* its last-seen value means the source restarted
(``crash()``/``restart()`` zeroes nothing here, but a fresh process
would): the full observed value is taken as the delta.  Histograms
federate the same way, bucket-wise (log-spaced bounds are identical
across hosts by construction), so quantile mass is preserved under
merge.  Gauges are instantaneous: newest scrape wins.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ReproError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.monitor import Counter
from repro.util.serialization import decode, encode

__all__ = [
    "TELEMETRY_APP_KIND",
    "MetricSnapshot",
    "TelemetryUnit",
    "TelemetryCollector",
    "snapshot_delta",
]

# The secure-channel application kind every telemetry-serving host binds.
TELEMETRY_APP_KIND = "telemetry.scrape"


def _finite(value: float) -> float:
    """JSON-safe float (inf/nan from empty histograms -> 0.0)."""
    return value if math.isfinite(value) else 0.0


class MetricSnapshot:
    """One host's metrics at one instant, in mergeable form.

    ``counters``/``gauges`` are flat ``name{labels}`` -> value maps;
    ``histograms`` maps the same keys to :meth:`Histogram.state` dicts.
    Everything is plain ``dict``/``list``/scalars, so a snapshot crosses
    the wire with :func:`repro.util.serialization.encode` and lands in a
    JSON file unchanged (the ``python -m repro telemetry`` CLI).
    """

    __slots__ = ("origin", "captured_at", "counters", "gauges", "histograms")

    def __init__(
        self,
        origin: str,
        captured_at: float,
        counters: dict[str, int | float],
        gauges: dict[str, float],
        histograms: dict[str, dict[str, Any]],
    ) -> None:
        self.origin = origin
        self.captured_at = captured_at
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    @classmethod
    def of(
        cls, registry: MetricsRegistry, origin: str, at: float
    ) -> "MetricSnapshot":
        """Capture ``registry`` (sources folded in, histograms copied)."""
        counters, gauges, cells = registry.flatten()
        return cls(
            origin=origin,
            captured_at=at,
            counters=counters,
            gauges=gauges,
            histograms={key: hist.state() for key, hist in cells.items()},
        )

    # -- wire / file formats -----------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {
            "origin": self.origin,
            "captured_at": self.captured_at,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "MetricSnapshot":
        return cls(
            origin=str(wire["origin"]),
            captured_at=float(wire["captured_at"]),
            counters=dict(wire["counters"]),
            gauges=dict(wire["gauges"]),
            histograms={k: dict(v) for k, v in wire["histograms"].items()},
        )

    def to_json(self) -> str:
        wire = self.to_wire()
        # Empty histograms carry min=inf/max=-inf; strict JSON has no
        # Infinity, so clamp (merge() recomputes extrema from counts=0).
        for state in wire["histograms"].values():
            state["min"] = _finite(state["min"])
            state["max"] = _finite(state["max"])
        return json.dumps(wire, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MetricSnapshot":
        snap = cls.from_wire(json.loads(text))
        for state in snap.histograms.values():
            if state["count"] == 0:
                state["min"] = math.inf
                state["max"] = -math.inf
        return snap

    # -- views --------------------------------------------------------------

    def scrape(self) -> dict[str, Any]:
        """Flatten like :meth:`MetricsRegistry.scrape` (for rendering)."""
        out: dict[str, Any] = {}
        out.update(self.counters)
        out.update(self.gauges)
        for key, state in self.histograms.items():
            out[key] = Histogram.from_state(state).summary()
        return out

def snapshot_delta(old: MetricSnapshot, new: MetricSnapshot) -> dict[str, Any]:
    """What changed between two snapshots of the *same* origin.

    Counters diff with restart handling (observed < old => the source
    restarted; the full new value is the delta).  Gauges report the new
    value alongside the change.  Histograms diff bucket-wise.  Keys that
    did not change are omitted — the CLI's ``telemetry diff`` shows only
    movement.
    """
    out: dict[str, Any] = {}
    for key in sorted(set(old.counters) | set(new.counters)):
        was = old.counters.get(key, 0)
        now = new.counters.get(key, 0)
        delta = now - was if now >= was else now
        if delta:
            out[key] = delta
    for key in sorted(set(old.gauges) | set(new.gauges)):
        was = old.gauges.get(key, 0.0)
        now = new.gauges.get(key, 0.0)
        if now != was:
            out[key] = {"was": was, "now": now}
    for key in sorted(set(old.histograms) | set(new.histograms)):
        was_state = old.histograms.get(key)
        now_state = new.histograms.get(key)
        if now_state is None:
            continue
        was_count = was_state["count"] if was_state is not None else 0
        delta = now_state["count"] - was_count
        if delta < 0:  # restarted source
            delta = now_state["count"]
        if delta:
            out[key] = {"observations": delta}
    return out


class TelemetryUnit:
    """One host's local metrics namespace, served over the secure channel.

    The one place a host's counters are registered: lazy
    ``register_source`` absorption (zero per-increment cost on the
    owning hot paths), scoped to one host and stamped with that host's
    identifying labels (``server=``, or ``node=``/``shard=`` for
    directory replicas).  The testbed's omniscient view folds this
    ``registry``; a collector pulls it.  ``bind`` installs the
    ``telemetry.scrape`` responder; serving a scrape is a read-only
    flatten, safe to run in the secure host's dispatch context.
    """

    def __init__(self, origin: str, clock: Any, **labels: Any) -> None:
        self.origin = origin
        self.clock = clock
        self.labels = dict(labels)
        self.registry = MetricsRegistry()

    # -- instrumentation surface (host-label stamped) -----------------------

    def _merged(self, labels: dict[str, Any]) -> dict[str, Any]:
        if not labels:
            return self.labels
        merged = dict(self.labels)
        merged.update(labels)
        return merged

    def register_source(self, prefix: str, source: Any, **labels: Any) -> None:
        self.registry.register_source(prefix, source, **self._merged(labels))

    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        self.registry.inc(name, amount, **self._merged(labels))

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None, **labels: Any
    ):
        return self.registry.gauge(name, fn, **self._merged(labels))

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None, **labels: Any
    ) -> Histogram:
        return self.registry.histogram(name, bounds, **self._merged(labels))

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name, **labels).observe(value)

    # -- serving ------------------------------------------------------------

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot.of(self.registry, self.origin, self.clock.now())

    def serve(self, peer: str, body: bytes) -> bytes:
        """The ``telemetry.scrape`` app handler (request body is ignored)."""
        return encode(self.snapshot().to_wire())

    def bind(self, secure_host: Any) -> None:
        secure_host.bind_app(TELEMETRY_APP_KIND, self.serve)


class TelemetryCollector:
    """Pulls host snapshots into one cluster-level registry.

    Runs on (or beside) one host, using that host's authenticated
    :class:`~repro.net.secure_channel.SecureHost` to reach every scrape
    target — telemetry rides the same mutually authenticated channels as
    agent transfers, so a host that cannot join the cluster cannot feed
    it metrics either.

    Scrape rounds must run in a simulated thread (``connect``/``call``
    block).  Absorption is delta-based per target (see the module
    docstring), so any number of repeated or failed rounds converge to
    exact totals.
    """

    def __init__(
        self,
        via: Any,
        targets: Iterable[str] = (),
        *,
        local: TelemetryUnit | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.via = via  # SecureHost
        self.kernel = via.kernel
        self.targets: list[str] = list(targets)
        self.local = local
        self.timeout = timeout
        self.cluster = MetricsRegistry()
        self.stats = Counter()
        self.last_snapshots: dict[str, MetricSnapshot] = {}
        # Per-target last-seen cumulative values (delta baselines).
        self._last_counters: dict[str, dict[str, int | float]] = {}
        self._last_hist_counts: dict[str, dict[str, list[int]]] = {}

    # -- scraping (simulated-thread context) ---------------------------------

    def scrape_round(self) -> int:
        """Scrape every target once; returns how many answered.

        The via host is scraped *last*: its own counters move while the
        round runs (channel opens, rpc traffic), so snapshotting it
        after the remote pulls keeps a single settled-world round exact.
        """
        ok = 0
        ordered = sorted(
            self.targets,
            key=lambda t: self.local is not None and t == self.via.name,
        )
        for target in ordered:
            if self.scrape_one(target):
                ok += 1
        self.stats.add("rounds")
        return ok

    def scrape_one(self, target: str) -> bool:
        if self.local is not None and target == self.via.name:
            # Self-scrape: no network link to self exists; absorb the
            # local unit's snapshot directly.
            self.absorb(self.local.snapshot(), target)
            self.stats.add("scrapes_ok")
            return True
        t0 = self.kernel.now()
        try:
            channel = self.via.connect(target, timeout=self.timeout)
            raw = channel.call(TELEMETRY_APP_KIND, b"", timeout=self.timeout)
            snapshot = MetricSnapshot.from_wire(decode(raw))
        except ReproError:
            self.stats.add("scrapes_failed")
            return False
        elapsed = self.kernel.now() - t0
        self.absorb(snapshot, target)
        # Virtual nanoseconds, so scrape latency lands inside the
        # ns-tuned default log buckets.
        self.cluster.histogram("telemetry.scrape_latency_ns").observe(
            elapsed * 1e9
        )
        self.stats.add("scrapes_ok")
        return True

    # -- absorption (kernel- or thread-context; pure computation) ------------

    def absorb(self, snapshot: MetricSnapshot, source_key: str | None = None) -> None:
        """Fold one cumulative snapshot into the cluster registry.

        ``source_key`` identifies the delta baseline (defaults to the
        snapshot's origin).
        """
        key = source_key if source_key is not None else snapshot.origin
        last = self._last_counters.setdefault(key, {})
        for name, value in snapshot.counters.items():
            seen = last.get(name, 0)
            delta = value - seen if value >= seen else value
            last[name] = value
            # Materialize the key even at delta 0 so a federated scrape
            # carries the same (possibly zero-valued) keys as an
            # omniscient one.
            self.cluster.inc(name, delta)
        for name, value in snapshot.gauges.items():
            self.cluster.gauge(name).set(value)
        last_hists = self._last_hist_counts.setdefault(key, {})
        for name, state in snapshot.histograms.items():
            observed = Histogram.from_state(state)
            seen_counts = last_hists.get(name)
            if seen_counts is not None and all(
                c >= s for c, s in zip(observed.counts, seen_counts)
            ):
                delta_counts = [
                    c - s for c, s in zip(observed.counts, seen_counts)
                ]
            else:  # first sight, or a restarted source
                delta_counts = list(observed.counts)
            last_hists[name] = list(observed.counts)
            n = sum(delta_counts)
            if n == 0:
                continue
            cell = self.cluster.histogram(name, bounds=observed.bounds)
            delta = Histogram.from_state(
                {
                    "bounds": list(observed.bounds),
                    "counts": delta_counts,
                    "count": n,
                    # Cumulative totals diff like counters; extrema fold
                    # in monotonically (cluster min/max are historical).
                    "total": observed.total
                    - (self._hist_total(key, name, observed.total)),
                    "min": observed.min,
                    "max": observed.max,
                }
            )
            cell.merge(delta)
        self.last_snapshots[key] = snapshot

    def _hist_total(self, key: str, name: str, observed_total: float) -> float:
        prior = self.last_snapshots.get(key)
        if prior is None:
            return 0.0
        state = prior.histograms.get(name)
        if state is None:
            return 0.0
        prior_total = float(state["total"])
        prior_counts = self._last_hist_counts.get(key, {}).get(name)
        if prior_counts is None:
            return 0.0
        return prior_total if prior_total <= observed_total else 0.0

    # -- output ---------------------------------------------------------------

    def scrape(self) -> dict[str, Any]:
        """The materialized cluster view, flattened."""
        return self.cluster.scrape()

    def cluster_snapshot(self) -> MetricSnapshot:
        return MetricSnapshot.of(
            self.cluster, f"cluster:{self.via.name}", self.kernel.now()
        )

