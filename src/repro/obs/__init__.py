"""repro.obs — the flight recorder: tracing, metrics, post-mortem queries.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — :class:`Tracer` producing causally linked
  spans whose context **propagates across agent migration** (carried in
  ``AgentImage.attributes`` like ``transfer_id``), exported as JSONL or
  Chrome trace-event JSON.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, log-bucket histograms): each host's telemetry unit registers
  its components' ``Counter`` stats behind one labeled namespace, and a
  testbed's world view folds every host's registry.
* :mod:`repro.obs.recorder` — :class:`FlightRecorder`, the query and
  assertion API over a tracer (``trace_of``, ``spans_where``, causal
  order checks, Fig. 6 protocol reconstruction, span-leak checks).

Tracing hooks across the codebase are no-ops until :func:`install`
flips the module-level ``TRACING`` flag in :mod:`repro.obs.runtime`;
the convenient way in is ``Testbed.start_tracing()``.  Metrics need no
switch: counters are always on and read at scrape time.
"""

from repro.obs.aggregate import (
    TELEMETRY_APP_KIND,
    MetricSnapshot,
    TelemetryCollector,
    TelemetryUnit,
    snapshot_delta,
)
from repro.obs.metrics import Histogram, MetricsRegistry, render_scrape
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import (
    PROTOCOL_STEP_NAMES,
    SEGMENT_CATEGORIES,
    FlightRecorder,
)
from repro.obs.runtime import install, uninstall
from repro.obs.slo import (
    InvariantObjective,
    SLOMonitor,
    SLOStatus,
    agent_conservation_residual,
    audit_drop_residual,
    replica_divergence_residual,
)
from repro.obs.trace import Span, SpanContext, Tracer, WallClock


__all__ = [
    "Tracer",
    "Span",
    "SpanContext",
    "WallClock",
    "MetricsRegistry",
    "Histogram",
    "render_scrape",
    "FlightRecorder",
    "PROTOCOL_STEP_NAMES",
    "SEGMENT_CATEGORIES",
    "install",
    "uninstall",
    # federation (repro.obs.aggregate)
    "TELEMETRY_APP_KIND",
    "MetricSnapshot",
    "TelemetryUnit",
    "TelemetryCollector",
    "snapshot_delta",
    # profiling (repro.obs.profiler)
    "SamplingProfiler",
    # conservation-law watchdogs (repro.obs.slo)
    "SLOMonitor",
    "SLOStatus",
    "InvariantObjective",
    "agent_conservation_residual",
    "replica_divergence_residual",
    "audit_drop_residual",
]
