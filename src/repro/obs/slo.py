"""Service-level objectives and conservation-law watchdogs.

Benchmarks kept re-deriving the same judgments by hand: "was
availability ≥ 99.9% through the partition window?", "is p99 invoke
latency still bounded?", "does ``hosted − transfers_out ==
completions`` hold?".  This module promotes them into reusable runtime
objects:

* **windowed objectives** — :class:`AvailabilityObjective` (good/total
  ratio over a sliding virtual-time window), :class:`LatencyObjective`
  (histogram quantile against a threshold) and
  :class:`GoodputObjective` (event rate floor), each reporting a **burn
  rate**: how fast the error budget is being consumed (1.0 = exactly on
  target; above 1.0 the objective will be violated if the trend holds);
* **invariant objectives** — conservation laws as residual functions
  whose only acceptable value is zero (``hosted − out == completions``,
  ``replica divergence == 0``, ``audit drops == 0``); any nonzero
  residual is a violation *now*, not a trend;
* an :class:`SLOMonitor` that owns a set of objectives, evaluates them
  on demand or on a periodic daemon sweep (:meth:`watch`), keeps a
  violation history, and turns into a metrics source
  (``slo.sweeps``/``slo.violations``) for the telemetry plane.

Invariants of the ``hosted − out == completions`` kind are *quiescence*
laws — mid-flight agents make the residual legitimately positive — so
benches assert them after ``kernel.run()`` drains; continuously valid
watchdogs (audit drops, replica divergence) are safe on a live sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.errors import ReproError
from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel, RepeatingEvent

__all__ = [
    "SLOStatus",
    "AvailabilityObjective",
    "LatencyObjective",
    "GoodputObjective",
    "InvariantObjective",
    "SLOMonitor",
    "agent_conservation_residual",
    "healed_conservation_residual",
    "FORCIBLE_REMOVAL_COUNTERS",
    "replica_divergence_residual",
    "audit_drop_residual",
]


class SLOStatus(NamedTuple):
    """One objective's verdict at one instant."""

    name: str
    kind: str  # "availability" | "latency" | "goodput" | "invariant"
    ok: bool
    value: float
    target: float
    burn_rate: float
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - human formatting
        verdict = "OK  " if self.ok else "VIOL"
        return (
            f"[{verdict}] {self.kind:12s} {self.name}: value={self.value:g}"
            f" target={self.target:g} burn={self.burn_rate:g} {self.detail}"
        )


class _Windowed:
    """Shared sliding-window event store: (time, payload) pairs."""

    def __init__(self, clock: Any, window: float) -> None:
        if window <= 0:
            raise ReproError(f"SLO window must be positive: {window}")
        self.clock = clock
        self.window = window
        self._events: list[tuple[float, Any]] = []

    def _push(self, payload: Any) -> None:
        self._events.append((self.clock.now(), payload))

    def _prune(self) -> list[tuple[float, Any]]:
        horizon = self.clock.now() - self.window
        # Events are appended in time order (virtual clocks never run
        # backward), so a single slice keeps this O(expired).
        i = 0
        events = self._events
        while i < len(events) and events[i][0] < horizon:
            i += 1
        if i:
            del events[:i]
        return events


class AvailabilityObjective(_Windowed):
    """good/total ratio over the window must stay ≥ ``target``.

    With no events in the window the objective reports healthy (an idle
    service is not failing).  Burn rate is error-budget consumption:
    ``(1 - value) / (1 - target)`` — e.g. 99.0% observed against a
    99.9% target burns 10× budget.
    """

    kind = "availability"

    def __init__(
        self, name: str, clock: Any, *, target: float = 0.999,
        window: float = 60.0,
    ) -> None:
        if not 0.0 < target <= 1.0:
            raise ReproError(f"availability target must be in (0, 1]: {target}")
        super().__init__(clock, window)
        self.name = name
        self.target = target

    def record(self, good: bool, count: int = 1) -> None:
        self._push((bool(good), count))

    def evaluate(self) -> SLOStatus:
        events = self._prune()
        total = sum(n for _, (_, n) in events)
        good = sum(n for _, (g, n) in events if g)
        value = good / total if total else 1.0
        budget = 1.0 - self.target
        consumed = 1.0 - value
        if consumed <= 0:
            burn = 0.0
        elif budget <= 0:
            burn = float("inf")
        else:
            burn = consumed / budget
        return SLOStatus(
            self.name, self.kind, value >= self.target, value, self.target,
            burn, f"{good}/{total} good in {self.window:g}s",
        )


class LatencyObjective:
    """A histogram quantile must stay ≤ ``threshold``.

    ``histogram`` is a live :class:`~repro.obs.metrics.Histogram` cell
    (cumulative — the window is the histogram's own lifetime) or a
    zero-argument callable returning one (to read a fresh cell each
    sweep, e.g. out of the collector's cluster registry).  No data means
    healthy.  Burn rate is ``observed / threshold``.
    """

    kind = "latency"

    def __init__(
        self,
        name: str,
        histogram: "Histogram | Callable[[], Histogram | None]",
        *,
        threshold: float,
        quantile: float = 0.99,
    ) -> None:
        if threshold <= 0:
            raise ReproError(f"latency threshold must be positive: {threshold}")
        self.name = name
        self._histogram = histogram
        self.threshold = threshold
        self.quantile = quantile

    def evaluate(self) -> SLOStatus:
        hist = self._histogram() if callable(self._histogram) else self._histogram
        if hist is None or hist.count == 0:
            return SLOStatus(
                self.name, self.kind, True, 0.0, self.threshold, 0.0,
                "no observations",
            )
        value = hist.quantile(self.quantile)
        return SLOStatus(
            self.name, self.kind, value <= self.threshold, value,
            self.threshold, value / self.threshold,
            f"p{int(self.quantile * 100)} of {hist.count} observations",
        )


class GoodputObjective(_Windowed):
    """Completed work per second over the window must stay ≥ ``target``.

    Burn rate inverts the ratio (target/value): starvation burns hot.
    The objective only arms once it has seen its first event, so a
    world that has not started yet is not "violating goodput".
    """

    kind = "goodput"

    def __init__(
        self, name: str, clock: Any, *, target: float, window: float = 60.0
    ) -> None:
        if target <= 0:
            raise ReproError(f"goodput target must be positive: {target}")
        super().__init__(clock, window)
        self.name = name
        self.target = target
        self._armed = False

    def record(self, count: int = 1) -> None:
        self._armed = True
        self._push(count)

    def evaluate(self) -> SLOStatus:
        events = self._prune()
        if not self._armed:
            return SLOStatus(
                self.name, self.kind, True, 0.0, self.target, 0.0, "not armed"
            )
        rate = sum(n for _, n in events) / self.window
        burn = self.target / rate if rate > 0 else float("inf")
        return SLOStatus(
            self.name, self.kind, rate >= self.target, rate, self.target,
            burn, f"{len(events)} batches in {self.window:g}s",
        )


class InvariantObjective:
    """A conservation law: the residual function must return zero."""

    kind = "invariant"

    def __init__(
        self, name: str, residual: Callable[[], float], detail: str = ""
    ) -> None:
        self.name = name
        self.residual = residual
        self.detail = detail

    def evaluate(self) -> SLOStatus:
        value = float(self.residual())
        return SLOStatus(
            self.name, self.kind, value == 0.0, value, 0.0, abs(value),
            self.detail,
        )


class SLOMonitor:
    """A set of objectives, evaluated on demand or on a daemon sweep."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.objectives: list[Any] = []
        # (virtual time, SLOStatus) for every violation a sweep saw.
        self.violation_history: list[tuple[float, SLOStatus]] = []
        self.sweeps = 0
        self._ticker: "RepeatingEvent | None" = None

    # -- building ------------------------------------------------------------

    def add(self, objective: Any) -> Any:
        self.objectives.append(objective)
        return objective

    def add_availability(
        self, name: str, *, target: float = 0.999, window: float = 60.0
    ) -> AvailabilityObjective:
        return self.add(
            AvailabilityObjective(name, self.clock, target=target, window=window)
        )

    def add_latency(
        self,
        name: str,
        histogram: "Histogram | Callable[[], Histogram | None]",
        *,
        threshold: float,
        quantile: float = 0.99,
    ) -> LatencyObjective:
        return self.add(
            LatencyObjective(
                name, histogram, threshold=threshold, quantile=quantile
            )
        )

    def add_goodput(
        self, name: str, *, target: float, window: float = 60.0
    ) -> GoodputObjective:
        return self.add(
            GoodputObjective(name, self.clock, target=target, window=window)
        )

    def add_invariant(
        self, name: str, residual: Callable[[], float], detail: str = ""
    ) -> InvariantObjective:
        return self.add(InvariantObjective(name, residual, detail))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self) -> list[SLOStatus]:
        return [objective.evaluate() for objective in self.objectives]

    def violations(self) -> list[SLOStatus]:
        return [status for status in self.evaluate() if not status.ok]

    def ok(self) -> bool:
        return not self.violations()

    def assert_ok(self) -> None:
        """Raise :class:`AssertionError` naming every violated objective."""
        bad = self.violations()
        if bad:
            lines = "\n  ".join(str(status) for status in bad)
            raise AssertionError(f"{len(bad)} SLO violation(s):\n  {lines}")

    def render(self) -> str:
        """Every objective's verdict, one line each."""
        lines = [str(status) for status in self.evaluate()]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- the watchdog sweep ---------------------------------------------------

    def watch(self, kernel: "Kernel", period: float = 5.0) -> "RepeatingEvent":
        """Evaluate every objective each ``period`` virtual seconds.

        Daemon tick: the watchdog never keeps the world alive.
        Violations accumulate in :attr:`violation_history` with their
        virtual timestamps, so a post-run assertion can say not just
        *that* an objective broke but *when*.
        """
        if self._ticker is not None and not self._ticker.cancelled:
            raise ReproError("monitor is already watching")
        self._ticker = kernel.every(period, self._sweep, daemon=True)
        return self._ticker

    def unwatch(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def _sweep(self) -> None:
        self.sweeps += 1
        now = self.clock.now()
        for status in self.evaluate():
            if not status.ok:
                self.violation_history.append((now, status))

    def tripped(self, name: str | None = None) -> bool:
        """Did any sweep (or one named objective) ever record a violation?"""
        if name is None:
            return bool(self.violation_history)
        return any(status.name == name for _, status in self.violation_history)

    # -- metrics-source protocol ----------------------------------------------

    def as_dict(self) -> dict[str, int]:
        """Registerable as a metrics source (``register_source("slo", m)``)."""
        return {
            "objectives": len(self.objectives),
            "sweeps": self.sweeps,
            "violations_seen": len(self.violation_history),
        }


# ---------------------------------------------------------------------------
# Conservation residuals (the laws the benches kept re-deriving)
# ---------------------------------------------------------------------------


def agent_conservation_residual(servers: Iterable[Any]) -> Callable[[], int]:
    """``hosted − transfers_out − completions − residents`` over a fleet.

    A true any-time law: every admission is either still resident,
    departed onward, or completed — so a watchdog can sweep a *busy*
    world without tripping on agents that are merely mid-tour (at
    quiescence ``residents`` is zero and this reduces to the familiar
    hosted == out + completed).  Forcible terminations (security kills,
    lifetime limits, crashes) legitimately leave a positive residual —
    add their counters to the expectation in scenarios that use them.
    """
    fleet = list(servers)

    def residual() -> int:
        hosted = sum(s.stats["agents_hosted"] for s in fleet)
        out = sum(s.stats["transfers_out"] for s in fleet)
        completed = sum(s.stats["agents_completed"] for s in fleet)
        resident = sum(s.current_residents() for s in fleet)
        return hosted - out - completed - resident

    return residual


# Every counter that records a forcible removal of a resident: the
# server popped the thread without a matching departure or completion.
FORCIBLE_REMOVAL_COUNTERS = (
    "agents_killed_crash",
    "agents_killed_drain",
    "agents_killed_lifetime",
    "agents_killed_runaway",
    "agents_killed_security",
    "agents_terminated_by_creator",
    "agents_terminated_by_owner",
    "agents_terminated_transfer",
    "agents_failed",
    "agents_failed_materialize",
)


def healed_conservation_residual(servers: Iterable[Any]) -> Callable[[], int]:
    """The conservation law with forcible removals accounted for.

    The base residual counts +1 for every resident a server forcibly
    removed (crash, drain, lifetime, runaway, security, owner or creator
    command, transfer exhaustion, agent bug): the admission was counted
    but no departure or completion ever balances it.  Each such removal also bumps
    exactly one kill counter, and every self-healing relaunch (re-home
    at a survivor, re-home at home, drain fallback) is a fresh
    ``agents_hosted`` admission balanced by its own eventual outcome —
    so ``base residual − Σ kill counters`` is identically zero for a
    correctly accounting fleet, *through* crashes, drains and re-homing.
    A positive value means an agent evaporated without its removal being
    recorded; a negative one means double accounting (e.g. the same
    agent admitted twice for one handoff).
    """
    fleet = list(servers)
    base = agent_conservation_residual(fleet)

    def residual() -> int:
        removed = sum(
            s.stats[counter]
            for s in fleet
            for counter in FORCIBLE_REMOVAL_COUNTERS
        )
        return base() - removed

    return residual


def replica_divergence_residual(oracle: Any) -> Callable[[], int]:
    """``len(oracle.divergences())`` — zero once anti-entropy converged."""

    def residual() -> int:
        return len(oracle.divergences())

    return residual


def audit_drop_residual(servers: Iterable[Any]) -> Callable[[], int]:
    """Total audit-log evictions across the fleet — zero means the ring
    buffers are keeping up and no security decision went unrecorded."""
    fleet = list(servers)

    def residual() -> int:
        return sum(s.audit.dropped for s in fleet)

    return residual
