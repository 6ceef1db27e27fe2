"""Conservation-law watchdogs: invariants whose only healthy value is zero.

Benchmarks and campaigns kept re-deriving the same judgments by hand:
"does ``hosted − transfers_out == completions`` hold?", "did an audit
ring buffer drop a security decision?", "do the directory replicas
agree?".  This module promotes them into reusable runtime objects:

* :class:`InvariantObjective` — a conservation law as a residual
  function whose only acceptable value is zero (``hosted − out ==
  completions``, ``replica divergence == 0``, ``audit drops == 0``); any
  nonzero residual is a violation *now*;
* an :class:`SLOMonitor` that owns a set of invariants, evaluates them
  on demand or on a periodic daemon sweep (:meth:`SLOMonitor.watch`)
  and keeps a violation history;
* the ``*_residual`` factories that build the laws over a fleet.

Invariants of the ``hosted − out == completions`` kind are *quiescence*
laws — mid-flight agents make the residual legitimately positive — so
benches assert them after ``kernel.run()`` drains; continuously valid
watchdogs (audit drops, replica divergence) are safe on a live sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel, RepeatingEvent

__all__ = [
    "SLOStatus",
    "InvariantObjective",
    "SLOMonitor",
    "agent_conservation_residual",
    "healed_conservation_residual",
    "FORCIBLE_REMOVAL_COUNTERS",
    "replica_divergence_residual",
    "audit_drop_residual",
]


class SLOStatus(NamedTuple):
    """One invariant's verdict at one instant."""

    name: str
    ok: bool
    value: float
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - human formatting
        verdict = "OK  " if self.ok else "VIOL"
        return f"[{verdict}] {self.name}: residual={self.value:g} {self.detail}"


class InvariantObjective:
    """A conservation law: the residual function must return zero."""

    def __init__(
        self, name: str, residual: Callable[[], float], detail: str = ""
    ) -> None:
        self.name = name
        self.residual = residual
        self.detail = detail

    def evaluate(self) -> SLOStatus:
        value = float(self.residual())
        return SLOStatus(self.name, value == 0.0, value, self.detail)


class SLOMonitor:
    """A set of invariants, evaluated on demand or on a daemon sweep."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.objectives: list[InvariantObjective] = []
        # (virtual time, SLOStatus) for every violation a sweep saw.
        self.violation_history: list[tuple[float, SLOStatus]] = []
        self.sweeps = 0
        self._ticker: "RepeatingEvent | None" = None

    def add_invariant(
        self, name: str, residual: Callable[[], float], detail: str = ""
    ) -> InvariantObjective:
        objective = InvariantObjective(name, residual, detail)
        self.objectives.append(objective)
        return objective

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
    lifetime limits, crashes) legitimately leave a positive residual;
    :func:`healed_conservation_residual` nets them out.
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
