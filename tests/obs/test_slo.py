"""Conservation-law watchdogs: invariant objectives and the SLO monitor."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.errors import ReproError
from repro.obs.slo import InvariantObjective, SLOMonitor, audit_drop_residual
from repro.server.testbed import Testbed
from repro.sim.kernel import Kernel
from repro.util.clock import VirtualClock


# -- invariants --------------------------------------------------------------


def test_invariant_zero_is_ok_nonzero_trips():
    box = {"residual": 0}
    obj = InvariantObjective("conservation", lambda: box["residual"])
    assert obj.evaluate().ok
    box["residual"] = -3
    status = obj.evaluate()
    assert not status.ok
    assert status.value == -3.0


# -- the monitor -------------------------------------------------------------


def test_monitor_evaluate_violations_and_assert():
    monitor = SLOMonitor(VirtualClock())
    monitor.add_invariant("quiet", lambda: 0)
    box = {"residual": 1}
    monitor.add_invariant("law", lambda: box["residual"], detail="broken law")
    assert not monitor.ok()
    assert [s.name for s in monitor.violations()] == ["law"]
    with pytest.raises(AssertionError, match="law"):
        monitor.assert_ok()
    assert "broken law" in monitor.render()
    box["residual"] = 0
    monitor.assert_ok()
    assert [o.name for o in monitor.objectives] == ["quiet", "law"]


def test_monitor_watch_sweeps_on_daemon_tick():
    kernel = Kernel()
    monitor = SLOMonitor(kernel.clock)
    box = {"residual": 0}
    monitor.add_invariant("law", lambda: box["residual"])
    monitor.watch(kernel, period=1.0)
    with pytest.raises(ReproError):
        monitor.watch(kernel, period=1.0)  # already watching
    kernel.schedule(2.5, lambda: box.update(residual=5))
    kernel.schedule(4.5, lambda: box.update(residual=0))
    kernel.run(until=6.5)
    assert monitor.sweeps == 6
    assert monitor.tripped() and monitor.tripped("law")
    assert not monitor.tripped("other")
    times = [t for t, _ in monitor.violation_history]
    assert times == [3.0, 4.0]  # violated exactly while the residual held
    monitor.unwatch()


# -- the audit saturation watchdog (whole-world) -----------------------------


@register_trusted_agent_class
class _ChattyAgent(Agent):
    """Floods its host's audit log via the always-allowed log() call."""

    def run(self):
        for i in range(self.n):
            self.host.log(f"note {i}")
        self.complete("done")


def test_saturated_audit_log_trips_the_slo_watchdog():
    bed = Testbed(1, seed=31, server_kwargs={"audit_capacity": 32})
    monitor = bed.slo_monitor()
    monitor.watch(bed.kernel, period=0.001)
    agent = _ChattyAgent()
    agent.n = 200
    bed.launch(agent, Rights.none())
    bed.run()
    # The one-server world drains in under one watchdog period; daemon
    # sweeps need an explicit time bound to keep firing (continuous
    # monitoring semantics: the drop counter never resets, so the next
    # sweep catches it whenever it runs).
    bed.run(until=bed.kernel.now() + 0.01)
    assert bed.home.audit.dropped > 0
    assert monitor.tripped("audit_drops")
    # The same signal is a registered metric on the telemetry plane.
    scrape = bed.scrape()
    key = f"audit.dropped{{server={bed.home.name}}}"
    assert scrape[key] == bed.home.audit.dropped
    unit_scrape = bed.home.telemetry.snapshot().counters
    assert unit_scrape[key] == bed.home.audit.dropped
    occupancy = bed.home.audit.as_dict()["occupancy"]
    assert occupancy == pytest.approx(1.0)
    monitor.unwatch()


def test_unsaturated_audit_log_keeps_watchdog_quiet():
    bed = Testbed(1, seed=32)
    monitor = bed.slo_monitor()
    monitor.watch(bed.kernel, period=0.001)
    agent = _ChattyAgent()
    agent.n = 3
    bed.launch(agent, Rights.none())
    bed.run()
    bed.run(until=bed.kernel.now() + 0.01)
    assert bed.home.audit.dropped == 0
    assert not monitor.tripped("audit_drops")
    monitor.unwatch()


def test_agent_conservation_law_holds_at_quiescence():
    bed = Testbed(3, seed=33)

    @register_trusted_agent_class
    class _Hopper(Agent):
        def run(self):
            while self.tour:
                self.go(self.tour.pop(0), "run")
            self.complete("done")

    agent = _Hopper()
    agent.tour = [s.name for s in bed.servers][1:]
    bed.launch(agent, Rights.none())
    bed.run()
    monitor = bed.slo_monitor()
    statuses = {s.name: s for s in monitor.evaluate()}
    assert statuses["agent_conservation"].ok
    assert statuses["audit_drops"].ok


@register_trusted_agent_class
class _Squatter(Agent):
    """Sleeps far past its host's residency limit."""

    def run(self):
        self.host.sleep(10_000.0)
        self.complete("finally")


def test_conservation_law_holds_through_a_lifetime_eviction():
    # A plain world (no self-healing) still removes residents forcibly;
    # the monitor's one conservation law must net the kill out.
    bed = Testbed(1, seed=35, server_kwargs={"resident_lifetime_limit": 60.0})
    bed.launch(_Squatter(), Rights.none())
    bed.run(detect_deadlock=False)
    assert bed.home.stats["agents_killed_lifetime"] == 1
    monitor = bed.slo_monitor()
    assert [o.name for o in monitor.objectives][0] == "agent_conservation"
    monitor.assert_ok()


def test_audit_drop_residual_sums_across_fleet():
    class _Stub:
        class audit:
            dropped = 2

    residual = audit_drop_residual([_Stub(), _Stub()])
    assert residual() == 4
