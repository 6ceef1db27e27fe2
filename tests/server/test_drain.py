"""Graceful drain: migrate residents out, refuse new work, conserve.

``AgentServer.drain()`` is the planned-maintenance half of the
self-healing plane: it marks the server draining (gossiped in its
heartbeats, typed refusals for new admissions), then migrates every
resident to a load-chosen survivor using the same placement scorer the
crash-recovery path uses.  The agents themselves just keep touring —
a drained hop looks like any other migration to them.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.credentials.rights import Rights
from repro.errors import TransferError
from repro.obs.slo import healed_conservation_residual
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy


@register_trusted_agent_class
class DrainTourist(ItineraryAgent):
    """Dwells at every stop long enough to be caught by a drain."""

    dwell = 30.0

    def __init__(self) -> None:
        super().__init__()
        self.visited: list[str] = []

    def visit(self, stop):
        self.visited.append(self.host.server_name())
        self.host.sleep(self.dwell)

    def finish(self):
        self.host.report_home({"visited": self.visited})
        self.complete({"visited": self.visited})


def bed_of(n=3, seed=61, self_healing=True):
    return Testbed(
        n,
        seed=seed,
        self_healing=self_healing,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=3, base_delay=1.0, jitter=0.0
            ),
        },
    )


def tourist(*stops):
    agent = DrainTourist()
    agent.itinerary = Itinerary.tour(list(stops))
    return agent


def test_drain_migrates_residents_and_they_complete_elsewhere():
    bed = bed_of()
    s0, s1, s2 = bed.servers
    for _ in range(2):
        bed.launch(tourist(s1.name, s2.name), Rights.all())
    # Both tourists are dwelling at s1 when the drain starts.
    bed.kernel.schedule(2.0, s1.drain)
    bed.run(until=300.0, detect_deadlock=False)
    # Migration is an ordinary departure, just server-initiated:
    assert s1.stats["drains"] == 1
    assert s1.stats["drained_out"] == 2
    assert s1.stats["agents_killed_drain"] == 0  # nobody was stranded
    assert s1.stats["drain_failed"] == 0
    assert len(s1._threads) == 0 and len(s1._resident_images) == 0
    # Every tourist finished its tour exactly once, elsewhere.
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 2
    tours = {
        r["agent"]: r["payload"]["visited"]
        for r in s0.reports
        if isinstance(r["payload"], dict) and "visited" in r["payload"]
    }
    assert len(tours) == 2
    # The drain did not lose the dwell at s1: state went with the agent.
    assert all(visited == [s1.name, s2.name] for visited in tours.values())
    assert healed_conservation_residual(bed.servers)() == 0
    drains = s1.audit.records(operation="agent.drain")
    assert len(drains) == 2


def test_draining_server_refuses_new_admissions_typed():
    bed = bed_of(seed=62)
    s0, s1, s2 = bed.servers
    s1.drain()
    bed.run(until=10.0, detect_deadlock=False)
    # Gossiped: peers see the draining flag and stop placing work there.
    assert s0.membership.is_draining(s1.name)
    # A tour routed through the draining server is refused with a typed
    # TransferError; the itinerary driver records the skip and goes on.
    bed.launch(tourist(s1.name, s2.name), Rights.all())
    bed.run(until=200.0, detect_deadlock=False)
    assert s1.stats["transfers_refused_draining"] >= 1
    assert s1.stats["agents_hosted"] == 0
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 1
    report = s0.reports[-1]["payload"]
    assert report["visited"] == [s2.name]
    assert healed_conservation_residual(bed.servers)() == 0


def test_draining_server_refuses_local_launch():
    bed = bed_of(seed=63)
    s1 = bed.servers[1]
    s1.drain()
    with pytest.raises(TransferError, match="draining"):
        bed.launch(tourist(s1.name), Rights.all(), at=s1)


def test_drain_with_no_survivors_relaunches_locally():
    # A lone server has nowhere to send its residents: the drain falls
    # back to killing and relaunching them in place, counted honestly.
    bed = bed_of(n=1, seed=64)
    home = bed.home
    bed.launch(tourist(home.name), Rights.all())
    bed.kernel.schedule(2.0, home.drain)
    bed.run(until=200.0, detect_deadlock=False)
    assert home.stats["drains"] == 1
    assert home.stats["drained_out"] == 0
    assert home.stats["drain_failed"] == 1
    assert home.stats["agents_killed_drain"] == 1
    # The relaunched resident resumed its tour and completed here.
    assert home.stats["agents_completed"] == 1
    assert healed_conservation_residual(bed.servers)() == 0


def test_drain_works_without_the_self_healing_plane():
    # Placement needs no failure detector: the committed itinerary stops
    # are the candidates, in name order.
    bed = bed_of(self_healing=False)
    s0, s1, s2 = bed.servers
    assert s1.membership is None and s1.recovery is None
    for _ in range(2):
        bed.launch(tourist(s1.name, s2.name), Rights.all())
    bed.kernel.schedule(2.0, s1.drain)
    bed.run(until=300.0, detect_deadlock=False)
    assert s1.stats["drained_out"] == 2
    assert s1.stats["agents_killed_drain"] == 0
    assert s1.stats["drain_failed"] == 0
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 2
    assert healed_conservation_residual(bed.servers)() == 0


def _delegation_at(server, agent_name):
    [record] = server.domain_db.records_of(agent_name)
    return [
        (str(link.delegator), link.restriction)
        for link in record.domain.credentials.links
    ]


def test_drain_applies_the_forward_restriction():
    # Section 5.2 subcontracting holds on every route out: a drained
    # agent arrives carrying the draining server's restriction link,
    # exactly as an ordinary departure from that server would.
    restriction = Rights.of("Buffer.get", "Buffer.size")
    links = {}
    for drained in (False, True):
        bed = bed_of()
        s0, s1, s2 = bed.servers
        s1.forward_restriction = restriction
        image = bed.launch(tourist(s1.name, s2.name), Rights.all())
        if drained:
            bed.kernel.schedule(2.0, s1.drain)
        bed.run(until=300.0, detect_deadlock=False)
        assert s1.stats["drained_out"] == int(drained)
        assert sum(s.stats["agents_completed"] for s in bed.servers) == 1
        links[drained] = _delegation_at(s2, image.name)
    assert links[True] == links[False] == [(s1.name, restriction)]
