"""Parent control commands over children (section 4)."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.transfer import AgentImage
from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.obs.slo import healed_conservation_residual
from repro.server.testbed import Testbed


@register_trusted_agent_class
class SleepyChild(Agent):
    def run(self):
        self.host.sleep(10_000.0)
        self.complete()


def child_image(bed, creator_local: str, child_local: str):
    creds = Credentials.issue(
        agent=URN.parse(f"urn:agent:umn.edu/owner/{child_local}"),
        owner=bed.owner,
        creator=URN.parse(f"urn:agent:umn.edu/owner/{creator_local}"),
        owner_keys=bed.owner_keys,
        owner_certificate=bed.owner_certificate,
        rights=Rights.all(),
        now=bed.clock.now(),
        lifetime=1e6,
    )
    return AgentImage(
        name=creds.agent,
        credentials=DelegatedCredentials.wrap(creds),
        class_name="SleepyChild",
        source="",
        state={},
        entry_method="run",
        home_site=bed.home.name,
    )


@register_trusted_agent_class
class SupervisingParent(Agent):
    def __init__(self) -> None:
        self.child_image = None
        self.timeline = []

    def run(self):
        self.host.launch_child(self.child_image)
        self.timeline.append(self.host.agent_status(self.child_image.name)["status"])
        self.host.sleep(5.0)
        killed = self.host.terminate_child(self.child_image.name)
        self.timeline.append(("killed", killed))
        self.timeline.append(self.host.agent_status(self.child_image.name)["status"])
        self.host.report_home({"timeline": self.timeline})
        self.complete()


def test_creator_can_terminate_its_child():
    bed = Testbed(2)
    parent = SupervisingParent()
    parent.child_image = child_image(bed, "parent-1", "child-k1")
    bed.launch(parent, Rights.all(), at=bed.servers[1], agent_local="parent-1")
    bed.run(detect_deadlock=False)
    timeline = bed.servers[1].reports[-1]["payload"]["timeline"]
    assert timeline == ["running", ("killed", True), "terminated"]
    assert bed.servers[1].stats["agents_terminated_by_creator"] == 1
    assert bed.clock.now() < 10_000.0  # the child never finished its nap
    # The audited removal balances the books: nothing reads as lost.
    assert healed_conservation_residual(bed.servers)() == 0


def test_non_creator_cannot_terminate():
    @register_trusted_agent_class
    class Assassin(Agent):
        def __init__(self) -> None:
            self.target = ""

        def run(self):
            try:
                self.host.terminate_child(self.target)
                outcome = "killed"
            except Exception as exc:  # noqa: BLE001
                outcome = f"denied: {exc}"
            self.host.report_home({"outcome": outcome})
            self.complete()

    bed = Testbed(2)
    victim_image = child_image(bed, "legit-parent", "child-k2")
    bed.servers[1].launch(victim_image)
    assassin = Assassin()
    assassin.target = str(victim_image.name)
    bed.launch(assassin, Rights.all(), at=bed.servers[1],
               agent_local="assassin")
    bed.run(until=100.0, detect_deadlock=False)
    outcome = bed.servers[1].reports[-1]["payload"]["outcome"]
    assert outcome.startswith("denied")
    assert bed.servers[1].resident_status(victim_image.name)["status"] == "running"
    denial = bed.servers[1].audit.records(
        operation="agent.terminate_child", allowed=False
    )
    assert denial
