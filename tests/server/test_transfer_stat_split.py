"""The transfer-failure split: breaker fast-fails vs exhausted retries.

``transfers_failed`` used to double as both "every retry failed" and
"the circuit breaker refused to even try", with a second counter
(``transfer_breaker_fastfail``, since removed) bumped alongside it.
Each departure miss now bumps exactly one cause counter
(``transfers_failed_breaker`` or ``transfers_failed_exhausted``) plus
``transfers_failed`` itself, so the total always equals the sum of the
causes while operators can tell the cases apart.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy


@register_trusted_agent_class
class OneHopper(Agent):
    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest:
            dest, self.dest = self.dest, ""
            self.go(dest, "run")
        self.complete()


def hopper_to(dest):
    agent = OneHopper()
    agent.dest = dest
    return agent


@pytest.fixture()
def dead_destination_world():
    """Two servers, the link down, a hair-trigger breaker."""
    bed = Testbed(
        2,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(attempts=2, base_delay=0.5,
                                          jitter=0.0),
            "breaker_failure_threshold": 2,
            "breaker_reset_timeout": 1000.0,
        },
    )
    bed.network.set_link_state(bed.home.name, bed.servers[1].name, False)
    return bed


def test_exhaustion_and_fastfail_hit_separate_counters(dead_destination_world):
    bed = dead_destination_world
    dest = bed.servers[1].name

    # First departure: both attempts time out -> retries exhausted.
    # (Its two failures also open the destination's breaker.)
    a1 = bed.launch(hopper_to(dest), Rights.all(), agent_local="a1")
    bed.run(detect_deadlock=False)
    stats = bed.home.stats
    assert stats["transfers_failed_exhausted"] == 1
    assert stats["transfers_failed_breaker"] == 0
    assert stats["transfers_failed"] == 1  # the sum of the two
    assert bed.home.resident_status(a1.name)["status"] == "terminated"

    # Second departure: the open breaker refuses before any attempt.
    a2 = bed.launch(hopper_to(dest), Rights.all(), agent_local="a2")
    bed.run(detect_deadlock=False)
    assert stats["transfers_failed_exhausted"] == 1
    assert stats["transfers_failed_breaker"] == 1
    assert stats["transfers_failed"] == 2
    assert bed.home.resident_status(a2.name)["status"] == "terminated"


def test_scrape_surfaces_alias_and_parts(dead_destination_world):
    bed = dead_destination_world
    bed.launch(hopper_to(bed.servers[1].name), Rights.all())
    bed.run(detect_deadlock=False)
    scrape = bed.scrape()
    home = bed.home.name
    assert scrape[f"server.transfers_failed{{server={home}}}"] == 1
    assert scrape[f"server.transfers_failed_exhausted{{server={home}}}"] == 1
