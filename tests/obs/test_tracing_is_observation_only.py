"""Tracing observes a run; it does not change it.

Every traced operation has one body, and ``repro.obs.runtime.span``
hands it a no-op span when no tracer is installed.  This test pins the
consequence: one seeded, adversarial world run twice — untraced, then
under ``Testbed.start_tracing()`` — ends in the same state.  The world
has six servers, a five-hop tour, a denied ``getProxy``, a loss burst
that forces transfer retries, a ``tamper_state`` host whose forwarded
agent is refused on integrity grounds, and a crash/restart that recovers
a journaled departure.

The one thing tracing does add is the trace context an image carries
from hop to hop (``trace_ctx``, like a ``traceparent`` header).  Those
bytes go on the wire, so on a finite-bandwidth link each traced frame
arrives ``bytes / bandwidth`` later.  The exact comparison therefore
runs on links whose transmission delay does not depend on frame length;
the default-bandwidth run compares everything but the timestamps.

CI runs this under ``REPRO_STRESS_SEED`` = 101/202/303.
"""

from __future__ import annotations

import inspect
import os

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import AccessDeniedError
from repro.naming.urn import URN
from repro.net.faults import tamper_state
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy

SEED = int(os.environ.get("REPRO_STRESS_SEED", "1000"))
MAILBOX = "urn:resource:site2.net/mailbox"
VAULT = "urn:resource:site3.net/vault"
DEFAULT_BANDWIDTH = inspect.signature(Testbed).parameters["bandwidth"].default


@register_trusted_agent_class
class _Prober(Agent):
    """Puts into every buffer it finds, reports home from each stop."""

    def __init__(self) -> None:
        self.hops: list[str] = []
        self.denied = 0

    def run(self):
        here = self.host.server_name()
        for name in (MAILBOX, VAULT):
            if name in self.host.resources_available():
                try:
                    self.host.get_resource(name).put(here)
                except AccessDeniedError:
                    self.denied += 1
        self.host.report_home({"at": here, "denied": self.denied})
        if self.hops:
            self.go(self.hops.pop(0), "run")
        self.complete({"ended_at": here, "denied": self.denied})


def _prober(*hops: str) -> _Prober:
    agent = _Prober()
    agent.hops = list(hops)
    return agent


def _run_world(*, traced: bool, bandwidth: float) -> Testbed:
    bed = Testbed(
        6,
        seed=SEED,
        bandwidth=bandwidth,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=4, base_delay=1.0, jitter=0.25
            ),
        },
    )
    if traced:
        bed.start_tracing()
    s = bed.servers
    names = [server.name for server in s]
    s[2].install_resource(Buffer(
        URN.parse(MAILBOX),
        URN.parse("urn:principal:site2.net/postmaster"),
        SecurityPolicy(rules=[PolicyRule(
            "any", "*", Rights.of("Buffer.*"), rule_id="mailbox-open",
        )]),
        capacity=64,
    ))
    # No rule grants anything: every getProxy on the vault is denied.
    s[3].install_resource(Buffer(
        URN.parse(VAULT),
        URN.parse("urn:principal:site3.net/keeper"),
        SecurityPolicy(rules=[]),
        capacity=4,
    ))
    faults = bed.faults()
    # The tour's first leg is dark for 3s: its transfer retries.
    faults.loss_burst(names[0], names[1], at=0.0, duration=3.0, loss_rate=1.0)
    # s5 doctors the state of every agent it forwards.
    faults.compromise(s[5], tamper_state(poison="s5"), at=0.0)
    # s3 crashes mid-departure to a dark s4 and recovers from its journal.
    faults.loss_burst(names[3], names[4], at=0.0, duration=30.0, loss_rate=1.0)
    faults.crash(s[3], at=2.0, restart_at=20.0)
    rights = Rights.of("Buffer.*")
    bed.launch(_prober(*names[1:]), rights)  # the five-hop tour
    bed.launch(_prober(names[5], names[1]), rights)  # tampered at s5
    bed.launch(_prober(names[4]), rights, at=s[3])  # journaled at s3
    bed.run(detect_deadlock=False)
    if traced:
        bed.stop_tracing()
    return bed


def _audit(bed: Testbed, *, timed: bool) -> dict[str, list[tuple]]:
    return {
        server.name: [
            (r.time if timed else None, r.domain, r.operation, r.target,
             r.allowed, r.detail)
            for r in server.audit
        ]
        for server in bed.servers
    }


def _reports(bed: Testbed, *, timed: bool) -> dict[str, list[dict]]:
    return {
        server.name: [
            report if timed else {**report, "received_at": None}
            for report in server.reports
        ]
        for server in bed.servers
    }


def _stats(bed: Testbed) -> dict[str, dict[str, int]]:
    return {server.name: server.stats.as_dict() for server in bed.servers}


def _assert_world_was_adversarial(bed: Testbed) -> None:
    s = bed.servers
    assert sum(server.stats["transfer_retries"] for server in s) > 0
    assert s[1].stats["transfers_refused_integrity"] == 1
    assert s[3].stats["recoveries_attempted"] == 1
    assert s[3].audit.records(operation="resource.get_proxy", allowed=False)
    assert s[5].stats["agents_completed"] == 1  # the five-hop tour ended


def test_tracing_changes_no_outcome_and_no_timing():
    plain = _run_world(traced=False, bandwidth=float("inf"))
    traced = _run_world(traced=True, bandwidth=float("inf"))
    _assert_world_was_adversarial(plain)
    assert traced.tracer.finished  # tracing really was on
    assert _stats(traced) == _stats(plain)
    assert _audit(traced, timed=True) == _audit(plain, timed=True)
    assert _reports(traced, timed=True) == _reports(plain, timed=True)
    assert traced.clock.now() == plain.clock.now()


def test_trace_context_bytes_move_only_timestamps():
    plain = _run_world(traced=False, bandwidth=DEFAULT_BANDWIDTH)
    traced = _run_world(traced=True, bandwidth=DEFAULT_BANDWIDTH)
    _assert_world_was_adversarial(plain)
    assert _stats(traced) == _stats(plain)
    assert _audit(traced, timed=False) == _audit(plain, timed=False)
    assert _reports(traced, timed=False) == _reports(plain, timed=False)
