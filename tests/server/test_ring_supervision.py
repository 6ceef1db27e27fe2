"""Protection rings: trust tiers buy less bookkeeping, never fewer gates.

Ring assignment happens once, at admission, from *authenticated*
credential fields; the proxy bakes the resulting dispatch path in at
instantiation.  The invariants pinned here:

* ring 0 (trusted launcher) skips audit bookkeeping — but supervision's
  admission quota, bulkheads and deadlines still interpose, because
  safety interlocks are not a matter of trust;
* ring 1 (the default, and the only ring when no :class:`RingPolicy` is
  configured) behaves exactly as the pre-ring code did;
* ring 2 (code-carrying / untrusted) leaves a per-invocation audit
  trail on top of the standard checks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.transfer import capture_image
from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.core.token import RING_TRUSTED, RING_UNTRUSTED, RING_VERIFIED
from repro.credentials.rights import Rights
from repro.errors import ResourceOverloadedError
from repro.naming.urn import URN
from repro.server.admission import AdmissionPolicy, RingPolicy
from repro.server.supervisor import SupervisorConfig
from repro.server.testbed import Testbed

OWNER = URN.parse("urn:principal:store.com/admin")

OUTCOMES: dict[str, object] = {}


@pytest.fixture(autouse=True)
def _reset_outcomes():
    OUTCOMES.clear()
    yield


def install_buffer(server, local="buf", **kw):
    authority = server.name.split(":")[2].split("/")[0]
    name = URN.parse(f"urn:resource:{authority}/{local}")
    buf = Buffer(name, OWNER, SecurityPolicy.allow_all(confine=False), **kw)
    server.install_resource(buf)
    return name, buf


# -- classification ----------------------------------------------------------


def make_image(env, *, source="", owner=None):
    agent = Agent()
    image = capture_image(
        agent,
        credentials=env.credentials(Rights.all(), owner=owner),
        entry_method="capture_state",
        home_site="urn:server:h.net/s0",
        source=source,
    )
    if source:
        image = dataclasses.replace(image, class_name="Visitor")
    return image


class TestRingClassification:
    def test_default_policy_is_everything_ring_1(self, env):
        policy = AdmissionPolicy(env.ca, env.clock)
        assert policy.ring_policy is None
        assert policy.classify_ring(make_image(env)) == RING_VERIFIED
        assert policy.classify_ring(
            make_image(env, source="class Visitor(Agent):\n    pass\n")
        ) == RING_VERIFIED

    def test_trusted_owner_glob_maps_to_ring_0(self, env):
        ring_policy = RingPolicy(trusted_owners=("urn:principal:umn.edu/*",))
        assert ring_policy.classify(make_image(env)) == RING_TRUSTED

    def test_trusted_agent_glob_maps_to_ring_0(self, env):
        ring_policy = RingPolicy(trusted_agents=("urn:agent:umn.edu/*",))
        assert ring_policy.classify(make_image(env)) == RING_TRUSTED

    def test_carried_code_maps_to_ring_2(self, env):
        ring_policy = RingPolicy()
        image = make_image(env, source="class Visitor(Agent):\n    pass\n")
        assert ring_policy.classify(image) == RING_UNTRUSTED

    def test_trusted_match_wins_over_carried_code(self, env):
        ring_policy = RingPolicy(trusted_owners=("urn:principal:umn.edu/*",))
        image = make_image(env, source="class Visitor(Agent):\n    pass\n")
        assert ring_policy.classify(image) == RING_TRUSTED

    def test_untrusted_owner_glob_maps_to_ring_2(self, env):
        ring_policy = RingPolicy(
            untrusted_owners=("urn:principal:shady.example/*",)
        )
        image = make_image(
            env, owner=URN.parse("urn:principal:shady.example/eve")
        )
        assert ring_policy.classify(image) == RING_UNTRUSTED

    def test_unmatched_falls_to_configured_default(self, env):
        ring_policy = RingPolicy(code_is_untrusted=False,
                                 default=RING_UNTRUSTED)
        assert ring_policy.classify(make_image(env)) == RING_UNTRUSTED


# -- ring 0: less bookkeeping, same interlocks -------------------------------


@register_trusted_agent_class
class TrustedWorker(Agent):
    """Ring-0 resident: uses its proxy, then probes the grant quota."""

    def run(self):
        proxy = self.host.get_resource(self.target)
        OUTCOMES["ring"] = proxy.proxy_info()["ring"]
        proxy.put("launcher business")
        OUTCOMES["value"] = proxy.get()
        try:
            extra = self.host.get_resource(self.target)
            OUTCOMES["second_grant"] = type(extra).__name__
        except ResourceOverloadedError as exc:
            OUTCOMES["second_grant"] = type(exc).__name__
        self.complete()


def test_ring0_skips_audit_but_not_supervision_gates():
    bed = Testbed(
        1, server_kwargs={"supervision": SupervisorConfig(domain_grant_quota=1)}
    )
    bed.home.admission.ring_policy = RingPolicy(
        trusted_owners=(str(bed.owner),)
    )
    name, _ = install_buffer(bed.home)
    agent = TrustedWorker()
    agent.target = str(name)
    image = bed.launch(agent, Rights.all())
    bed.run()
    assert bed.home.resident_status(image.name)["status"] == "completed"
    assert OUTCOMES["ring"] == RING_TRUSTED
    assert OUTCOMES["value"] == "launcher business"
    # The supervision admission quota interposed despite ring 0: trust
    # never disables a safety interlock.
    assert OUTCOMES["second_grant"] == "ResourceOverloadedError"
    # ...but no resource-access audit bookkeeping was paid.
    assert bed.home.audit.records(operation="resource.get_proxy") == []
    assert bed.home.audit.records(operation="proxy.invoke") == []


def test_ring1_default_leaves_no_per_call_audit_trail():
    bed = Testbed(1)
    name, _ = install_buffer(bed.home)
    agent = TrustedWorker()
    agent.target = str(name)
    bed.launch(agent, Rights.all())
    bed.run()
    assert OUTCOMES["ring"] == RING_VERIFIED
    # Standard checks: get_proxy is audited, per-call successes are not.
    assert bed.home.audit.records(
        operation="resource.get_proxy", allowed=True
    ) != []
    assert bed.home.audit.records(operation="proxy.invoke") == []


# -- ring 2: full mediation --------------------------------------------------

VISITOR = """
class Visitor(Agent):
    def run(self):
        proxy = self.host.get_resource(self.target)
        proxy.put("from afar")
        proxy.size()
        self.host.report_home({"ring": proxy.proxy_info()["ring"]})
        self.complete()
"""


def test_ring2_audits_every_invocation():
    bed = Testbed(1)
    bed.home.admission.ring_policy = RingPolicy()
    name, buf = install_buffer(bed.home, capacity=4)
    image = bed.launch_source(
        VISITOR, "Visitor", Rights.all(), state={"target": str(name)}
    )
    bed.run()
    assert bed.home.resident_status(image.name)["status"] == "completed"
    assert bed.home.reports[-1]["payload"] == {"ring": RING_UNTRUSTED}
    invoked = bed.home.audit.records(operation="proxy.invoke", allowed=True)
    targets = [rec.target for rec in invoked]
    assert any(t.endswith(".put") for t in targets)
    assert any(t.endswith(".size") for t in targets)
    assert all(rec.detail == "ring2" for rec in invoked)
