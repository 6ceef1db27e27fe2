"""Untrusted (source-carrying) agents: the full sandbox path end-to-end.

These are the tests that exercise the complete Java-model analogue:
verifier → namespace load → protection domain → proxies — against both
well-behaved and hostile shipped code.
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.server.testbed import Testbed

OWNER = URN.parse("urn:principal:store.com/admin")


def install_buffer(server, policy=None, local="buf", **kw):
    authority = server.name.split(":")[2].split("/")[0]
    name = URN.parse(f"urn:resource:{authority}/{local}")
    buf = Buffer(name, OWNER, policy or SecurityPolicy.allow_all(), **kw)
    server.install_resource(buf)
    return name, buf


GOOD_VISITOR = """
class Visitor(Agent):
    def run(self):
        proxy = self.host.get_resource(self.target)
        proxy.put(self.value)
        self.complete({"ok": True})
"""


def test_untrusted_agent_runs_and_uses_proxy():
    bed = Testbed(1)
    name, buf = install_buffer(bed.home, capacity=4)
    image = bed.launch_source(
        GOOD_VISITOR, "Visitor", Rights.all(),
        state={"target": str(name), "value": "from afar"},
    )
    bed.run()
    assert buf.get() == "from afar"
    assert bed.home.resident_status(image.name)["status"] == "completed"


def test_untrusted_agent_migrates_with_its_code():
    source = """
class Hopper(Agent):
    def run(self):
        self.visited = self.visited + [self.host.server_name()]
        if self.next_stops:
            nxt = self.next_stops[0]
            self.next_stops = self.next_stops[1:]
            self.go(nxt, "run")
        self.host.report_home({"visited": self.visited})
        self.complete()
"""
    bed = Testbed(3)
    image = bed.launch_source(
        source, "Hopper", Rights.all(),
        state={"visited": [], "next_stops": [s.name for s in bed.servers[1:]]},
    )
    bed.run()
    # Came back around: report delivered to home from the last server.
    assert len(bed.home.reports) == 1
    assert bed.home.reports[0]["payload"]["visited"] == [s.name for s in bed.servers]
    # Each hop re-verified and re-loaded the code in a fresh namespace.
    assert bed.servers[1].stats["transfers_in"] == 1
    assert bed.servers[2].stats["transfers_in"] == 1


def test_malicious_source_refused_at_transfer():
    bed = Testbed(1)
    with pytest.raises(Exception, match="import of 'os'"):
        bed.launch_source(
            "import os\nclass Visitor(Agent):\n    def run(self):\n        pass\n",
            "Visitor",
            Rights.all(),
        )
    assert bed.home.stats["agents_hosted"] == 0


def test_malicious_source_refused_when_arriving_over_network():
    """A forwarding server cannot launder bad code past admission."""
    evil_hop = """
class TwoFaced(Agent):
    def run(self):
        self.go(self.second, "run")
"""
    bed = Testbed(2)
    # Launch a *valid* agent whose next hop would be fine — then check the
    # refusal path by having server 1 refuse all code.
    bed.servers[1].admission.accept_untrusted_code = False
    image = bed.launch_source(
        evil_hop, "TwoFaced", Rights.all(),
        state={"second": bed.servers[1].name},
    )
    bed.run()
    assert bed.servers[1].stats["transfers_refused"] == 1
    assert bed.home.stats["transfers_refused_remote"] == 1
    assert bed.home.stats["transfers_failed"] == 0
    assert bed.home.resident_status(image.name)["status"] == "terminated"


def test_impostor_class_rejected_at_load():
    impostor = """
class Agent:
    def run(self):
        pass
"""
    bed = Testbed(1)
    image = bed.launch_source(impostor, "Agent", Rights.all())
    bed.run()
    # Verification passes (the code is harmless Python) but the namespace
    # load rejects shadowing the trusted Agent binding.
    status = bed.home.resident_status(image.name)
    assert status["status"] == "terminated"
    retire = bed.home.audit.records(operation="agent.retire")
    assert any("shadow trusted" in r.detail for r in retire)


def test_proxy_private_ref_unreachable_from_agent_code():
    """Fig. 5's encapsulation: the verifier blocks `proxy._ref`."""
    thief = """
class Thief(Agent):
    def run(self):
        proxy = self.host.get_resource(self.target)
        raw = proxy._ref
        raw.put("stolen direct access")
"""
    bed = Testbed(1)
    with pytest.raises(Exception, match="underscore attribute '_ref'"):
        bed.launch_source(thief, "Thief", Rights.all(), state={"target": "x"})


def test_disabled_method_stops_untrusted_agent():
    taker = """
class Taker(Agent):
    def run(self):
        proxy = self.host.get_resource(self.target)
        proxy.put("should never land")
"""
    bed = Testbed(1)
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Buffer.get", "Buffer.size"))]
    )
    name, buf = install_buffer(bed.home, policy=policy)
    image = bed.launch_source(
        taker, "Taker", Rights.all(), state={"target": str(name)}
    )
    bed.run()
    assert buf.size() == 0
    assert bed.home.resident_status(image.name)["status"] == "terminated"
    assert bed.home.stats["agents_killed_security"] == 1


def test_agents_isolated_from_each_other():
    """Two co-resident agents cannot see each other's namespaces."""
    writer = """
class Writer(Agent):
    def run(self):
        secret_constant = "writer-private"
        self.host.sleep(5.0)
        self.complete()
"""
    prober = """
class Prober(Agent):
    def run(self):
        try:
            leak = secret_constant
        except NameError:
            self.host.report_home({"leaked": False})
            self.complete()
        self.host.report_home({"leaked": True, "value": leak})
        self.complete()
"""
    bed = Testbed(2)
    target = bed.servers[1]
    bed.launch_source(writer, "Writer", Rights.all(), at=target)
    bed.launch_source(prober, "Prober", Rights.all(), at=target)
    bed.run()
    reports = [r["payload"] for r in target.reports]
    assert reports == [{"leaked": False}]
