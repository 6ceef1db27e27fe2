"""The verified-code cache: verify and compile once per (source, policy).

The cache is process-wide, so every test here uses its own source string:
test order cannot warm the cache for another test.  ``verify_source``
calls are counted through the module attribute that
:func:`~repro.sandbox.verifier.verified_code` resolves at call time.
"""

from __future__ import annotations

import ast

import pytest

from repro.credentials.rights import Rights
from repro.errors import (
    CodeVerificationError,
    ExecutionBudgetExceeded,
    NamespaceError,
)
from repro.sandbox import verifier
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.verifier import VerifierPolicy, verified_code
from repro.server.testbed import Testbed


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts calls of ``verify_source`` (i.e. cache misses that verify)."""
    calls = []
    real = verifier.verify_source

    def counting(source, policy=None):
        calls.append(source)
        return real(source, policy)

    monkeypatch.setattr(verifier, "verify_source", counting)
    return calls


def test_rejected_source_refused_at_every_arrival(verify_calls):
    bad = (
        "import os\n"
        "class Rejected_a(Agent):\n"
        "    def run(self):\n"
        "        self.complete()\n"
    )
    bed = Testbed(2)
    for server in (bed.home, bed.home, bed.servers[1]):
        with pytest.raises(CodeVerificationError, match="import of 'os'"):
            bed.launch_source(bad, "Rejected_a", Rights.all(), at=server)
    assert verify_calls == [bad, bad, bad]
    assert (bad, VerifierPolicy()) not in verifier._CODE_CACHE
    for server in bed.servers:
        assert len(server.domain_db) == 0


def test_rejected_source_refused_at_every_load(verify_calls):
    bad = "secret_a = getattr\n"
    for name in ("ns-a1", "ns-a2"):
        ns = AgentNamespace(name)
        with pytest.raises(CodeVerificationError, match="getattr"):
            ns.load(bad)
        assert ns.loaded_sources == 0
    assert len(verify_calls) == 2


def test_one_byte_change_to_cached_source_is_verified(verify_calls):
    good = "def real_b(x):\n    return x.real\n"
    bad = "def real_b(x):\n    return x._eal\n"
    assert len(good) == len(bad)
    AgentNamespace("ns-b1").load(good)
    AgentNamespace("ns-b2").load(good)
    with pytest.raises(CodeVerificationError, match="underscore attribute"):
        AgentNamespace("ns-b3").load(bad)
    assert verify_calls == [good, bad]


def test_policy_is_part_of_the_key(verify_calls):
    source = "import math\nroot_c = math.sqrt(16)\n"
    strict = VerifierPolicy(allowed_imports=frozenset())
    assert AgentNamespace("ns-c1").load(source)["root_c"] == 4.0
    verified_code(source)  # a hit under the default policy
    with pytest.raises(CodeVerificationError, match="import of 'math'"):
        verified_code(source, strict)
    with pytest.raises(CodeVerificationError, match="import of 'math'"):
        AgentNamespace("ns-c2", policy=strict).load(source)
    assert len(verify_calls) == 3


def test_impostor_check_runs_on_a_cache_hit(verify_calls):
    source = "class Widget_d:\n    kind = 'impostor'\n"

    class Widget:
        kind = "trusted"

    AgentNamespace("ns-d1").load(source)
    guarded = AgentNamespace("ns-d2", trusted={"Widget_d": Widget})
    with pytest.raises(NamespaceError, match="shadow trusted name.*Widget_d"):
        guarded.load(source)
    assert len(verify_calls) == 1  # the refused load was a hit
    assert guarded.get("Widget_d") is Widget
    assert guarded.loaded_sources == 0


def test_each_namespace_has_its_own_loop_budget():
    source = (
        "def spin_e(n):\n"
        "    for _ in range(n):\n"
        "        pass\n"
        "    return n\n"
    )
    policy = VerifierPolicy(max_loop_iterations=10)
    first = AgentNamespace("ns-e1", policy=policy)
    second = AgentNamespace("ns-e2", policy=policy)
    first.load(source)
    second.load(source)
    assert first.get("spin_e").__code__ is second.get("spin_e").__code__
    assert first.get("spin_e")(10) == 10
    assert (first.loop_iterations_used, second.loop_iterations_used) == (10, 0)
    with pytest.raises(ExecutionBudgetExceeded):
        first.get("spin_e")(1)
    assert second.get("spin_e")(10) == 10
    with pytest.raises(ExecutionBudgetExceeded):
        second.get("spin_e")(1)
    first.reset_execution_budget()
    assert first.get("spin_e")(3) == 3
    assert second.loop_iterations_used == 11


def test_loads_of_one_cached_source_share_no_objects():
    source = (
        "class Box_f:\n"
        "    count = 0\n"
        "items_f = []\n"
        "def add_f(x):\n"
        "    items_f.append(x)\n"
        "    return len(items_f)\n"
    )
    first = AgentNamespace("ns-f1")
    second = AgentNamespace("ns-f2")
    first.load(source)
    second.load(source)
    box1, box2 = first.get("Box_f"), second.get("Box_f")
    assert box1 is not box2
    box1.count = 5
    assert box2.count == 0
    assert box1.__module__ == "agentns:ns-f1"
    assert box2.__module__ == "agentns:ns-f2"
    assert first.get("add_f")(1) == 1
    assert first.get("add_f")(2) == 2
    assert second.get("items_f") == []
    assert first.get("add_f") is not second.get("add_f")


def _assert_within_bounds() -> None:
    held = sum(len(source.encode()) for source, _ in verifier._CODE_CACHE)
    assert len(verifier._CODE_CACHE) <= verifier._CODE_CACHE_CAPACITY
    assert verifier._code_cache_bytes == held
    assert verifier._code_cache_bytes <= verifier._CODE_CACHE_MAX_BYTES


def test_cache_stays_within_entry_and_byte_bounds():
    for i in range(verifier._CODE_CACHE_CAPACITY + 10):
        verified_code(f"entry_g{i} = {i}\n")
        _assert_within_bounds()
    # ~200 KB sources (comment padding keeps them cheap to parse): the
    # byte limit, not the entry count, is what binds here.
    pad = "#" * 200_000 + "\n"
    for i in range(verifier._CODE_CACHE_MAX_BYTES // len(pad) + 5):
        verified_code(f"{pad}bulk_g{i} = {i}\n")
        _assert_within_bounds()
    # A source larger than the whole byte budget is verified, not held.
    roomy = VerifierPolicy(max_source_bytes=verifier._CODE_CACHE_MAX_BYTES * 2)
    huge = "#" * (verifier._CODE_CACHE_MAX_BYTES + 1) + "\nhuge_g = 1\n"
    code, names = verified_code(huge, roomy)
    assert names == {"huge_g"}
    assert (huge, roomy) not in verifier._CODE_CACHE
    _assert_within_bounds()


# -- the work-count gate ---------------------------------------------------------

TOUR_SOURCE = """
class GateHopper(Agent):
    def run(self):
        self.visited = self.visited + [self.host.server_name()]
        if self.next_stops:
            nxt = self.next_stops[0]
            self.next_stops = self.next_stops[1:]
            self.go(nxt, "run")
        self.host.report_home({"visited": self.visited})
        self.complete()
"""


def test_five_hop_tour_parses_its_source_once(monkeypatch):
    """One 5-hop tour of a shipped-source agent over 6 servers: admission
    and load at launch plus at each of the 5 arrivals used to parse the
    same source 12 times; the verified-code cache parses it once."""
    parses = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parses.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    bed = Testbed(6)
    bed.launch_source(
        TOUR_SOURCE, "GateHopper", Rights.all(),
        state={"visited": [], "next_stops": [s.name for s in bed.servers[1:]]},
    )
    bed.run()
    assert bed.home.reports[0]["payload"]["visited"] == [
        s.name for s in bed.servers]
    assert sum(s.stats["transfers_in"] for s in bed.servers) == 5
    assert parses == [TOUR_SOURCE]
