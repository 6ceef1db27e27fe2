"""Seeded partition suite: the replicated directory under adversity.

CI replays this file under several ``REPRO_STRESS_SEED`` values (see the
``naming-partitions`` job); every assertion here is an *invariant* that
must hold for any seed, not a golden trace.  The conservation oracle is
:class:`~repro.naming.replicated.DirectoryOracle`: every successfully
committed registration must be resolvable somewhere after the fault
window heals and anti-entropy has run, and the replica groups must
converge (no divergences).  The last section runs the single-registry
shape (one shard, one replica, quorums of one) through the loss of the
registry node or of its links.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.errors import NetworkError, ReproError
from repro.naming.replicated import ReplicatedNameClient
from repro.naming.urn import URN
from repro.obs import runtime as _obs
from repro.sim.threads import SimThread


def partition_groups(w, shard):
    """(majority of ``shard``'s replicas, everyone else they talk to)."""
    cut = list(w.ns_ring.replicas(shard)[:2])
    rest = [s.name for s in w.servers] + [w.ns_ring.replicas(shard)[2]]
    return cut, rest


def fault_kinds(w):
    return [kind for _, kind, _ in w.faults().log]


def assert_conserved(w, names):
    """Post-heal conservation: committed => resolvable and replicated."""
    for name in names:
        assert w.name_service.contains(name), f"{name} lost"
        assert w.name_service.replicas_holding(name) == 3, f"{name} thin"
    assert w.name_service.divergences() == []


# -- the schedule API --------------------------------------------------------


def test_named_partition_validation(world):
    w = world(1)
    faults = w.faults()
    a, b = w.servers[0].name, w.ns_ring.nodes()[0]
    assert faults.named_partition("win", [a], [b], at=1.0) == 1
    with pytest.raises(ValueError, match="already scheduled"):
        faults.named_partition("win", [a], [b], at=2.0)
    # Healing a partition that was never scheduled is a logged no-op,
    # not an error (idempotent heals: recovery orchestration may issue
    # belt-and-braces heals without tracking which fired).
    faults.heal_partition("nope", at=2.0)
    assert any(
        kind == "partition_heal_noop:nope" for _, kind, _ in faults.log
    )
    with pytest.raises(ValueError, match="after the partition"):
        faults.named_partition("w2", [a], [b], at=5.0, heal_at=5.0)


# -- partition window --------------------------------------------------------


def test_partition_begins_heals_and_degrades_reads(world):
    w = world(2, ns_anti_entropy=5.0)
    shard = w.ns_ring.shard_ids()[0]
    cut, rest = partition_groups(w, shard)
    links = w.faults().named_partition(
        "exp", cut, rest, at=10.0, heal_at=30.0
    )
    assert links == len(cut) * len(rest)
    client = w.home.name_service
    name = next(
        n for n in (URN.parse(f"urn:agent:x.net/pw{i}") for i in range(64))
        if w.ns_ring.shard_for(n) == shard
    )
    observed = {}

    def driver():
        thread = w.kernel.current_thread()
        client.register(name, w.home.name)
        thread.sleep(15.0)  # t=15+: mid-window
        observed["window"] = dict(client.lookup(name).attributes)
        thread.sleep(25.0)  # t=40+: healed, breakers recovered
        observed["healed"] = dict(client.lookup(name).attributes)

    SimThread(w.kernel, driver, "driver").start()
    w.run(until=90.0)
    kinds = fault_kinds(w)
    assert "partition_begin:exp" in kinds
    assert "partition_heal:exp" in kinds
    # Mid-window: only the minority replica answers — stale-but-flagged.
    assert observed["window"]["ns.stale"] is True
    assert observed["window"]["ns.replies"] == 1
    # Post-heal: a clean quorum read again.
    assert "ns.stale" not in observed["healed"]
    assert_conserved(w, [name])


def test_partition_window_conserves_every_committed_registration(world):
    w = world(2, ns_anti_entropy=5.0)
    shard = w.ns_ring.shard_ids()[0]
    cut, rest = partition_groups(w, shard)
    w.faults().named_partition("maj", cut, rest, at=15.0, heal_at=35.0)
    client = w.home.name_service
    committed, refused = [], []

    def driver():
        thread = w.kernel.current_thread()
        for i in range(30):
            name = URN.parse(f"urn:agent:x.net/cw{i}")
            try:
                client.register(name, w.home.name)
                committed.append(name)
            except (NetworkError, ReproError):
                refused.append(name)
            thread.sleep(2.0)

    SimThread(w.kernel, driver, "driver").start()
    w.run(until=150.0)
    # Commits happened, and refusals only ever hit the partitioned shard
    # (the healthy shard's quorum was never interrupted).
    assert committed
    assert all(w.ns_ring.shard_for(n) == shard for n in refused)
    # No name was both refused to the caller and silently committed: a
    # refused register never reached a write quorum, so it must not
    # resolve afterwards either.
    for name in refused:
        assert not w.name_service.contains(name)
    assert_conserved(w, committed)


# -- replica crash window ----------------------------------------------------


def test_replica_crash_window_keeps_the_directory_available(world):
    w = world(2, ns_anti_entropy=5.0)
    shard = w.ns_ring.shard_ids()[0]
    victim = w.ns_host(w.ns_ring.replicas(shard)[0])
    w.faults().crash(victim, 10.0, restart_at=40.0)
    client = w.home.name_service
    committed, failed = [], []

    def driver():
        thread = w.kernel.current_thread()
        for i in range(20):
            name = URN.parse(f"urn:agent:x.net/kw{i}")
            try:
                client.register(name, w.home.name)
                committed.append(name)
            except (NetworkError, ReproError) as exc:
                failed.append((name, exc))
            thread.sleep(3.0)

    SimThread(w.kernel, driver, "driver").start()
    w.run(until=150.0)
    # One crashed replica of three never costs write availability.
    assert failed == []
    assert len(committed) == 20
    assert victim.stats["crashes"] == 1
    assert victim.stats["restarts"] == 1
    kinds = fault_kinds(w)
    assert "crashes" in kinds and "restarts" in kinds
    # Writes committed during the outage reached the victim afterwards
    # (hinted handoff delivered by sweeps, or the catch-up digest pull).
    assert_conserved(w, committed)


# -- loss burst --------------------------------------------------------------


def test_loss_burst_degrades_to_hints_then_repairs(world):
    w = world(2, ns_anti_entropy=5.0)
    shard = w.ns_ring.shard_ids()[0]
    lossy = w.ns_ring.replicas(shard)[1]
    for server in w.servers:
        w.faults().loss_burst(
            server.name, lossy, at=10.0, duration=20.0, loss_rate=0.3
        )
    client = w.home.name_service
    committed, failed = [], []

    def driver():
        thread = w.kernel.current_thread()
        for i in range(12):
            name = URN.parse(f"urn:agent:x.net/lw{i}")
            try:
                client.register(name, w.home.name)
                committed.append(name)
            except (NetworkError, ReproError) as exc:
                failed.append((name, exc))
            # Earlier names stay resolvable right through the burst: the
            # two clean replicas always form a read quorum.
            if committed:
                looked = client.lookup(committed[0])
                assert looked.location == w.home.name
            thread.sleep(2.0)

    SimThread(w.kernel, driver, "driver").start()
    w.run(until=150.0)
    kinds = fault_kinds(w)
    assert "loss_burst_begin" in kinds and "loss_burst_end" in kinds
    assert failed == []
    assert len(committed) == 12
    assert_conserved(w, committed)


# -- the single registry node ------------------------------------------------
#
# The paper's one registry server is the directory with one shard of one
# replica and quorums of one (N=1/W=1/R=1).  Losing that node, or some of
# its links, is the failure path every arrival-time relocation takes in a
# single-registry world.


@register_trusted_agent_class
class RegistryHopper(Agent):
    """Moves to ``dest`` once, then stays resident long enough to observe."""

    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest and self.host.server_name() != self.dest:
            dest, self.dest = self.dest, ""
            self.go(dest, "run")
        self.host.sleep(5.0)
        self.complete()


@register_trusted_agent_class
class RegistryLocator(Agent):
    """Asks the directory, from inside the world, where ``target`` is."""

    def __init__(self) -> None:
        self.target = ""

    def run(self):
        self.host.sleep(1.0)  # let the mover finish moving
        self.host.report_home({"located": self.host.locate(self.target)})
        self.complete()


def single_registry(world, **kw):
    """A two-server world around one registry node (N=1/W=1/R=1)."""
    return world(2, ns_shards=1, ns_replicas=1, ns_write_quorum=1,
                 ns_read_quorum=1, **kw)


def cut_registry(w, servers):
    """Take down the links between ``servers`` and the registry node."""
    (node,) = w.ns_ring.nodes()
    for server in servers:
        w.network.set_link_state(server.name, node, False)


def launch_mover(w, local):
    mover = RegistryHopper()
    mover.dest = w.servers[1].name
    return w.launch(mover, Rights.all(), agent_local=local)


def test_single_registry_is_one_replica_node(world):
    w = single_registry(world)
    (node,) = w.ns_ring.nodes()
    assert len(w.ns_ring) == 1 and list(w.ns_hosts) == [node]
    for server in w.servers:
        client = server.name_service
        assert isinstance(client, ReplicatedNameClient)
        assert (client.write_quorum, client.read_quorum) == (1, 1)


def test_single_registry_roundtrip_crosses_the_wire(world):
    w = single_registry(world)
    (node,) = w.ns_ring.nodes()
    client = w.home.name_service
    results = {}

    def driver():
        name = URN.parse("urn:agent:x.net/probe")
        token = client.register(name, w.home.name, {"k": 1})
        results["contains"] = client.contains(name)
        record = client.lookup(name)
        results["record"] = (str(record.name), record.location,
                             record.attributes)
        client.relocate(name, token, w.servers[1].name)
        results["moved"] = client.lookup(name).location
        client.unregister(name, token)
        results["after"] = client.contains(name)

    SimThread(w.kernel, driver, "driver").start()
    w.run()
    assert results["contains"] is True
    assert results["record"] == ("urn:agent:x.net/probe", w.home.name,
                                 {"k": 1})
    assert results["moved"] == w.servers[1].name
    assert results["after"] is False
    # The operations really crossed the wire to the registry node.
    assert w.network.link(w.home.name, node).stats["bytes"] > 0


def test_single_registry_migration_is_visible_to_locate(world):
    w = single_registry(world)
    image = launch_mover(w, "mover")
    locator = RegistryLocator()
    locator.target = str(image.name)
    w.launch(locator, Rights.all(), agent_local="locator")
    w.run()
    # The registry saw the relocation...
    assert w.locate(image.name) == w.servers[1].name
    # ...and an agent observed it through its server's directory client.
    located = [r["payload"]["located"] for r in w.home.reports
               if "located" in r.get("payload", {})]
    assert w.servers[1].name in located


def test_single_registry_lost_relocation_is_counted_and_audited(world):
    """A lost relocation is diagnosable: the client's and the server's
    stats, the metrics registry and the audit log all record it."""
    w = single_registry(world, server_kwargs={"transfer_timeout": 5.0})
    w.start_metrics()
    try:
        cut_registry(w, w.servers)
        image = launch_mover(w, "mover4")
        w.run(detect_deadlock=False)
    finally:
        _obs.uninstall()
    assert w.servers[1].name_service.stats["relocate_failed"] == 1
    assert w.servers[1].stats["ns_relocate_failed"] == 1
    # The home launch and the arrival relocation both failed.
    assert w.metrics.scrape()["ns_relocate_failed"] == 2
    audited = [
        rec for rec in w.servers[1].audit
        if rec.operation == "ns.relocate_async"
    ]
    assert len(audited) == 1
    assert audited[0].allowed is False
    assert str(image.name) == audited[0].domain
    assert w.servers[1].name in audited[0].target


def test_single_registry_cut_link_reroutes_the_relocation(world):
    """Cutting one registry link is survivable: traffic reroutes."""
    w = single_registry(world, server_kwargs={"transfer_timeout": 10.0})
    cut_registry(w, [w.servers[1]])
    image = launch_mover(w, "mover2")
    w.run(detect_deadlock=False)
    assert w.servers[1].resident_status(image.name)["status"] == "completed"
    # The relocation went through server 0's link instead.
    assert w.servers[1].stats["ns_relocate_failed"] == 0
    assert w.locate(image.name) == w.servers[1].name


def test_single_registry_loss_does_not_break_hosting(world):
    """With the registry fully unreachable, hosting continues; only the
    location record goes stale (and the failures are counted)."""
    w = single_registry(world, server_kwargs={"transfer_timeout": 5.0})
    cut_registry(w, w.servers)
    image = launch_mover(w, "mover3")
    w.run(detect_deadlock=False)
    assert w.servers[1].resident_status(image.name)["status"] == "completed"
    # Both the launch-time and arrival-time relocations failed.
    assert w.home.stats["ns_relocate_failed"] == 1
    assert w.servers[1].stats["ns_relocate_failed"] == 1
    # The registry still shows the stale (home) location.
    assert w.locate(image.name) == w.home.name
