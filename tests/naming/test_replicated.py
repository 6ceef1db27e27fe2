"""The replicated directory: versioned records, quorums, repair, failover."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.errors import (
    DuplicateNameError,
    NamingError,
    NetworkError,
    ReproError,
    UnknownNameError,
)
from repro.naming.replicated import (
    _ERROR_KINDS,
    SHARD_APP_KIND,
    ReplicatedNameClient,
    ShardStore,
    VersionedRecord,
    _raise_reply_error,
)
from repro.naming.shard import stable_hash
from repro.naming.urn import URN
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.serialization import decode, encode


def record(name="urn:agent:x.net/r", *, location="here", token="t-1",
           epoch=1, seq=1, tombstone=False, stamped=0.0, **attributes):
    return VersionedRecord(
        name=URN.parse(name) if isinstance(name, str) else name,
        location=location,
        attributes=attributes,
        token=token,
        epoch=epoch,
        seq=seq,
        tombstone=tombstone,
        stamped=stamped,
    )


# -- versioned records -------------------------------------------------------


def test_record_validation():
    with pytest.raises(NamingError):
        record(epoch=0)
    with pytest.raises(NamingError):
        record(seq=0)
    with pytest.raises(NamingError):
        record(token="")
    with pytest.raises(NamingError):
        VersionedRecord(
            name="not-a-urn", location="x", attributes={},  # type: ignore[arg-type]
            token="t", epoch=1, seq=1,
        )


def test_record_version_total_order():
    assert record(epoch=2, seq=1).version > record(epoch=1, seq=9).version
    assert record(seq=2).version > record(seq=1).version
    # Same (epoch, seq): the token tiebreak is deterministic.
    a, b = record(token="t-a"), record(token="t-b")
    assert (a.version > b.version) != (b.version > a.version)


def test_record_canonical_erases_attribute_order():
    one = record(k1=1, k2=2)
    two = VersionedRecord(
        name=one.name, location=one.location, attributes={"k2": 2, "k1": 1},
        token=one.token, epoch=one.epoch, seq=one.seq,
    )
    assert one.canonical() == two.canonical()


def test_record_serialization_roundtrip():
    original = record(epoch=3, seq=7, tombstone=True, stamped=12.5, k="v")
    copy = decode(encode(original))
    assert isinstance(copy, VersionedRecord)
    assert copy.canonical() == original.canonical()


# -- the shard store ---------------------------------------------------------


def test_store_merge_is_version_ordered():
    store = ShardStore()
    assert store.merge(record(seq=2)) is True
    assert store.merge(record(seq=1)) is False  # older: ignored
    assert store.merge(record(seq=2)) is False  # equal: ignored
    assert store.merge(record(seq=3)) is True
    assert store.get(URN.parse("urn:agent:x.net/r")).seq == 3


def test_store_put_checked_owner_semantics():
    store = ShardStore()
    assert store.put_checked(record(seq=1)) is True
    # Same token: newer applies, retransmits are idempotent acks.
    assert store.put_checked(record(seq=2)) is True
    assert store.put_checked(record(seq=2)) is False
    assert store.put_checked(record(seq=1)) is False
    # Different token, same epoch: a racing registration is rejected...
    with pytest.raises(DuplicateNameError):
        store.put_checked(record(token="t-other", seq=1))
    # ...and a forged update token is refused outright.
    with pytest.raises(NamingError, match="bad owner token"):
        store.put_checked(record(token="t-other", seq=3))
    # A later epoch is a committed re-registration: accepted.
    assert store.put_checked(record(token="t-other", epoch=2, seq=1)) is True
    assert store.get(URN.parse("urn:agent:x.net/r")).token == "t-other"


def test_store_len_and_names_skip_tombstones():
    store = ShardStore()
    store.merge(record("urn:agent:x.net/live"))
    store.merge(record("urn:agent:x.net/dead", tombstone=True))
    assert len(store) == 1
    assert store.names() == [URN.parse("urn:agent:x.net/live")]
    assert len(store.records()) == 2  # tombstones still replicate


def test_store_digests_agree_independent_of_insertion_order():
    records = [record(f"urn:agent:x.net/d{i}", seq=i + 1) for i in range(20)]
    one, two = ShardStore(), ShardStore()
    for r in records:
        one.merge(r)
    for r in reversed(records):
        two.merge(r)
    assert one.digests(8) == two.digests(8)
    two.merge(record("urn:agent:x.net/d3", seq=99))
    assert one.digests(8) != two.digests(8)


# -- world plumbing ----------------------------------------------------------


@register_trusted_agent_class
class ReplicatedHopper(Agent):
    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest and self.host.server_name() != self.dest:
            dest, self.dest = self.dest, ""
            self.go(dest, "run")
        self.complete()


def make_bed(**kw):
    kw.setdefault("ns_timeout", 2.0)
    return Testbed(2, replicated_name_service=True, **kw)


def drive(bed, body, *, until=None):
    """Run ``body`` on a simulated thread and drain the world."""
    SimThread(bed.kernel, body, "ns-test-client").start()
    bed.run(until=until)


def isolate(bed, node):
    """Cut every link the directory node has (full isolation)."""
    for server in bed.servers:
        bed.network.set_link_state(node, server.name, False)
    for peer in bed.ns_host(node).peers:
        bed.network.set_link_state(node, peer, False)


# -- testbed wiring ----------------------------------------------------------


def test_testbed_builds_the_replica_topology():
    bed = make_bed()
    assert len(bed.ns_ring) == 2  # two shards...
    assert len(bed.ns_hosts) == 6  # ...of three replicas each
    for node, host in bed.ns_hosts.items():
        assert host.name == node
        assert len(host.peers) == 2
        for server in bed.servers:
            assert bed.network.has_link(node, server.name)
        for peer in host.peers:
            assert bed.network.has_link(node, peer)
    with pytest.raises(ReproError):
        bed.ns_host("urn:server:registry.net/nope")


def test_client_quorum_validation():
    bed = make_bed()
    with pytest.raises(NamingError, match="majority"):
        ReplicatedNameClient(
            bed.home.secure, bed.ns_ring, write_quorum=1, read_quorum=3
        )
    with pytest.raises(NamingError, match="R \\+ W"):
        ReplicatedNameClient(bed.home.secure, bed.ns_ring, read_quorum=1)
    with pytest.raises(NamingError, match="out of range"):
        ReplicatedNameClient(bed.home.secure, bed.ns_ring, write_quorum=4)


# -- the client, happy path --------------------------------------------------


def test_client_roundtrip_and_replication():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/round")
    results = {}

    def body():
        token = client.register(name, bed.home.name, {"k": 1})
        results["contains"] = client.contains(name)
        looked = client.lookup(name)
        results["record"] = (looked.location, looked.attributes)
        client.relocate(name, token, bed.servers[1].name)
        results["moved"] = client.lookup(name).location
        client.unregister(name, token)
        results["gone"] = client.contains(name)

    drive(bed, body)
    assert results["contains"] is True
    assert results["record"] == (bed.home.name, {"k": 1})
    assert results["moved"] == bed.servers[1].name
    assert results["gone"] is False
    # The write reached every replica of the shard, not just the quorum.
    for node in bed.ns_ring.replicas_for(name):
        held = bed.ns_host(node).store.get(name)
        assert held is not None and held.tombstone


def test_client_error_surface():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/errs")
    outcomes = {}

    def body():
        try:
            client.lookup(URN.parse("urn:agent:x.net/ghost"))
        except UnknownNameError:
            outcomes["unknown"] = True
        token = client.register(name, bed.home.name)
        try:
            client.register(name, bed.home.name)
        except DuplicateNameError:
            outcomes["duplicate"] = True
        try:
            client.relocate(name, "bad-token", "anywhere")
        except NamingError as exc:
            outcomes["badtoken"] = "bad owner token" in str(exc)
        client.unregister(name, token)
        try:
            client.relocate(name, token, "anywhere")
        except UnknownNameError:
            outcomes["tombstoned"] = True

    drive(bed, body)
    assert outcomes == {
        "unknown": True, "duplicate": True, "badtoken": True,
        "tombstoned": True,
    }


def test_reregistration_starts_a_new_epoch():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/phoenix")

    def body():
        token = client.register(name, bed.home.name)
        client.unregister(name, token)
        client.register(name, bed.servers[1].name)

    drive(bed, body)
    for node in bed.ns_ring.replicas_for(name):
        held = bed.ns_host(node).store.get(name)
        assert held.epoch == 2 and held.seq == 1 and not held.tombstone


def test_shard_ops_reject_misdirected_and_unauthorized_requests():
    bed = make_bed()
    ring = bed.ns_ring
    shard_a, shard_b = ring.shard_ids()
    # A name owned by shard B, pushed at a replica of shard A.
    name = next(
        n for n in (URN.parse(f"urn:agent:x.net/m{i}") for i in range(64))
        if ring.shard_for(n) == shard_b
    )
    node_a = ring.replicas(shard_a)[0]
    outcomes = {}

    def body():
        channel = bed.home.secure.connect(node_a, timeout=2.0)

        def ask(request):
            return decode(channel.call(
                SHARD_APP_KIND, encode(request), timeout=2.0
            ))

        rec = record(name, token="t-x")
        outcomes["misdirected"] = ask({"op": "put", "record": rec})
        # "repair" skips token checks, so it is peers-only: a client
        # (even a well-formed one) must be refused.
        good = record(
            next(n for n in (URN.parse(f"urn:agent:x.net/m{i}")
                             for i in range(64))
                 if ring.shard_for(n) == shard_a),
            token="t-x",
        )
        outcomes["repair"] = ask({"op": "repair", "record": good})
        outcomes["unknown_op"] = ask({"op": "frobnicate"})

    drive(bed, body)
    assert "belongs to shard" in outcomes["misdirected"]["error"]
    assert "restricted to ring peers" in outcomes["repair"]["error"]
    assert "unknown shard op" in outcomes["unknown_op"]["error"]
    assert all(reply["kind"] == "naming" for reply in outcomes.values())


def test_error_kind_table_covers_every_kind():
    """Each wire kind maps back to its client-side exception, and an
    unknown op sent to a replica surfaces as exactly NamingError."""
    assert _ERROR_KINDS == {
        "unknown": UnknownNameError,
        "duplicate": DuplicateNameError,
        "naming": NamingError,
    }
    bed = make_bed()
    node = bed.ns_ring.nodes()[0]
    outcomes = {}

    def body():
        channel = bed.home.secure.connect(node, timeout=2.0)
        reply = decode(channel.call(
            SHARD_APP_KIND, encode({"op": "frobnicate"}), timeout=2.0
        ))
        try:
            _raise_reply_error(reply)
        except NamingError as exc:
            outcomes["unknown_op"] = (type(exc), str(exc))

    drive(bed, body)
    kind, message = outcomes["unknown_op"]
    assert kind is NamingError  # exactly, not a subclass
    assert "frobnicate" in message


# -- failover ----------------------------------------------------------------


def test_crash_hint_restart_convergence():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/healing")
    victim = bed.ns_host(bed.ns_ring.replicas_for(name)[2])
    victim.crash()
    assert victim.is_crashed

    def register():
        client.register(name, bed.home.name)

    drive(bed, register)
    # Two of three acked; the third got a hint parked with a live peer.
    assert bed.name_service.replicas_holding(name) == 2
    assert client.stats["hints_sent"] == 1
    assert name in bed.name_service.names()  # oracle still resolves it

    victim.restart()

    def reconcile():
        for host in bed.ns_hosts.values():
            host.anti_entropy_round()

    drive(bed, reconcile)
    assert bed.name_service.replicas_holding(name) == 3
    assert bed.name_service.divergences() == []


def test_read_repair_refreshes_a_lagging_replica():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/lagging")
    token = {}

    def register():
        token["t"] = client.register(name, bed.home.name)

    drive(bed, register)
    victim = bed.ns_host(bed.ns_ring.replicas_for(name)[1])
    victim.crash()

    def relocate():
        client.relocate(name, token["t"], bed.servers[1].name)

    drive(bed, relocate)
    assert victim.store.get(name).seq == 1  # missed the update
    victim.restart()

    def lookup():
        client.lookup(name)

    drive(bed, lookup)
    assert client.stats["read_repairs"] >= 1
    assert victim.store.get(name).seq == 2
    assert victim.store.get(name).location == bed.servers[1].name


def test_degraded_reads_are_flagged_stale_and_bounded():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/staleish")
    outcomes = {}

    def body():
        client.register(name, bed.home.name)
        # Majority of the shard fully isolated: no read quorum possible.
        for node in bed.ns_ring.replicas_for(name)[:2]:
            isolate(bed, node)
        looked = client.lookup(name)
        outcomes["stale"] = looked.attributes.get("ns.stale")
        outcomes["replies"] = looked.attributes.get("ns.replies")
        outcomes["age"] = looked.attributes.get("ns.age")
        outcomes["location"] = looked.location
        # ...and writes correctly refuse (no quorum to commit against).
        try:
            client.register(URN.parse(str(name) + "2"), bed.home.name)
        except (NetworkError, DuplicateNameError) as exc:
            outcomes["write"] = type(exc).__name__

    drive(bed, body)
    assert outcomes["stale"] is True
    assert outcomes["replies"] == 1
    assert outcomes["age"] >= 0.0
    assert outcomes["location"] == bed.home.name
    # The sibling name may land on the healthy shard; either it registers
    # (not our shard) or it refuses with NetworkError — never silently
    # half-commits.  When it shares the shard, it must refuse.
    sibling = URN.parse(str(name) + "2")
    if bed.ns_ring.shard_for(sibling) == bed.ns_ring.shard_for(name):
        assert outcomes["write"] == "NetworkError"
    assert client.stats["lookups_stale"] >= 1


def test_stale_read_limit_turns_staleness_into_unavailability():
    bed = make_bed(ns_stale_read_limit=5.0)
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/bounded")
    outcomes = {}

    def body():
        client.register(name, bed.home.name)
        for node in bed.ns_ring.replicas_for(name)[:2]:
            isolate(bed, node)
        thread = bed.kernel.current_thread()
        thread.sleep(30.0)  # well past the staleness bound
        try:
            client.lookup(name)
        except NetworkError as exc:
            outcomes["refused"] = "exceeds bound" in str(exc)

    drive(bed, body)
    assert outcomes["refused"] is True
    assert client.stats["lookups_too_stale"] == 1


def test_no_replica_reachable_is_unavailability_not_unknown():
    bed = make_bed()
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/dark")
    outcomes = {}

    def body():
        client.register(name, bed.home.name)
        for node in bed.ns_ring.replicas_for(name):
            isolate(bed, node)
        try:
            client.lookup(name)
        except NetworkError:
            outcomes["lookup"] = "unavailable"
        except UnknownNameError:  # pragma: no cover - the bug this guards
            outcomes["lookup"] = "unknown"

    drive(bed, body)
    assert outcomes["lookup"] == "unavailable"
    assert client.stats["lookups_unavailable"] == 1


# -- anti-entropy sweeps -----------------------------------------------------


def test_periodic_sweeps_run_phase_offset_and_stop_on_crash():
    bed = make_bed(ns_anti_entropy=5.0)
    delays = {
        node: 5.0 * (0.25 + 0.5 * (stable_hash("sweep:" + node) % 1024) / 1024)
        for node in bed.ns_hosts
    }
    # Phase offsets genuinely differ across nodes (no lockstep sweeps).
    assert len(set(round(d, 6) for d in delays.values())) > 1
    victim = next(iter(bed.ns_hosts.values()))
    victim.crash()
    bed.run(until=30.0)
    for node, host in bed.ns_hosts.items():
        if host is victim:
            assert host.stats["sweeps"] == 0
        else:
            assert host.stats["sweeps"] >= 3
    victim.restart()
    bed.run(until=40.0)
    assert victim.stats["sweeps"] >= 1  # catch-up round after restart


def test_sweep_convergence_without_explicit_rounds():
    bed = make_bed(ns_anti_entropy=5.0)
    client = bed.home.name_service
    name = URN.parse("urn:agent:x.net/swept")
    victim = bed.ns_host(bed.ns_ring.replicas_for(name)[0])
    victim.crash()

    def register():
        client.register(name, bed.home.name)

    SimThread(bed.kernel, register, "ns-test-client").start()
    bed.run(until=10.0)
    assert bed.name_service.replicas_holding(name) == 2
    victim.restart()
    bed.run(until=40.0)  # several sweep periods
    assert bed.name_service.replicas_holding(name) == 3
    assert bed.name_service.divergences() == []


# -- observability -----------------------------------------------------------


def test_quorum_handoff_and_repair_are_traced(world):
    w = world(2)
    client = w.home.name_service
    name = URN.parse("urn:agent:x.net/traced")
    victim = w.ns_host(w.ns_ring.replicas_for(name)[2])
    victim.crash()

    def body():
        client.register(name, w.home.name)
        client.lookup(name)
        victim.restart()
        for host in w.ns_hosts.values():
            host.anti_entropy_round()

    SimThread(w.kernel, body, "ns-test-client").start()
    w.run()
    spans = {span.name for span in w.tracer.finished}
    assert {"ns.quorum", "ns.handoff", "ns.repair"} <= spans
    quorum_ops = {
        span.attributes.get("op")
        for span in w.tracer.finished if span.name == "ns.quorum"
    }
    assert {"register", "lookup"} <= quorum_ops


# -- the oracle --------------------------------------------------------------


def test_oracle_is_a_nameservice_with_xray_vision():
    bed = make_bed()
    oracle = bed.name_service
    name = URN.parse("urn:agent:x.net/oracle")
    token = oracle.register(name, bed.home.name, {"k": 1})
    assert oracle.contains(name)
    assert oracle.lookup(name).location == bed.home.name
    assert oracle.replicas_holding(name) == 3
    assert name in oracle.names()
    assert len(oracle) == 1
    with pytest.raises(NamingError):
        oracle.relocate(name, "bad-token", "x")
    oracle.relocate(name, token, bed.servers[1].name)
    assert oracle.lookup(name).location == bed.servers[1].name
    assert oracle.divergences() == []
    # Hand-poke one replica ahead: the oracle reports the divergence.
    store = bed.ns_host(bed.ns_ring.replicas_for(name)[0]).store
    store.merge(record(name, token=token, seq=9, location="forked"))
    assert oracle.divergences() == [name]
    oracle.unregister(name, token)
    assert not oracle.contains(name)
    assert len(oracle) == 0


# -- agents on top -----------------------------------------------------------


def test_agent_migration_updates_the_replicated_directory():
    bed = make_bed(server_kwargs={"transfer_timeout": 5.0})
    mover = ReplicatedHopper()
    mover.dest = bed.servers[1].name
    image = bed.launch(mover, Rights.all(), agent_local="mover")
    bed.run()
    assert bed.servers[1].resident_status(image.name)["status"] == "completed"
    assert bed.locate(image.name) == bed.servers[1].name
    assert bed.servers[1].stats["ns_relocate_failed"] == 0
    # The launch registration and the arrival relocation agree everywhere.
    assert bed.name_service.replicas_holding(image.name) == 3
    assert bed.name_service.divergences() == []


def test_agent_migration_survives_a_crashed_replica():
    bed = make_bed(server_kwargs={"transfer_timeout": 10.0})
    mover = ReplicatedHopper()
    mover.dest = bed.servers[1].name
    image = bed.launch(mover, Rights.all(), agent_local="mover2")
    victim = bed.ns_host(bed.ns_ring.replicas_for(image.name)[0])
    victim.crash()
    bed.run()
    assert bed.servers[1].resident_status(image.name)["status"] == "completed"
    assert bed.locate(image.name) == bed.servers[1].name
    assert bed.servers[1].stats["ns_relocate_failed"] == 0
