"""Partition-tolerant replicated naming: quorum directory + repair.

The paper's open federation (sections 5.2, 5.5) assumes agents can
always answer "where is agent X / resource Y" by asking a registry
server over the network.  This module is that networked directory; with
one shard of one replica and quorums of one (N=1/W=1/R=1) it is exactly
the paper's single registry node, whose answers are hostage to that
node's uptime.  Larger shapes replicate it:

* Names are assigned to shards by a :class:`~repro.naming.shard.HashRing`;
  each shard is served by N replica hosts (:class:`ReplicaNameHost`).
* Records are *versioned* (:class:`VersionedRecord`): a per-record
  ``(epoch, seq)`` vector under the registering owner token.  ``epoch``
  counts registration generations of the name (re-registering after an
  unregister starts a new epoch); ``seq`` counts owner updates within a
  generation.  Total order ``(epoch, seq, stamped, token)`` makes
  replica merge deterministic and resolves concurrent same-token
  writers last-writer-wins by virtual time.
* Writes are owner-authenticated quorum writes (W of N acks); reads are
  quorum reads (R of N) with read-repair of stale repliers; an
  unreachable replica gets *hinted handoff* (a reachable peer stores the
  record and delivers it later); a periodic *anti-entropy sweep*
  reconciles replicas pairwise via Merkle-style bucket digests over
  :class:`~repro.net.secure_channel.SecureChannel`.
* Failover is client-driven (:class:`ReplicatedNameClient`): route by
  ring position, retry across replicas with the PR 2
  :class:`~repro.util.retry.RetryPolicy` + per-replica
  :class:`~repro.util.retry.CircuitBreaker`, and — when no read quorum
  is reachable — degrade to a *stale-but-flagged* read whose staleness
  is surfaced in the record attributes (``ns.stale``, ``ns.age``,
  ``ns.replies``) and bounded by ``stale_read_limit``.

Quorum arithmetic: with ``R + W > N`` every read quorum intersects every
committed write, and with ``2W > N`` two concurrent registrations of the
same name cannot both commit — the defaults (N=3, W=2, R=2) satisfy
both, and the client enforces them at construction.

Authority model: the owner token is a bearer secret, exactly as in
:class:`~repro.naming.registry.NameService` (section 5.5's "ownership
information ... used to prevent any unauthorized modifications").
Replicas check it on client writes (``put``); replica-to-replica repair
traffic (``repair``/``pull``/``digest``) merges purely by version order
and is therefore restricted to authenticated ring peers of the same
shard — see ``docs/naming.md`` for the failure matrix and the residual
trust this places in directory nodes.

:class:`DirectoryOracle` is the god's-eye view: the Testbed's
kernel-context bootstrap interface (launch-time registration happens
before the simulation runs, where no secure channel can be driven) and
the conservation oracle for tests and benchmarks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import (
    DuplicateNameError,
    NamingError,
    NetworkError,
    ReproError,
    SimulationError,
    UnknownNameError,
)
from repro.naming.registry import NameRecord
from repro.naming.shard import HashRing, bucket_of, stable_hash
from repro.naming.urn import URN
from repro.net.secure_channel import SecureHost
from repro.obs import runtime as _obs
from repro.sim.kernel import Kernel
from repro.sim.monitor import Counter
from repro.sim.threads import SimThread
from repro.util.ids import IdGenerator
from repro.util.retry import CircuitBreaker, RetryPolicy
from repro.util.serialization import (
    canonical_digest,
    decode,
    encode,
    register_serializable,
)

__all__ = [
    "SHARD_APP_KIND",
    "VersionedRecord",
    "ShardStore",
    "ReplicaNameHost",
    "ReplicatedNameClient",
    "DirectoryOracle",
]

SHARD_APP_KIND = "ns.shard"

_ERROR_KINDS = {
    "unknown": UnknownNameError,
    "duplicate": DuplicateNameError,
    "naming": NamingError,
}


def _raise_reply_error(reply: dict) -> None:
    raise _ERROR_KINDS.get(reply.get("kind"), NamingError)(reply["error"])


# ---------------------------------------------------------------------------
# Versioned records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VersionedRecord:
    """One name binding plus the version vector that orders replicas.

    ``version`` is ``(epoch, seq, stamped, token)``.  The ``stamped``
    component makes concurrent same-token writers — the home server's
    launch-time relocation racing the arrival server's, both holding the
    owner token — resolve last-writer-wins by virtual time, exactly the
    order a single serializing registry would impose.  The final token
    tiebreak only matters for the transient same-epoch registration
    race, where it makes the replicas converge on *one* loser
    deterministically (the racing client that failed its write quorum
    already got :class:`~repro.errors.DuplicateNameError`).
    """

    name: URN
    location: str
    attributes: dict[str, Any]
    token: str
    epoch: int
    seq: int
    tombstone: bool = False
    stamped: float = 0.0  # virtual time of the write (staleness bound)

    def __post_init__(self) -> None:
        if not isinstance(self.name, URN):
            raise NamingError("record names must be URN instances")
        if not isinstance(self.token, str) or not self.token:
            raise NamingError("record token must be a non-empty string")
        if not isinstance(self.epoch, int) or self.epoch < 1:
            raise NamingError("record epoch must be a positive int")
        if not isinstance(self.seq, int) or self.seq < 1:
            raise NamingError("record seq must be a positive int")
        if not isinstance(self.attributes, dict):
            raise NamingError("record attributes must be a dict")
        if not isinstance(self.location, str):
            raise NamingError("record location must be a string")

    @property
    def version(self) -> tuple[int, int, float, str]:
        return (self.epoch, self.seq, self.stamped, self.token)

    def canonical(self) -> tuple:
        """A normalized tuple for digesting (attribute order erased)."""
        return (
            str(self.name),
            self.location,
            tuple(sorted(self.attributes.items())),
            self.token,
            self.epoch,
            self.seq,
            self.tombstone,
            self.stamped,
        )

    def to_state(self) -> tuple:
        return (
            self.name,
            self.location,
            dict(self.attributes),
            self.token,
            self.epoch,
            self.seq,
            self.tombstone,
            self.stamped,
        )

    @classmethod
    def from_state(cls, state: Any) -> "VersionedRecord":
        if not isinstance(state, (tuple, list)) or len(state) != 8:
            raise NamingError("malformed VersionedRecord state")
        name, location, attributes, token, epoch, seq, tombstone, stamped = state
        return cls(
            name=name,
            location=location,
            attributes=dict(attributes),
            token=token,
            epoch=epoch,
            seq=seq,
            tombstone=bool(tombstone),
            stamped=float(stamped),
        )


register_serializable(VersionedRecord)


# ---------------------------------------------------------------------------
# Per-replica storage
# ---------------------------------------------------------------------------


class ShardStore:
    """One replica's record table — its "stable storage".

    Survives ``crash()``/``restart()`` of the owning host, exactly as the
    agent server's departure journal does.  All access is under one lock;
    the check-then-write of :meth:`put_checked` is atomic, and every
    read returns either an immutable record reference (records are
    frozen; their attribute dicts are copied at the NameService surface)
    or a fresh list.
    """

    def __init__(self) -> None:
        self._records: dict[URN, VersionedRecord] = {}
        self._lock = threading.Lock()

    def get(self, name: URN) -> VersionedRecord | None:
        with self._lock:
            return self._records.get(name)

    def merge(self, record: VersionedRecord) -> bool:
        """Version-order merge (the repair path): apply iff strictly newer."""
        with self._lock:
            existing = self._records.get(record.name)
            if existing is None or record.version > existing.version:
                self._records[record.name] = record
                return True
            return False

    def put_checked(self, record: VersionedRecord) -> bool:
        """Owner-authenticated client write.

        Returns True if applied, False if this replica already holds the
        same or a newer version under the same token (an idempotent
        retransmit — still an ack: the state is at least as new as the
        write being acknowledged).  Raises on authority violations.
        """
        with self._lock:
            existing = self._records.get(record.name)
            if existing is None:
                self._records[record.name] = record
                return True
            if record.token == existing.token:
                if record.version > existing.version:
                    self._records[record.name] = record
                    return True
                return False
            # Different owner token.  A *later epoch* is a committed
            # re-registration this replica missed (the writer's probe
            # read a quorum and saw no live record; quorum intersection
            # says a committed live record would have been visible) —
            # accept it.  Same or earlier epoch is a rejection: a racing
            # registration (seq == 1) or a forged update token.
            if record.epoch > existing.epoch:
                self._records[record.name] = record
                return True
            if record.seq == 1:
                raise DuplicateNameError(
                    f"{record.name} is already registered "
                    f"(epoch {existing.epoch})"
                )
            raise NamingError(f"bad owner token for {record.name}")

    # -- enumeration / digests ----------------------------------------------

    def records(self) -> list[VersionedRecord]:
        with self._lock:
            return list(self._records.values())

    def names(self) -> list[URN]:
        """Live (non-tombstone) names held by this replica."""
        with self._lock:
            return [n for n, r in self._records.items() if not r.tombstone]

    def digests(self, n_buckets: int) -> list[bytes]:
        """Per-bucket digests of everything held, tombstones included."""
        with self._lock:
            buckets: list[list[VersionedRecord]] = [[] for _ in range(n_buckets)]
            for name, record in self._records.items():
                buckets[bucket_of(str(name), n_buckets)].append(record)
        out = []
        for group in buckets:
            group.sort(key=lambda r: str(r.name))
            out.append(canonical_digest([r.canonical() for r in group]))
        return out

    def bucket_records(self, bucket: int, n_buckets: int) -> list[VersionedRecord]:
        with self._lock:
            records = [
                r
                for n, r in self._records.items()
                if bucket_of(str(n), n_buckets) == bucket
            ]
        records.sort(key=lambda r: str(r.name))
        return records

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for r in self._records.values() if not r.tombstone)


# ---------------------------------------------------------------------------
# The replica host
# ---------------------------------------------------------------------------


class ReplicaNameHost:
    """One directory node: serves one shard's records over ``ns.shard``.

    Fail-stop semantics match :class:`~repro.server.agent_server
    .AgentServer`: ``crash()`` closes the endpoint and forgets session
    keys but keeps the :class:`ShardStore` (stable storage); duck-typing
    makes it schedulable by :meth:`~repro.net.faults.FaultInjector.crash`.

    Anti-entropy is opt-in: :meth:`start_sweeps` schedules periodic
    reconciliation rounds (phase-offset per node, so replicas do not
    sweep in lockstep), or a test drives :meth:`anti_entropy_round`
    directly from a simulated thread.
    """

    def __init__(
        self,
        secure_host: SecureHost,
        ring: HashRing,
        shard_id: str,
        *,
        n_buckets: int = 16,
        timeout: float = 10.0,
        hint_capacity: int = 1024,
    ) -> None:
        if secure_host.name not in ring.replicas(shard_id):
            raise NamingError(
                f"{secure_host.name} is not a replica of shard {shard_id!r}"
            )
        self.secure = secure_host
        self.kernel: Kernel = secure_host.kernel
        self.name: str = secure_host.name
        self.ring = ring
        self.shard_id = shard_id
        self.peers = tuple(
            node for node in ring.replicas(shard_id) if node != self.name
        )
        self.store = ShardStore()
        self.n_buckets = n_buckets
        self.stats = Counter()
        self._timeout = timeout
        # Held hints: (target replica, name) → newest record awaiting
        # delivery.  Bounded; overflow drops the incoming hint (counted).
        self._hints: dict[tuple[str, URN], VersionedRecord] = {}
        self._hint_capacity = hint_capacity
        self._crashed = False
        self._sweep_interval: float | None = None
        self._sweep_timer = None
        secure_host.bind_app(SHARD_APP_KIND, self._on_op)
        # Directory nodes join the cluster telemetry plane like agent
        # servers do: same scrape op, labels naming the node and shard so
        # the collector's merged view can slice per replica group.
        from repro.obs.aggregate import TelemetryUnit

        self.telemetry = TelemetryUnit(
            self.name, secure_host.clock, node=self.name, shard=shard_id
        )
        self.telemetry.register_source("ns_replica", self.stats)
        self.telemetry.gauge(
            "ns_replica.records", fn=lambda: float(len(self.store))
        )
        self.telemetry.gauge(
            "ns_replica.hints_pending", fn=lambda: float(len(self._hints))
        )
        self.telemetry.bind(secure_host)

    # -- the wire protocol ---------------------------------------------------

    def _on_op(self, peer: str, body: bytes) -> bytes:
        try:
            request = decode(body)
            op = request.get("op")
            if op == "put":
                applied = self.store.put_checked(self._record_arg(request))
                self.stats.add("puts_applied" if applied else "puts_stale")
                return encode({"ok": {"applied": applied}})
            if op == "get":
                self.stats.add("gets")
                return encode({"ok": self.store.get(self._name_arg(request))})
            if op == "digest":
                return encode(
                    {"ok": self.store.digests(self._buckets_arg(request))}
                )
            if op == "pull":
                n = self._buckets_arg(request)
                bucket = request.get("bucket")
                if not isinstance(bucket, int) or not 0 <= bucket < n:
                    raise NamingError(f"bad bucket index {bucket!r}")
                return encode({"ok": self.store.bucket_records(bucket, n)})
            if op == "repair":
                # Version-order merge without token checks: restricted to
                # authenticated ring peers of this shard (read-repair from
                # clients goes through the token-checked "put").
                if peer not in self.peers:
                    raise NamingError(
                        f"repair on {self.shard_id} restricted to ring peers, "
                        f"not {peer}"
                    )
                applied = self.store.merge(self._record_arg(request))
                self.stats.add("repairs_applied" if applied else "repairs_stale")
                return encode({"ok": {"applied": applied}})
            if op == "hint":
                self._store_hint(request.get("target"), self._record_arg(request))
                return encode({"ok": True})
            raise NamingError(f"unknown shard op {op!r}")
        except UnknownNameError as exc:
            return encode({"error": str(exc), "kind": "unknown"})
        except DuplicateNameError as exc:
            return encode({"error": str(exc), "kind": "duplicate"})
        except NamingError as exc:
            return encode({"error": str(exc), "kind": "naming"})
        except ReproError as exc:
            return encode({"error": str(exc), "kind": "naming"})

    def _record_arg(self, request: dict) -> VersionedRecord:
        record = request.get("record")
        if not isinstance(record, VersionedRecord):
            raise NamingError("request carries no record")
        if self.ring.shard_for(record.name) != self.shard_id:
            raise NamingError(
                f"{record.name} belongs to shard "
                f"{self.ring.shard_for(record.name)!r}, not {self.shard_id!r}"
            )
        return record

    def _name_arg(self, request: dict) -> URN:
        name = request.get("name")
        if not isinstance(name, URN):
            raise NamingError("request carries no name")
        return name

    def _buckets_arg(self, request: dict) -> int:
        n = request.get("buckets")
        if not isinstance(n, int) or not 1 <= n <= 4096:
            raise NamingError(f"bad bucket count {n!r}")
        return n

    # -- hinted handoff ------------------------------------------------------

    def _store_hint(self, target: Any, record: VersionedRecord) -> None:
        if target == self.name:
            # A hint for ourselves is just the record.
            self.store.merge(record)
            return
        if target not in self.ring.replicas(self.shard_id):
            raise NamingError(
                f"{target!r} is not a replica of shard {self.shard_id}"
            )
        key = (target, record.name)
        existing = self._hints.get(key)
        if existing is not None and existing.version >= record.version:
            return
        if existing is None and len(self._hints) >= self._hint_capacity:
            self.stats.add("hints_dropped")
            return
        self._hints[key] = record
        self.stats.add("hints_held")

    def _deliver_hints(self, summary: dict[str, int]) -> None:
        if not self._hints:
            return
        by_target: dict[str, list[tuple[tuple[str, URN], VersionedRecord]]] = {}
        for key, record in sorted(self._hints.items(), key=lambda kv: str(kv[0])):
            by_target.setdefault(key[0], []).append((key, record))
        for target, entries in by_target.items():
            if _obs.TRACING:
                with _obs.TRACER.span(
                    "ns.handoff", server=self.name, target=target,
                    records=len(entries),
                ):
                    self._deliver_to(target, entries, summary)
            else:
                self._deliver_to(target, entries, summary)

    def _deliver_to(
        self,
        target: str,
        entries: list[tuple[tuple[str, URN], VersionedRecord]],
        summary: dict[str, int],
    ) -> None:
        try:
            channel = self.secure.connect(target, timeout=self._timeout)
            for key, record in entries:
                reply = decode(
                    channel.call(
                        SHARD_APP_KIND,
                        encode({"op": "repair", "record": record}),
                        timeout=self._timeout,
                    )
                )
                # An error reply means the peer holds something newer —
                # the hint is obsolete either way.
                self._hints.pop(key, None)
                self.stats.add("hints_delivered")
                summary["hints_delivered"] += 1
                if "error" in reply:
                    self.stats.add("hints_obsolete")
        except ReproError:
            self.stats.add("hint_delivery_failed")
            self.secure.drop_channel(target)

    # -- anti-entropy --------------------------------------------------------

    def anti_entropy_round(self) -> dict[str, int]:
        """One reconciliation pass (blocking; simulated-thread context):
        deliver held hints, then digest-exchange with every peer."""
        summary = {
            "hints_delivered": 0,
            "records_in": 0,
            "records_out": 0,
            "peers_unreachable": 0,
        }
        if self._crashed:
            return summary
        if _obs.TRACING:
            with _obs.TRACER.span(
                "ns.repair", server=self.name, shard=self.shard_id
            ) as span:
                self._sweep(summary)
                for key, value in summary.items():
                    span.set_attribute(key, value)
        else:
            self._sweep(summary)
        self.stats.add("sweeps")
        return summary

    def _sweep(self, summary: dict[str, int]) -> None:
        self._deliver_hints(summary)
        for peer in self.peers:
            try:
                self._reconcile(peer, summary)
            except ReproError:
                summary["peers_unreachable"] += 1
                self.stats.add("sweep_peer_unreachable")
                self.secure.drop_channel(peer)

    def _reconcile(self, peer: str, summary: dict[str, int]) -> None:
        channel = self.secure.connect(peer, timeout=self._timeout)
        theirs = self._peer_call(
            channel, {"op": "digest", "buckets": self.n_buckets}
        )
        mine = self.store.digests(self.n_buckets)
        if not isinstance(theirs, list) or len(theirs) != len(mine):
            raise NamingError(f"digest shape mismatch from {peer}")
        for bucket in range(self.n_buckets):
            if mine[bucket] == theirs[bucket]:
                continue
            pulled = self._peer_call(
                channel,
                {"op": "pull", "bucket": bucket, "buckets": self.n_buckets},
            )
            seen: dict[URN, tuple[int, int, float, str]] = {}
            for record in pulled:
                if not isinstance(record, VersionedRecord):
                    raise NamingError(f"non-record in pull reply from {peer}")
                seen[record.name] = record.version
                if self.store.merge(record):
                    summary["records_in"] += 1
                    self.stats.add("repair_records_in")
            for record in self.store.bucket_records(bucket, self.n_buckets):
                known = seen.get(record.name)
                if known is None or known < record.version:
                    self._peer_call(channel, {"op": "repair", "record": record})
                    summary["records_out"] += 1
                    self.stats.add("repair_records_out")

    def _peer_call(self, channel: Any, request: dict) -> Any:
        reply = decode(
            channel.call(SHARD_APP_KIND, encode(request), timeout=self._timeout)
        )
        if "error" in reply:
            _raise_reply_error(reply)
        return reply["ok"]

    # -- periodic sweeps -----------------------------------------------------

    def start_sweeps(
        self, interval: float, *, initial_delay: float | None = None
    ) -> None:
        """Reconcile every ``interval`` virtual seconds.

        Each node starts at a deterministic per-node phase offset so a
        shard's replicas interleave their sweeps rather than colliding.
        Note the timers keep the kernel's event queue non-empty: drive
        the world with ``run(until=...)``, not an open-ended ``run()``.
        """
        if interval <= 0:
            raise ValueError("sweep interval must be positive")
        self._sweep_interval = interval
        if self._sweep_timer is None and not self._crashed:
            if initial_delay is None:
                phase = (stable_hash("sweep:" + self.name) % 1024) / 1024.0
                initial_delay = interval * (0.25 + 0.5 * phase)
            self._schedule_sweep(initial_delay)

    def stop_sweeps(self) -> None:
        self._sweep_interval = None
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None

    def _schedule_sweep(self, delay: float) -> None:
        self._sweep_timer = self.kernel.schedule(delay, self._sweep_tick)

    def _sweep_tick(self) -> None:
        self._sweep_timer = None
        if self._crashed or self._sweep_interval is None:
            return

        def body() -> None:
            try:
                self.anti_entropy_round()
            finally:
                if (
                    not self._crashed
                    and self._sweep_interval is not None
                    and self._sweep_timer is None
                ):
                    self._schedule_sweep(self._sweep_interval)

        SimThread(
            self.kernel, body, f"ns-sweep/{self.name}", on_error="store"
        ).start()

    # -- fail-stop -----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: drop sessions and refuse traffic; keep the store."""
        self._crashed = True
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None
        self.secure.reset_channels()
        self.secure.endpoint.close()
        self.stats.add("crashes")

    def restart(self) -> None:
        self._crashed = False
        self.secure.endpoint.open()
        self.stats.add("restarts")
        if self._sweep_interval is not None and self._sweep_timer is None:
            # Catch-up round soon after coming back: pull what was missed.
            self._schedule_sweep(self._sweep_interval / 4)

    @property
    def is_crashed(self) -> bool:
        return self._crashed


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class ReplicatedNameClient:
    """Client-driven failover over the replica groups.

    The :class:`~repro.naming.registry.NameService` interface with
    blocking operations that require a simulated thread, plus the
    kernel-context ``relocate_async``.  Every operation
    routes by ring position and gathers replies from the shard's
    replicas — retrying across rounds under ``retry`` with per-replica
    circuit breakers — until the required quorum answers.
    """

    def __init__(
        self,
        secure_host: SecureHost,
        ring: HashRing,
        *,
        write_quorum: int = 2,
        read_quorum: int = 2,
        timeout: float = 10.0,
        retry: RetryPolicy | None = None,
        retry_rng: Any | None = None,
        stale_read_limit: float | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 15.0,
    ) -> None:
        for shard_id in ring.shard_ids():
            n = len(ring.replicas(shard_id))
            if not 1 <= write_quorum <= n or not 1 <= read_quorum <= n:
                raise NamingError(
                    f"quorums W={write_quorum}/R={read_quorum} out of range "
                    f"for shard {shard_id!r} with {n} replicas"
                )
            if read_quorum + write_quorum <= n:
                raise NamingError(
                    f"R + W must exceed N for shard {shard_id!r} "
                    f"(R={read_quorum}, W={write_quorum}, N={n})"
                )
            if 2 * write_quorum <= n:
                raise NamingError(
                    f"write quorum must be a majority of shard {shard_id!r} "
                    f"(W={write_quorum}, N={n})"
                )
        self._host = secure_host
        self.kernel: Kernel = secure_host.kernel
        self._ring = ring
        self.write_quorum = write_quorum
        self.read_quorum = read_quorum
        self._timeout = timeout
        self._retry = retry or RetryPolicy(
            attempts=3, base_delay=0.2, max_delay=2.0
        )
        self._retry_rng = retry_rng
        self.stale_read_limit = stale_read_limit
        self._breaker_threshold = breaker_threshold
        self._breaker_reset = breaker_reset
        self._breakers: dict[str, CircuitBreaker] = {}
        # Client-minted owner tokens, scoped by the minting host's name
        # so two clients can never collide.
        self._tokens = IdGenerator(f"nstoken:{secure_host.name}")
        self.stats = Counter()

    @property
    def ring(self) -> HashRing:
        return self._ring

    # -- the NameService interface -------------------------------------------

    def register(
        self,
        name: URN,
        location: str,
        attributes: dict[str, Any] | None = None,
    ) -> str:
        self._require_urn(name)
        return self._traced(
            "register", name, lambda span: self._register(
                name, location, dict(attributes or {}), span
            )
        )

    def lookup(self, name: URN) -> NameRecord:
        self._require_urn(name)
        return self._traced(
            "lookup", name, lambda span: self._lookup(name, span)
        )

    def contains(self, name: URN) -> bool:
        try:
            self.lookup(name)
            return True
        except UnknownNameError:
            return False

    def relocate(self, name: URN, token: str, new_location: str) -> None:
        self._require_urn(name)
        self._traced(
            "relocate", name, lambda span: self._update(
                name, token, span, location=new_location
            )
        )

    def unregister(self, name: URN, token: str) -> None:
        self._require_urn(name)
        self._traced(
            "unregister", name, lambda span: self._update(
                name, token, span, tombstone=True
            )
        )

    def relocate_async(
        self,
        kernel: Kernel,
        name: URN,
        token: str,
        new_location: str,
        on_fail: Callable[[], None],
        audit: Any,
    ) -> None:
        """Fire-and-forget relocation from kernel context.

        The arrival path runs in kernel context and must not block on the
        network, so the update runs in a short-lived thread.  A relocation
        that silently never lands would strand every later ``env.locate``
        of the agent, so a failure (a) bumps ``relocate_failed`` on this
        client, (b) increments the global ``ns_relocate_failed`` metric
        when a metrics registry is installed, (c) writes an
        ``ns.relocate_async`` record to the hosting server's ``audit``
        log, and (d) only then invokes ``on_fail``.
        """

        def body() -> None:
            try:
                self.relocate(name, token, new_location)
            except ReproError as exc:
                self.stats.add("relocate_failed")
                if _obs.METRICS_ON:
                    _obs.METRICS.inc("ns_relocate_failed")
                audit.record(
                    str(name), "ns.relocate_async", new_location, False,
                    f"lost relocation to {new_location}: "
                    f"{type(exc).__name__}: {exc}",
                )
                on_fail()

        SimThread(kernel, body, f"ns-relocate:{name.local}").start()

    # -- operation bodies ----------------------------------------------------

    def _register(
        self, name: URN, location: str, attributes: dict, span: Any
    ) -> str:
        self.stats.add("registers")
        best, answered = self._probe(name)
        if answered < self.read_quorum:
            self.stats.add("registers_unavailable")
            raise NetworkError(
                f"cannot establish registration epoch for {name}: "
                f"{answered}/{self.read_quorum} replicas answered",
                replies=answered,
            )
        if best is not None and not best.tombstone:
            raise DuplicateNameError(f"{name} is already registered")
        record = VersionedRecord(
            name=name,
            location=location,
            attributes=attributes,
            token=self._tokens.next(),
            epoch=(best.epoch + 1) if best is not None else 1,
            seq=1,
            stamped=self.kernel.clock.now(),
        )
        self._quorum_write(name, record, span)
        return record.token

    def _lookup(self, name: URN, span: Any) -> NameRecord:
        self.stats.add("lookups")
        replies = self._gather(
            name, {"op": "get", "name": name}, want=self.read_quorum
        )
        records = {
            node: reply
            for node, reply in replies.items()
            if not isinstance(reply, ReproError)
        }
        answered = len(records)
        if span is not None:
            span.set_attribute("replies", answered)
        if answered == 0:
            self.stats.add("lookups_unavailable")
            raise NetworkError(
                f"no replica of shard {self._ring.shard_for(name)!r} "
                f"reachable for lookup of {name}"
            )
        best = None
        for record in records.values():
            if record is not None and (
                best is None or record.version > best.version
            ):
                best = record
        stale = answered < self.read_quorum
        if not stale and best is not None:
            self._read_repair(name, best, records)
        if best is None or best.tombstone:
            raise UnknownNameError(
                f"{name} is not registered", stale=stale, replies=answered
            )
        attributes = dict(best.attributes)
        if stale:
            age = max(0.0, self.kernel.clock.now() - best.stamped)
            if self.stale_read_limit is not None and age > self.stale_read_limit:
                self.stats.add("lookups_too_stale")
                raise NetworkError(
                    f"stale read of {name} exceeds bound: age {age:.3f}s "
                    f"> {self.stale_read_limit}s limit",
                    replies=answered,
                )
            self.stats.add("lookups_stale")
            attributes["ns.stale"] = True
            attributes["ns.replies"] = answered
            attributes["ns.age"] = age
            if span is not None:
                span.set_attribute("stale", True)
        return NameRecord(name=name, location=best.location, attributes=attributes)

    def _update(
        self,
        name: URN,
        token: str,
        span: Any,
        *,
        location: str | None = None,
        tombstone: bool = False,
    ) -> None:
        self.stats.add("unregisters" if tombstone else "relocates")
        best, answered = self._probe(name)
        if answered < self.read_quorum:
            raise NetworkError(
                f"no read quorum for update of {name}: "
                f"{answered}/{self.read_quorum} replicas answered",
                replies=answered,
            )
        if best is None or best.tombstone:
            raise UnknownNameError(f"{name} is not registered")
        if best.token != token:
            raise NamingError(f"bad owner token for {name}")
        record = VersionedRecord(
            name=name,
            location=best.location if location is None else location,
            attributes={} if tombstone else dict(best.attributes),
            token=token,
            epoch=best.epoch,
            seq=best.seq + 1,
            tombstone=tombstone,
            stamped=self.kernel.clock.now(),
        )
        self._quorum_write(name, record, span)

    # -- quorum plumbing -----------------------------------------------------

    def _probe(self, name: URN) -> tuple[VersionedRecord | None, int]:
        """Quorum read including tombstones: (newest record, replies)."""
        replies = self._gather(
            name, {"op": "get", "name": name}, want=self.read_quorum
        )
        best = None
        answered = 0
        for reply in replies.values():
            if isinstance(reply, ReproError):
                continue
            answered += 1
            if reply is not None and (
                best is None or reply.version > best.version
            ):
                best = reply
        return best, answered

    def _quorum_write(
        self, name: URN, record: VersionedRecord, span: Any
    ) -> None:
        replicas = self._ring.replicas_for(name)
        replies = self._gather(
            name, {"op": "put", "record": record}, want=self.write_quorum
        )
        acked = [
            node for node, reply in replies.items()
            if not isinstance(reply, ReproError)
        ]
        if span is not None:
            span.set_attribute("acks", len(acked))
        self.stats.add("write_acks", len(acked))
        if len(acked) < self.write_quorum:
            self.stats.add("quorum_write_failures")
            for reply in replies.values():
                if isinstance(reply, (DuplicateNameError, UnknownNameError,
                                      NamingError)):
                    # An authoritative rejection, not an availability gap.
                    raise reply
            raise NetworkError(
                f"write quorum not reached for {name}: "
                f"{len(acked)}/{self.write_quorum} acks",
                acks=len(acked),
            )
        missing = [node for node in replicas if node not in acked]
        if missing:
            self._hand_off(name, record, missing, via=acked[0])

    def _hand_off(
        self, name: URN, record: VersionedRecord, missing: list[str], via: str
    ) -> None:
        """Leave hints for unreachable replicas with a reachable one."""
        if _obs.TRACING:
            with _obs.TRACER.span(
                "ns.handoff", client=self._host.name, via=via,
                targets=",".join(missing), urn=str(name),
            ):
                self._send_hints(record, missing, via)
        else:
            self._send_hints(record, missing, via)

    def _send_hints(
        self, record: VersionedRecord, missing: list[str], via: str
    ) -> None:
        try:
            channel = self._host.connect(via, timeout=self._timeout)
            for target in missing:
                reply = decode(
                    channel.call(
                        SHARD_APP_KIND,
                        encode({
                            "op": "hint", "target": target, "record": record,
                        }),
                        timeout=self._timeout,
                    )
                )
                if "error" not in reply:
                    self.stats.add("hints_sent")
        except NetworkError:
            self.stats.add("hint_send_failed")
            self._host.drop_channel(via)

    def _read_repair(
        self,
        name: URN,
        best: VersionedRecord,
        records: Mapping[str, VersionedRecord | None],
    ) -> None:
        """Push the newest version to repliers that answered stale."""
        for node, record in records.items():
            if record is not None and record.version >= best.version:
                continue
            try:
                channel = self._host.connect(node, timeout=self._timeout)
                channel.call(
                    SHARD_APP_KIND,
                    encode({"op": "put", "record": best}),
                    timeout=self._timeout,
                )
            except NetworkError:
                self.stats.add("read_repair_failed")
                self._host.drop_channel(node)
                continue
            self.stats.add("read_repairs")
            if _obs.TRACING:
                _obs.TRACER.add_event(
                    "ns.read_repair", urn=str(name), node=node
                )

    def _gather(
        self, name: URN, request: dict, *, want: int
    ) -> dict[str, Any]:
        """Collect per-replica replies until ``want`` have answered.

        Every round attempts *all* silent replicas (so a write reaches
        N, not just W, when everyone is up); rounds after the first
        sleep under the retry policy's backoff.  Values are either the
        decoded ``ok`` payload or the mapped server-side error — a
        server that *answered* with an error counts toward ``want``
        (the directory spoke; the network did not fail).
        """
        replicas = self._ring.replicas_for(name)
        want = min(want, len(replicas))
        payload = encode(request)
        replies: dict[str, Any] = {}
        for attempt in range(self._retry.attempts):
            if attempt:
                delay = self._retry.delay_before(attempt, self._retry_rng)
                if delay > 0:
                    thread = self.kernel.current_thread()
                    if thread is None:
                        raise SimulationError(
                            "quorum retries require a simulated thread"
                        )
                    thread.sleep(delay)
                self.stats.add("retry_rounds")
            for node in replicas:
                if node in replies:
                    continue
                breaker = self._breaker(node)
                if not breaker.allow():
                    self.stats.add("breaker_skips")
                    continue
                try:
                    channel = self._host.connect(node, timeout=self._timeout)
                    raw = channel.call(
                        SHARD_APP_KIND, payload, timeout=self._timeout
                    )
                except NetworkError:
                    breaker.record_failure()
                    self.stats.add("replica_failures")
                    self._host.drop_channel(node)
                    continue
                breaker.record_success()
                reply = decode(raw)
                if "error" in reply:
                    replies[node] = _ERROR_KINDS.get(
                        reply.get("kind"), NamingError
                    )(reply["error"])
                else:
                    replies[node] = reply["ok"]
            if len(replies) >= want:
                break
        return replies

    def _breaker(self, node: str) -> CircuitBreaker:
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = CircuitBreaker(
                self.kernel.clock,
                failure_threshold=self._breaker_threshold,
                reset_timeout=self._breaker_reset,
            )
            self._breakers[node] = breaker
        return breaker

    def _traced(self, op: str, name: URN, body: Callable[[Any], Any]) -> Any:
        if _obs.TRACING:
            with _obs.TRACER.span(
                "ns.quorum", op=op, urn=str(name), client=self._host.name
            ) as span:
                return body(span)
        return body(None)

    @staticmethod
    def _require_urn(name: Any) -> None:
        if not isinstance(name, URN):
            raise NamingError("names must be URN instances")


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class DirectoryOracle:
    """God's-eye NameService over every replica store.

    Two jobs.  First, the Testbed's kernel-context directory interface:
    launch-time registration happens before the simulation runs, where
    no secure call can block, so the oracle writes straight into the
    replica stores (the simulated equivalent of provisioning the
    directory before opening the doors).  Second, the conservation
    oracle for tests and benchmarks: merged authoritative reads,
    per-name replica counts (:meth:`replicas_holding`) and divergence
    reports (:meth:`divergences`) that say whether anti-entropy actually
    converged the shard.
    """

    def __init__(
        self,
        ring: HashRing,
        hosts: Mapping[str, ReplicaNameHost],
        clock: Any,
    ) -> None:
        missing = [node for node in ring.nodes() if node not in hosts]
        if missing:
            raise NamingError(f"no hosts for ring nodes {missing}")
        self._ring = ring
        self._hosts = dict(hosts)
        self._clock = clock
        self._tokens = IdGenerator("nstoken")

    # -- the NameService interface -------------------------------------------

    def register(
        self,
        name: URN,
        location: str,
        attributes: dict[str, Any] | None = None,
    ) -> str:
        if not isinstance(name, URN):
            raise NamingError("names must be URN instances")
        best = self._best(name)
        if best is not None and not best.tombstone:
            raise DuplicateNameError(f"{name} is already registered")
        record = VersionedRecord(
            name=name,
            location=location,
            attributes=dict(attributes or {}),
            token=self._tokens.next(),
            epoch=(best.epoch + 1) if best is not None else 1,
            seq=1,
            stamped=self._clock.now(),
        )
        for store in self._stores(name):
            store.merge(record)
        return record.token

    def lookup(self, name: URN) -> NameRecord:
        best = self._best(name)
        if best is None or best.tombstone:
            raise UnknownNameError(f"{name} is not registered")
        return NameRecord(
            name=name, location=best.location, attributes=dict(best.attributes)
        )

    def contains(self, name: URN) -> bool:
        best = self._best(name)
        return best is not None and not best.tombstone

    def relocate(self, name: URN, token: str, new_location: str) -> None:
        best = self._authorize(name, token)
        self._apply_everywhere(
            name,
            VersionedRecord(
                name=name,
                location=new_location,
                attributes=dict(best.attributes),
                token=token,
                epoch=best.epoch,
                seq=best.seq + 1,
                stamped=self._clock.now(),
            ),
        )

    def unregister(self, name: URN, token: str) -> None:
        best = self._authorize(name, token)
        self._apply_everywhere(
            name,
            VersionedRecord(
                name=name,
                location=best.location,
                attributes={},
                token=token,
                epoch=best.epoch,
                seq=best.seq + 1,
                tombstone=True,
                stamped=self._clock.now(),
            ),
        )

    def names(self, kind: str | None = None) -> list[URN]:
        """All live names, merged across every replica."""
        best: dict[URN, VersionedRecord] = {}
        for host in self._hosts.values():
            for record in host.store.records():
                known = best.get(record.name)
                if known is None or record.version > known.version:
                    best[record.name] = record
        return [
            name
            for name, record in best.items()
            if not record.tombstone and (kind is None or name.kind == kind)
        ]

    def __len__(self) -> int:
        return len(self.names())

    # -- conservation probes -------------------------------------------------

    def replicas_holding(self, name: URN) -> int:
        """How many of the name's replicas hold a live record for it."""
        count = 0
        for store in self._stores(name):
            record = store.get(name)
            if record is not None and not record.tombstone:
                count += 1
        return count

    def divergences(self) -> list[URN]:
        """Names whose replica group disagrees (missing or differing).

        Empty after a heal plus enough anti-entropy rounds — the
        convergence oracle for partition experiments.
        """
        names: set[URN] = set()
        for host in self._hosts.values():
            for record in host.store.records():
                names.add(record.name)
        diverged = []
        for name in sorted(names, key=str):
            versions = set()
            for store in self._stores(name):
                record = store.get(name)
                versions.add(None if record is None else record.canonical())
            if len(versions) > 1:
                diverged.append(name)
        return diverged

    # -- internals -----------------------------------------------------------

    def _stores(self, name: URN) -> list[ShardStore]:
        return [
            self._hosts[node].store for node in self._ring.replicas_for(name)
        ]

    def _best(self, name: URN) -> VersionedRecord | None:
        best = None
        for store in self._stores(name):
            record = store.get(name)
            if record is not None and (
                best is None or record.version > best.version
            ):
                best = record
        return best

    def _authorize(self, name: URN, token: str) -> VersionedRecord:
        best = self._best(name)
        if best is None or best.tombstone:
            raise UnknownNameError(f"{name} is not registered")
        if best.token != token:
            raise NamingError(f"bad owner token for {name}")
        return best

    def _apply_everywhere(self, name: URN, record: VersionedRecord) -> None:
        for store in self._stores(name):
            store.merge(record)
