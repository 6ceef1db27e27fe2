"""The agent server: Fig. 1, assembled.

One :class:`AgentServer` owns the components the figure shows —

* the **agent environment** handed to each resident
  (:class:`~repro.agents.environment.AgentEnvironment`),
* the **domain database** and **resource registry** with the binding
  service between them,
* the **agent transfer** component (admission control + the transfer
  protocol over mutually authenticated secure channels),
* the **security manager** sealed to the server's protection domain,

and runs each resident agent in its own thread group + namespace
protection domain on the simulation kernel.

Lifecycle of a resident: image arrives (``launch`` locally or the
``atp.transfer`` channel) → admission validation → domain creation
(thread group, namespace for untrusted code, domain-db record) → the
entry method runs in a simulated thread → the run ends in exactly one of
``Departure`` (forward the captured image), ``Completion`` (report and
retire), a security violation (terminated, audited), or an agent bug
(terminated).
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Iterable
from typing import Any

from repro.agents.agent import Agent, Completion, Departure, trusted_agent_class
from repro.agents.environment import AgentEnvironment
from repro.agents.integrity import (
    APPRAISAL_ATTRIBUTE,
    COMMITMENT_ATTRIBUTE,
    IntegrityAuthority,
)
from repro.agents.itinerary import ItineraryCommitment
from repro.agents.transfer import AgentImage
from repro.core.binding import BindingService
from repro.core.domain_db import DomainDatabase
from repro.core.registry import ResourceRegistry
from repro.core.resource import ResourceImpl
from repro.core.token import default_epoch_registry
from repro.credentials.rights import Rights
from repro.crypto.cert import Certificate
from repro.crypto.trust import TrustAnchor
from repro.crypto.keys import KeyPair
from repro.errors import (
    AgentAttributeError,
    AgentIntegrityError,
    AgentStateError,
    CircuitOpenError,
    NamingError,
    NetworkError,
    ReproError,
    SecurityException,
    TransferError,
    TransferRetryExhaustedError,
    UnknownNameError,
)
from repro.naming.registry import NameService
from repro.naming.urn import URN
from repro.net.network import Network
from repro.obs import runtime as _obs
from repro.obs.aggregate import TelemetryUnit
from repro.obs.trace import SpanContext
from repro.net.secure_channel import SecureHost
from repro.net.transport import Endpoint
from repro.sandbox.domain import ProtectionDomain
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.security_manager import SecurityManager
from repro.sandbox.threadgroup import ThreadGroup, enter_group, wrap_in_group
from repro.server.admission import AdmissionPolicy
from repro.server.journal import (
    CheckpointStore,
    DedupTable,
    DepartureJournal,
    DepartureRecord,
)
from repro.server.membership import FailureDetector, MembershipConfig
from repro.server.recovery import RecoveryConfig, RecoveryCoordinator
from repro.server.supervisor import ResourceSupervisor, SupervisorConfig
from repro.sim.kernel import Kernel
from repro.sim.monitor import Counter, TimeWeighted
from repro.sim.threads import SimThread
from repro.util.audit import AuditLog
from repro.util.ids import IdGenerator
from repro.util.retry import CircuitBreaker, RetryPolicy, call_with_retries
from repro.util.serialization import decode, encode

__all__ = ["AgentServer"]


def _revoke_holder_tokens(domain: ProtectionDomain) -> None:
    """Kill the capability tokens of an agent that stopped existing.

    One epoch bump keyed on the agent's stable URN: any token it was
    minted, on this server or carried elsewhere, goes stale and fails
    closed at its next use.
    """
    if domain.credentials is not None:
        default_epoch_registry().bump_holder(str(domain.credentials.agent))


# The sender counter for each way a resident's own departure can miss;
# the two failure causes also count in ``transfers_failed``.
_DEPARTURE_MISS_COUNTERS = {
    "breaker-open": "transfers_failed_breaker",
    "failed": "transfers_failed_exhausted",
    "refused": "transfers_refused_remote",
}


class AgentServer:
    """One hosting site in the mobile-agent system."""

    def __init__(
        self,
        *,
        name: str,
        kernel: Kernel,
        network: Network,
        trust_anchor: TrustAnchor,
        keys: KeyPair,
        certificate: Certificate,
        rng: random.Random,
        name_service: NameService | None = None,
        admission: AdmissionPolicy | None = None,
        transfer_timeout: float = 60.0,
        transfer_retry: RetryPolicy | None = None,
        report_retry: RetryPolicy | None = None,
        breaker_failure_threshold: int = 8,
        breaker_reset_timeout: float = 60.0,
        dedup_capacity: int = 1024,
        forward_restriction: "Rights | None" = None,
        resident_lifetime_limit: float | None = None,
        audit_capacity: int | None = None,
        supervision: SupervisorConfig | None = None,
        appraisal: bool = True,
        quarantine_duration: float = 3600.0,
        membership: MembershipConfig | None = None,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.clock = kernel.clock
        self.audit = AuditLog(self.clock, capacity=audit_capacity)
        self.stats = Counter()
        self.name_service = name_service
        self.transfer_timeout = transfer_timeout
        # Exactly-once handoff machinery: retry schedule, per-destination
        # circuit breakers, the sender-side departure journal (crash
        # recovery) and the receiver-side dedup table (idempotent ATP).
        self.transfer_retry = transfer_retry or RetryPolicy()
        self.report_retry = report_retry or RetryPolicy(
            attempts=3, base_delay=0.2, max_delay=5.0
        )
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_reset_timeout = breaker_reset_timeout
        self._breakers: dict[str, CircuitBreaker] = {}
        self._journal = DepartureJournal()
        self._transfer_dedup = DedupTable(dedup_capacity)
        self._transfer_ids = IdGenerator(f"{name}/xfer")
        # Seeded jitter stream, forked once so transfer retries do not
        # perturb the secure-channel nonce stream.
        self._retry_rng = random.Random(rng.getrandbits(64))
        # Section 5.2 subcontracting: when set, every agent this server
        # forwards gets a delegation link attenuating it to this grant.
        self.forward_restriction = forward_restriction
        # Section 2's resource-consumption defence: residents still alive
        # after this much virtual time are forcibly terminated.
        self.resident_lifetime_limit = resident_lifetime_limit
        self.reports: list[dict[str, Any]] = []

        # Fig. 1: transfer plumbing (network endpoint + secure channels).
        self.endpoint = Endpoint(network, name)
        self.secure = SecureHost(
            endpoint=self.endpoint,
            name=name,
            keys=keys,
            certificate=certificate,
            trust_anchor=trust_anchor,
            clock=self.clock,
            rng=rng,
        )

        # Fig. 1: protection machinery.
        self.server_domain = ProtectionDomain(
            f"server:{name}", "server", ThreadGroup(f"{name}/server-group")
        )
        self.security_manager = SecurityManager(self.server_domain, self.audit)
        self.security_manager.seal()
        self.domain_db = DomainDatabase(self.clock)
        self.registry = ResourceRegistry(self.security_manager, self.clock)
        self.binding = BindingService(
            self.registry,
            self.domain_db,
            self.clock,
            self.audit,
            server_domain_id=self.server_domain.domain_id,
        )
        self.admission = admission or AdmissionPolicy(trust_anchor, self.clock)

        # Tamper-evident agent integrity (hash-chained state appraisal +
        # itinerary commitments).  On by default; ``appraisal=False`` is
        # the escape hatch for baselines and deliberately non-verifying
        # (colluding) hosts in red-team scenarios.  The forked substream
        # keeps the itinerary MAC key from perturbing channel nonces.
        self.integrity: IntegrityAuthority | None = None
        if appraisal:
            self.integrity = IntegrityAuthority(
                name=name,
                keys=keys,
                certificate=certificate,
                trust_anchor=trust_anchor,
                clock=self.clock,
                rng=random.Random(rng.getrandbits(64)),
                quarantine_duration=quarantine_duration,
            )
            self.admission.integrity = self.integrity
        # Red-team hook (installed by the fault injector's malicious-host
        # behaviors): rewrites outbound images/destinations in _offer_image.
        self.outbound_tamper = None

        # Resource supervision (leases, bulkheads, quarantine, runaway
        # containment) is opt-in: with no config, proxies keep the plain
        # fast path and no supervision state exists at all.
        self.supervisor: ResourceSupervisor | None = None
        if supervision is not None:
            self.supervisor = ResourceSupervisor(self, supervision)
            self.registry.attach_supervisor(self.supervisor)

        self._domain_ids = IdGenerator(f"{name}/dom")
        self._threads: dict[str, SimThread] = {}
        # Live resident bookkeeping for the self-healing plane: the
        # instantiated agent objects (periodic checkpoint state capture)
        # and the images they were admitted from (escrow construction).
        self._instances: dict[str, Agent] = {}
        self._resident_images: dict[str, AgentImage] = {}
        # Auxiliary server threads (heartbeat rounds, checkpoint pushes,
        # crash-recovery re-offers, the drain worker).  Tracked so that
        # crash() kills them like everything else on the host — a ghost
        # recovery thread surviving a second crash would keep retrying
        # with the dead server's identity and hold call timers open.
        self._aux_threads: list[SimThread] = []
        self._draining = False
        # Home-side escrow store for the recovery plane.
        self.checkpoints = CheckpointStore()
        # Occupancy over virtual time (for capacity planning / F1-style
        # utilization reporting).
        self._occupancy = TimeWeighted(start_time=self.clock.now())

        self.secure.bind_app("atp.transfer", self._on_transfer)
        self.secure.bind_app("agent.status", self._on_status)
        self.secure.bind_app("agent.control", self._on_control)
        self.secure.bind_app("agent.report", self._on_report)

        # Cluster telemetry: this host's locally served metrics
        # namespace, the one place its counters are registered (the
        # testbed's world view folds every unit).  Sources are read
        # lazily at scrape time, so none of this touches the enforcement
        # hot path; the ``telemetry.scrape`` op rides the same mutually
        # authenticated channels as transfers.
        self.telemetry = TelemetryUnit(name, self.clock, server=name)
        self.telemetry.register_source("server", self.stats)
        self.telemetry.register_source("endpoint", self.endpoint.stats)
        self.telemetry.register_source("secure", self.secure.stats)
        self.telemetry.register_source("audit", self.audit)
        if self.supervisor is not None:
            self.telemetry.register_source("supervisor", self.supervisor.stats)
        if self.integrity is not None:
            self.telemetry.register_source("integrity", self.integrity.stats)
        self.telemetry.gauge(
            "server.residents", fn=lambda: float(len(self._threads))
        )
        self.telemetry.gauge(
            "server.secure_channels",
            fn=lambda: float(self.secure.open_channels()),
        )
        self.telemetry.bind(self.secure)

        # Self-healing control plane (opt-in per component): failure
        # detection over heartbeats, and checkpoint/re-homing recovery.
        # When both are present, confirmed deaths trigger re-homing.
        self.membership: FailureDetector | None = None
        self.recovery: RecoveryCoordinator | None = None
        if membership is not None:
            self.membership = FailureDetector(self, membership)
        if recovery is not None:
            self.recovery = RecoveryCoordinator(self, recovery)
        if self.membership is not None and self.recovery is not None:
            self.membership.on_confirmed_dead(
                self.recovery.handle_confirmed_dead
            )
            self.membership.on_new_incarnation(
                self.recovery.handle_peer_restarted
            )

    # ------------------------------------------------------------------
    # Auxiliary server threads
    # ------------------------------------------------------------------

    def _spawn_aux(self, body, *, name: str) -> SimThread:
        """Run ``body`` in a tracked server-side simulated thread.

        Everything the server itself does off the kernel event loop —
        heartbeat rounds, checkpoint pushes, crash-recovery re-offers,
        draining — goes through here so :meth:`crash` can kill it all:
        a fail-stop host takes its background work down with it.
        """
        self._aux_threads = [t for t in self._aux_threads if t.is_alive]
        thread = SimThread(self.kernel, body, name=name, on_error="store")
        self._aux_threads.append(thread)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    # Resources (server-side installation)
    # ------------------------------------------------------------------

    def install_resource(self, resource: ResourceImpl) -> None:
        """Register a server-provided resource (Fig. 6, step 1)."""
        with enter_group(self.server_domain.thread_group):
            self.binding.register_resource(resource)

    # ------------------------------------------------------------------
    # Hosting
    # ------------------------------------------------------------------

    def launch(self, image: AgentImage) -> str:
        """Host an agent submitted by a local application.

        Returns the new protection-domain id.  Raises if admission fails.

        With tracing on, this is the root span of the agent's tour
        (``agent.launch``): its context is stamped into the image, rides
        every subsequent hop like ``transfer_id`` does, and makes the
        whole itinerary one trace.
        """
        if self._draining:
            raise TransferError(f"{self.name} is draining")
        if self.integrity is not None:
            # Launch is where the home server seals the planned tour;
            # the commitment is re-appraised when the agent returns.
            image = self.integrity.commit_itinerary(image)
        if not _obs.TRACING:
            self.admission.validate(image)
            return self._start_resident(image)
        with _obs.TRACER.span(
            "agent.launch", agent=str(image.name), server=self.name
        ) as span:
            if isinstance(image.attributes, dict) and (
                SpanContext.from_attributes(image.attributes.get("trace_ctx"))
                is None
            ):
                image = image.with_attributes(
                    trace_ctx=span.context.to_attributes()
                )
            self.admission.validate(image)
            return self._start_resident(image)

    def _start_resident(self, image: AgentImage) -> str:
        domain_id = self._domain_ids.next()
        group = ThreadGroup(f"{self.name}/{domain_id}")
        namespace = None
        if not image.is_trusted_code:
            namespace = AgentNamespace(
                domain_id,
                trusted={"Agent": Agent},
                policy=self.admission.verifier_policy,
            )
        domain = ProtectionDomain(
            domain_id,
            "agent",
            group,
            namespace=namespace,
            credentials=image.credentials,
            # Trust tier from admission (ring 1 unless a RingPolicy is
            # installed) — picks the proxy dispatch path for this stay.
            ring=self.admission.classify_ring(image),
        )
        with self.domain_db.privileged():
            self.domain_db.admit(domain, image.credentials, image.home_site)
        self._update_name_service(image)
        thread = SimThread(
            self.kernel,
            wrap_in_group(group, lambda: self._run_resident(image, domain)),
            name=f"{self.name}/{image.name.local}",
            on_error="store",
        )
        group.adopt(thread)
        self._threads[domain_id] = thread
        self._resident_images[domain_id] = image
        self._occupancy.update(self.clock.now(), len(self._threads))
        thread.start()
        if self.resident_lifetime_limit is not None:
            self.kernel.schedule(
                self.resident_lifetime_limit,
                self._enforce_lifetime, domain_id, thread,
            )
        self.stats.add("agents_hosted")
        if self.recovery is not None:
            # Hop-boundary checkpoint: escrow the freshly admitted image
            # at the agent's home site before it runs a single step.
            self.recovery.on_admission(image)
        return domain_id

    def _enforce_lifetime(self, domain_id: str, thread: SimThread) -> None:
        """Kill a resident that overstayed its welcome (section 2: DoS)."""
        if not thread.is_alive or self._threads.get(domain_id) is not thread:
            return  # already departed/completed/terminated
        thread.kill()
        self._retire(domain_id, "terminated", operation=None)
        self.stats.add("agents_killed_lifetime")
        self.audit.record(
            domain_id, "agent.lifetime_limit", "", False,
            f"exceeded {self.resident_lifetime_limit}s residency",
        )

    def _update_name_service(self, image: AgentImage) -> None:
        token = image.attributes.get("ns_token")
        if self.name_service is None or not token:
            return
        if hasattr(self.name_service, "relocate_async"):
            # A networked directory: update over the network without
            # blocking the (kernel-context) arrival path.
            self.name_service.relocate_async(
                self.kernel, image.name, token, self.name,
                on_fail=lambda: self.stats.add("ns_relocate_failed"),
                audit=self.audit,
            )
            return
        try:
            self.name_service.relocate(image.name, token, self.name)
        except (NamingError, UnknownNameError):
            self.stats.add("ns_relocate_failed")

    # -- the resident's thread body -------------------------------------------

    # Bound on transfer_failed-hook retries per residency, so a buggy hook
    # cannot spin the server forever.
    MAX_TRANSFER_RETRIES = 8

    def _run_resident(self, image: AgentImage, domain: ProtectionDomain) -> None:
        """Executes inside the agent's thread group.

        With tracing on, the whole residency is one ``agent.resident``
        span parented on the trace context the image carried in — so a
        three-hop tour shows three resident spans in one trace, one per
        server.  Simulated threads run ``finally`` blocks even when
        killed, so the span closes on every exit path.
        """
        if not _obs.TRACING:
            self._resident_body(image, domain)
            return
        parent = None
        if isinstance(image.attributes, dict):
            parent = SpanContext.from_attributes(
                image.attributes.get("trace_ctx")
            )
        with _obs.TRACER.span(
            "agent.resident",
            parent=parent,
            agent=str(image.name),
            server=self.name,
            hop=len(image.trace),
        ):
            self._resident_body(image, domain)

    def _resident_body(
        self, image: AgentImage, domain: ProtectionDomain
    ) -> None:
        try:
            instance = self._materialize(image, domain)
        except ReproError as exc:
            self.stats.add("agents_failed_materialize")
            self._retire(
                domain.domain_id, "terminated", f"materialization failed: {exc}"
            )
            return
        self._instances[domain.domain_id] = instance
        entry = getattr(instance, image.entry_method, None)
        if entry is None or not callable(entry):
            self.stats.add("agents_failed")
            self._retire(
                domain.domain_id, "terminated",
                f"agent has no entry method {image.entry_method!r}",
            )
            return
        pending = entry
        retries = 0
        while True:
            try:
                if domain.namespace is not None:
                    # Fresh Telescript-style execution budget per entry.
                    domain.namespace.reset_execution_budget()
                result = pending()
            except Departure as departure:
                failure = self._handle_departure(image, instance, domain, departure)
                if failure is None:
                    return  # departed successfully
                # Failure-tolerant itineraries: an agent defining a
                # ``transfer_failed(destination, reason)`` hook gets a
                # chance to re-route instead of being terminated.
                hook = getattr(instance, "transfer_failed", None)
                retries += 1
                if callable(hook) and retries <= self.MAX_TRANSFER_RETRIES:
                    destination, reason = failure
                    pending = lambda d=destination, r=reason: hook(d, r)  # noqa: E731
                    continue
                self.stats.add("agents_terminated_transfer")
                self._retire(
                    domain.domain_id, "terminated",
                    f"transfer failed: {failure[1]}",
                )
                return
            except Completion as completion:
                self._handle_completion(image, domain, completion.result)
                return
            except SecurityException as exc:
                self.stats.add("agents_killed_security")
                self._retire(
                    domain.domain_id, "terminated", f"security violation: {exc}"
                )
                return
            except Exception as exc:  # noqa: BLE001 - agent bugs stay contained
                self.stats.add("agents_failed")
                self._retire(domain.domain_id, "terminated", f"agent error: {exc!r}")
                return
            else:
                # Falling off the end of the entry method is a completion.
                self._handle_completion(image, domain, result)
                return

    def _materialize(self, image: AgentImage, domain: ProtectionDomain) -> Agent:
        """Instantiate the agent's class and restore its shipped state."""
        if image.is_trusted_code:
            cls = trusted_agent_class(image.class_name)
        else:
            assert domain.namespace is not None
            domain.namespace.load(image.source)
            cls = domain.namespace.get(image.class_name)
        instance = cls()
        if not isinstance(instance, Agent):
            raise AgentStateError(
                f"{image.class_name!r} does not extend the Agent base class"
            )
        instance.restore_state(image.state)
        instance.host = AgentEnvironment(self, domain, image.home_site)
        instance.name = image.name
        return instance

    # -- outcomes ------------------------------------------------------------------

    def _handle_departure(
        self,
        image: AgentImage,
        instance: Agent,
        domain: ProtectionDomain,
        departure: Departure,
    ) -> "tuple[str, str] | None":
        """Attempt the transfer (with retries, exactly-once semantics).

        Returns None on success (the resident has departed), or
        ``(destination, reason)`` on failure — the caller decides whether
        the agent gets a ``transfer_failed`` second chance.

        Each departure gets a transfer id; retransmissions reuse it, so
        the receiver's dedup table acknowledges them idempotently.  The
        domain is retired only after a positive ``accepted`` ack.  The
        departure is journaled before the first network attempt so a
        crash mid-transfer can be recovered (:meth:`restart`).
        """
        if not _obs.TRACING:
            return self._depart(image, instance, domain, departure)
        with _obs.TRACER.span(
            "transfer.depart",
            agent=str(image.name),
            server=self.name,
            destination=departure.destination,
        ) as span:
            failure = self._depart(image, instance, domain, departure)
            if failure is not None and span.status == "unset":
                span.set_status("error", failure[1])
            return failure

    def _depart(
        self,
        image: AgentImage,
        instance: Agent,
        domain: ProtectionDomain,
        departure: Departure,
    ) -> "tuple[str, str] | None":
        destination = departure.destination
        outgoing = image.with_state(instance.capture_state(), departure.method)
        misses: list[tuple[str, str]] = []
        if self.relocate(
            outgoing, [destination], reason="depart",
            journal=domain.domain_id,
            on_miss=lambda _target, *miss: misses.append(miss),
        ) is None:
            [(verdict, detail)] = misses
            self.stats.add(_DEPARTURE_MISS_COUNTERS[verdict])
            if verdict == "refused":
                detail = f"refused by {destination}: {detail}"
            else:
                self.stats.add("transfers_failed")
            return destination, detail
        self.stats.add("transfers_out")
        self._retire(domain.domain_id, "departed", f"to {destination}")
        self._settle_bill(image, domain)
        return None

    # ------------------------------------------------------------------
    # Relocation: the one way an agent leaves for another server
    # ------------------------------------------------------------------

    def relocate(
        self,
        image: AgentImage,
        candidates: Iterable[str],
        *,
        reason: str,
        journal: str | None = None,
        on_miss: "Callable[[str, str, str], None] | None" = None,
    ) -> str | None:
        """Offer ``image`` to each candidate in order; return the first
        that accepted, or ``None``.  Must run in a simulated thread.

        Departure, journal recovery, drain and re-homing are policies
        over this: each picks the candidates and its own fallback.  The
        offer is built by ``reason``.  ``"depart"``, ``"drain"``,
        ``"rehome"`` (and any other reason) add a hop: this server joins
        the trace and, per section 5.2, narrows the credentials by its
        ``forward_restriction``; each candidate gets a freshly sealed
        appraisal link.  ``"return-home"`` redirects a journaled
        departure by resealing only this server's tip link.  Both are
        new handoffs under a fresh transfer id.  ``"reoffer"`` replays a
        journaled image verbatim, so an offer that landed before a crash
        dedups.

        With ``journal`` (the resident's domain id) each offer is
        journaled before it leaves and resolved with its verdict.
        ``on_miss(candidate, verdict, detail)`` hears each candidate that
        did not accept: ``verdict`` is ``"refused"`` (``detail`` is the
        receiver's reason), ``"breaker-open"`` or ``"failed"`` (retries
        exhausted; ``detail`` is the error).
        """
        hop = reason not in ("return-home", "reoffer")
        span = None
        if hop:
            image = image.with_hop(self.name)
            if self.forward_restriction is not None:
                restricted = image.credentials.extend(
                    delegator=URN.parse(self.name),
                    delegator_keys=self.secure.keys,
                    delegator_certificate=self.secure.certificate,
                    restriction=self.forward_restriction,
                    now=self.clock.now(),
                )
                image = dataclasses.replace(image, credentials=restricted)
            span = _obs.TRACER.current_span() if _obs.TRACING else None
            if span is not None:
                # The new hop joins the sending span's trace (stamped
                # before journaling: a replay offers the image verbatim).
                image = image.with_attributes(
                    trace_ctx=span.context.to_attributes()
                )
        for target in candidates:
            offer = image
            if reason != "reoffer":
                offer = offer.with_attributes(
                    transfer_id=self._transfer_ids.next()
                )
                if span is not None:
                    span.set_attribute("transfer_id", offer.transfer_id)
                if self.integrity is not None:
                    # Sealed before journaling, so a replay never appends
                    # a second link for the same hop.
                    offer = (
                        self.integrity.seal_departure(offer, target)
                        if hop
                        else self.integrity.reseal_tip(offer, target)
                    )
            if journal is not None:
                self._journal.record(
                    offer.transfer_id, offer, target, journal, self.clock.now()
                )
            try:
                reply = self._offer_image(offer, target)
            except CircuitOpenError as exc:
                verdict, detail = "breaker-open", str(exc)
            except ReproError as exc:
                verdict, detail = "failed", str(exc)
            else:
                if reply.get("status") == "accepted":
                    if journal is not None:
                        self._journal.resolve(offer.transfer_id, "accepted")
                    return target
                verdict, detail = "refused", str(reply.get("reason", "?"))
            if journal is not None:
                self._journal.resolve(offer.transfer_id, verdict)
            if on_miss is not None:
                on_miss(target, verdict, detail)
        return None

    def pick_targets(
        self, image: AgentImage, exclude: Iterable[str] = ()
    ) -> list[str]:
        """Placement: the agent's planned stops, best candidate first.

        Candidates come from the committed itinerary (any other choice
        would be rejected by the home-side ``verify_return`` appraisal
        when the tour ends), less this server and ``exclude``.  With a
        failure detector, confirmed-dead and draining hosts are dropped
        on the local membership view and the rest ordered by gossiped
        load score; without one, every stop scores the same.  The name
        is the deterministic tie-break.
        """
        commitment = image.attributes.get(COMMITMENT_ATTRIBUTE)
        stops: set[str] = set()
        if isinstance(commitment, ItineraryCommitment):
            for stop in commitment.stops:
                name = stop[0] if isinstance(stop, (tuple, list)) else stop
                if isinstance(name, str):
                    stops.add(name)
        stops -= {self.name, *exclude}
        membership = self.membership
        if membership is None:
            return sorted(stops)
        return sorted(
            (
                name for name in stops
                if membership.is_alive(name)
                and not membership.is_draining(name)
            ),
            key=lambda name: (membership.load_of(name), name),
        )

    def directory_vetoes(self, agent: URN, *expected: str) -> bool:
        """Does the directory place ``agent`` anywhere but ``expected``?

        The recovery policies' veto against resurrecting a stale copy.
        The directory is updated at every admission, so a registered
        location outside ``expected`` proves a newer residency exists,
        and an unregistered name means the agent finished or was
        tombstoned.  An unreachable directory, or a record without a
        location, is no veto (availability over precision; the
        transfer-id dedup and finished-agent checks still hold).
        """
        if self.name_service is None:
            return False
        try:
            entry = self.name_service.lookup(agent)
        except UnknownNameError:
            return True
        except ReproError:
            return False
        location = getattr(entry, "location", None)
        return location is not None and location not in expected

    def _relaunch_here(self, image: AgentImage) -> str:
        """The fallback when no candidate took the agent: admit and run
        it on this server.  Raises if admission refuses it."""
        self.admission.validate(image)
        return self._start_resident(image)

    # -- the retrying offer primitive under relocate() ---------------------------

    def _breaker_for(self, destination: str) -> CircuitBreaker:
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = CircuitBreaker(
                self.clock,
                failure_threshold=self._breaker_failure_threshold,
                reset_timeout=self._breaker_reset_timeout,
            )
            self._breakers[destination] = breaker
        return breaker

    def _offer_image(self, image: AgentImage, destination: str) -> dict:
        """Offer ``image`` to ``destination`` under the retry policy.

        Returns the decoded reply dict on any definitive answer.  Raises
        :class:`TransferRetryExhaustedError` once every attempt failed,
        or :class:`CircuitOpenError` when the destination's breaker
        refuses.  Must run in a simulated thread.
        """
        if self.outbound_tamper is not None:
            # Red-team hook: a compromised host rewrites what it forwards.
            image, destination = self.outbound_tamper(image, destination)
        payload = encode(image)

        def attempt(_: int) -> dict:
            self.stats.add("transfer_attempts")
            channel = self.secure.connect(destination, timeout=self.transfer_timeout)
            raw = channel.call(
                "atp.transfer", payload, timeout=self.transfer_timeout
            )
            return decode(raw)

        def note_retry(attempt_no: int, exc: BaseException) -> None:
            self.stats.add("transfer_retries")
            # The peer may have crashed and restarted; its end of the
            # cached channel would be gone.  Re-handshake on retry.
            self.secure.drop_channel(destination)
            self.audit.record(
                self.name, "atp.retry", destination, True,
                f"attempt {attempt_no} retrying after: {exc}",
            )

        return call_with_retries(
            attempt,
            kernel=self.kernel,
            policy=self.transfer_retry,
            rng=self._retry_rng,
            retry_on=(NetworkError,),
            breaker=self._breaker_for(destination),
            on_retry=note_retry,
            exhausted=TransferRetryExhaustedError,
            describe=f"transfer to {destination}",
        )

    def _handle_completion(
        self, image: AgentImage, domain: ProtectionDomain, result: Any
    ) -> None:
        self.stats.add("agents_completed")
        self._retire(domain.domain_id, "completed", "mission complete")
        # The completion report and the bill go to the same home site, so
        # they ride one sealed batch frame (one MAC, one sequence number)
        # instead of two secure sends.
        payloads: list[Any] = []
        if result is not None and image.home_site != self.name:
            payloads.append(result)
        bill = self._bill_payload(image, domain)
        if bill is not None:
            payloads.append(bill)
        if not payloads:
            return
        try:
            self.send_agent_reports(domain, image.home_site, payloads)
            if bill is not None:
                self.stats.add("bills_sent")
        except ReproError:
            self.stats.add("reports_failed")

    def _bill_payload(
        self, image: AgentImage, domain: ProtectionDomain
    ) -> "dict[str, Any] | None":
        try:
            record = self.domain_db.get(domain.domain_id)
        except ReproError:
            return None
        if record.charges <= 0 or image.home_site == self.name:
            return None
        return {"type": "bill", "server": self.name, "charges": record.charges}

    def _settle_bill(self, image: AgentImage, domain: ProtectionDomain) -> None:
        """Section 2's electronic-commerce hook: when a resident leaves
        with accrued charges, its home site receives the statement.

        Runs only on the agent-thread paths (it may block on a secure
        channel); forcible terminations leave the account queryable in the
        domain database instead.
        """
        bill = self._bill_payload(image, domain)
        if bill is None:
            return
        try:
            self.send_agent_report(domain, image.home_site, bill)
            self.stats.add("bills_sent")
        except ReproError:
            self.stats.add("reports_failed")

    def _retire(
        self,
        domain_id: str,
        status: str,
        detail: str = "",
        *,
        operation: str | None = "agent.retire",
    ) -> None:
        """Take a resident off this server's books: the one way out.

        Every exit — departure, completion, termination (by its owner,
        its creator, supervision or the lifetime limit), drain — ends
        here.  ``operation`` names the audit record; ``None`` when the
        caller audits the cause itself.
        """
        with self.domain_db.privileged():
            if domain_id in self.domain_db:
                self.domain_db.set_status(domain_id, status)
                # A terminated or completed agent's capability tokens die
                # with it (one holder-epoch bump reaches copies on every
                # server).  A *departing* agent keeps its tokens —
                # surviving migration is the point of carrying them.
                if status != "departed":
                    _revoke_holder_tokens(self.domain_db.get(domain_id).domain)
        # Ephemeral self-registrations (mailboxes) die with the agent;
        # installed services (section 5.5) persist.
        self.registry.remove_ephemeral_of(domain_id)
        if operation is not None:
            self.audit.record(domain_id, operation, status, True, detail)
        self._threads.pop(domain_id, None)
        image = self._resident_images.pop(domain_id, None)
        self._instances.pop(domain_id, None)
        self._occupancy.update(self.clock.now(), len(self._threads))
        if self.supervisor is not None:
            self.supervisor.forget_domain(domain_id)
        if self.recovery is not None and image is not None:
            # Tell the home site to drop the escrow of a finished agent
            # (a departed one is superseded by the next host instead).
            self.recovery.on_resident_gone(image, status)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def send_agent_report(
        self, domain: ProtectionDomain, home_site: str, payload: Any
    ) -> None:
        """Deliver a report to ``home_site`` (local append or secure send)."""
        self.send_agent_reports(domain, home_site, [payload])

    def send_agent_reports(
        self, domain: ProtectionDomain, home_site: str, payloads: list[Any]
    ) -> None:
        """Deliver several reports to the same ``home_site``.

        Remote delivery amortizes the secure channel: a multi-payload
        batch travels as one sealed frame (``SecureChannel.send_many``)
        instead of one MAC + sequence number per report.
        """
        assert domain.credentials is not None
        bodies = []
        for payload in payloads:
            body = {
                "agent": str(domain.credentials.agent),
                "from": self.name,
                "payload": payload,
            }
            if home_site == self.name:
                body["received_at"] = self.clock.now()
                self.reports.append(body)
            else:
                bodies.append(encode(body))
        if not bodies:
            return
        if not _obs.TRACING:
            self._send_report(home_site, bodies)
            return
        with _obs.TRACER.span(
            "report.send", server=self.name, destination=home_site,
            reports=len(bodies),
        ):
            self._send_report(home_site, bodies)

    def _send_report(self, home_site: str, bodies: list[bytes]) -> None:
        def attempt(_: int) -> None:
            self.stats.add("report_attempts")
            channel = self.secure.connect(home_site)
            if len(bodies) == 1:
                channel.send("agent.report", bodies[0])
            else:
                channel.send_many("agent.report", bodies)

        def note_retry(attempt_no: int, exc: BaseException) -> None:
            self.stats.add("report_retries")
            self.secure.drop_channel(home_site)

        call_with_retries(
            attempt,
            kernel=self.kernel,
            policy=self.report_retry,
            rng=self._retry_rng,
            retry_on=(NetworkError,),
            on_retry=note_retry,
            describe=f"report to {home_site}",
        )

    def _on_report(self, peer: str, body: bytes) -> None:
        try:
            report = decode(body)
        except ReproError:
            self.stats.add("reports_malformed")
            return
        report["via"] = peer
        report["received_at"] = self.clock.now()
        self.reports.append(report)

    # ------------------------------------------------------------------
    # Transfer protocol (receiver side)
    # ------------------------------------------------------------------

    def _on_transfer(self, peer: str, body: bytes) -> bytes:
        if not _obs.TRACING:
            return self._admit_transfer(peer, body, None)
        with _obs.TRACER.span(
            "transfer.admit", server=self.name, peer=peer
        ) as span:
            return self._admit_transfer(peer, body, span)

    def _admit_transfer(self, peer: str, body: bytes, span) -> bytes:
        # Offered wire bytes, whatever the verdict — capacity planning
        # wants to see refused load too.  One bisect; transfers are
        # crypto-dominated, so this is noise on the transfer path.
        self.telemetry.observe("transfer_bytes", len(body))
        if (
            self.integrity is not None
            and self.integrity.quarantine.blocked_name(peer)
        ):
            # A quarantined upstream host gets a fast refusal before this
            # server spends any decode/verification work on its offer.
            self.stats.add("transfers_refused")
            self.stats.add("transfers_refused_quarantined")
            if span is not None:
                span.set_status("error", f"refused: {peer} is quarantined")
            self.audit.record(
                peer, "atp.quarantine", "", False,
                "transfer refused: sender is quarantined",
            )
            return encode({"status": "refused", "reason": "sender quarantined"})
        tid: str | None = None
        try:
            image = decode(body)
            if span is not None and isinstance(image, AgentImage):
                if isinstance(image.attributes, dict):
                    carried = SpanContext.from_attributes(
                        image.attributes.get("trace_ctx")
                    )
                    if carried is not None:
                        # Join the trace the sender stamped on the image
                        # (learned only now — after the span opened).
                        span.adopt_context(carried)
                span.set_attribute("agent", str(image.name))
            if not isinstance(image, AgentImage):
                raise TransferError("payload is not an agent image")
            # Idempotent receive: a retransmission of a transfer this
            # server already answered (lost ack, sender retry or crash
            # recovery) gets the cached reply — the agent is not admitted
            # twice.  The key includes the authenticated peer, so one
            # sender cannot poison another's entries.
            tid = image.transfer_id
            if tid is not None and 0 < len(tid) <= 128:
                cached = self._transfer_dedup.get((peer, tid))
                if cached is not None:
                    self.stats.add("transfers_duplicate_suppressed")
                    if span is not None:
                        # A retransmission, not a fresh hop: no resident
                        # span is started, the trace shows an event.
                        span.set_attribute("duplicate", True)
                        _obs.TRACER.add_event(
                            "transfer.duplicate", transfer_id=tid
                        )
                    self.audit.record(
                        peer, "atp.dedup", str(image.name), True,
                        f"duplicate transfer {tid} answered from cache",
                    )
                    return cached
            else:
                tid = None
            if self._draining:
                # Past the dedup lookup on purpose: a retransmission of
                # a transfer this server accepted *before* it started
                # draining must still get its cached "accepted".
                self.stats.add("transfers_refused_draining")
                raise TransferError("server draining")
            self.admission.validate(image, wire_size=len(body), peer=peer)
        except AgentIntegrityError as exc:
            reply = self._reject_integrity(peer, tid, span, exc)
            return reply
        except ReproError as exc:
            self.stats.add("transfers_refused")
            if span is not None:
                span.set_status("error", f"refused: {exc}")
            if isinstance(exc, AgentAttributeError):
                # The whitelist refusal gets its own audit operation so
                # operators can tell malformed-attribute probes apart
                # from ordinary admission denials.
                self.audit.record(
                    peer, "agent.attributes_reject",
                    str(exc.context.get("key", "")), False, str(exc),
                )
            self.audit.record(peer, "atp.admit", "", False, str(exc))
            reply = encode({"status": "refused", "reason": str(exc)})
            if tid is not None:
                self._transfer_dedup.put((peer, tid), reply)
            return reply
        self.stats.add("transfers_in")
        self.audit.record(peer, "atp.admit", str(image.name), True, "")
        if self.integrity is not None:
            chain = image.attributes.get(APPRAISAL_ATTRIBUTE)
            if chain:
                # Only a fully admitted image enters the replay record —
                # recording earlier would let an image refused for other
                # reasons poison its own legitimate retry.
                self.integrity.remember(chain[-1].tag())
        self._start_resident(image)
        reply = encode({"status": "accepted"})
        if tid is not None:
            self._transfer_dedup.put((peer, tid), reply)
        return reply

    def _reject_integrity(
        self, peer: str, tid: str | None, span, exc: AgentIntegrityError
    ) -> bytes:
        """Integrity rejection: quarantine upstream, kill carried tokens,
        audit and trace the event, and cache the refusal for retries."""
        reason = str(exc.context.get("reason", "unknown"))
        agent = exc.context.get("agent")
        fingerprint = exc.context.get("fingerprint")
        self.stats.add("transfers_refused")
        self.stats.add("transfers_refused_integrity")
        assert self.integrity is not None
        self.integrity.quarantine.add(
            peer, str(fingerprint) if fingerprint else None
        )
        self.stats.add("hosts_quarantined")
        if agent is not None:
            # A tampered agent's carried capability tokens die with it:
            # one holder-epoch bump makes every copy stale federation-wide
            # (redemption falls back to full authorization, which the
            # quarantined impostor cannot pass).
            default_epoch_registry().bump_holder(str(agent))
        detail = f"{reason}: {exc}"
        if span is not None:
            span.set_status("error", f"refused: {exc}")
            with _obs.TRACER.span(
                "agent.integrity_reject",
                agent=str(agent or ""),
                peer=peer,
                reason=reason,
            ) as reject_span:
                reject_span.set_status("error", str(exc))
                self.audit.record(
                    peer, "agent.integrity_reject", str(agent or ""), False,
                    detail,
                )
        else:
            self.audit.record(
                peer, "agent.integrity_reject", str(agent or ""), False, detail
            )
        reply = encode({"status": "refused", "reason": str(exc)})
        if tid is not None:
            self._transfer_dedup.put((peer, tid), reply)
        return reply

    # ------------------------------------------------------------------
    # Status queries and control commands (section 4 / domain database)
    # ------------------------------------------------------------------

    def resident_status(self, agent: URN) -> dict[str, Any]:
        """Local status lookup (what the status handler serves remotely)."""
        record = self.domain_db.by_agent(agent)
        return {
            "agent": str(record.agent),
            "server": self.name,
            "status": record.status,
            "owner": str(record.owner),
            "arrived_at": record.arrived_at,
            "charges": record.charges,
            "bindings": len(record.bindings),
        }

    def _on_status(self, peer: str, body: bytes) -> bytes:
        try:
            query = decode(body)
            agent = query["agent"]
            if isinstance(agent, str):
                agent = URN.parse(agent)
            return encode(self.resident_status(agent))
        except (ReproError, KeyError, TypeError) as exc:
            return encode({"error": str(exc)})

    def _on_control(self, peer: str, body: bytes) -> bytes:
        """Owner control commands; only the agent's home site may issue them."""
        try:
            command = decode(body)
            agent = command["agent"]
            if isinstance(agent, str):
                agent = URN.parse(agent)
            record = self.domain_db.by_agent(agent)
        except (ReproError, KeyError, TypeError) as exc:
            return encode({"error": str(exc)})
        if peer != record.home_site:
            self.stats.add("control_refused")
            self.audit.record(
                peer, "agent.control", str(agent), False, "not the home site"
            )
            return encode({"error": "only the agent's home site may control it"})
        if command.get("command") != "terminate":
            return encode({"error": f"unknown command {command.get('command')!r}"})
        if self.terminate_resident(record.domain_id):
            self.stats.add("agents_terminated_by_owner")
            self.audit.record(peer, "agent.control", str(agent), True, "terminate")
            return encode({"status": "terminated"})
        return encode({"status": record.status})

    def terminate_resident(self, domain_id: str) -> bool:
        """Forcibly end a live resident (trusted callers only).

        Returns True if a live thread was killed; False if the resident
        had already finished.  Authorization is the caller's problem —
        the control handler checks the home site, the agent environment
        checks creator identity.
        """
        thread = self._threads.get(domain_id)
        # The whole thread *group* dies, not just the resident's main
        # thread: workers it spawned (section 5.3: same group) must not
        # survive their agent.
        group_threads: list[SimThread] = []
        if domain_id in self.domain_db:
            record = self.domain_db.get(domain_id)
            group_threads = record.domain.thread_group.live_threads()
        if (thread is None or not thread.is_alive) and not group_threads:
            return False
        if thread is not None and thread.is_alive:
            thread.kill()
        for worker in group_threads:
            if worker is not thread and worker.is_alive:
                worker.kill()
        self._retire(domain_id, "terminated", operation=None)
        return True

    # ------------------------------------------------------------------
    # Crash and recovery (failure model: fail-stop with stable storage)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate an abrupt fail-stop crash.

        Every resident thread dies mid-flight, the server's network
        presence disappears (the endpoint closes, so peers see timeouts)
        and the channel session keys are lost.  The departure journal
        and the dedup table survive — they stand in for records on
        stable storage, which is what makes :meth:`restart` able to
        recover in-flight transfers.
        """
        self.stats.add("crashes")
        self.audit.record(self.name, "server.crash", "", False, "simulated crash")
        for domain_id, thread in list(self._threads.items()):
            if thread.is_alive:
                thread.kill()
                self.stats.add("agents_killed_crash")
            if domain_id in self.domain_db:
                for worker in self.domain_db.get(
                    domain_id
                ).domain.thread_group.live_threads():
                    if worker is not thread and worker.is_alive:
                        worker.kill()
            with self.domain_db.privileged():
                if domain_id in self.domain_db:
                    self.domain_db.set_status(domain_id, "terminated")
            self.registry.remove_ephemeral_of(domain_id)
        self._threads.clear()
        self._instances.clear()
        self._resident_images.clear()
        self._occupancy.update(self.clock.now(), 0)
        # Aux threads die with the host: a heartbeat round, checkpoint
        # push, drain worker or leftover recovery re-offer from an
        # earlier restart must not keep acting (or holding in-flight
        # call timers) in the dead server's name.  Killing interrupts
        # each at its next blocking point; the channel-call ``finally``
        # blocks cancel their reply timers on the way out.
        for aux in self._aux_threads:
            if aux.is_alive:
                aux.kill()
        self._aux_threads.clear()
        if self.membership is not None:
            self.membership.stop()
        if self.recovery is not None:
            self.recovery.stop()
        if self.supervisor is not None:
            self.supervisor.on_crash()
        self.secure.reset_channels()
        self.endpoint.close()

    def restart(self) -> None:
        """Bring a crashed server back and recover journaled departures.

        Reopens the endpoint, then spawns one recovery thread per
        in-flight departure record (see :meth:`_recover_departure`).
        Only meaningful after :meth:`crash`.
        """
        if self.endpoint.is_open:
            raise ReproError(f"{self.name}: restart() requires a crashed server")
        self.stats.add("restarts")
        self.endpoint.open()
        if self.membership is not None:
            # A new life: peers that confirmed this server dead only
            # believe heartbeats carrying a *higher* incarnation.
            self.membership.bump_incarnation()
            self.membership.start()
        if self.recovery is not None:
            self.recovery.start()
        if self.supervisor is not None:
            # Re-validate surviving leases from the domain database and
            # sweep the ones that lapsed while the server was down.
            self.supervisor.sweep_leases()
        pending = self._journal.pending()
        self.audit.record(
            self.name, "server.restart", "", True,
            f"recovering {len(pending)} in-flight departure(s)",
        )
        for record in pending:
            self._spawn_aux(
                lambda r=record: self._recover_departure(r),
                name=f"{self.name}/recover/{record.transfer_id}",
            )

    def _recover_departure(self, record: DepartureRecord) -> None:
        """Dispose of one journaled in-flight departure after a restart.

        Re-offer with the *same* transfer id — if the pre-crash offer
        actually landed, the receiver's dedup table answers ``accepted``
        idempotently, so the agent is never duplicated.  If the
        destination stays unreachable or refuses, return the agent to
        its home site (a fresh transfer id: it is a different handoff),
        or relaunch locally when this server *is* the home site.  Only
        when every avenue fails is the agent declared stranded.
        """
        if not _obs.TRACING:
            self._recover(record)
            return
        parent = None
        if isinstance(record.image.attributes, dict):
            parent = SpanContext.from_attributes(
                record.image.attributes.get("trace_ctx")
            )
        with _obs.TRACER.span(
            "transfer.recover",
            parent=parent,
            agent=str(record.image.name),
            server=self.name,
            destination=record.destination,
            transfer_id=record.transfer_id,
        ):
            self._recover(record)

    def _recover(self, record: DepartureRecord) -> None:
        self.stats.add("recoveries_attempted")
        image = record.image
        # While this server was dead, the home site's escrow re-homing
        # may already have relaunched the agent elsewhere (death is
        # confirmed faster than a long outage ends): re-offering would
        # fork it.
        if self.directory_vetoes(image.name, self.name, record.destination):
            self._journal.resolve(record.transfer_id, "recovered-superseded")
            self.stats.add("recoveries_superseded")
            self.audit.record(
                self.name, "atp.recover", str(image.name), True,
                "journal entry superseded: the agent was re-homed (or "
                "finished) while this server was down",
            )
            return
        if self.relocate(image, [record.destination], reason="reoffer"):
            self._journal.resolve(record.transfer_id, "recovered-delivered")
            self.stats.add("recoveries_delivered")
            with self.domain_db.privileged():
                if record.domain_id in self.domain_db:
                    self.domain_db.set_status(record.domain_id, "departed")
            self.audit.record(
                self.name, "atp.recover", str(image.name), True,
                f"re-offered to {record.destination}",
            )
            return
        image = image.with_attributes(returned_home=True)
        if image.home_site == self.name:
            self._journal.resolve(record.transfer_id, "recovered-home-local")
            self.stats.add("recoveries_returned_home")
            self.audit.record(
                self.name, "atp.recover", str(image.name), True,
                "relaunched at home after crash",
            )
            if self.integrity is not None:
                # The journaled tip was sealed for the unreachable
                # destination; the agent stays here instead, so the tip
                # must now read self→self or the chain's hop-to-hop
                # linkage breaks at the agent's *next* departure.
                image = self.integrity.reseal_tip(image, self.name)
            # This server's own journaled image: admitted here already.
            self._start_resident(image)
            return
        if self.relocate(image, [image.home_site], reason="return-home"):
            self._journal.resolve(record.transfer_id, "recovered-returned-home")
            self.stats.add("recoveries_returned_home")
            self.audit.record(
                self.name, "atp.recover", str(image.name), True,
                f"returned to home site {image.home_site} after crash",
            )
            return
        self._journal.resolve(record.transfer_id, "stranded")
        self.stats.add("recovery_stranded")
        self.audit.record(
            self.name, "atp.recover", str(image.name), False,
            f"unrecoverable: {record.destination} and home "
            f"{image.home_site} both unreachable",
        )

    # ------------------------------------------------------------------
    # Graceful drain (planned decommissioning)
    # ------------------------------------------------------------------

    def drain(self) -> SimThread:
        """Gracefully decommission: migrate every resident to a survivor.

        Immediately stops accepting new work (local launches raise, ATP
        offers get a typed ``server draining`` refusal that the sender's
        ``transfer_failed`` routing can skip past) and advertises the
        draining flag in heartbeats so the recovery plane stops placing
        agents here.  The migration itself runs in an aux thread (it
        blocks on transfers); the returned thread can be joined, or the
        kernel simply run until the world quiesces.

        Residents are moved with the same placement and relocation
        re-homing uses: each is stopped at its next blocking point, its
        live state captured, and the image relocated (new hop, forward
        restriction, fresh seal) to the best surviving planned stop.  A
        resident caught mid-departure is finished via the journal (same
        transfer id — the dedup table absorbs the duplicate); one nobody
        accepts is relaunched locally and the drain for it reported
        failed.
        """
        self._draining = True
        if self.membership is not None:
            self.membership.draining = True
        self.stats.add("drains")
        self.audit.record(self.name, "server.drain", "", True, "drain initiated")
        return self._spawn_aux(self._drain_residents, name=f"{self.name}/drain")

    def _drain_residents(self) -> None:
        for domain_id, thread in list(self._threads.items()):
            self._drain_one(domain_id, thread)

    def _drain_one(self, domain_id: str, thread: SimThread) -> None:
        if self._threads.get(domain_id) is not thread:
            return  # already gone
        image = self._resident_images.get(domain_id)
        instance = self._instances.get(domain_id)
        if thread.is_alive:
            thread.kill()
        thread.join(reraise=False)
        if self._threads.get(domain_id) is not thread:
            # The resident retired itself on the way out (its departure
            # or completion won the race against the kill): nothing of
            # it is left here to migrate.
            return
        record = next(
            (r for r in self._journal.pending() if r.domain_id == domain_id),
            None,
        )
        if record is not None:
            # Caught mid-departure, after journaling: dispose of the
            # journaled in-flight image exactly like crash recovery does
            # (same transfer id, so a landed pre-kill offer dedups).
            self.stats.add("agents_killed_drain")
            self._retire(
                domain_id, "departed",
                f"drained via journal to {record.destination}",
                operation="agent.drain",
            )
            self._recover(record)
            return
        if image is None or instance is None:
            self.stats.add("agents_killed_drain")
            self._retire(
                domain_id, "terminated", "drain: no image to migrate",
                operation="agent.drain",
            )
            return
        try:
            state = instance.capture_state()
        except ReproError:
            state = image.state
        outgoing = image.with_state(state, image.entry_method)
        target = self.relocate(
            outgoing, self.pick_targets(outgoing), reason="drain"
        )
        if target is not None:
            # Accounting-wise an ordinary departure: hosted here once,
            # transferred out once, hosted again at the target.
            self.stats.add("transfers_out")
            self.stats.add("drained_out")
            self._retire(
                domain_id, "departed", f"drained to {target}",
                operation="agent.drain",
            )
            return
        # Nobody would take it: the agent stays, the drain failed for it.
        self.stats.add("agents_killed_drain")
        self.stats.add("drain_failed")
        self._retire(
            domain_id, "departed", "drain failed: relaunched locally",
            operation="agent.drain",
        )
        self.audit.record(
            domain_id, "server.drain", str(image.name), False,
            "no survivor accepted; agent relaunched locally",
        )
        # Relaunch from the *admitted* image shape (no extra hop: the
        # appraisal chain must stay aligned with the trace for the
        # agent's eventual real departure), with the live state.
        self._relaunch_here(outgoing)

    # ------------------------------------------------------------------
    # Operator reporting
    # ------------------------------------------------------------------

    def current_residents(self) -> int:
        """Agents currently executing (or blocked) on this server."""
        return len(self._threads)

    def average_residents(self) -> float:
        """Time-weighted mean resident count since the server started."""
        return self._occupancy.average(self.clock.now())

    def security_report(self) -> dict[str, Any]:
        """Summary of mediated denials and hostile activity on this server.

        The reference monitor's audit trail, aggregated: what operators
        would watch to notice an attack campaign.
        """
        denials_by_domain: dict[str, int] = {}
        denials_by_operation: dict[str, int] = {}
        for record in self.audit.denials():
            denials_by_domain[record.domain] = (
                denials_by_domain.get(record.domain, 0) + 1
            )
            denials_by_operation[record.operation] = (
                denials_by_operation.get(record.operation, 0) + 1
            )
        return {
            "server": self.name,
            "denials_total": len(self.audit.denials()),
            "denials_by_domain": denials_by_domain,
            "denials_by_operation": denials_by_operation,
            "transfers_refused": self.stats["transfers_refused"],
            "agents_killed_security": self.stats["agents_killed_security"],
            "control_refused": self.stats["control_refused"],
            "channel_frames_rejected": (
                self.secure.stats["rejected_tampered"]
                + self.secure.stats["rejected_replayed"]
                + self.secure.stats["rejected_malformed"]
            ),
            "transfers_refused_integrity": self.stats[
                "transfers_refused_integrity"
            ],
            "integrity": (
                self.integrity.report() if self.integrity is not None else None
            ),
            "supervision": (
                self.supervisor.report() if self.supervisor is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AgentServer({self.name!r}, residents={len(self.domain_db.residents())})"
