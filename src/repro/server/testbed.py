"""A world-builder: kernel + network + PKI + name service + servers.

Every example, integration test and benchmark needs the same scaffolding
— a CA, a few interconnected agent servers, an owner identity, and a way
to mint credentials and launch agents.  :class:`Testbed` packages it with
deterministic seeding.

Topologies: ``"full"`` (clique), ``"star"`` (first server is the hub),
``"line"`` (a chain) — enough to exercise multi-hop routing and to place
adversaries on interior links.
"""

from __future__ import annotations

from typing import Any

from repro.agents.agent import Agent
from repro.agents.transfer import AgentImage, capture_image
from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.crypto.cert import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.errors import ReproError
from repro.naming.registry import NameService
from repro.naming.urn import URN
from repro.net.network import Network
from repro.obs import runtime as _obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.server.agent_server import AgentServer
from repro.sim.kernel import Kernel
from repro.util.ids import IdGenerator
from repro.util.rng import make_rng

__all__ = ["Testbed"]

# RSA modulus for every identity the testbed mints (owner, servers,
# directory replicas): small enough to keep simulated worlds fast.
KEY_BITS = 512


class Testbed:
    """A ready-to-run mobile-agent world."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        n_servers: int = 3,
        *,
        seed: int = 1000,
        topology: str = "full",
        latency: float = 0.005,
        bandwidth: float = 1e7,
        loss_rate: float = 0.0,
        authority: str = "site{i}.net",
        server_kwargs: dict[str, Any] | None = None,
        replicated_name_service: bool = False,
        ns_shards: int = 2,
        ns_replicas: int = 3,
        ns_write_quorum: int = 2,
        ns_read_quorum: int = 2,
        ns_anti_entropy: float | None = None,
        ns_timeout: float = 10.0,
        ns_stale_read_limit: float | None = None,
        ns_retry: Any | None = None,
        ns_breaker_threshold: int = 3,
        ns_breaker_reset: float = 15.0,
        supervision: Any | None = None,
        self_healing: bool = False,
        membership_config: Any | None = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.seed = seed
        self.kernel = Kernel()
        self.clock = self.kernel.clock
        self.network = Network(self.kernel, seed=seed)
        # The registry.  By default it is one in-process NameService every
        # server shares.  With replicated_name_service=True it is a network
        # directory of its own (repro.naming.replicated): ns_shards shards of
        # ns_replicas replica nodes each, servers hold quorum clients, and
        # self.name_service becomes the DirectoryOracle (kernel-context
        # bootstrap writes + the conservation oracle).  Ajanta's single
        # registry server is the ns_shards=1, ns_replicas=1, W=R=1 case.
        self.name_service: Any = NameService()
        self._replicated_ns = replicated_name_service
        self.ns_ring = None
        self.ns_hosts: dict[str, Any] = {}
        self._ns_quorums = (ns_write_quorum, ns_read_quorum)
        self._ns_anti_entropy = ns_anti_entropy
        self._ns_shape = (ns_shards, ns_replicas)
        self._ns_timeout = ns_timeout
        self._ns_stale_read_limit = ns_stale_read_limit
        self._ns_retry = ns_retry
        self._ns_breakers = (ns_breaker_threshold, ns_breaker_reset)
        self.ca = CertificateAuthority("testbed-ca", make_rng(seed, "ca"), self.clock)
        self.rng = make_rng(seed, "testbed")
        self.servers: list[AgentServer] = []
        self._agent_ids = IdGenerator("agent")
        self._faults = None
        self._server_kwargs = dict(server_kwargs or {})
        # Whole-world runs should not grow audit logs without bound; short
        # tests never come near this, and callers can override (None =
        # unlimited, the AgentServer default).
        self._server_kwargs.setdefault("audit_capacity", 100_000)
        # Convenience: a SupervisorConfig here puts every server under
        # resource supervision (equivalent to server_kwargs["supervision"]).
        if supervision is not None:
            self._server_kwargs.setdefault("supervision", supervision)
        # Self-healing control plane: heartbeat failure detection plus
        # checkpoint/re-homing on every server.  ``self_healing=True``
        # takes the defaults (server_kwargs["recovery"] overrides the
        # RecoveryConfig); a MembershipConfig alone arms detection only.
        self._self_healing = bool(self_healing or membership_config is not None)
        if self._self_healing:
            from repro.server.membership import MembershipConfig

            self._server_kwargs.setdefault(
                "membership", membership_config or MembershipConfig()
            )
        if self_healing:
            from repro.server.recovery import RecoveryConfig

            self._server_kwargs.setdefault("recovery", RecoveryConfig())
        # The world's metrics: every host's telemetry registry folded at
        # read time, plus world-level sources and hook-fed instruments.
        self.metrics = MetricsRegistry()
        self.tracer: Tracer | None = None
        self.collector: Any = None
        self.profiler: Any = None

        # Owner identity: the human whose agents these are.
        self.owner = URN.parse("urn:principal:umn.edu/owner")
        self.owner_keys = KeyPair.generate(make_rng(seed, "owner"), bits=KEY_BITS)
        self.owner_certificate = self.ca.issue(str(self.owner), self.owner_keys.public)

        if replicated_name_service:
            self._start_replica_nodes()
        for i in range(n_servers):
            self.add_server(
                f"urn:server:{authority.format(i=i)}/s{i}"
            )
        self._connect(topology, latency, bandwidth, loss_rate)
        # Membership runs over the connected topology: every server
        # watches every other, and the detectors/recovery tickers start
        # only once the links they heartbeat over exist.
        names = [s.name for s in self.servers]
        for server in self.servers:
            if server.membership is not None:
                server.membership.set_peers(
                    [n for n in names if n != server.name]
                )
                server.membership.start()
            if server.recovery is not None:
                server.recovery.start()
        if replicated_name_service:
            # Every replica hangs off every server (clients talk to any
            # replica directly), and same-shard replicas interconnect
            # (repair traffic).  Partition experiments cut these links.
            for node in self.ns_ring.nodes():
                for server in self.servers:
                    self.network.connect(node, server.name,
                                         latency=latency, bandwidth=bandwidth)
            for shard_id in self.ns_ring.shard_ids():
                group = self.ns_ring.replicas(shard_id)
                for i, a in enumerate(group):
                    for b in group[i + 1:]:
                        self.network.connect(a, b, latency=latency,
                                             bandwidth=bandwidth)
            if ns_anti_entropy is not None:
                for host in self.ns_hosts.values():
                    host.start_sweeps(ns_anti_entropy)

    # -- construction -------------------------------------------------------------

    def _secure_node(self, name: str):
        """A bare secure host on a fresh network node (directory replicas)."""
        from repro.net.secure_channel import SecureHost
        from repro.net.transport import Endpoint

        self.network.add_node(name)
        keys = KeyPair.generate(make_rng(self.seed, f"server:{name}"),
                                bits=KEY_BITS)
        return SecureHost(
            endpoint=Endpoint(self.network, name),
            name=name,
            keys=keys,
            certificate=self.ca.issue(name, keys.public),
            trust_anchor=self.ca,
            clock=self.clock,
            rng=make_rng(self.seed, f"rng:{name}"),
        )

    def _start_replica_nodes(self) -> None:
        from repro.naming.replicated import DirectoryOracle, ReplicaNameHost
        from repro.naming.shard import HashRing

        n_shards, n_replicas = self._ns_shape
        shards = {
            f"shard{s}": tuple(
                f"urn:server:registry.net/ns{s}r{r}" for r in range(n_replicas)
            )
            for s in range(n_shards)
        }
        self.ns_ring = HashRing(shards)
        for shard_id, nodes in shards.items():
            for node in nodes:
                host = ReplicaNameHost(
                    self._secure_node(node), self.ns_ring, shard_id,
                    timeout=self._ns_timeout,
                )
                self.ns_hosts[node] = host
                self.metrics.include(host.telemetry.registry)
        self.name_service = DirectoryOracle(
            self.ns_ring, self.ns_hosts, self.clock
        )

    def ns_host(self, node: str):
        """The replica host serving directory node ``node``."""
        try:
            return self.ns_hosts[node]
        except KeyError:
            raise ReproError(f"no directory replica named {node!r}") from None

    def add_server(self, name: str, *, keys: KeyPair | None = None) -> AgentServer:
        """Add one server (``keys`` override serves red-team scenarios:
        a banned host re-registering under a new name keeps its keys)."""
        self.network.add_node(name)
        if keys is None:
            keys = KeyPair.generate(make_rng(self.seed, f"server:{name}"),
                                    bits=KEY_BITS)
        server = AgentServer(
            name=name,
            kernel=self.kernel,
            network=self.network,
            trust_anchor=self.ca,
            keys=keys,
            certificate=self.ca.issue(name, keys.public),
            rng=make_rng(self.seed, f"rng:{name}"),
            name_service=self.name_service,
            **self._server_kwargs,
        )
        if self._replicated_ns:
            from repro.naming.replicated import ReplicatedNameClient

            write_quorum, read_quorum = self._ns_quorums
            breaker_threshold, breaker_reset = self._ns_breakers
            server.name_service = ReplicatedNameClient(
                server.secure,
                self.ns_ring,
                write_quorum=write_quorum,
                read_quorum=read_quorum,
                timeout=self._ns_timeout,
                stale_read_limit=self._ns_stale_read_limit,
                retry=self._ns_retry,
                retry_rng=make_rng(self.seed, f"nsretry:{name}"),
                breaker_threshold=breaker_threshold,
                breaker_reset=breaker_reset,
            )
            server.telemetry.register_source(
                "ns_client", server.name_service.stats
            )
        self.servers.append(server)
        self.metrics.include(server.telemetry.registry)
        return server

    def _connect(
        self, topology: str, latency: float, bandwidth: float, loss_rate: float
    ) -> None:
        names = [s.name for s in self.servers]
        kw = dict(latency=latency, bandwidth=bandwidth, loss_rate=loss_rate)
        if topology == "full":
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    self.network.connect(a, b, **kw)
        elif topology == "star":
            for b in names[1:]:
                self.network.connect(names[0], b, **kw)
        elif topology == "line":
            for a, b in zip(names, names[1:]):
                self.network.connect(a, b, **kw)
        else:
            raise ValueError(f"unknown topology {topology!r}")

    @property
    def home(self) -> AgentServer:
        """By convention the first server is the owner's home site."""
        return self.servers[0]

    def server_named(self, name: str) -> AgentServer:
        for server in self.servers:
            if server.name == name:
                return server
        raise ReproError(f"no server named {name!r}")

    # -- credentials ------------------------------------------------------------------

    def credentials_for(
        self,
        rights: Rights,
        *,
        agent_local: str | None = None,
        lifetime: float = 1e6,
    ) -> DelegatedCredentials:
        """Mint owner-signed credentials for a new agent."""
        local = agent_local or self._agent_ids.next()
        cred = Credentials.issue(
            agent=URN.parse(f"urn:agent:umn.edu/owner/{local}"),
            owner=self.owner,
            creator=self.owner,
            owner_keys=self.owner_keys,
            owner_certificate=self.owner_certificate,
            rights=rights,
            now=self.clock.now(),
            lifetime=lifetime,
        )
        return DelegatedCredentials.wrap(cred)

    # -- launching ---------------------------------------------------------------------

    def launch(
        self,
        agent: Agent,
        rights: Rights,
        *,
        at: AgentServer | None = None,
        entry_method: str = "run",
        source: str = "",
        agent_local: str | None = None,
        attributes: dict[str, Any] | None = None,
        register_name: bool = True,
    ) -> AgentImage:
        """Credential, image and launch an agent instance.

        Trusted agents (``source=""``) must have their class registered
        with :func:`~repro.agents.agent.register_trusted_agent_class`.
        Returns the launched image (whose ``name`` tracks the agent).
        """
        server = at or self.home
        credentials = self.credentials_for(rights, agent_local=agent_local)
        attrs = dict(attributes or {})
        if register_name and self.name_service is not None:
            token = self.name_service.register(
                credentials.agent, server.name, {"owner": str(self.owner)}
            )
            attrs["ns_token"] = token
        image = capture_image(
            agent,
            credentials=credentials,
            entry_method=entry_method,
            home_site=server.name,
            source=source,
            attributes=attrs,
        )
        server.launch(image)
        return image

    def launch_source(
        self,
        source: str,
        class_name: str,
        rights: Rights,
        *,
        state: dict[str, Any] | None = None,
        at: AgentServer | None = None,
        entry_method: str = "run",
        agent_local: str | None = None,
        register_name: bool = True,
    ) -> AgentImage:
        """Launch an *untrusted* agent from shipped source code."""
        server = at or self.home
        credentials = self.credentials_for(rights, agent_local=agent_local)
        attrs: dict[str, Any] = {}
        if register_name and self.name_service is not None:
            token = self.name_service.register(
                credentials.agent, server.name, {"owner": str(self.owner)}
            )
            attrs["ns_token"] = token
        image = AgentImage(
            name=credentials.agent,
            credentials=credentials,
            class_name=class_name,
            source=source,
            state=dict(state or {}),
            entry_method=entry_method,
            home_site=server.name,
            attributes=attrs,
        )
        server.launch(image)
        return image

    def locate(self, agent: URN) -> str:
        """Where the name service believes the agent currently is."""
        return self.name_service.lookup(agent).location

    # -- adversity ---------------------------------------------------------------------

    def faults(self):
        """The world's fault injector (created on first use).

        Schedule link flaps, partitions, loss bursts and server crashes
        against this testbed's network/kernel, then :meth:`run`.
        """
        if self._faults is None:
            from repro.net.faults import FaultInjector

            self._faults = FaultInjector(self.kernel, self.network,
                                         seed=self.seed)
            self.metrics.register_source("faults", self._faults.stats)
        return self._faults

    # -- observability -----------------------------------------------------------------

    def start_tracing(self) -> FlightRecorder:
        """Install a kernel-clock tracer; returns its flight recorder.

        One tracer per testbed: calling this again re-installs the same
        tracer (spans accumulate across start/stop cycles).  Remember to
        :meth:`stop_tracing` — the switchboard is process-global.
        """
        if self.tracer is None:
            self.tracer = Tracer(clock=self.clock, service="testbed")
        _obs.install(tracer=self.tracer)
        return FlightRecorder(self.tracer)

    def stop_tracing(self) -> None:
        """Disable tracing hooks; metrics hooks (if on) stay on."""
        metrics = _obs.METRICS
        _obs.uninstall()
        if metrics is not None:
            _obs.install(metrics=metrics)

    def start_metrics(self) -> MetricsRegistry:
        """Install this world's registry so hook-fed metrics flow.

        Every host's counters are in :meth:`scrape` without this — only
        the hook-fed instruments (proxy latency histograms, deny
        counters) need the hooks live.
        """
        _obs.install(metrics=self.metrics)
        return self.metrics

    def scrape(self) -> dict[str, Any]:
        """Every metric in the world, flattened into one dict."""
        return self.metrics.scrape()

    def render_metrics(self) -> str:
        """The scrape as sorted ``key value`` text lines."""
        return self.metrics.render_text()

    # -- cluster telemetry (federated scrape / profiling / SLOs) -----------------------

    def telemetry_targets(self) -> list[str]:
        """Every node serving ``telemetry.scrape``: servers + directory replicas."""
        return [s.name for s in self.servers] + list(self.ns_hosts)

    def start_collector(
        self, period: float = 5.0, *, via: AgentServer | None = None
    ):
        """Start a kernel-scheduled federated scraper; returns the collector.

        The collector rides on ``via``'s secure host (default: home) and
        pulls every target each ``period`` of virtual time, as a daemon
        tick — it never keeps an otherwise-idle world alive.
        """
        from repro.obs.aggregate import TelemetryCollector

        if self.collector is not None:
            raise ReproError("collector already started")
        host = via or self.home
        self.collector = TelemetryCollector(
            host.secure,
            self.telemetry_targets(),
            local=host.telemetry,
        )
        self.collector.start(period)
        return self.collector

    def stop_collector(self) -> None:
        if self.collector is not None:
            self.collector.stop()

    def cluster_scrape(self) -> dict[str, Any]:
        """One synchronous federated scrape round, flattened like :meth:`scrape`.

        Must run inside kernel context (wrap in a SimThread / call from a
        running world).  Starts an ad-hoc collector on first use if
        :meth:`start_collector` was never called.
        """
        from repro.obs.aggregate import TelemetryCollector

        if self.collector is None:
            self.collector = TelemetryCollector(
                self.home.secure,
                self.telemetry_targets(),
                local=self.home.telemetry,
            )
        self.collector.scrape_round()
        return self.collector.scrape()

    def start_profiler(self, period: float = 0.001):
        """Attach a sampling profiler to this world's tracer (implies tracing)."""
        from repro.obs.profiler import SamplingProfiler

        recorder = self.start_tracing()
        if self.profiler is None:
            self.profiler = SamplingProfiler(
                self.tracer, self.kernel, period=period
            )
        self.profiler.start()
        return self.profiler

    def stop_profiler(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()

    def slo_monitor(self):
        """An :class:`~repro.obs.slo.SLOMonitor` pre-wired with this world's
        conservation laws (agent conservation, audit drops; replica
        divergence when the directory is replicated)."""
        from repro.obs.slo import (
            SLOMonitor,
            agent_conservation_residual,
            audit_drop_residual,
            healed_conservation_residual,
            replica_divergence_residual,
        )

        monitor = SLOMonitor(self.clock)
        if self._self_healing:
            # With crashes/drains in play the base law legitimately goes
            # positive; the healed variant nets out recorded removals.
            monitor.add_invariant(
                "healed_conservation",
                healed_conservation_residual(self.servers),
                detail="an agent was lost or double-admitted through healing",
            )
        else:
            monitor.add_invariant(
                "agent_conservation",
                agent_conservation_residual(self.servers),
                detail="hosted != transfers_out + completed + residents",
            )
        monitor.add_invariant(
            "audit_drops",
            audit_drop_residual(self.servers),
            detail="ring-buffer evictions lost security decisions",
        )
        if self._replicated_ns:
            monitor.add_invariant(
                "replica_divergence",
                replica_divergence_residual(self.name_service),
                detail="directory replicas disagree",
            )
        return monitor

    # -- running -----------------------------------------------------------------------

    def run(self, until: float | None = None, **kw) -> float:
        return self.kernel.run(until=until, **kw)
