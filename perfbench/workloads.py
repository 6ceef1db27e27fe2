"""The three benchmark workloads: ``tour``, ``colocated`` and ``heal``.

Each workload builds a seeded world from the ``repro`` package, runs it
to completion and returns an :class:`Outcome`: host timings, simulated
latencies, the program's own deterministic counters, and the result of
every output check.  Nothing here times a layer; ``shims.py`` does that
from outside when a traced round asks for it.

The network and all virtual times are simulated (``repro.sim``): no
real link is involved.  Host times are wall-clock (``perf_counter``).
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.integrity import APPRAISAL_ATTRIBUTE
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.apps.buffer import Buffer
from repro.apps.marketplace import QuoteService
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.core.token import RING_TRUSTED, RING_UNTRUSTED, RING_VERIFIED
from repro.credentials.rights import Rights
from repro.errors import ProxyRevokedError
from repro.naming.urn import URN
from repro.obs.slo import (
    agent_conservation_residual,
    audit_drop_residual,
    healed_conservation_residual,
    replica_divergence_residual,
)
from repro.sandbox.threadgroup import enter_group
from repro.server.admission import RingPolicy
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy

__all__ = ["WORKLOADS", "Outcome", "run_workload"]

ITEMS = ("camera", "lens", "tripod", "flash")
STORE_OWNER = "urn:principal:stores.net/staff"

# Host nanoseconds per warm proxy call (not the first on a proxy),
# appended by trusted agent bodies
# (shipped-source agents cannot import a clock).  Reset per round.
CALL_NS: list[int] = []


# -- outcome ------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything one round measured and checked."""

    workload: str
    seed: int
    setup_end: float = 0.0  # perf_counter() just before the first launch
    run_s: float = 0.0  # host seconds from the first launch to quiescence
    ops: int = 0  # the workload's primary operation count
    latencies: list[float] = field(default_factory=list)  # simulated s
    call_ns: list[int] = field(default_factory=list)  # host ns per call
    checks: dict[str, list[int]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)  # deterministic
    extra: dict[str, float] = field(default_factory=dict)  # host-side extras
    peak_rss_mb: float = 0.0

    def check(self, name: str, ok: bool, attempted: int = 1) -> None:
        """Record ``attempted`` checked operations, failed unless ``ok``."""
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += attempted
        entry[1] += 0 if ok else attempted

    def expect(self, name: str, failures: int, attempted: int) -> None:
        """Record ``attempted`` operations of which ``failures`` failed."""
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += attempted
        entry[1] += min(failures, attempted) if attempted else failures

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.checks.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.checks.values())


class ReportSink(list):
    """A server's report list that also tells the workload of each report."""

    def __init__(self, on_report: Callable[[dict], None]) -> None:
        super().__init__()
        self._on_report = on_report

    def append(self, report: Any) -> None:
        super().append(report)
        self._on_report(report)


# -- shared world pieces -----------------------------------------------------------


def catalog_for(rng: random.Random) -> dict[str, tuple[float, int]]:
    return {item: (round(rng.uniform(5.0, 500.0), 2), 1000) for item in ITEMS}


def store_policy() -> SecurityPolicy:
    """A store policy of several rules; shoppers match the first two."""
    return SecurityPolicy(rules=[
        PolicyRule("owner", "urn:principal:umn.edu/*",
                   Rights.of("QuoteService.quote", "QuoteService.in_stock"),
                   rule_id="shoppers"),
        PolicyRule("any", "*", Rights.of("QuoteService.list_items"),
                   rule_id="browse"),
        PolicyRule("agent", "urn:agent:*/vip-*",
                   Rights.of("QuoteService.buy"), rule_id="vip"),
        PolicyRule("owner", STORE_OWNER,
                   Rights.of("QuoteService.restock",
                             "QuoteService.sales_report"),
                   rule_id="staff"),
    ])


def store_name(server_name: str) -> str:
    site = server_name.split(":", 2)[2].split("/", 1)[0]
    return f"urn:resource:{site}/store"


def install_stores(bed: Testbed, rng: random.Random) -> dict[str, dict]:
    """One QuoteService per server; returns server -> catalogue prices."""
    prices: dict[str, dict] = {}
    for server in bed.servers:
        catalog = catalog_for(rng)
        server.install_resource(QuoteService(
            URN.parse(store_name(server.name)), URN.parse(STORE_OWNER),
            store_policy(), catalog=catalog,
        ))
        prices[server.name] = {item: p for item, (p, _) in catalog.items()}
    return prices


def observe_chains(bed: Testbed) -> dict[str, int]:
    """Appraisal-chain length of every agent returning home, by agent."""
    integrity = bed.home.integrity
    chains: dict[str, int] = {}
    verify_return = integrity.verify_return

    def observed(image, peer):
        verify_return(image, peer)
        chain = image.attributes.get(APPRAISAL_ATTRIBUTE) or ()
        chains[str(image.name)] = len(chain)

    integrity.verify_return = observed
    return chains


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def terminal_records(bed: Testbed, agent: URN) -> list[str]:
    return [
        record.status
        for server in bed.servers
        for record in server.domain_db.records_of(agent)
    ]


def program_counts(bed: Testbed, out: Outcome) -> None:
    """The program's own deterministic counters (the determinism guard)."""
    servers = bed.servers
    stat = lambda key: sum(s.stats[key] for s in servers)  # noqa: E731
    net = bed.network.stats
    secure = [h.secure.stats for h in [*servers, *bed.ns_hosts.values()]]
    out.counts.update({
        "sim.events": bed.kernel.events_processed,
        "sim.virtual_end_s": round(bed.clock.now(), 9),
        "sim.threads": len(bed.kernel.threads()),
        "net.messages_n": net["sent"],
        "net.wire_bytes": net["sent_bytes"],
        "net.handshake_n": sum(s["channels_initiated"] for s in secure),
        "net.call_timeouts_n": sum(
            s.endpoint.stats["call_timeouts"] for s in servers
        ),
        "server.hosted_n": stat("agents_hosted"),
        "server.transfers_in_n": stat("transfers_in"),
        "server.transfer_retries_n": stat("transfer_retries"),
        "server.transfers_failed_n": stat("transfers_failed"),
        "server.completed_n": stat("agents_completed"),
    })
    if servers[0].integrity is not None:
        out.counts["agents.links_sealed_n"] = sum(
            s.integrity.stats["links_sealed"] for s in servers
        )
    hits = sum(s.admission.credential_cache.hits for s in servers)
    misses = sum(s.admission.credential_cache.misses for s in servers)
    out.counts["cred.cache_hit_ratio"] = round(hits / max(hits + misses, 1), 9)
    grant = [0, 0]
    for server in servers:
        for name in server.registry.names():
            impl = server.registry.lookup(name)
            stats = getattr(impl, "grant_cache_stats", None)
            if stats is not None:
                g = stats()
                grant[0] += g["hits"]
                grant[1] += g["misses"]
    out.counts["core.grant_cache_hit_ratio"] = round(
        grant[0] / max(grant[0] + grant[1], 1), 9
    )


# -- agents --------------------------------------------------------------------------


@register_trusted_agent_class
class BenchTourist(ItineraryAgent):
    """Binds each stop's store, quotes a few items, looks up a peer agent
    and re-binds home's store by token.  ``heal`` tours also dwell."""

    def __init__(self) -> None:
        super().__init__()
        self.tour_id = 0
        self.stores: dict[str, str] = {}
        self.items: list[str] = []
        self.quotes: list[list] = []
        self.token = b""
        self.lookup_peer = ""
        self.dwell = 0.0

    def run(self) -> None:
        if not self.token:
            proxy = self.host.get_resource(self.stores[self.host.server_name()])
            self.token = proxy.capability_token().to_wire()
        super().run()

    def visit(self, stop) -> None:
        here = self.host.server_name()
        if here == self.host.home_site():
            proxy = self.host.get_resource(self.stores[here], token=self.token)
        else:
            proxy = self.host.get_resource(self.stores[here])
        for i, item in enumerate(self.items):
            start = time.perf_counter_ns()
            price = proxy.quote(item)
            if i:  # the first call on a fresh proxy is not a warm call
                CALL_NS.append(time.perf_counter_ns() - start)
            self.quotes.append([here, item, price])
        if self.lookup_peer:
            self.host.locate(self.lookup_peer)
        if self.dwell:
            self.host.sleep(self.dwell)

    def finish(self) -> None:
        self.host.report_home({
            "kind": "tour", "tour": self.tour_id, "quotes": self.quotes,
            "skipped": len(self.skipped),
        })
        self.complete()


# The same tourist as shipped (untrusted) source: verified, loaded into a
# fresh namespace and run at ring 2 on every server it visits.
TOURIST_SOURCE = '''
class SourceTourist(Agent):
    def run(self):
        if not self.token:
            proxy = self.host.get_resource(self.stores[self.host.server_name()])
            self.token = proxy.capability_token().to_wire()
        while self.pos < len(self.stops):
            stop = self.stops[self.pos]
            if stop != self.host.server_name():
                self.go(stop, "run")
            self.visit()
            self.pos = self.pos + 1
        self.host.report_home({"kind": "tour", "tour": self.tour_id,
                               "quotes": self.quotes,
                               "skipped": len(self.skipped)})
        self.complete()

    def visit(self):
        here = self.host.server_name()
        if here == self.host.home_site():
            proxy = self.host.get_resource(self.stores[here], self.token)
        else:
            proxy = self.host.get_resource(self.stores[here])
        for item in self.items:
            self.quotes = self.quotes + [[here, item, proxy.quote(item)]]
        if self.lookup_peer:
            self.host.locate(self.lookup_peer)
        if self.dwell:
            self.host.sleep(self.dwell)

    def transfer_failed(self, destination, reason):
        self.skipped = self.skipped + [destination]
        self.pos = self.pos + 1
        self.run()
'''


def launch_tour(bed: Testbed, tour_id: int, stops: list[str], *,
                stores: dict[str, str], items: list[str], untrusted: bool,
                lookup_peer: str = "", dwell: float = 0.0):
    state = {
        "tour_id": tour_id, "stores": stores, "items": items, "quotes": [],
        "token": b"", "lookup_peer": lookup_peer, "dwell": dwell,
    }
    local = f"tour-{tour_id}"
    if untrusted:
        state.update({"stops": stops, "pos": 0, "skipped": []})
        return bed.launch_source(TOURIST_SOURCE, "SourceTourist", Rights.all(),
                                 state=state, agent_local=local)
    agent = BenchTourist()
    for key, value in state.items():
        setattr(agent, key, value)
    agent.itinerary = Itinerary.tour(stops)
    return bed.launch(agent, Rights.all(), agent_local=local)


def check_quotes(out: Outcome, reports: list[dict], prices: dict) -> int:
    """Every quote returns the catalogue price; returns the quote count."""
    bad = calls = 0
    for report in reports:
        for server, item, price in report["payload"]["quotes"]:
            calls += 1
            bad += price != prices[server][item]
    out.expect("quote_returns_catalogue_price", bad, calls)
    return calls


def check_tours(out: Outcome, bed: Testbed, images: dict[int, Any],
                reports: list[dict], chains: dict[str, int] | None = None,
                hops: int = 0) -> None:
    """Every tour completes exactly once (and, given ``chains``, returns
    home with one appraisal link per hop)."""
    by_tour: dict[int, list[dict]] = {}
    for report in reports:
        by_tour.setdefault(report["payload"]["tour"], []).append(report)
    for tour_id, image in images.items():
        got = by_tour.get(tour_id, [])
        statuses = terminal_records(bed, image.name)
        out.check("tour_completes_exactly_once",
                  len(got) == 1 and statuses.count("completed") == 1
                  and "running" not in statuses)
        if chains is not None and len(got) == 1:
            out.check("appraisal_chain_one_link_per_hop",
                      chains.get(str(image.name)) == hops)


# -- tour -------------------------------------------------------------------------------

TOUR = dict(servers=6, tours=100, in_flight=8, stops=4, untrusted_every=4)


def run_tour(seed: int) -> Outcome:
    """Closed loop: ``in_flight`` agents; each completion launches the next."""
    p = TOUR
    out = Outcome("tour", seed)
    rng = random.Random(f"tour:{seed}")
    bed = Testbed(p["servers"], seed=seed)
    prices = install_stores(bed, rng)
    stores = {name: store_name(name) for name in prices}
    home = bed.home
    workers = [s.name for s in bed.servers[1:]]
    chains = observe_chains(bed)
    images: dict[int, Any] = {}
    due: dict[int, float] = {}
    done: dict[int, float] = {}
    plans = []
    for tour_id in range(p["tours"]):
        stops = rng.sample(workers, p["stops"]) + [home.name]
        items = rng.sample(ITEMS, 3)
        plans.append((stops, items))

    def launch(tour_id: int) -> None:
        stops, items = plans[tour_id]
        due[tour_id] = bed.clock.now()
        peer = images[tour_id - 1].name if tour_id else ""
        images[tour_id] = launch_tour(
            bed, tour_id, stops, stores=stores, items=items,
            untrusted=tour_id % p["untrusted_every"] == 0,
            lookup_peer=str(peer),
        )

    next_id = [p["in_flight"]]

    def on_report(report: dict) -> None:
        payload = report.get("payload")
        if isinstance(payload, dict) and payload.get("kind") == "tour":
            done[payload["tour"]] = report["received_at"]
            if next_id[0] < p["tours"]:
                bed.kernel.schedule(0.0, launch, next_id[0])
                next_id[0] += 1

    home.reports = ReportSink(on_report)
    CALL_NS.clear()
    out.setup_end = time.perf_counter()
    for tour_id in range(p["in_flight"]):
        launch(tour_id)
    bed.run(detect_deadlock=False)
    out.run_s = time.perf_counter() - out.setup_end

    reports = [r for r in home.reports if r["payload"].get("kind") == "tour"]
    out.ops = sum(s.stats["transfers_in"] for s in bed.servers)
    out.latencies = [done[t] - due[t] for t in sorted(done)]
    out.call_ns = list(CALL_NS)
    calls = check_quotes(out, reports, prices)
    check_tours(out, bed, images, reports, chains, p["stops"] + 1)
    out.check("agent_conservation_residual_zero",
              agent_conservation_residual(bed.servers)() == 0)
    out.check("audit_drop_residual_zero",
              audit_drop_residual(bed.servers)() == 0)
    program_counts(bed, out)
    out.counts["tours_n"] = len(done)
    out.extra.update({
        "hops_per_s": out.ops / out.run_s,
        "calls_per_s": calls / out.run_s,
    })
    return out


# -- colocated -------------------------------------------------------------------------

COLOCATED = dict(callers_per_ring=4, calls=6000, burst=50, pause=0.01,
                 revoke_every=0.05, pipes=12, items=1200, capacity=2,
                 residents=300)


@register_trusted_agent_class
class BenchCaller(Agent):
    """Arrives at the shared server, then streams warm ``quote`` calls.

    A revoked proxy fails its next call; the caller then re-binds with
    the capability token it saved, and carries on.
    """

    def __init__(self) -> None:
        self.shared = ""
        self.store = ""
        self.item = ""
        self.calls = 0
        self.burst = 1
        self.pause = 0.0
        self.expected = 0.0

    def run(self) -> None:
        if self.host.server_name() != self.shared:
            self.go(self.shared, "run")
        proxy = self.host.get_resource(self.store)
        token = proxy.capability_token()
        done = denied = wrong = after_rebind = 0
        while done < self.calls:
            for _ in range(min(self.burst, self.calls - done)):
                start = time.perf_counter_ns()
                try:
                    price = proxy.quote(self.item)
                except ProxyRevokedError:
                    denied += 1
                    proxy = self.host.get_resource(self.store, token=token)
                    token = proxy.capability_token()
                    after_rebind += 1
                    price = proxy.quote(self.item)
                CALL_NS.append(time.perf_counter_ns() - start)
                wrong += price != self.expected
                done += 1
            self.host.sleep(self.pause)
        self.host.report_home({"kind": "caller", "calls": done,
                               "denied": denied, "wrong": wrong,
                               "rebinds": after_rebind})
        self.complete()


CALLER_SOURCE = '''
class SourceCaller(Agent):
    def run(self):
        if self.host.server_name() != self.shared:
            self.go(self.shared, "run")
        proxy = self.host.get_resource(self.store)
        token = proxy.capability_token()
        done = 0
        denied = 0
        wrong = 0
        rebinds = 0
        while done < self.calls:
            n = min(self.burst, self.calls - done)
            for _ in range(n):
                try:
                    price = proxy.quote(self.item)
                except Exception:
                    denied = denied + 1
                    proxy = self.host.get_resource(self.store, token)
                    token = proxy.capability_token()
                    rebinds = rebinds + 1
                    price = proxy.quote(self.item)
                if price != self.expected:
                    wrong = wrong + 1
                done = done + 1
            self.host.sleep(self.pause)
        self.host.report_home({"kind": "caller", "calls": done,
                               "denied": denied, "wrong": wrong,
                               "rebinds": rebinds})
        self.complete()
'''


@register_trusted_agent_class
class BenchProducer(Agent):
    """Puts numbered items into its pipe, pacing by seeded sleeps."""

    def __init__(self) -> None:
        self.pipe = ""
        self.pipe_id = 0
        self.items = 0
        self.gaps: list[float] = []

    def run(self) -> None:
        buffer = self.host.get_resource(self.pipe)
        for seq in range(self.items):
            if self.gaps[seq]:
                self.host.sleep(self.gaps[seq])
            buffer.put([self.pipe_id, seq, self.host.now()])
        self.complete()


@register_trusted_agent_class
class BenchConsumer(Agent):
    """Takes every item of its pipe and checks order and identity."""

    def __init__(self) -> None:
        self.pipe = ""
        self.pipe_id = 0
        self.items = 0
        self.gaps: list[float] = []

    def run(self) -> None:
        buffer = self.host.get_resource(self.pipe)
        waits: list[float] = []
        out_of_order = 0
        for seq in range(self.items):
            pipe_id, got, put_at = buffer.get()
            out_of_order += pipe_id != self.pipe_id or got != seq
            waits.append(self.host.now() - put_at)
            if self.gaps[seq]:
                self.host.sleep(self.gaps[seq])
        self.host.report_home({"kind": "consumer", "pipe": self.pipe_id,
                               "items": len(waits), "waits": waits,
                               "out_of_order": out_of_order})
        self.complete()


@register_trusted_agent_class
class BenchResident(Agent):
    """Parks on its own mailbox until the benchmark's waker writes."""

    def run(self) -> None:
        self.host.create_mailbox(SecurityPolicy(rules=[PolicyRule(
            "owner", "urn:principal:umn.edu/*", Rights.of("AgentMailbox.*"),
            rule_id="owner-agents",
        )]))
        sender, message = self.host.receive()
        self.host.report_home({"kind": "resident", "message": message})
        self.complete()


@register_trusted_agent_class
class BenchWaker(Agent):
    """Delivers the end-of-run message to every parked resident."""

    def __init__(self) -> None:
        self.targets: list[str] = []

    def run(self) -> None:
        here = self.host.server_name()
        for target in self.targets:
            if self.host.locate(target) == here:
                mailbox = self.host.get_resource(self.host.mailbox_of(target))
                mailbox.deliver("wake")
        self.complete()


def run_colocated(seed: int) -> Outcome:
    """One shared server: callers in rings 0-2, blocking pipes, residents."""
    p = COLOCATED
    out = Outcome("colocated", seed)
    rng = random.Random(f"colocated:{seed}")
    # Server 0 is the agents' home; server 1 is the shared server.
    bed = Testbed(2, seed=seed)
    home, shared = bed.servers
    shared.admission.ring_policy = RingPolicy(
        trusted_agents=("urn:agent:umn.edu/owner/ring0-*",)
    )
    catalog = catalog_for(rng)
    store = QuoteService(URN.parse(store_name(shared.name)),
                         URN.parse(STORE_OWNER), store_policy(),
                         catalog=catalog)
    shared.install_resource(store)
    site = store_name(shared.name).rsplit("/", 1)[0]
    pipes = []
    for pipe_id in range(p["pipes"]):
        name = f"{site}/pipe{pipe_id}"
        shared.install_resource(Buffer(
            URN.parse(name), URN.parse(STORE_OWNER),
            SecurityPolicy(rules=[
                PolicyRule("agent", f"urn:agent:*/producer-{pipe_id}",
                           Rights.of("Buffer.put", "Buffer.size"),
                           rule_id="producer"),
                PolicyRule("agent", f"urn:agent:*/consumer-{pipe_id}",
                           Rights.of("Buffer.get", "Buffer.size"),
                           rule_id="consumer"),
                PolicyRule("owner", STORE_OWNER, Rights.all(),
                           rule_id="staff"),
            ]),
            capacity=p["capacity"], kernel=bed.kernel,
        ))
        pipes.append(name)
    callers = 0
    reports: list[dict] = []
    residents: list[Any] = []
    expected_reports = 3 * p["callers_per_ring"] + p["pipes"]

    def wake_residents() -> None:
        waker = BenchWaker()
        waker.targets = [str(image.name) for image in residents]
        bed.launch(waker, Rights.all(), at=shared, agent_local="waker")

    def on_report(report: dict) -> None:
        payload = report.get("payload")
        if not isinstance(payload, dict):
            return
        reports.append(report)
        if payload.get("kind") in ("caller", "consumer"):
            if sum(1 for r in reports if r["payload"]["kind"]
                   in ("caller", "consumer")) == expected_reports:
                bed.kernel.schedule(0.0, wake_residents)

    home.reports = ReportSink(on_report)
    shared.reports = ReportSink(on_report)

    revocations: dict[str, int] = {}  # caller agent URN -> revocations

    def revoke_next(k: int) -> None:
        live = [r for r in shared.domain_db.residents()
                if "caller" in r.agent.local]
        if live:
            target = live[k % len(live)]
            with enter_group(shared.server_domain.thread_group):
                if store.revoke_for(target.domain_id):
                    agent = str(target.agent)
                    revocations[agent] = revocations.get(agent, 0) + 1
        if len(reports) < expected_reports:
            bed.kernel.schedule(p["revoke_every"], revoke_next, k + 1)

    CALL_NS.clear()
    out.setup_end = time.perf_counter()
    for i in range(p["residents"]):
        residents.append(bed.launch(BenchResident(), Rights.all(), at=shared,
                                    agent_local=f"resident-{i}"))
    for pipe_id, pipe in enumerate(pipes):
        for role, cls in (("producer", BenchProducer),
                          ("consumer", BenchConsumer)):
            agent = cls()
            agent.pipe, agent.pipe_id, agent.items = pipe, pipe_id, p["items"]
            # Half the steps pause a random while; producers pause half as
            # long, so pipes run full and puts block on the capacity.
            longest = 0.001 if role == "producer" else 0.002
            agent.gaps = [rng.random() < 0.5 and rng.uniform(0.0, longest)
                          for _ in range(p["items"])]
            bed.launch(agent, Rights.all(), at=shared,
                       agent_local=f"{role}-{pipe_id}")
    for ring in (RING_TRUSTED, RING_VERIFIED, RING_UNTRUSTED):
        for i in range(p["callers_per_ring"]):
            item = rng.choice(ITEMS)
            state = {"shared": shared.name, "store": store_name(shared.name),
                     "item": item, "calls": p["calls"], "burst": p["burst"],
                     "pause": p["pause"], "expected": catalog[item][0]}
            local = f"ring{ring}-caller-{i}"
            if ring == RING_UNTRUSTED:
                bed.launch_source(CALLER_SOURCE, "SourceCaller", Rights.all(),
                                  state=state, agent_local=local)
            else:
                agent = BenchCaller()
                for key, value in state.items():
                    setattr(agent, key, value)
                bed.launch(agent, Rights.all(), agent_local=local)
            callers += 1
    bed.kernel.schedule(p["revoke_every"], revoke_next, 0)
    bed.run(detect_deadlock=False)
    out.run_s = time.perf_counter() - out.setup_end

    kinds: dict[str, list[dict]] = {}
    for report in reports:
        kinds.setdefault(report["payload"]["kind"], []).append(
            report["payload"])
    caller_reports = kinds.get("caller", [])
    calls = sum(r["calls"] for r in caller_reports)
    out.expect("call_returns_catalogue_price",
               sum(r["wrong"] for r in caller_reports), calls)
    out.check("every_caller_reports_once",
              len(caller_reports) == callers, callers)
    denied = sum(r["denied"] for r in caller_reports)
    # A revocation landing after a caller's last call (while its report
    # is in flight) is never observed by a call: at most one per caller.
    unobserved = 0
    for report in reports:
        if report["payload"]["kind"] == "caller":
            missed = revocations.get(report["agent"], 0) - report["payload"]["denied"]
            unobserved += not 0 <= missed <= 1
    out.expect("revoked_proxy_call_denied", unobserved,
               max(sum(revocations.values()), 1))
    out.check("revocations_happened", denied > 0)
    out.check("call_after_rebind_succeeds",
              sum(r["rebinds"] for r in caller_reports) == denied,
              max(denied, 1))
    consumer_reports = kinds.get("consumer", [])
    items = sum(r["items"] for r in consumer_reports)
    out.expect("item_consumed_once_in_order",
               sum(r["out_of_order"] for r in consumer_reports)
               + (p["pipes"] * p["items"] - items),
               p["pipes"] * p["items"])
    out.check("every_resident_woken",
              len(kinds.get("resident", [])) == len(residents), len(residents))
    out.check("audit_drop_residual_zero",
              audit_drop_residual(bed.servers)() == 0)
    out.check("agent_conservation_residual_zero",
              agent_conservation_residual(bed.servers)() == 0)
    # Every proxy invocation on the shared server: the callers' calls, the
    # denied calls before each re-bind, and a put and a get per item.
    out.ops = calls + denied + 2 * items
    out.latencies = [w for r in consumer_reports for w in r["waits"]]
    out.call_ns = list(CALL_NS)
    program_counts(bed, out)
    out.counts.update({
        "colocated.calls_n": calls,
        "colocated.items_n": items,
        "colocated.revocations_n": sum(revocations.values()),
    })
    out.extra.update({
        "calls_per_s": calls / out.run_s,
        "items_per_s": items / out.run_s,
        "hops_per_s": sum(s.stats["transfers_in"] for s in bed.servers)
        / out.run_s,
    })
    return out


# -- heal ----------------------------------------------------------------------------------

HEAL = dict(servers=5, tours=100, interval=0.5, stops=3, dwell=1.0,
            crash_at=20.0, burst_at=8.0, burst_for=6.0, tail=30.0,
            untrusted_every=4)


def burst_link(bed: Testbed, rng: random.Random, servers: list) -> tuple:
    """A (server, directory replica) pair for the loss burst."""
    return rng.choice(servers).name, rng.choice(sorted(bed.ns_hosts))


def run_heal(seed: int) -> Outcome:
    """Open loop over the replicated directory, with a crash and a burst."""
    p = HEAL
    out = Outcome("heal", seed)
    rng = random.Random(f"heal:{seed}")
    bed = Testbed(
        p["servers"], seed=seed, replicated_name_service=True,
        ns_shards=2, ns_replicas=3, ns_write_quorum=2, ns_read_quorum=2,
        ns_anti_entropy=20.0, self_healing=True,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(attempts=4, base_delay=1.0,
                                          jitter=0.0),
        },
    )
    prices = install_stores(bed, rng)
    stores = {name: store_name(name) for name in prices}
    home = bed.home
    workers = bed.servers[1:]
    victim = workers[rng.randrange(len(workers))]
    # The burst cuts a survivor off one directory replica.  (A burst on
    # the victim's own directory link loses agents: see README.md,
    # "Known defect", and test_perfbench.py.)
    survivors = [w for w in workers if w is not victim]
    burst = burst_link(bed, rng, survivors)
    bed.faults().loss_burst(*burst, at=p["burst_at"], duration=p["burst_for"],
                            loss_rate=0.7)
    bed.faults().crash(victim, at=p["crash_at"])  # hard: never restarts
    images: dict[int, Any] = {}
    due: dict[int, float] = {}
    done: dict[int, float] = {}
    reports: list[dict] = []

    def launch(tour_id: int) -> None:
        stops = [w.name for w in rng.sample(workers, p["stops"])]
        stops.append(home.name)
        peer = images[tour_id - 1].name if tour_id else ""
        images[tour_id] = launch_tour(
            bed, tour_id, stops, stores=stores, items=rng.sample(ITEMS, 2),
            untrusted=tour_id % p["untrusted_every"] == 0,
            lookup_peer=str(peer), dwell=p["dwell"],
        )

    def on_report(report: dict) -> None:
        payload = report.get("payload")
        if isinstance(payload, dict) and payload.get("kind") == "tour":
            reports.append(report)
            done.setdefault(payload["tour"], report["received_at"])

    home.reports = ReportSink(on_report)
    for tour_id in range(p["tours"]):
        due[tour_id] = tour_id * p["interval"]
        bed.kernel.schedule_at(due[tour_id], launch, tour_id)
    CALL_NS.clear()
    out.setup_end = time.perf_counter()
    # Heartbeat rounds keep scheduling work, so the world never drains by
    # itself: run to a horizon past the last launch (tours take ~10s).
    bed.run(until=p["tours"] * p["interval"] + p["tail"],
            detect_deadlock=False)
    out.run_s = time.perf_counter() - out.setup_end

    out.ops = sum(s.stats["transfers_in"] for s in bed.servers)
    out.latencies = [done[t] - due[t] for t in sorted(done)]
    out.call_ns = list(CALL_NS)
    calls = check_quotes(out, reports, prices)
    check_tours(out, bed, images, reports)
    lost = doubled = 0
    for image in images.values():
        statuses = terminal_records(bed, image.name)
        lost += statuses.count("completed") == 0
        doubled += statuses.count("completed") > 1
    out.expect("no_agent_lost", lost, len(images))
    out.expect("no_agent_doubled", doubled, len(images))
    out.check("healed_conservation_residual_zero",
              healed_conservation_residual(bed.servers)() == 0)
    out.check("replicas_converged_after_heal",
              replica_divergence_residual(bed.name_service)() == 0)
    out.check("audit_drop_residual_zero",
              audit_drop_residual(bed.servers)() == 0)
    rehomes = [e for s in bed.servers for e in s.recovery.rehome_log]
    killed = victim.stats["agents_killed_crash"]
    out.check("every_killed_agent_rehomed", len(rehomes) >= killed)
    confirmed = [t for t, state, peer in home.membership.log
                 if state == "confirmed-dead" and peer == victim.name]
    program_counts(bed, out)
    clients = [s.name_service.stats for s in bed.servers]
    csum = lambda key: sum(c[key] for c in clients)  # noqa: E731
    out.counts.update({
        "tours_n": len(done),
        "server.killed_n": killed,
        "server.rehomed_n": len(rehomes),
        "server.heartbeats_n": sum(
            s.membership.stats["heartbeats_sent"] for s in bed.servers),
        "server.escrowed_n": sum(
            s.recovery.stats["checkpoints_accepted"] for s in bed.servers),
        "server.detect_virtual_s": round(
            confirmed[0] - p["crash_at"], 9) if confirmed else -1.0,
        "server.relaunch_virtual_s": round(statistics.mean(
            e["relaunched_at"] - e["confirmed_at"] for e in rehomes), 9)
        if rehomes else 0.0,
        "stranded_virtual_s": round(max(
            e["relaunched_at"] for e in rehomes) - p["crash_at"], 9)
        if rehomes else 0.0,
        "naming.quorum_failed_n": csum("quorum_write_failures")
        + csum("lookups_unavailable") + csum("registers_unavailable"),
        "naming.stale_reads_n": csum("lookups_stale"),
        "naming.read_repairs_n": csum("read_repairs"),
        "naming.hints_n": csum("hints_sent"),
    })
    out.extra.update({
        "hops_per_s": out.ops / out.run_s,
        "calls_per_s": calls / out.run_s,
    })
    return out


WORKLOADS: dict[str, Callable[[int], Outcome]] = {
    "tour": run_tour,
    "colocated": run_colocated,
    "heal": run_heal,
}


def run_workload(name: str, seed: int) -> Outcome:
    out = WORKLOADS[name](seed)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out
