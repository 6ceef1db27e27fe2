"""The everything-at-once scenario.

One run exercising, simultaneously: remote name service, itinerary-driven
touring with a dead stop, group-based policy, metered+quota'd proxies
with billing to the home site, forwarding attenuation, mailbox
communication and the audit trail.  If subsystems interfere, this is
where it shows.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.apps.marketplace import QuoteService
from repro.core.accounting import Tariff
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.principal import Group, GroupDirectory
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.server.testbed import Testbed

ITEM = "sextant"
BUYERS = URN.parse("urn:group:guild.org/buyers")


@register_trusted_agent_class
class GrandShopper(ItineraryAgent):
    def __init__(self) -> None:
        super().__init__()
        self.quotes = []

    def visit(self, stop):
        authority = stop.server.split(":")[2].split("/")[0]
        shop = self.host.get_resource(f"urn:resource:{authority}/shop")
        self.quotes.append((stop.server, shop.quote(ITEM)))

    def finish(self):
        best_server, best_price = min(self.quotes, key=lambda q: q[1])
        self.best = [best_server, best_price]
        self.co_locate_and_buy()

    def co_locate_and_buy(self):
        best_server = self.best[0]
        if self.host.server_name() != best_server:
            self.go(best_server, "co_locate_and_buy")
        authority = best_server.split(":")[2].split("/")[0]
        shop = self.host.get_resource(f"urn:resource:{authority}/shop")
        paid = shop.buy(ITEM)
        self.host.report_home({
            "paid": paid,
            "quotes": self.quotes,
            "skipped": self.skipped,
            "bill_preview": shop.usage_report().total,
        })
        self.complete()


def build_world():
    bed = Testbed(4, replicated_name_service=True, ns_shards=1,
                  ns_replicas=1, ns_write_quorum=1, ns_read_quorum=1,
                  authority="mkt{i}.org",
                  server_kwargs={"transfer_timeout": 10.0})
    groups = GroupDirectory()
    groups.add_group(Group(BUYERS, {bed.owner}))
    prices = {1: 80.0, 2: 60.0, 3: 95.0}
    for index, server in enumerate(bed.servers[1:], start=1):
        authority = server.name.split(":")[2].split("/")[0]
        policy = SecurityPolicy(
            rules=[
                PolicyRule("any", "*",
                           Rights.of("QuoteService.quote"), metered=True,
                           confine=False),
                PolicyRule("group", str(BUYERS),
                           Rights.of("QuoteService.buy",
                                     quotas={"QuoteService.buy": 1}),
                           metered=True, confine=False),
            ],
            groups=groups,
        )
        shop = QuoteService(
            URN.parse(f"urn:resource:{authority}/shop"),
            URN.parse(f"urn:principal:{authority}/merchant"),
            policy,
            catalog={ITEM: (prices[index], 2)},
            tariff=Tariff.of({"quote": 0.05, "buy": 1.0}),
        )
        server.install_resource(shop)
    return bed, prices


def test_grand_tour():
    bed, prices = build_world()
    # Stop 2 (cheapest) plus a dead server in the middle of the tour.
    dead = bed.servers[3]
    dead.endpoint.close()
    agent = GrandShopper()
    agent.itinerary = Itinerary.tour([s.name for s in bed.servers[1:]])
    image = bed.launch(agent, Rights.all())
    bed.run(detect_deadlock=False)

    [report] = [r["payload"] for r in bed.home.reports
                if "paid" in r.get("payload", {})]
    # Bought at the cheapest *reachable* shop.
    assert report["paid"] == 60.0
    assert len(report["quotes"]) == 2  # two reachable markets
    assert [s for s, _ in report["skipped"]] == [dead.name]
    # Metering on the final residency's proxy: just the one buy.
    assert report["bill_preview"] == pytest.approx(1.0)
    # Billing flowed home from both visited servers.
    bills = [r["payload"] for r in bed.home.reports
             if r["payload"].get("type") == "bill"]
    assert sum(b["charges"] for b in bills) == pytest.approx(
        0.05 * len(report["quotes"]) + 1.0
    )
    # The remote name service tracked the agent to its final stop.
    assert bed.name_service.lookup(image.name).location == bed.servers[2].name
    # Nothing hostile happened: no security kills anywhere.
    for server in bed.servers:
        assert server.stats["agents_killed_security"] == 0


def test_grand_tour_is_deterministic():
    def run():
        bed, _ = build_world()
        agent = GrandShopper()
        agent.itinerary = Itinerary.tour([s.name for s in bed.servers[1:]])
        bed.launch(agent, Rights.all())
        bed.run(detect_deadlock=False)
        [report] = [r["payload"] for r in bed.home.reports
                    if "paid" in r.get("payload", {})]
        return (report["paid"], tuple(map(tuple, report["quotes"])),
                bed.clock.now())

    assert run() == run()
