"""Global, location-independent naming.

Section 4: "All agents, agent servers, and resources are assigned global,
location-independent names."  :class:`~repro.naming.urn.URN` is the name
syntax; :class:`~repro.naming.registry.NameService` maps names to current
locations (which server currently hosts an agent, where a resource lives),
so itineraries can say "co-locate with X" without hard-coding hosts.

Two deployment shapes: the in-process
:class:`~repro.naming.registry.NameService`, and the networked quorum
directory (:mod:`repro.naming.replicated`) — a consistent-hash ring of
shards (:class:`~repro.naming.shard.HashRing`), quorum reads/writes,
hinted handoff and anti-entropy repair, with
:class:`~repro.naming.replicated.ReplicatedNameClient` as the
failover-aware client.  One shard of one replica with quorums of one
(N=1/W=1/R=1) is the paper's single registry server.  See
``docs/naming.md``.
"""

from repro.naming.urn import URN
from repro.naming.registry import NameRecord, NameService
from repro.naming.shard import HashRing
from repro.naming.replicated import (
    DirectoryOracle,
    ReplicaNameHost,
    ReplicatedNameClient,
    ShardStore,
    VersionedRecord,
)

__all__ = [
    "URN",
    "NameRecord",
    "NameService",
    "HashRing",
    "VersionedRecord",
    "ShardStore",
    "ReplicaNameHost",
    "ReplicatedNameClient",
    "DirectoryOracle",
]
