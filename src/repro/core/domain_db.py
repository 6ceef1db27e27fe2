"""The domain database (section 5.3).

"The agent server maintains a domain database.  For each agent, it stores
several items of information including its thread-group, owner, creator,
and home-site address.  It also includes access authorization for various
server resources, usage limits and current usage.  If the agent is
currently granted access to any server resources, then information about
the binding objects is also maintained here.  This database can be
updated only by a thread executing in the server's protection domain."

The write barrier: Java enforced "server threads only" with stack
inspection; here writes are allowed from the server domain *or* from
within a ``privileged()`` block that only trusted server components (the
binding service, the hosting machinery) ever enter — the analogue of
``doPrivileged`` sections, needed because Fig. 6's upcall deliberately
runs on the *agent's* thread while executing trusted code.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.proxy import ResourceProxy
from repro.credentials.delegation import DelegatedCredentials
from repro.errors import PrivilegeError, UnknownNameError
from repro.naming.urn import URN
from repro.sandbox.domain import ProtectionDomain, current_domain
from repro.util.clock import Clock

__all__ = ["DomainDatabase", "DomainRecord", "BindingRecord"]


@dataclass(slots=True)
class BindingRecord:
    """One granted resource binding (Fig. 6, step 5's bookkeeping)."""

    resource: URN
    proxy: ResourceProxy
    granted_at: float


@dataclass(slots=True)
class DomainRecord:
    """Everything the server tracks about one resident agent."""

    domain: ProtectionDomain
    agent: URN
    owner: URN
    creator: URN
    home_site: str
    arrived_at: float
    status: str = "running"  # running | departed | completed | terminated
    charges: float = 0.0
    bindings: list[BindingRecord] = field(default_factory=list)

    @property
    def domain_id(self) -> str:
        return self.domain.domain_id


_VALID_STATUS = ("running", "departed", "completed", "terminated")


class DomainDatabase:
    """Per-server registry of resident agent domains."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._records: dict[str, DomainRecord] = {}
        self._tls = threading.local()

    # -- the write barrier -----------------------------------------------------

    @contextmanager
    def privileged(self) -> Iterator[None]:
        """Trusted-component write access (the doPrivileged analogue)."""
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        try:
            yield
        finally:
            self._tls.depth -= 1

    def _check_write(self) -> None:
        if getattr(self._tls, "depth", 0) > 0:
            return
        domain = current_domain()
        if domain is not None and domain.is_server:
            return
        raise PrivilegeError(
            "domain database writes require the server protection domain"
        )

    # -- writes ---------------------------------------------------------------------

    def admit(
        self,
        domain: ProtectionDomain,
        credentials: DelegatedCredentials,
        home_site: str,
    ) -> DomainRecord:
        self._check_write()
        record = DomainRecord(
            domain=domain,
            agent=credentials.agent,
            owner=credentials.owner,
            creator=credentials.base.creator,
            home_site=home_site,
            arrived_at=self._clock.now(),
        )
        self._records[domain.domain_id] = record
        return record

    def record_binding(
        self, domain_id: str, resource: URN, proxy: ResourceProxy
    ) -> None:
        self._check_write()
        self.get(domain_id).bindings.append(
            BindingRecord(resource=resource, proxy=proxy, granted_at=self._clock.now())
        )

    def add_charge(self, domain_id: str, amount: float) -> None:
        self._check_write()
        if amount < 0:
            raise ValueError("charges only accumulate")
        self.get(domain_id).charges += amount

    def set_status(self, domain_id: str, status: str) -> None:
        self._check_write()
        if status not in _VALID_STATUS:
            raise ValueError(f"invalid status {status!r}")
        self.get(domain_id).status = status

    def remove(self, domain_id: str) -> DomainRecord:
        self._check_write()
        try:
            return self._records.pop(domain_id)
        except KeyError:
            raise UnknownNameError(f"no domain {domain_id!r}") from None

    # -- reads -------------------------------------------------------------------------

    def get(self, domain_id: str) -> DomainRecord:
        try:
            return self._records[domain_id]
        except KeyError:
            raise UnknownNameError(f"no domain {domain_id!r}") from None

    def by_agent(self, agent: URN) -> DomainRecord:
        """The agent's ``running`` record, else its newest one.

        A revisit accrues a second record, so the first match may be an
        old ``departed`` residency; status queries and control commands
        must act on the live one.
        """
        newest = None
        for record in self._records.values():
            if record.agent == agent:
                if record.status == "running":
                    return record
                newest = record
        if newest is None:
            raise UnknownNameError(f"no resident agent {agent}")
        return newest

    def records_of(self, agent: URN) -> list[DomainRecord]:
        """Every record for ``agent`` — revisits and crash-recovery
        relaunches accrue one record per residency."""
        return [r for r in self._records.values() if r.agent == agent]

    def residents(self) -> list[DomainRecord]:
        return [r for r in self._records.values() if r.status == "running"]

    def records(self) -> list[DomainRecord]:
        """Every record, regardless of status (lease sweeps read all of
        them: a departed agent's grants must still lapse on schedule)."""
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, domain_id: str) -> bool:
        return domain_id in self._records
