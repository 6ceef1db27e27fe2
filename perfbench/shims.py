"""Timing shims for the traced run: spans around calls into each layer.

The shims live here, in the benchmark, and wrap the ``repro`` package
from outside; nothing in ``src/`` knows about them.  Each shim records a
:class:`Span` with its name, ``perf_counter_ns`` start and end, the
``process_time_ns`` delta, its parent span and a request id (the current
``SimThread``'s name without the hosting server's prefix, so one agent's
spans share an id across hops).

**Self time.**  Agents run on OS threads that hand a baton back and forth
with the kernel thread (``repro.sim``): exactly one thread runs at a
time, but a span can stay open while its thread is parked and other
threads run.  Subtracting child spans would then count the parked time
twice.  Instead every nanosecond of host time is charged to exactly one
*owner*: the innermost open span of the running thread.  A thread that
blocks or hands the baton over charges the switch to the ``sim.run``
span (``Kernel.run``), as does agent code outside every shim.  So the
self times of all spans sum to the wall time of ``Kernel.run``, and
``sim.run``'s own self time is dispatch, the baton and unwrapped code.

The program's own tracer (``repro.obs``) stays off: its spans are
virtual-time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["TARGETS", "Span", "Tracer", "install", "layer_metrics"]

perf_ns = time.perf_counter_ns
cpu_ns = time.process_time_ns


def _body_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes of a secure-channel send: ``(self, kind, body)``."""
    return len(args[2] if len(args) > 2 else kwargs["body"])


def _result_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes produced: an encoding, or the AEAD's sealed/opened output."""
    return len(result)


# (span name, "module:Qualname", bytes-of-call or None).  Class methods
# are patched on their class, so every caller sees the shim; module
# functions are re-bound in every ``repro`` module that imported them.
# Only entry points some workload calls are listed: a shim that never
# fires would report a silent zero (test_perfbench.py checks this).
TARGETS: list[tuple[str, str, Callable | None]] = [
    # sim: the kernel loop is the root span; thread start is a count.
    ("sim.run", "repro.sim.kernel:Kernel.run", None),
    ("sim.thread_start", "repro.sim.threads:SimThread.start", None),
    # net
    ("net.secure_send", "repro.net.secure_channel:SecureChannel.send", _body_bytes),
    ("net.secure_send", "repro.net.secure_channel:SecureChannel.call", _body_bytes),
    ("net.connect", "repro.net.secure_channel:SecureHost.connect", None),
    # crypto
    ("crypto.keygen", "repro.crypto.rsa:rsa_keygen", None),
    ("crypto.sign", "repro.crypto.keys:PrivateKey.sign", None),
    ("crypto.verify", "repro.crypto.keys:PublicKey.verify", None),
    ("crypto.kem", "repro.crypto.keys:PublicKey.encapsulate", None),
    ("crypto.kem", "repro.crypto.keys:PrivateKey.decapsulate", None),
    ("crypto.aead", "repro.crypto.cipher:SealContext.seal", _result_bytes),
    ("crypto.aead", "repro.crypto.cipher:SealContext.open", _result_bytes),
    ("crypto.mac", "repro.crypto.mac:HmacKey.digest", None),
    ("crypto.mac", "repro.crypto.mac:HmacKey.verify", None),
    ("crypto.mac", "repro.crypto.mac:hmac_sha256", None),
    ("crypto.mac", "repro.crypto.mac:verify_hmac", None),
    # util.serialization
    ("serial.encode", "repro.util.serialization:encode", _result_bytes),
    ("serial.decode", "repro.util.serialization:decode", None),
    ("serial.digest", "repro.util.serialization:canonical_digest", None),
    # credentials
    ("cred.verify", "repro.credentials.cache:CredentialVerificationCache.verify", None),
    # sandbox
    ("sandbox.verify_source", "repro.sandbox.verifier:verify_source", None),
    ("sandbox.load", "repro.sandbox.namespace:AgentNamespace.load", None),
    ("sandbox.check", "repro.sandbox.domain:current_domain", None),
    ("sandbox.check", "repro.sandbox.security_manager:SecurityManager.check", None),
    # core
    ("core.bind", "repro.core.binding:BindingService.get_resource", None),
    ("core.decide", "repro.core.policy:SecurityPolicy.decide", None),
    ("core.redeem", "repro.core.access_protocol:AccessProtocol.redeem_token", None),
    ("core.revoke", "repro.core.proxy:ResourceProxy.revoke", None),
    ("core.deny", "repro.core.proxy:ResourceProxy._deny", None),
    ("core.audit", "repro.util.audit:AuditLog.record", None),
    # agents
    ("agents.capture", "repro.agents.transfer:capture_image", None),
    ("agents.seal", "repro.agents.integrity:IntegrityAuthority.seal_departure", None),
    ("agents.appraise", "repro.agents.integrity:IntegrityAuthority.verify_arrival", None),
    ("agents.appraise", "repro.agents.integrity:IntegrityAuthority.verify_return", None),
    # server: admission, local launch, and the one offer path every
    # relocation (departure, recovery, drain, re-homing) goes through
    ("server.admit", "repro.server.admission:AdmissionPolicy.validate", None),
    ("server.launch", "repro.server.agent_server:AgentServer.launch", None),
    ("server.transfer", "repro.server.agent_server:AgentServer._offer_image", None),
    # naming (all three directory deployments)
    ("naming.register", "repro.naming.registry:NameService.register", None),
    ("naming.lookup", "repro.naming.registry:NameService.lookup", None),
    ("naming.relocate", "repro.naming.registry:NameService.relocate", None),
    ("naming.lookup", "repro.naming.replicated:ReplicatedNameClient.lookup", None),
    ("naming.relocate", "repro.naming.replicated:ReplicatedNameClient.relocate", None),
    ("naming.register", "repro.naming.replicated:DirectoryOracle.register", None),
]

# Program-control exceptions that are not failures of the shimmed call.
_CONTROL = ("Departure", "Completion", "_Kill")


class Span:
    """One timed call.  ``self_ns`` is host time charged to it alone."""

    __slots__ = ("name", "start", "end", "cpu", "parent", "request",
                 "self_ns", "bytes", "error")

    def __init__(self, name: str, start: int, cpu: int,
                 parent: "Span | None", request: str) -> None:
        self.name = name
        self.start = start
        self.end = 0  # 0 while open
        self.cpu = cpu  # process_time_ns at start, then the delta
        self.parent = parent
        self.request = request
        self.self_ns = 0
        self.bytes = 0
        self.error = ""


def _request_id() -> str:
    name = threading.current_thread().name
    if not name.startswith("sim:"):
        return "kernel"
    name = name[4:]
    if name.startswith("urn:server:"):
        # "<server urn>/<agent local>": one agent keeps its id across hops.
        parts = name.split("/", 2)
        if len(parts) == 3:
            return parts[2]
    return name


class Tracer:
    """Collects spans and charges host time to exactly one owner."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.local = threading.local()
        self.owner: Span | None = None
        self.mark = perf_ns()
        self.root: Span | None = None  # the open sim.run span
        self.blocks = 0
        self.run_wall_ns = 0
        self.image_bytes = 0
        self.fired: dict[str, int] = {}  # target -> calls

    def stack(self) -> list[Span]:
        local = self.local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.request = _request_id()
            return local.stack

    def charge(self, now: int) -> None:
        owner = self.owner
        if owner is not None:
            owner.self_ns += now - self.mark
        self.mark = now

    def resume(self) -> None:
        """Make the running thread's innermost span the owner again."""
        stack = self.stack()
        self.owner = stack[-1] if stack else self.root

    # -- shims ----------------------------------------------------------------

    def shim(self, name: str, target: str, fn: Callable,
             size: Callable | None) -> Callable:
        tracer = self
        is_root = name == "sim.run"
        fired = self.fired
        fired[target] = 0

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            fired[target] += 1
            stack = tracer.stack()
            now = perf_ns()
            tracer.charge(now)
            span = Span(name, now, cpu_ns(),
                        stack[-1] if stack else tracer.root,
                        tracer.local.request)
            tracer.spans.append(span)
            stack.append(span)
            tracer.owner = span
            if is_root:
                tracer.root = span
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    span.bytes = size(args, kwargs, result)
                    if name == "net.secure_send" and args[1] == "atp.transfer":
                        tracer.image_bytes += span.bytes
                return result
            except BaseException as exc:
                kind = type(exc).__name__
                if kind not in _CONTROL:
                    span.error = kind
                raise
            finally:
                end = perf_ns()
                tracer.charge(end)
                span.end = end
                span.cpu = cpu_ns() - span.cpu
                stack.pop()
                if is_root:
                    tracer.run_wall_ns += end - span.start
                    tracer.root = None
                tracer.owner = stack[-1] if stack else tracer.root

        shim.__wrapped_by_perfbench__ = fn
        return shim

    def switch_shims(self) -> list[tuple[object, str, Callable]]:
        """Hooks on the two places the baton changes hands (no spans)."""
        from repro.sim.kernel import Kernel
        from repro.sim.threads import SimThread

        tracer = self
        transfer = Kernel._transfer_to
        block = SimThread._block

        def transfer_to(kernel, thread):
            tracer.charge(perf_ns())
            tracer.owner = tracer.root
            try:
                return transfer(kernel, thread)
            finally:
                tracer.charge(perf_ns())
                tracer.resume()

        def _block(thread, waiting_on=None):
            tracer.blocks += 1
            tracer.charge(perf_ns())
            tracer.owner = tracer.root
            try:
                return block(thread, waiting_on)
            finally:
                tracer.charge(perf_ns())
                tracer.resume()

        transfer_to.__wrapped_by_perfbench__ = transfer
        _block.__wrapped_by_perfbench__ = block
        return [(Kernel, "_transfer_to", transfer_to),
                (SimThread, "_block", _block)]

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Every span as one JSON line (gzip), written when the run ends."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start_ns": span.start,
                    "end_ns": span.end or None, "cpu_ns": span.cpu
                    if span.end else None, "self_ns": span.self_ns,
                    "parent": index.get(id(span.parent)),
                    "request": span.request, "bytes": span.bytes,
                    "error": span.error,
                }, separators=(",", ":")) + "\n")


def resolve(target: str) -> tuple[Any, str, Any]:
    """``"module:Qual.name"`` -> (owner object, attribute, raw attribute)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every shim; returns a function that removes them all."""
    # Import the package the way a world does first; some layer modules
    # cannot be imported on their own (import cycles).
    importlib.import_module("repro.server.testbed")
    undo: list[tuple[object, str, Any]] = []

    def patch(owner: object, attr: str, shim: Callable) -> None:
        undo.append((owner, attr, shim.__wrapped_by_perfbench__))
        setattr(owner, attr, shim)

    for owner, attr, shim in tracer.switch_shims():
        patch(owner, attr, shim)
    for name, target, size in TARGETS:
        owner, attr, raw = resolve(target)
        shim = tracer.shim(name, target, raw, size)
        if isinstance(owner, type):
            patch(owner, attr, shim)
            continue
        # A module function: re-bind it wherever it was imported by name.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    patch(module, key, shim)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def unbound_originals() -> list[str]:
    """Module attributes still holding an unshimmed target (must be none)."""
    missing = []
    for _, target, _ in TARGETS:
        owner, attr, raw = resolve(target)
        if isinstance(owner, type):
            continue
        original = getattr(raw, "__wrapped_by_perfbench__", None)
        if original is None:
            missing.append(target)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in vars(module).items():
                if value is original:
                    missing.append(f"{module.__name__}.{key}")
    return missing


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per span name: ``<name>_n`` calls, ``<name>_s`` self seconds,
    ``<name>_bytes``, ``<name>_errors_n``; plus the switch counters."""
    count: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        count[span.name] += 1
        self_ns[span.name] += span.self_ns
        nbytes[span.name] += span.bytes
        errors[span.name] += bool(span.error)
    names = sorted({name for name, _, _ in TARGETS})
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}_n"] = count[name]
        out[f"{name}_s"] = self_ns[name] / 1e9
        out[f"{name}_bytes"] = nbytes[name]
        out[f"{name}_errors_n"] = errors[name]
    out["sim.blocks_n"] = tracer.blocks
    out["sim.run_wall_s"] = tracer.run_wall_ns / 1e9
    out["agents.image_bytes"] = tracer.image_bytes
    # Host time charged to spans opened during Kernel.run: equal to its
    # wall time when every nanosecond went to exactly one span.
    first_run = min(s.start for s in tracer.spans if s.name == "sim.run")
    out["trace.charged_s"] = sum(
        s.self_ns for s in tracer.spans if s.start >= first_run) / 1e9
    out["trace.spans_n"] = len(tracer.spans)
    out["trace.open_spans_n"] = sum(1 for s in tracer.spans if not s.end)
    return out
