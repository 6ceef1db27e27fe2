"""Process-wide observability switchboard.

Instrumentation points all over the codebase (proxy forwarders, the
binding protocol, the transfer path, transports, retries, fault
injection) go through this module.  A traced operation has one body,
traced or not::

    from repro.obs import runtime as _obs
    ...
    with _obs.span("rpc.call", dst=dst) as span:
        ...
        span.set_status("error", reason)

When no tracer is installed :func:`span` returns one shared no-op scope
whose span ignores ``set_attribute``/``set_status``/``adopt_context``.
Events and annotations, which have no span of their own to land on,
stay behind the flag::

    if _obs.TRACING:
        _obs.TRACER.add_event("retry", attempt=n)

``install``/``uninstall`` flip the flag; it is process-global on
purpose (one simulation per process is the norm everywhere in this
repo), and tests that enable tracing must uninstall on the way out (see
``tests/obs/conftest.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Span, SpanContext, Tracer

__all__ = [
    "TRACING",
    "TRACER",
    "install",
    "uninstall",
    "span",
    "annotate",
]

# The fast-path guard: ``TRACING == (TRACER is not None)``.
TRACING: bool = False

TRACER: "Tracer | None" = None


def install(tracer: "Tracer") -> None:
    """Turn tracing on: every hook reports to ``tracer``.

    Calling ``install`` again replaces the tracer.
    """
    global TRACER, TRACING
    TRACER = tracer
    TRACING = True


def uninstall() -> None:
    """Turn every hook back into a no-op (drops the installed tracer)."""
    global TRACER, TRACING
    TRACER = None
    TRACING = False


class _NoSpan:
    """The span (and its own scope) handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> "_NoSpan":
        return self

    def set_status(self, status: str, detail: str = "") -> "_NoSpan":
        return self

    def adopt_context(self, parent: "SpanContext") -> "_NoSpan":
        return self


_NO_SPAN = _NoSpan()


def span(
    name: str,
    parent: "Span | SpanContext | None" = None,
    **attributes: Any,
):
    """``with span("rpc.call", dst=...) as s: ...`` — the one way to open
    a span.  Delegates to :meth:`Tracer.span` when a tracer is
    installed; otherwise returns a shared no-op scope."""
    if TRACER is None:
        return _NO_SPAN
    return TRACER.span(name, parent, **attributes)


def annotate(kind: str, detail: str = "", **attributes: Any) -> None:
    """Forward a global annotation to the tracer, if one is installed."""
    if TRACER is not None:
        TRACER.annotate(kind, detail, **attributes)
