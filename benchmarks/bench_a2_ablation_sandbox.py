"""A2 — ablation: what the sandbox costs at load time.

The Java-model analogue is pure load-time work (nothing on the call
path): AST verification scales with shipped code size; namespace
construction is a builtins copy; the impostor scan is a top-level-name
set intersection.  Verification, loop instrumentation and compilation
are memoized per (source, policy) (``verified_code``), so only the first
sight of a source pays them ("cold"); a repeat arrival of the same code
("warm") pays the namespace, the impostor check and the exec.  This
bench justifies accepting that work at load time rather than per call.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.verifier import verify_source

from _common import time_op, write_table


def agent_source(n_methods: int) -> str:
    lines = ["class Visitor(Agent):"]
    for i in range(n_methods):
        lines.append(f"    def step{i}(self, x):")
        lines.append(f"        total = x + {i}")
        lines.append("        for j in range(3):")
        lines.append("            total = total + j * 2")
        lines.append("        return total")
    lines.append("    def run(self):")
    lines.append("        self.complete()")
    return "\n".join(lines) + "\n"


class AgentStub:
    def complete(self):
        pass


@pytest.mark.parametrize("n_methods", [1, 20, 200])
def test_verify_source(benchmark, n_methods):
    source = agent_source(n_methods)
    benchmark(verify_source, source)


def test_namespace_construction(benchmark):
    benchmark(lambda: AgentNamespace("a", trusted={"Agent": AgentStub}))


def cold_load(source: str, counter) -> Callable[[], object]:
    """Load a never-seen variant of ``source``: a miss that verifies."""

    def load():
        n = next(counter)
        ns = AgentNamespace(f"a{n}", trusted={"Agent": AgentStub})
        ns.load(f"{source}# variant {n}\n")

    return load


def warm_load(source: str, counter) -> Callable[[], object]:
    """Load ``source`` again into a fresh namespace: a cache hit."""
    AgentNamespace("warm-up", trusted={"Agent": AgentStub}).load(source)

    def load():
        ns = AgentNamespace(f"a{next(counter)}", trusted={"Agent": AgentStub})
        ns.load(source)

    return load


def test_load_cold(benchmark):
    benchmark(cold_load(agent_source(20), iter(range(10**9))))


def test_load_warm(benchmark):
    benchmark(warm_load(agent_source(20), iter(range(10**9))))


def test_table_a2(benchmark):
    def build():
        rows = []
        counter = iter(range(10**9))
        for n in (1, 20, 100, 200):
            source = agent_source(n)
            verify_ns = time_op(lambda s=source: verify_source(s),
                                target_seconds=0.03)
            cold_ns = time_op(cold_load(source, counter), target_seconds=0.03)
            warm_ns = time_op(warm_load(source, counter), target_seconds=0.03)
            rows.append([len(source), verify_ns / 1e3, cold_ns / 1e3,
                         warm_ns / 1e3, verify_ns / cold_ns * 100,
                         cold_ns / warm_ns])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "A2",
        "ablation: sandbox load-time cost vs shipped code size",
        ["source bytes", "verify_source µs", "cold load µs", "warm load µs",
         "verify % of cold", "cold/warm ×"],
        rows,
        notes=(
            "verify_source (uncached) is linear in code size and a large"
            " fraction of a cold load (first sight of a source: namespace +"
            " verify + instrument + compile + exec); verification and"
            " compilation are paid once per distinct (source, policy) per"
            " process, so a warm load (the same code arriving again) pays"
            " only the namespace, the impostor check and the exec — the"
            " call path (F5) carries none of it."
        ),
    )
