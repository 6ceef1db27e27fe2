"""Documentation rot guards.

Docs reference dozens of `repro.*` dotted paths; this test resolves every
one of them against the live package so a rename breaks CI, not a reader.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "CONTRIBUTING.md",
    ROOT / "docs" / "tutorial.md",
    ROOT / "docs" / "security-model.md",
    ROOT / "docs" / "api.md",
    ROOT / "docs" / "observability.md",
    ROOT / "docs" / "robustness.md",
    ROOT / "docs" / "naming.md",
]

_REF = re.compile(r"\brepro(?:\.[a-zA-Z_][a-zA-Z0-9_]*)+")


def all_real_modules() -> set[str]:
    modules = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.add(info.name)
    return modules


MODULES = all_real_modules()


def resolve(path: str) -> bool:
    """True if ``path`` is a module, or an attribute of one."""
    if path in MODULES:
        return True
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        if module_name in MODULES:
            obj = importlib.import_module(module_name)
            for attr in parts[cut:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
    return False


def collect_references() -> list[tuple[str, str]]:
    refs = []
    for doc in DOC_FILES:
        for match in _REF.finditer(doc.read_text()):
            refs.append((doc.name, match.group(0).rstrip(".")))
    return refs


def test_docs_exist():
    for doc in DOC_FILES:
        assert doc.is_file(), f"missing documentation file {doc}"


def test_every_doc_reference_resolves():
    bad = []
    for doc_name, ref in collect_references():
        if not resolve(ref):
            bad.append(f"{doc_name}: {ref}")
    assert not bad, "dangling doc references:\n" + "\n".join(sorted(set(bad)))


def test_examples_listed_in_readme_exist():
    readme = (ROOT / "README.md").read_text()
    for match in re.finditer(r"`([a-z_]+\.py)`", readme):
        name = match.group(1)
        if name in ("setup.py",):
            continue
        assert (ROOT / "examples" / name).is_file(), f"README lists missing {name}"


def test_design_bench_targets_exist():
    design = (ROOT / "DESIGN.md").read_text()
    for match in re.finditer(r"benchmarks/(bench_[a-z0-9_]+\.py)", design):
        assert (ROOT / "benchmarks" / match.group(1)).is_file(), match.group(0)


API_CONSTRUCTORS = {
    "Testbed": "repro.server.testbed",
    "AgentServer": "repro.server.agent_server",
    "AdmissionPolicy": "repro.server.admission",
    "ReplicaNameHost": "repro.naming.replicated",
    "IntegrityAuthority": "repro.agents.integrity",
}


@pytest.mark.parametrize("name", sorted(API_CONSTRUCTORS))
def test_api_constructor_row_matches_the_signature(name):
    """The ``Name(...)`` row in docs/api.md lists every constructor
    parameter, and nothing the constructor no longer takes."""
    cls = getattr(importlib.import_module(API_CONSTRUCTORS[name]), name)
    api = (ROOT / "docs" / "api.md").read_text()
    # The full row: an optional dotted prefix, and an argument list
    # that does not open with ``...`` (a feature row's elision).
    match = re.search(
        rf"^\| `(?:[\w.]+\.)?{name}\(([^`.][^`]*)\)` \|", api, re.M
    )
    assert match, f"docs/api.md has no full {name}(...) row"
    documented = [arg.split("=")[0].strip() for arg in match.group(1).split(",")]
    actual = [
        param for param in inspect.signature(cls.__init__).parameters
        if param != "self"
    ]
    assert sorted(documented) == sorted(actual)


def _registered_prefixes(registry) -> set[str]:
    prefixes = {prefix for prefix, _suffix, _source in registry._sources}
    for included in registry._included:
        prefixes |= _registered_prefixes(included)
    return prefixes


def test_source_prefix_catalogue_matches_a_full_world():
    """The ``Source prefixes`` table in docs/observability.md names every
    source prefix a world with every plane on registers, and no other."""
    from repro.server.supervisor import SupervisorConfig
    from repro.server.testbed import Testbed

    doc = (ROOT / "docs" / "observability.md").read_text()
    section = doc.split("### Source prefixes", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)` \|", section, re.M))
    bed = Testbed(
        2,
        server_kwargs={"supervision": SupervisorConfig()},
        self_healing=True,
        replicated_name_service=True,
    )
    a, b = (s.name for s in bed.servers)
    bed.faults().loss_burst(a, b, at=1.0, duration=1.0, loss_rate=0.5)
    assert _registered_prefixes(bed.metrics) == documented
