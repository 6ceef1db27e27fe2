"""Every ``repro`` subpackage imports on its own, in any order.

A cycle between two packages only bites when the "wrong" one is
imported first, which an in-process test never sees once any other test
has imported the package.  So each subpackage is imported in a fresh
interpreter, with nothing of ``repro`` loaded before it.
"""

from __future__ import annotations

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
SUBPACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def test_every_subpackage_is_listed():
    assert "repro.sandbox" in SUBPACKAGES
    assert "repro.core" in SUBPACKAGES
    assert len(SUBPACKAGES) >= 10


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_in_a_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
