"""The demos run and print exactly what they printed when pinned.

Each script under `demos/` runs as a subprocess on this checkout's
`src`; the sha256 of its standard output is pinned, so any change in a
printed dimension, verdict or constant shows here.  After a deliberate
change of output, re-pin with the digest printed by the failure."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED_STDOUT = {
    "dimension_tables.py":
        "1cc8f8f92e38a59654d6616805870a64ff831f312492ad3f378885aefa138709",
    "weight3_tour.py":
        "3efc405e9dc50334503bf32eb15fc4f0d721a4a0f9e1e2bfa85ee8cd2cfcbfc5",
    "xi_pipeline.py":
        "1f4ce1179545fb10bb0c8e097c10ed6c06cce46b491bd5f663b60a48e4dca3e2",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) \
        == sorted(PINNED_STDOUT)


@pytest.mark.parametrize("demo", sorted(PINNED_STDOUT))
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == PINNED_STDOUT[demo]
