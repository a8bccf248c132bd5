"""The numpy-free commands print the same bytes under every CPython that
`pyproject.toml` admits.

For each minor version X other than the running interpreter's, the first
`python3.X` on PATH that starts as that version runs three commands that
need only the standard library: an exact algebra check, the g4,7 verifier
and the g4,7 reduction.  Their stdout must equal the running interpreter's,
byte for byte.  A name that does not start (an unselected version shim,
say) is passed over, and the test skips when no other version is found.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MINORS = range(10, 20)  # requires-python >= 3.10
COMMANDS = [
    ["check-algebra", "fixtures/h3.json", "--json"],
    ["model", "verify", "g4_7", "--json"],
    ["model", "reduce", "g4_7", "--alpha", "1", "--beta", "1", "--J=1",
     "--E=3/4", "--json"],
]


def _run(python, args):
    src = os.path.join(ROOT, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([python] + args, cwd=ROOT, capture_output=True,
                          env=env, timeout=120)


@pytest.fixture(scope="module")
def interpreters():
    found = []
    for minor in MINORS:
        if minor == sys.version_info.minor:
            continue
        for folder in os.environ.get("PATH", "").split(os.pathsep):
            path = shutil.which(f"python3.{minor}", path=folder)
            if path is None:
                continue
            probe = _run(path, ["-c", "import sys; print(sys.version_info[1])"])
            if probe.returncode == 0 and probe.stdout.split() == [b"%d" % minor]:
                found.append(path)
                break
    if not found:
        pytest.skip("no other python3.X on PATH")
    return found


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_other_interpreters_print_the_same_bytes(argv, interpreters):
    want = _run(sys.executable, ["-m", "nclb.cli"] + argv)
    assert want.returncode == 0, want.stderr.decode()
    for python in interpreters:
        got = _run(python, ["-m", "nclb.cli"] + argv)
        assert (got.returncode, got.stdout) == (0, want.stdout), (
            python, got.stderr.decode())
