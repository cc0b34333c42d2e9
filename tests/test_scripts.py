"""Smoke test of the example scripts: each runs to the end and exits 0."""

import os
import subprocess
import sys

import pytest

import phm

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# absolute, so the child imports this same phm whatever its working directory
_PHM_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(phm.__file__)))


def _script(name, *args, cwd):
    pythonpath = os.pathsep.join(filter(None, [_PHM_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(_REPO, "scripts", name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, line",
    [
        ("metric_space_demo.py", [], None),
        ("kernel_survey.py", ["--max-n", "4", "--samples", "2"], "all kernel dimensions match"),
    ],
)
def test_script_runs(tmp_path, name, args, line):
    proc = _script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if line is not None:
        assert line in proc.stdout.splitlines()
