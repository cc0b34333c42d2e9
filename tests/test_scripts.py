"""Smoke tests of the public surface: the example scripts each run to the
end and exit 0, README's library quick start prints what it says, and every
``phm.__all__`` name resolves."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout

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


def test_readme_quick_start_runs():
    with open(os.path.join(_REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.DOTALL).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    assert lines[-3:] == ["(1, 1, 0)", "[((), (0,))]", "2"]


def test_public_names_resolve_once():
    assert len(set(phm.__all__)) == len(phm.__all__)
    assert [name for name in phm.__all__ if not hasattr(phm, name)] == []
