"""The runtime CI job's CLI and probe checks, run through a quartzeq shim."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("bash") is None, reason="the checks are a bash script")
def test_runtime_ci_checks_pass(tmp_path):
    # `quartzeq` stands for the installed console script and `python` for
    # the job's interpreter, both on this interpreter and this source tree
    shim = tmp_path / "bin"
    shim.mkdir()
    for name, command in (("quartzeq", f'"{sys.executable}" -m quartzeq.cli'),
                          ("python", f'"{sys.executable}"')):
        (shim / name).write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        (shim / name).chmod(0o755)
    env = dict(os.environ, PATH=f"{shim}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(["bash", str(REPO / "ci" / "runtime_checks.sh")], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
