"""The public surface the demos and the package's ``__all__`` promise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quartzeq

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would let every demo check pass vacuously


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(quartzeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_all_names_resolve():
    missing = [name for name in quartzeq.__all__ if not hasattr(quartzeq, name)]
    assert missing == []
