"""The public surface the demos and the package's ``__all__`` promise."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quartzeq

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "quartzeq"


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


# no caller yet: the stability oracle of ROADMAP item 9 is to call them
_AWAITING_CALLER = {"cohort_profile", "state_from_profile", "equilibrium_residual"}


def test_every_public_function_has_a_caller():
    # a public function or constant must be called or imported somewhere
    # other than its own module, __init__ and the tests; a bare word, such
    # as the prose "rhs norm", does not count
    places = [*PACKAGE.glob("*.py"), *DEMOS, *(ROOT / "benchmarks").glob("*.py"),
              ROOT / "README.md", ROOT / ".github" / "workflows" / "tier1.yml"]
    texts = {path: path.read_text() for path in places if path.name != "__init__.py"}
    imported = {path: set(re.findall(r"\w+", " ".join(
        re.findall(r"\bfrom\s+[\w.]+\s+import\s+(\([^)]*\)|[\w ,]*)", text))))
        for path, text in texts.items()}
    idle = []
    for name in quartzeq.__all__:
        if name.startswith("_") or inspect.isclass(getattr(quartzeq, name)):
            continue
        home = [path for path, text in texts.items() if path.parent == PACKAGE
                and re.search(rf"^(def {name}\(|{name} = )", text, re.M)]
        assert len(home) == 1, name
        callers = [path for path, text in texts.items() if path != home[0]
                   and (re.search(rf"\b{name}\(", text) or name in imported[path])]
        if not callers and name not in _AWAITING_CALLER:
            idle.append(name)
    assert idle == []
