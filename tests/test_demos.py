"""The public surface the demos and the package's ``__all__`` promise."""

import ast
import inspect
import os
import re
import subprocess
import sys
from collections import defaultdict
from functools import cached_property
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


def _callers_outside_the_tests():
    """Over the package, demos, benchmarks and README's python blocks: per
    callee name, the most positional arguments and every keyword in some
    call to it, and every attribute name read."""
    texts = [path.read_text() for path in (*PACKAGE.glob("*.py"), *DEMOS,
                                           *(ROOT / "benchmarks").glob("*.py"))]
    texts += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    positional, keywords, attributes = defaultdict(int), defaultdict(set), set()
    for text in texts:
        tree = ast.parse(text)
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                name = aliases.get(name, name)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                positional[name] = max(positional[name], sys.maxsize if starred else len(node.args))
                keywords[name].update(kw.arg for kw in node.keywords)
    return positional, keywords, attributes


def test_every_public_option_and_member_has_a_caller():
    # each defaulted parameter of a public function must be set, by keyword
    # or by position, in some call outside the tests, and each public method
    # or property of a public class must be read there
    positional, keywords, attributes = _callers_outside_the_tests()
    idle = []
    for name in quartzeq.__all__:
        obj = getattr(quartzeq, name)
        if inspect.isclass(obj):
            idle += [f"{name}.{attr}" for attr, member in vars(obj).items()
                     if not attr.startswith("_") and attr not in attributes
                     and (inspect.isfunction(member) or isinstance(
                         member, (property, classmethod, staticmethod, cached_property)))]
        elif callable(obj):
            params = inspect.signature(obj).parameters.values()
            idle += [f"{name}({p.name}=)" for i, p in enumerate(params)
                     if p.default is not p.empty and p.name not in keywords[name]
                     and not (p.kind is p.POSITIONAL_OR_KEYWORD and i < positional[name])]
    assert idle == []
