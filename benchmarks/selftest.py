#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 benchmarks/selftest.py

Checks that:

1. every workload, untraced and traced, ends its output with the result
   object, which holds exactly the metrics BENCHMARK.json names for that
   mode, each printed by name with its unit; answer_p90_ms is reported
   from 100 items on and omitted below;
2. validation accepts the real answers and flags a deliberately perturbed
   reference (or answer) for every kind of item;
3. the benchmark exits non-zero, printing no result, in a directory that
   holds only BENCHMARK.json and the benchmark.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def metric_output() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == RESULT_KEYS, f"{tag}: result keys")
            check(result["correct"] is True, f"{tag}: correct")
            got = result["metrics"]
            check(set(got) == {m["name"] for m in spec[group]},
                  f"{tag}: the result holds exactly the {group} metrics")
            for m in spec[group]:
                ok = m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                check(ok, f"{tag}: {m['name']} [{m['unit']}]")
                ok = ok and f"{m['name']} " in proc.stdout
                check(ok, f"{tag}: {m['name']} printed by name")


def p90_rule() -> None:
    """answer_p90_ms is reported from 100 items on, with its unit, and not below."""
    sys.path[:0] = [str(BENCH)]
    import run as bench

    rows = [{"ok": True}] * 100
    for n in (99, 100):
        _, extra = bench.end_to_end([None] * n, [[1000 * (i + 1)] for i in range(n)],
                                  rows[:n], [1.0], 1.0)
        want = {"answer_p90_ms": "ms"} if n >= 100 else {}
        check({k: m["unit"] for k, m in extra.items()} == want,
              f"answer_p90_ms with {n} items: {want or 'omitted'}")


def perturbations(item, ans: dict, exp: dict):
    """(answer, reference) pairs that validation must reject."""
    import reference

    if item.kind == "F":
        yield ans, dict(exp, value=exp["value"] * (1 + 1e-6))
    elif item.kind == "K":
        yield ans, dict(exp, value=exp["value"] * (1 + 10 * reference.K_TOL))
    elif item.kind == "verdict":
        yield ans, dict(exp, answer="not_exists" if exp["answer"] == "exists" else "exists")
    elif item.kind == "roots":
        yield ans, dict(exp, count=2 - exp["count"])
        if ans["roots"]:
            yield dict(ans, roots=[x * (1 + 1e-6) for x in ans["roots"]]), exp
    elif item.kind == "relax":
        yield ans, dict(exp, alpha=exp["alpha"] * (1 + 1e-4))


def perturbed_references() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import reference
    import workloads

    items = [it for name in workloads.WORKLOADS
             for it in workloads.generate(name, 3, "tiny")]
    reference.resolve_anchors(items)
    seen = set()
    for item in items:
        key = item.kind + "/" + item.spec.get("family", "")
        if key in seen:
            continue
        try:
            ans = reference.answer_record(item, item.call())
        except Exception:  # noqa: BLE001 - a known defect; the real runs report it
            continue
        exp = reference.expected(item)
        if not reference.judge(item, ans, exp):
            continue
        seen.add(key)
        for bad_ans, bad_exp in perturbations(item, ans, exp):
            check(not reference.judge(item, bad_ans, bad_exp),
                  f"validation flags a perturbed reference or answer ({key})")
    check(len(seen) == 7, f"perturbations cover every kind of item: {sorted(seen)}")


def bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "certify", 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    p90_rule()
    perturbed_references()
    bare_directory()
    metric_output()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    raise SystemExit(1 if failures else 0)
