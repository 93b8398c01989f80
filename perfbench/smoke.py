"""Smoke run: every workload at tiny scale, a few seconds each.

    python3 perfbench/smoke.py

Runs each workload with a few hundred records, once untraced and once
traced, and checks that every answer matched the oracle, no operation
failed, and every metric named in BENCHMARK.json was printed.  It also
checks that the checks themselves bite: the oracle self-check, a planted
wrong answer against a real program answer, and a planted wrong live set
against a store recovered from a copy of its files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 3


def planted_checks() -> list[str]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import numpy as np
    import oracle as oracle_mod
    import workloads as wl

    failures = [f"oracle self-check: {f}" for f in oracle_mod.self_check()]
    inputs = wl.Inputs.generate(7, wl.SMOKE_RECORDS, "I4")
    workdir = wl.workdir_for(ROOT)
    stack = wl.DurableStack(inputs, pool_multiple=4.0, workdir=workdir)
    try:
        orc = oracle_mod.Oracle(2 * wl.SMOKE_RECORDS)
        orc.add_many(stack.rids, inputs.lo, inputs.hi)
        # A real answer with a hit, then the same answer made wrong.
        lo, hi = orc.box(stack.rids[0])
        answer = stack.search(wl.Rect(lo, hi))
        expected = orc.search(lo, hi)
        if oracle_mod.compare(orc, expected, answer) is not None:
            failures.append("a correct program answer was rejected")
        extra = max(orc.live()) + 1
        for name, wrong in {"dropped id": answer[1:], "extra id": answer + [(extra, 0)]}.items():
            if oracle_mod.compare(orc, expected, wrong) is None:
                failures.append(f"planted wrong answer not caught: {name}")
        # Churn a little, then recover from a copy of the files.
        rng = np.random.default_rng(7)
        fresh = wl.FreshRecords(7, "I4")
        for i in range(20):
            lo, hi = fresh.next()
            orc.add(stack.insert(wl.Rect(lo, hi), 10_000 + i), lo, hi, 10_000 + i)
            rid = orc.pick(rng)
            stack.delete(rid, wl.Rect(*orc.box(rid)))
            orc.remove(rid)
        live = orc.live()
        if stack.check_recovery(live) is not None:
            failures.append(f"recovery check failed on the true live set: {stack.check_recovery(live)}")
        dropped = dict(live)
        dropped.pop(next(iter(dropped)))
        if stack.check_recovery(dropped) is None:
            failures.append("recovered store with a deleted record back was not caught")
        added = dict(live)
        added[extra] = ((0.0, 0.0), (1.0, 0.0))
        if stack.check_recovery(added) is None:
            failures.append("recovered store missing an acknowledged record was not caught")
    finally:
        stack.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = planted_checks()
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", str(SECONDS), "--trace", str(trace), "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{w['name']} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if not doc["correct"] or doc["failed"]:
                failures.append(f"{label}: correct={doc['correct']} failed={doc['failed']}\n{proc.stdout[-1500:]}")
            for m in names:
                got = doc["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    failures.append(f"{label}: metric {m['name']} missing or bad: {got}")
            if trace and "warning" in proc.stdout:
                failures.append(f"{label}: {[l for l in proc.stdout.splitlines() if 'warning' in l]}")
            print(f"{label}: attempted {doc['attempted']}, failed {doc['failed']}, correct {doc['correct']}")
    for f in failures:
        print(f"SMOKE FAILURE: {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
