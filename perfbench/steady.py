"""Steadiness check: run each workload with several seeds and report the
spread of every end-to-end metric against its bound.

    python3 perfbench/steady.py                       # seeds 1-10, every workload
    python3 perfbench/steady.py --workloads qar-read --runs 5
    python3 perfbench/steady.py --runs 5 --same-seed  # seed 1 five times: run-to-run noise alone
    python3 perfbench/steady.py --out runs.json       # also keep the raw results
    python3 perfbench/steady.py --compare a.json b.json

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``; a spread must stay within the metric's bound from
``BENCHMARK.json`` (``setup_s`` is exempt), and should stay below a third
of it.  ``--compare`` checks a second set of runs against a first: no
median may be worse than the first set's by more than the bound, and the
share of failed operations must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.perf_counter() - start
    return doc


def summarize(results: dict, doc: dict) -> bool:
    """Print the spread table; returns False when a spread is over bound."""
    ok = True
    for workload, runs in results.items():
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        print(f"\n== {workload}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, failed {[r['failed'] for r in runs]}")
        if walls:
            print(f"   wall per run: {min(walls):.1f}-{max(walls):.1f} s")
        if not all(r["correct"] for r in runs):
            print("   INCORRECT run(s) present")
            ok = False
        print(f"   {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in doc["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= m["bound"] / 3 else ("near" if spread <= m["bound"] else "OVER")
            if m["name"] == "setup_s":
                verdict += " (exempt)"
            elif spread > m["bound"]:
                ok = False
            print(f"   {m['name']:26s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound']:6.2f}  {verdict}")
    return ok


def compare(first: dict, second: dict, doc: dict) -> bool:
    ok = True
    for workload in first:
        a, b = first[workload], second.get(workload, [])
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        if share_a != share_b:
            print(f"{workload}: failed shares differ: {sorted(share_a)} vs {sorted(share_b)}")
            ok = False
        for m in doc["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "WORSE" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"{workload:14s} {m['name']:26s} {ma:12.4f} -> {mb:12.4f} ({worse:+.3f} worse, bound {m['bound']}) {flag}")
    return ok


def main() -> int:
    doc = spec()
    names = [w["name"] for w in doc["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, with seeds 1..RUNS")
    ap.add_argument("--same-seed", action="store_true", help="every run uses seed 1")
    ap.add_argument("--out", type=Path, help="write the raw results here as JSON")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"), help="compare two saved sets instead of running")
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, doc) else 1
    results: dict[str, list] = {}
    for workload in args.workloads:
        results[workload] = []
        for i in range(1, args.runs + 1):
            seed = 1 if args.same_seed else i
            results[workload].append(run_once(workload, seed, doc["run_seconds"]))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(results))
    return 0 if summarize(results, doc) else 1


if __name__ == "__main__":
    sys.exit(main())
