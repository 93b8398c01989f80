"""Single-client benchmark of the serving stack.

    python3 perfbench/run.py --workload qar-read --seed 1 --seconds 10 --trace 0

Builds the workload's index from seeded inputs through the program's
public API, drives it from one closed-loop client thread (no simulated
stalls, no sleeps), checks every answer against the brute-force oracle,
and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same rounds alternately
plain and with every layer's entry points wrapped, and reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import oracle as oracle_mod
from tracing import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: Latency samples a run can hold before its sample arrays grow.
SAMPLE_CAPACITY = 1 << 20


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Samples:
    """Per-operation latencies of one run, by kind, in arrays allocated and
    written once up front: the process's peak RSS then does not grow with
    the number of operations a run completes, which a faster program or
    host would otherwise report as more memory."""

    def __init__(self, kinds) -> None:
        self.codes = {kind: code for code, kind in enumerate(sorted(set(kinds)))}
        self.ns = np.ones(SAMPLE_CAPACITY, dtype=np.int64)
        self.kind = np.ones(SAMPLE_CAPACITY, dtype=np.int8)
        self.n = 0

    def add(self, kind: str, ns: int) -> None:
        if self.n == len(self.ns):
            self.ns = np.concatenate([self.ns, np.ones_like(self.ns)])
            self.kind = np.concatenate([self.kind, np.ones_like(self.kind)])
        self.ns[self.n] = ns
        self.kind[self.n] = self.codes[kind]
        self.n += 1

    def by_kind(self) -> dict[str, list[int]]:
        ns, kind = self.ns[: self.n], self.kind[: self.n]
        return {k: ns[kind == code].tolist() for k, code in self.codes.items()}


class Runner:
    """Runs rounds of one workload against one stack, oracle-checked."""

    def __init__(self, wl, workload, stack, oracle, inputs, seed, tracer=None):
        Rect = self.Rect = wl.Rect
        self.round = workload.round
        self.stack = stack
        self.oracle = oracle
        self.fresh = wl.FreshRecords(seed, workload.dist)
        self.rng = np.random.default_rng([seed, 4])
        self.pools = {
            "search": [(lo, hi, Rect(lo, hi)) for lo, hi in inputs.searches],
            "within": [(lo, hi, Rect(lo, hi)) for lo, hi in inputs.withins],
            "containing": [(lo, hi, Rect(lo, hi)) for lo, hi in inputs.containings],
            "stab": inputs.stabs,
        }
        self.cursor = defaultdict(int)
        self.next_payload = len(inputs.lo)
        self.tracer = tracer
        self.points = stack.trace_points() if tracer is not None else []
        self.latency = Samples(self.round)
        self.reset()

    def reset(self) -> None:
        self.latency.n = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.divergences: list[str] = []
        # Traced rounds: per op class ("read"/"write").
        self.traced = defaultdict(lambda: {"ops": 0, "ns": 0, "root_ns": 0, "useful": 0, "self": defaultdict(float), "calls": defaultdict(int), "counters": defaultdict(int)})
        self.plain_ns = 0
        self.plain_ops = 0
        # Nodes (or pages) visited by reads, sampled around each read so
        # that write-path visits (splits, version GC) are left out.
        self.node_reads = 0

    def _next(self, kind):
        pool = self.pools[kind]
        item = pool[self.cursor[kind] % len(pool)]
        self.cursor[kind] += 1
        return item

    def run_round(self, traced: bool = False) -> None:
        if traced:
            self.tracer.install(self.points)
        try:
            for kind in self.round:
                self._op(kind, traced)
        finally:
            if traced:
                self.tracer.uninstall()

    def _op(self, kind: str, traced: bool) -> None:
        stack, oracle, clock = self.stack, self.oracle, time.perf_counter_ns
        self.attempted += 1
        if kind == "search":
            lo, hi, rect = self._next(kind)
            call, args, expect = stack.search, (rect,), lambda: oracle.search(lo, hi)
        elif kind == "within":
            lo, hi, rect = self._next(kind)
            call, args, expect = stack.search_within, (rect,), lambda: oracle.within(lo, hi)
        elif kind == "containing":
            lo, hi, rect = self._next(kind)
            call, args, expect = stack.search_containing, (rect,), lambda: oracle.containing(lo, hi)
        elif kind == "stab":
            p = self._next(kind)
            call, args, expect = stack.stab, p, lambda: oracle.stab(p)
        elif kind == "insert":
            lo, hi = self.fresh.next()
            payload = self.next_payload
            self.next_payload += 1
            call, args = stack.insert, (self.Rect(lo, hi), payload)
        else:
            rid = oracle.pick(self.rng)
            lo, hi = oracle.box(rid)
            call, args = stack.delete, (rid, self.Rect(lo, hi))
        before = stack.counters() if traced else None
        is_read = kind not in ("insert", "delete")
        nodes = stack.read_node_accesses() if is_read else 0
        start = clock()
        try:
            result = call(*args)
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            if traced:
                self.tracer.take()
            return
        elapsed = clock() - start
        if is_read:
            self.node_reads += stack.read_node_accesses() - nodes
        self.latency.add(kind, elapsed)
        if traced:
            self._charge(kind, elapsed, before)
        else:
            self.plain_ns += elapsed
            self.plain_ops += 1
        if kind == "insert":
            try:
                oracle.add(result, lo, hi, payload)
            except (ValueError, TypeError, IndexError) as exc:
                self._diverge(f"insert returned record id {result!r}: {exc}")
        elif kind == "delete":
            oracle.remove(rid)
            if not result:
                self._diverge(f"delete({rid}) removed nothing")
        else:
            problem = oracle_mod.compare(oracle, expect(), result)
            if problem:
                self._diverge(f"{kind} {args}: {problem}")

    def _charge(self, kind, elapsed, before) -> None:
        cls = "write" if kind in ("insert", "delete") else "read"
        acc = self.traced[cls]
        self_ns, calls, root_ns, useful = self.tracer.take()
        acc["ops"] += 1
        acc["ns"] += elapsed
        acc["root_ns"] += root_ns
        acc["useful"] += useful
        for k, v in self_ns.items():
            acc["self"][k] += v
        for k, v in calls.items():
            acc["calls"][k] += v
        after = self.stack.counters()
        for k, v in after.items():
            acc["counters"][k] += v - before.get(k, 0)

    def _diverge(self, what: str) -> None:
        if len(self.divergences) < 10:
            self.divergences.append(what)
        else:
            self.divergences[-1] = "... (more divergences)"

    def run_for(self, seconds: float, trace: bool) -> float:
        """Whole rounds until ``seconds`` have passed; returns elapsed."""
        start = time.perf_counter()
        rounds = 0
        while True:
            self.run_round(traced=trace and rounds % 2 == 1)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (not trace or rounds % 2 == 0):
                return elapsed


def end_to_end(runner: Runner, stack, setup_times, peak_rss_mb: float) -> tuple[dict, list[str]]:
    lat = runner.latency.by_kind()
    reads = sorted(lat["search"] + lat["stab"] + lat["within"] + lat["containing"])
    writes = sorted(lat["insert"] + lat["delete"])
    ops = len(reads) + len(writes)
    us = 1e-3
    notes = []
    for name, values in (("read", reads), ("write", writes)):
        beyond = len(values) - math.ceil(0.99 * len(values))
        notes.append(f"{name}_p99_us over {len(values)} {name}s, {beyond} beyond it")
        if beyond < 10:
            notes.append(f"warning: fewer than 10 {name}s beyond the 99th percentile")
    for kind, values in sorted(lat.items()):
        v = sorted(values)
        notes.append(f"{kind:10s} n={len(v):6d} us p10 {percentile(v, 0.1) * us:9.1f} p50 {percentile(v, 0.5) * us:9.1f} p90 {percentile(v, 0.9) * us:9.1f} p99 {percentile(v, 0.99) * us:9.1f}")
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops / (sum(reads) + sum(writes)) * 1e9, "1/s"),
        "search_p50_us": (statistics.median(lat["search"]) * us, "us"),
        "stab_p50_us": (statistics.median(lat["stab"]) * us, "us"),
        "within_p50_us": (statistics.median(lat["within"]) * us, "us"),
        "containing_p50_us": (statistics.median(lat["containing"]) * us, "us"),
        "read_p99_us": (percentile(reads, 0.99) * us, "us"),
        "write_p50_us": (statistics.median(writes) * us, "us"),
        "write_p99_us": (percentile(writes, 0.99) * us, "us"),
        "node_accesses_per_read": (runner.node_reads / len(reads), "count"),
        "index_bytes_per_record": (stack.index_bytes() / stack.records(), "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return m, notes


def per_layer(runner: Runner, stack) -> tuple[dict, list[str]]:
    r, w = runner.traced["read"], runner.traced["write"]
    nr, nw = max(r["ops"], 1), max(w["ops"], 1)
    ops = max(r["ops"] + w["ops"], 1)

    def us(acc, key, n):
        return acc["self"].get(key, 0.0) / n / 1000.0

    def per(acc, counter, n):
        return acc["counters"].get(counter, 0) / n

    hits, misses = r["counters"].get("buffer_hits", 0), r["counters"].get("buffer_misses", 0)
    shard_calls = r["calls"].get("sharding.worker", 0)
    versions = getattr(stack, "versions", None)
    traced_ns = r["ns"] + w["ns"]
    plain_per_op = runner.plain_ns / max(runner.plain_ops, 1)
    traced_per_op = traced_ns / ops
    m = {
        "core.read_self_us": (us(r, "core.read", nr), "us"),
        "core.write_self_us": (us(w, "core.write", nw), "us"),
        "core.split_us_per_write": (us(w, "core.split", nw), "us"),
        "core.splits_per_write": (per(w, "splits", nw), "count"),
        "storage.hook_us_per_read": (us(r, "storage.hook", nr), "us"),
        "storage.buffer_us_per_read": (us(r, "storage.buffer", nr), "us"),
        "storage.buffer_misses_per_read": (misses / nr, "count"),
        "storage.buffer_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "storage.disk_read_us_per_read": (us(r, "storage.disk", nr), "us"),
        "storage.capture_us_per_write": (us(w, "storage.capture", nw), "us"),
        "storage.serialize_us_per_write": (us(w, "storage.serialize", nw), "us"),
        "storage.pages_logged_per_write": (per(w, "pages_logged", nw), "count"),
        "storage.wal_append_us_per_write": (us(w, "storage.wal_append", nw), "us"),
        "storage.wal_commit_us_per_write": (us(w, "storage.wal_commit", nw), "us"),
        "storage.wal_bytes_per_write": (per(w, "wal_bytes", nw), "bytes"),
        "storage.wal_fsyncs_per_write": (per(w, "wal_fsyncs", nw), "count"),
        "storage.version_publish_us_per_write": (us(w, "storage.version_publish", nw), "us"),
        "storage.version_gc_us_per_write": (us(w, "storage.version_gc", nw), "us"),
        "storage.version_peak_bytes": (versions.stats.peak_version_bytes if versions else 0, "bytes"),
        "storage.version_read_us_per_read": (us(r, "storage.version_read", nr), "us"),
        "storage.decodes_per_read": (r["calls"].get("storage.decode", 0) / nr, "count"),
        "storage.decode_us_per_read": (us(r, "storage.decode", nr), "us"),
        "concurrency.read_self_us": (us(r, "concurrency.read", nr), "us"),
        "concurrency.snapshot_read_self_us": (us(r, "concurrency.snapshot_read", nr), "us"),
        "concurrency.write_self_us": (us(w, "concurrency.write", nw), "us"),
        "sharding.router_read_self_us": (us(r, "sharding.router_read", nr), "us"),
        "sharding.router_write_self_us": (us(w, "sharding.router_write", nw), "us"),
        "sharding.worker_self_us_per_op": ((r["self"].get("sharding.worker", 0.0) + w["self"].get("sharding.worker", 0.0)) / ops / 1000.0, "us"),
        "sharding.shards_per_read": (shard_calls / nr, "count"),
        "sharding.useful_shard_ratio": (r["useful"] / shard_calls if shard_calls else 0.0, "ratio"),
        "bench.traced_us_per_op": (traced_per_op / 1000.0, "us"),
        "bench.unattributed_us_per_op": ((traced_ns - r["root_ns"] - w["root_ns"]) / ops / 1000.0, "us"),
        "bench.trace_overhead": (traced_per_op / plain_per_op - 1.0, "ratio"),
    }
    attributed = sum(v for acc in (r, w) for v in acc["self"].values())
    share = attributed / traced_ns if traced_ns else 0.0
    notes = [
        f"traced ops: {r['ops']} reads, {w['ops']} writes; plain ops: {runner.plain_ops}",
        f"layer self times cover {share:.1%} of traced operation time",
    ]
    if share < 0.9:
        notes.append("warning: layer self times cover less than 90% of traced time")
    for cls, acc in (("read", r), ("write", w)):
        n = max(acc["ops"], 1)
        parts = ", ".join(f"{k} {v / n / 1000:.1f}" for k, v in sorted(acc["self"].items(), key=lambda kv: -kv[1]))
        notes.append(f"{cls} self us/op: {parts}")
    return m, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: a few hundred records, one set-up")
    ap.add_argument("--transport", choices=("local", "process"), default="local", help="shard-scatter only; process is a reference run, not a gated workload")
    ap.add_argument("--worker-threads", type=int, default=1, help="process transport: request threads per shard (at most nproc)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workload.make
    if args.transport == "process":
        if workload.name != "shard-scatter" or args.trace:
            print("perfbench: --transport process is an untraced shard-scatter reference run", file=sys.stderr)
            return 2
        threads = max(1, min(args.worker_threads, os.cpu_count() or 1))
        make = lambda inputs, wd: wl.ShardStack(inputs, 2, transport="process", worker_threads=threads)  # noqa: E731
    elif hasattr(os, "sched_setaffinity"):
        # One CPU for the process and every thread it starts: the client,
        # the router's scatter threads and the shard workers share one
        # interpreter lock anyway, and cross-CPU thread wake-ups made the
        # two-shard searches' tail vary by 2x from run to run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    smoke = args.scale == "smoke"
    n = wl.SMOKE_RECORDS if smoke else workload.records
    setups = 1 if smoke else SETUPS
    warm = 2 if smoke else workload.warm_rounds

    problems = [f"oracle self-check: {f}" for f in oracle_mod.self_check()]
    workdir = wl.workdir_for(ROOT)
    stack = None
    try:
        setup_times = []
        for _ in range(setups):
            if stack is not None:
                stack.close()
                stack = runner = None
                gc.collect()
            start = time.perf_counter()
            inputs = wl.Inputs.generate(args.seed, n, workload.dist)
            stack = make(inputs, workdir)
            oracle = oracle_mod.Oracle(capacity=2 * n)
            oracle.add_many(stack.rids, inputs.lo, inputs.hi)
            runner = Runner(wl, workload, stack, oracle, inputs, args.seed, LayerTracer() if args.trace else None)
            for _ in range(warm):
                runner.run_round()
            setup_times.append(time.perf_counter() - start)
            problems += runner.divergences + runner.errors
        runner.reset()
        elapsed = runner.run_for(args.seconds, bool(args.trace))
        # Read before the checks below and the report's own lists add to it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Final state: the index holds exactly the oracle's live set.
        if stack.records() != len(oracle):
            runner._diverge(f"index holds {stack.records()} records, oracle {len(oracle)}")
        if hasattr(stack, "check_recovery"):
            problem = stack.check_recovery(oracle.live())
            if problem:
                runner._diverge(problem)
        if args.trace:
            metrics, notes = per_layer(runner, stack)
        else:
            metrics, notes = end_to_end(runner, stack, setup_times, peak_rss_mb)
        problems += runner.divergences
        print(f"workload {workload.name} seed {args.seed} scale {args.scale} transport {args.transport}")
        print(f"stack: {stack.describe()}")
        print(f"round: {len(workload.round)} ops {dict(sorted(Counter(workload.round).items()))}")
        print(f"set-ups: {', '.join(f'{t:.3f}' for t in setup_times)} s; timed phase {elapsed:.2f} s")
        for note in notes:
            print(note)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.4f} {unit}")
        for p in problems:
            print(f"DIVERGENCE: {p}")
        for e in runner.errors:
            print(f"FAILED OP: {e}")
        result = {
            "correct": not problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        if stack is not None:
            stack.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
