"""fusionsys benchmark: one workload per run, every metric on one JSON line.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop with one client: one process, no
threads, each operation starting when the previous one has returned.  A run
measures whole passes (every case of the workload once, in an order shuffled
by ``--seed``) until ``--seconds`` have elapsed and the workload's minimum
pass count is reached.  One untimed warm-up pass comes first.  Every result
is checked against the digests in ``reference.json``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs half the time untraced and half traced, reports per-layer metrics and
writes the spans to ``.bench_out/``.  The last line of standard output is
the result object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import fusionsys, workloads
workloads.build_ops({workload!r}, {seed})()
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import fusionsys and build the
    operation list.  Interpreter start-up itself is not counted."""
    code = _SETUP_CHILD.format(src=SRC, bench=BENCH, workload=workload,
                               seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(next_pass, refs: dict, seconds: float, min_passes: int,
               call) -> dict:
    """Whole passes until ``seconds`` have elapsed and ``min_passes`` are done.

    ``call(case)`` runs one operation and returns its digest.  An operation
    fails if it raises or its digest differs from the reference.  Failures
    stay in the attempted count and their times stay in the latencies.

    A full garbage collection precedes each operation, outside its time and
    outside ``wall``.  A command run in a fresh process starts with no
    garbage from earlier commands; in one long process the collector's debt
    from large operations would otherwise fall on whichever operation comes
    next, adding milliseconds to operations of a few milliseconds.
    """
    latencies: dict[str, list[float]] = {}     # per case, every attempt
    attempted = failed = 0
    pass_ends: list[int] = []
    collecting = 0.0
    start = perf_counter()
    while True:
        for case in next_pass():
            attempted += 1
            t0 = perf_counter()
            gc.collect()
            collecting += perf_counter() - t0
            t0 = perf_counter()
            try:
                digest, error = call(case), None
            except Exception as exc:  # noqa: BLE001 - a failed operation
                digest, error = None, exc
            latencies.setdefault(case.name, []).append(perf_counter() - t0)
            if error is None and digest == refs.get(case.name):
                continue
            failed += 1
            if failed <= 3:
                detail = ("".join(traceback.format_exception(error)) if error
                          else f"digest {digest} differs from the reference\n")
                sys.stderr.write(f"operation {case.name} failed: {detail}")
        pass_ends.append(attempted)
        wall = perf_counter() - start - collecting
        if wall >= seconds and len(pass_ends) >= min_passes:
            break
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "passes": len(pass_ends), "wall": wall, "pass_ends": pass_ends}


def ops_per_s(res: dict) -> float:
    return (res["attempted"] - res["failed"]) / res["wall"]


def nearest_rank(values: list[float], percentile: int) -> tuple[float, int]:
    """The nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args, wl, next_pass, refs) -> dict:
    setup_s = measure_setup(args.workload, args.seed)
    res = run_passes(next_pass, refs, args.seconds, wl.min_passes,
                     lambda case: case.run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Each operation counts with its case's mean time in the run.  Repeats of
    # one case do the same work, and on a shared host their times differ by
    # the host's speed, which changes in bursts of seconds.  A percentile of
    # single samples reads the extreme sample of whichever case holds its
    # rank, so a burst moves it by the burst's full size; a case's mean moves
    # only by the share of its repeats that the burst covers.
    mean = {name: statistics.mean(times)
            for name, times in res["latencies"].items()}
    lat = [mean[name] for name, times in res["latencies"].items()
           for _ in times]
    p50, _ = nearest_rank(lat, 50)
    tail, beyond = nearest_rank(lat, wl.tail_percentile)
    metrics = {
        "ops_per_s": (ops_per_s(res), "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"workload {wl.name}: {res['passes']} passes of {len(wl.cases)} "
          f"cases in {res['wall']:.2f} s, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  latency_tail_s is p{wl.tail_percentile} (nearest rank, each "
          f"operation at its case's mean) of {len(lat)} samples, {beyond} "
          f"beyond it")
    print(f"  failed_frac      {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _counts_by_pass(tracer_mod, spans, pass_ends) -> list[dict]:
    """The exact work counts of each pass, keyed by span name."""
    passes: list[list] = [[] for _ in pass_ends]
    for span in spans:
        passes[bisect.bisect_right(pass_ends, span[0])].append(span)
    out = []
    for group in passes:
        names = tracer_mod.summarize(group)["names"]
        out.append({name: (row["calls"], row["subgroups"],
                           row["closure_calls"], row["closure_elements"])
                    for name, row in names.items()})
    return out


def per_layer(args, wl, next_pass, refs) -> dict:
    import tracer as tracer_mod

    half = args.seconds / 2
    plain = run_passes(next_pass, refs, half, 1, lambda case: case.run())
    tracer = tracer_mod.Tracer()
    tracer.install()
    stale = tracer.guard()
    for where in stale:
        sys.stderr.write(f"unwrapped binding left after install: {where}\n")

    def call(case):
        return tracer.operation(case.name, case.run)

    traced_res = run_passes(next_pass, refs, half, 1, call)
    per_pass = _counts_by_pass(tracer_mod, tracer.spans,
                               traced_res["pass_ends"])
    counts_repeat = all(c == per_pass[0] for c in per_pass)
    if not counts_repeat:
        sys.stderr.write("work counts differ between traced passes\n")

    passes = traced_res["passes"]
    summary = tracer_mod.summarize(tracer.spans)
    names = summary["names"]
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl"))

    metrics, only_report = layer_metrics(tracer_mod, names, summary["op_s"],
                                         passes)
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced_res)
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1, "frac")

    print(f"workload {wl.name}: untraced {plain['passes']} passes at "
          f"{plain_rate:.4g} ops/s, traced {passes} passes at "
          f"{traced_rate:.4g} ops/s; {len(tracer.spans)} spans")
    print(f"  per pass of {len(wl.cases)} operations; traced operation time "
          f"{summary['op_s'] / passes:.4g} s per pass")
    print(f"  {'span':<34}{'calls':>9}{'self_s':>11}{'closures':>10}")
    for name, row in sorted(names.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34}{row['calls'] // passes:>9}"
              f"{row['self_s'] / passes:>11.4f}"
              f"{row['closure_calls'] // passes:>10}")
    for name, (value, unit) in {**metrics, **only_report}.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    with open(os.path.join(OUT, f"layers-{wl.name}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({name: {"value": value, "unit": unit} for name, (value, unit)
                   in {**metrics, **only_report}.items()}, fh, indent=1)
    failed = plain["failed"] + traced_res["failed"]
    correct = failed == 0 and not stale and counts_repeat
    return {"correct": correct,
            "attempted": plain["attempted"] + traced_res["attempted"],
            "failed": failed, "metrics": metrics}


def layer_metrics(tracer_mod, names: dict, op_s: float, passes: int):
    """The per-layer metrics of the traced run, per pass of the workload:
    those for the result line, and self times shown only in the report."""
    def row(name):
        return names.get(name, {"calls": 0, "self_s": 0.0, "subgroups": 0})

    def calls(name):
        return row(name)["calls"] // passes

    def self_s(name):
        return row(name)["self_s"] / passes

    m: dict[str, tuple] = {}
    closure_calls = sum(r["closure_calls"] for r in names.values())
    closure_elems = sum(r["closure_elements"] for r in names.values())
    closure_s = sum(r["closure_s"] for r in names.values())
    m["groups.closure_indices.calls"] = (closure_calls // passes, "count")
    m["groups.closure_indices.elements"] = (closure_elems // passes, "count")
    m["groups.closure_indices.self_s"] = (closure_s / passes, "s")
    for walk in ("walk_G", "walk_sub"):
        name = f"lattice.{walk}"
        m[f"{name}.walks"] = (calls(name), "count")
        m[f"{name}.subgroups"] = (row(name)["subgroups"] // passes, "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    lattice_calls = sum(calls(n) for n in ("lattice.all_subgroups",
                                           "lattice.walk_G",
                                           "lattice.walk_sub"))
    m["lattice.all_subgroups.calls"] = (lattice_calls, "count")
    m["lattice.all_subgroups.hit_ratio"] = (
        calls("lattice.all_subgroups") / lattice_calls if lattice_calls
        else 0.0, "frac")
    for name in ("classify.classify_group", "fusion.closure_predicate",
                 "fusion.fusion_class", "fusion.is_fusion_normal",
                 "fusion.supersolvable_chain", "groups.quotient_group",
                 "verify.check_theorem", "verify.scan_hypothesis",
                 "normality.group_predicate", "groups.normalizer",
                 "groups.sylow_subgroup"):
        m[f"{name}.calls"] = (calls(name), "count")
    m["groups.mul_table.builds"] = (calls("groups.mul_table"), "count")
    for name in ("fusion.closure_predicate", "fusion.supersolvable_chain",
                 "groups.mul_table", "groups.mul_rows", "groups.conj_table",
                 "groups.generate_group", "catalog.builtin_group",
                 "groups.normalizer", "groups.sylow_subgroup"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    # Spans that some workload never enters would read exactly 0 s on every
    # run of it, so their self times are reported in the text report and the
    # layers file, not on the result line.
    only_report = {f"{name}.self_s": (self_s(name), "s") for name in (
        "lattice.normal_subgroups", "lattice.chief_series_below",
        "classify.classify_group", "fusion.fusion_class",
        "fusion.is_fusion_normal", "fusion.essential_star",
        "fusion.fusion_p_core", "fusion.sylow_controls_fusion",
        "groups.quotient_group", "report.analysis_payload",
        "report.canonical_json", "verify.check_theorem",
        "verify.scan_hypothesis", "normality.group_predicate")}

    shares = {layer: 0.0 for layer in tracer_mod.LAYERS + ("other",)}
    for name, r in names.items():
        shares[tracer_mod.layer_of(name)] += r["self_s"]
    shares["groups"] += closure_s
    for layer, value in shares.items():
        m[f"{layer}.self_share"] = (value / op_s, "frac")
    return m, only_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fusionsys", "__init__.py")):
        sys.stderr.write(f"no fusionsys sources under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, BENCH]
    import fusionsys
    if not os.path.abspath(fusionsys.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"fusionsys was imported from {fusionsys.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: "
                         + ", ".join(workloads.WORKLOADS) + "\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[wl.name]
    next_pass = workloads.build_ops(wl.name, args.seed)

    # One untimed pass first: the first run of each code path in a fresh
    # interpreter is about a fifth slower, and a faster program that fits
    # more passes into a run would dilute such a cold pass more.
    warm = run_passes(next_pass, refs, 0, 1, lambda case: case.run())
    result = (per_layer if args.trace else end_to_end)(
        args, wl, next_pass, refs)
    result["attempted"] += warm["attempted"]
    result["failed"] += warm["failed"]
    result["correct"] = result["correct"] and warm["failed"] == 0
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
