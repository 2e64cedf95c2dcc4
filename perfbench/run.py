"""igpfix benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload equal-search --seed 1 --seconds 38 --trace 0

Run from the repository root. The package is imported from ./src. Set-up
builds the workload's inputs from --seed; then rounds of the same operations
run until another round would pass --seconds (at least one round runs).
The last line of standard output is the result as JSON: end-to-end metrics
with --trace 0, per-layer metrics from spans around igpfix's functions with
--trace 1. Times are CPU seconds of the process, scaled to a reference
host speed (see calibrate); setup_s is not scaled. Results and spans are
also written under perfbench/results/.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One thread per process apart from parallel_search's: OpenBLAS would start a
# worker per core, and its spinning counts in the process's CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

END_TO_END_UNITS = {
    "setup_s": "s",
    "repair_s": "s",
    "repair_median_s": "s",
    "check_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MB",
    "te_cost_ratio": "ratio",
    "weights_changed": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["equal-search", "exact-repair", "check-sim"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_package():
    if not (SRC / "igpfix" / "__init__.py").is_file():
        sys.exit(f"igpfix sources not found under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import igpfix

    if Path(igpfix.__file__).resolve().parent != (SRC / "igpfix").resolve():
        sys.exit(f"imported igpfix from {igpfix.__file__}, not from {SRC}")


# A fixed pure-Python loop, run before and after every round. The host's
# speed drifts by up to 2x over seconds (other tenants), and igpfix's CPU
# time drifts with it; scaling a round's times by CAL_REFERENCE_S over the
# loop's CPU time then gives CPU seconds at one reference speed.
CAL_LOOPS = 400_000
CAL_REFERENCE_S = 0.04  # the loop's median CPU time on the machine in README


def calibrate() -> float:
    t0 = time.process_time()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.process_time() - t0


def _per_op(rounds, scales, attr):
    """Each operation's median scaled time over the rounds, in round order."""
    cols = zip(*(getattr(r, attr) for r in rounds))
    return [statistics.median(t * k for t, k in zip(col, scales)) for col in cols]


def end_to_end(rounds, scales, setup_s):
    from references import geometric_mean

    repairs = _per_op(rounds, scales, "repair_times")
    return {
        "setup_s": setup_s,
        "repair_s": sum(repairs),
        "repair_median_s": statistics.median(repairs),
        "check_s": sum(_per_op(rounds, scales, "check_times")),
        "sim_s": sum(_per_op(rounds, scales, "sim_times")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "te_cost_ratio": statistics.median(geometric_mean(r.te_ratios) for r in rounds),
        "weights_changed": statistics.median(r.weights_changed for r in rounds),
    }


COUNTER_UNITS = {
    "routing.destinations": "count",
    "search.neighbours_scored": "count",
    "search.iterations": "count",
    "repair.budget_hits": "count",
    "repair.proven_ratio": "ratio",
    "sim.steps": "count",
    "sim.steps_per_s": "1/s",
    "pspp.arcs": "count",
}


def _layer_round(spans, own, scale):
    """Per-layer metrics of one round's spans."""
    from tracing import TRACED

    m = {}
    for layer, fns in TRACED.items():
        for fn in fns:
            mine = [s for s in spans if s.name == f"{layer}.{fn}"]
            m[f"{layer}.{fn}.calls"] = len(mine)
            m[f"{layer}.{fn}.self_s"] = scale * sum(own[s.id] for s in mine)
    searches = [s for s in spans if s.name == "local_search.search"]
    search_ids = {s.id for s in searches}
    scored = sum(1 for s in spans if s.name == "local_search.ecmp_cost" and s.parent in search_ids)
    scored -= sum(s.counts["own_evaluations"] for s in searches)
    solves = [s for s in spans if s.name == "repair.solve_min_change"]
    hits = sum(s.counts["budget_hit"] for s in solves)
    steps = sum(s.counts["steps"] for s in spans if s.name == "sim.simulate")
    sim_self = m["sim.simulate.self_s"]
    m.update({
        "routing.destinations": sum(s.counts.get("destinations", 0) for s in spans),
        "search.neighbours_scored": scored,
        "search.iterations": sum(s.counts["iterations"] for s in searches),
        "repair.budget_hits": hits,
        "repair.proven_ratio": (len(solves) - hits) / len(solves) if solves else 1.0,
        "sim.steps": steps,
        "sim.steps_per_s": steps / sim_self if sim_self > 0 else 0.0,
        "pspp.arcs": sum(s.counts.get("arcs", 0) for s in spans),
    })
    return m


def per_layer(tracer, scales):
    """Per-layer metrics of each round, as the median over rounds."""
    from tracing import self_cpu

    own = self_cpu(tracer.spans)
    rows = [_layer_round([s for s in tracer.spans if s.round == r], own, k) for r, k in enumerate(scales)]

    def unit(name):
        return "s" if name.endswith(".self_s") else COUNTER_UNITS.get(name, "count")

    return {k: {"value": statistics.median(row[k] for row in rows), "unit": unit(k)} for k in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup, run_round = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    setup_s = time.process_time()  # CPU seconds since the process started

    rounds, round_cpu, scales = [], [], []
    t_start = time.perf_counter()
    while True:
        rnd = workloads.Round()
        t0 = time.perf_counter()
        cal = calibrate()
        if tracer is not None:
            tracer.round = len(rounds)
        c0 = time.process_time()
        run_round(rnd, state)
        round_cpu.append(time.process_time() - c0)
        if tracer is not None:
            tracer.round = None
        scales.append(CAL_REFERENCE_S / ((cal + calibrate()) / 2))
        last = time.perf_counter() - t0
        rounds.append(rnd)
        if time.perf_counter() - t_start + last > args.seconds:
            break

    problems = [p for r in rounds for p in r.problems]
    for p in sorted(set(problems))[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, scales)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(rounds, scales, setup_s).items()}
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    line = json.dumps(result)
    stem.with_suffix(".json").write_text(line + "\n")
    print(f"{len(rounds)} rounds, {statistics.median(round_cpu):.3f} CPU s per round unscaled, "
          f"host speed {min(scales):.3f}-{max(scales):.3f} of the reference", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
