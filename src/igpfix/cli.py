"""Command-line pipeline: safety check, repair, and scaling benchmark.

Exit codes: 0 success/safe, 1 usage or input error, 2 unsafe instance
(check), 3 infeasible mandated preferences (repair).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from .bgp_prefs import MandatedPreferences, derive_med_preferences, load_pref_pairs, load_routes
from .local_search import SearchConfig, generate_starts, parallel_search
from .netmodel import (
    NetworkInstance,
    ParseError,
    ValidationError,
    WaxmanParams,
    assign_random_weights,
    generate_waxman,
    load_demands,
    load_instance,
    random_demands,
)
from .pspp import build_path_digraph, is_safe
from .repair import InfeasibleRepairError, RepairConfig, RepairSolution, solve_min_change, build_system
from .scenarios import random_pref_paths
from .sim import weights_to_pspp
from .te import JointConfig, solve_joint_unequal

CONFIG_ENV = "IGPFIX_CONFIG"


@dataclass
class RunReport:
    """Machine-readable record of one repair run, reproducible per seed."""

    digest: str
    mode: str
    seed: int
    gamma: float
    stages: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    changes: list[dict[str, Any]] = field(default_factory=list)
    te_cost_normalized: Optional[float] = None
    verified: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _digest(paths: list[str], extra: dict[str, Any]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _defaults_from_env() -> dict[str, Any]:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"config {path} must hold a JSON object")
    return doc


def _load_prefs(args: argparse.Namespace, inst: NetworkInstance) -> MandatedPreferences:
    if args.routes:
        return derive_med_preferences(inst, load_routes(args.routes), hop_bound=args.hop_bound)
    if args.prefs:
        return load_pref_pairs(args.prefs)
    raise ParseError("either --routes or --prefs is required")


def _path_list(p: tuple) -> list[str]:
    return list(p)


def cmd_check(args: argparse.Namespace) -> int:
    inst = load_instance(args.topology)
    prefs = _load_prefs(args, inst)
    w = inst.initial_weights()
    if any(v is None for v in w.values()):
        raise ValidationError("check requires all link weights to be known")
    verdict: dict[str, Any] = {"safe": True, "prefixes": {}}
    for pfx in prefs.prefixes():
        pspp = weights_to_pspp(inst, prefs, w, pfx, hop_bound=args.hop_bound)
        res = is_safe(build_path_digraph(pspp))
        if res.safe:
            ranks = {" ".join(p): r for p, r in sorted(res.ranks.items())}
            verdict["prefixes"][pfx] = {"safe": True, "witness": ranks}
        else:
            verdict["safe"] = False
            verdict["prefixes"][pfx] = {
                "safe": False,
                "witness": [_path_list(p) for p in res.cycle],
            }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if verdict["safe"] else 2


def _changes_list(sol: RepairSolution) -> list[dict[str, Any]]:
    return [
        {"link": list(k), "before": old, "after": new}
        for k, (old, new) in sorted(sol.changed_links.items())
    ]


def cmd_repair(args: argparse.Namespace) -> int:
    inst = load_instance(args.topology)
    prefs = _load_prefs(args, inst)
    w_initial = inst.initial_weights()
    demands = load_demands(args.demands, inst) if args.demands else None
    if args.mode in ("unequal", "equal") and demands is None:
        raise ParseError(f"--mode {args.mode} requires --demands")

    digest = _digest(
        [p for p in (args.topology, args.routes, args.prefs, args.demands) if p],
        {"mode": args.mode, "seed": args.seed, "gamma": args.gamma,
         "starts": args.starts, "budget": args.budget},
    )
    report = RunReport(digest=digest, mode=args.mode, seed=args.seed, gamma=args.gamma)
    cfg = RepairConfig(time_budget=args.budget,
                       min_weight=1 if args.mode in ("unequal", "equal") else 0)
    jcfg = JointConfig(gamma=args.gamma, seed=args.seed,
                       exact_budget=min(5.0, args.budget / 4))

    t0 = time.monotonic()
    if args.mode == "exact":
        sol = solve_min_change(build_system(inst, prefs), w_initial, cfg)
        report.timings["exact"] = time.monotonic() - t0
        report.stages["exact"] = {
            "objective": sol.objective,
            "n_changed": sol.n_changed,
            "budget_exceeded": sol.budget_exceeded,
            "nodes": sol.nodes,
        }
    elif args.mode == "unequal":
        sol = solve_joint_unequal(inst, demands, prefs, w_initial, cfg, jcfg)
        report.timings["joint"] = time.monotonic() - t0
        report.stages["joint"] = {
            "stage": sol.stage,
            "objective": sol.objective,
            "n_changed": sol.n_changed,
            "exact_seed_skipped": sol.exact_seed_skipped,
        }
        if sol.te_cost_before:
            report.te_cost_normalized = sol.te_cost_after / sol.te_cost_before
    else:  # equal: joint solve -> starts -> one local search per start
        starts = generate_starts(inst, demands, prefs, w_initial, args.starts, cfg, jcfg)
        report.timings["starts"] = time.monotonic() - t0
        scfg = SearchConfig(gamma=args.gamma, seed=args.seed, starts=len(starts))
        t1 = time.monotonic()
        sol = parallel_search(
            inst, demands, prefs, starts, scfg,
            mode=args.search_mode, w_initial=w_initial,
        )
        report.timings["search"] = time.monotonic() - t1
        report.stages["search"] = {
            "starts": len(starts),
            "iterations": sol.iterations,
            "early_terminated": sol.early_terminated,
            "stop_reason": sol.stop_reason,
            "neighbours_scored": sol.neighbours_scored,
            "destinations_recomputed": sol.destinations_recomputed,
        }
        if sol.te_cost_before:
            report.te_cost_normalized = sol.te_cost_after / sol.te_cost_before

    report.changes = _changes_list(sol)
    report.verified = sol.realized.ok
    safe = all(
        is_safe(build_path_digraph(
            weights_to_pspp(inst, prefs, sol.weights, pfx, hop_bound=args.hop_bound)
        )).safe
        for pfx in prefs.prefixes()
    )
    report.stages["safety_after"] = {"safe": safe}

    out = report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(out + "\n")
    print(out)
    if args.weights_out:
        with open(args.weights_out, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["a", "b", "weight"])
            for (a, b), v in sorted(sol.weights.items()):
                wr.writerow([a, b, v])
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    rows: list[dict[str, Any]] = []
    for n in sizes:
        for seed in seeds:
            inst = generate_waxman(WaxmanParams(n=n, seed=seed), w_max=args.w_max)
            w = assign_random_weights(inst, seed=seed)
            inst = inst.with_weights(w)
            demands = random_demands(inst, pairs=2 * n, seed=seed)
            n_paths = args.paths if args.paths is not None else min(40, n)
            prefs = random_pref_paths(inst, n_paths=n_paths, n_prefs=args.prefs_count, seed=seed)
            sys_ = build_system(inst, prefs)
            cfg = RepairConfig(time_budget=args.budget, min_weight=1)
            jcfg = JointConfig(gamma=args.gamma, seed=seed, exact_budget=0.0)
            t0 = time.monotonic()
            starts = generate_starts(inst, demands, prefs, inst.initial_weights(),
                                     args.starts, cfg, jcfg)
            solver_time = time.monotonic() - t0
            scfg = SearchConfig(gamma=args.gamma, seed=seed, max_iters=args.iters)
            t1 = time.monotonic()
            parallel_search(inst, demands, prefs, starts, scfg, mode="first-wins")
            search_time = time.monotonic() - t1
            rows.append({
                "n": n, "seed": seed, "links": len(inst.links),
                "constraints": sys_.constraint_count(),
                "solver_time": round(solver_time, 4),
                "first_search_time": round(search_time, 4),
            })
    fields = ["n", "seed", "links", "constraints", "solver_time", "first_search_time"]
    out = args.out or "-"
    fh = _sys.stdout if out == "-" else open(out, "w", newline="")
    try:
        wr = csv.DictWriter(fh, fieldnames=fields)
        wr.writeheader()
        wr.writerows(rows)
    finally:
        if fh is not _sys.stdout:
            fh.close()
    return 0


def build_parser(defaults: Optional[dict[str, Any]] = None) -> argparse.ArgumentParser:
    d = defaults or {}
    ap = argparse.ArgumentParser(prog="igpfix", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("topology", help="topology JSON file")
        p.add_argument("--routes", help="external-route CSV (prefix,egress,neighbor_as,med)")
        p.add_argument("--prefs", help="direct preference CSV (prefix,p_nodes,q_nodes)")
        p.add_argument("--hop-bound", type=int, default=d.get("hop_bound", 3))

    pc = sub.add_parser("check", help="safety verdict for the current weights")
    common(pc)
    pc.set_defaults(func=cmd_check)

    pr = sub.add_parser("repair", help="synthesize repaired link weights")
    common(pr)
    pr.add_argument("--demands", help="demand CSV (src,dst,mbps)")
    pr.add_argument("--gamma", type=float, default=d.get("gamma", 10.0))
    pr.add_argument("--mode", choices=["exact", "unequal", "equal"],
                    default=d.get("mode", "exact"))
    pr.add_argument("--starts", type=int, default=d.get("starts", 2))
    pr.add_argument("--seed", type=int, default=d.get("seed", 0))
    pr.add_argument("--budget", type=float, default=d.get("budget", 60.0))
    pr.add_argument("--search-mode", choices=["best-of", "first-wins"],
                    default=d.get("search_mode", "best-of"))
    pr.add_argument("--report", help="write the JSON run report here")
    pr.add_argument("--weights-out", help="write the final weights CSV here")
    pr.set_defaults(func=cmd_repair)

    pb = sub.add_parser("bench", help="timing benchmark on random topologies")
    pb.add_argument("--sizes", default=d.get("sizes", "20,30,40,60,70"))
    pb.add_argument("--seeds", default=d.get("seeds", "0"))
    pb.add_argument("--paths", type=int, default=d.get("paths"),
                    help="random mandated paths per instance (default min(40, n))")
    pb.add_argument("--prefs-count", type=int, default=d.get("prefs_count"))
    pb.add_argument("--gamma", type=float, default=d.get("gamma", 10.0))
    pb.add_argument("--starts", type=int, default=d.get("starts", 2))
    pb.add_argument("--iters", type=int, default=d.get("iters", 30))
    pb.add_argument("--budget", type=float, default=d.get("budget", 60.0))
    pb.add_argument("--w-max", type=int, default=d.get("w_max", 100))
    pb.add_argument("--out", help="CSV output path (default stdout)")
    pb.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        defaults = _defaults_from_env()
        args = build_parser(defaults).parse_args(argv)
        return args.func(args)
    except InfeasibleRepairError as exc:
        print(json.dumps({"error": str(exc), "conflict": exc.conflict}, indent=2),
              file=_sys.stderr)
        return 3
    except (ParseError, ValidationError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
