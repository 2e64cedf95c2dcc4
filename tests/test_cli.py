import csv
import json

import pytest

from igpfix.cli import main
from igpfix.netmodel import (
    WaxmanParams,
    assign_random_weights,
    generate_waxman,
    random_demands,
    save_demands,
    save_instance,
)
from igpfix.scenarios import inject_med_conflicts, two_prefix_med


def _write_fixture(tmp_path, seed):
    inst, routes = two_prefix_med()
    inst = inst.with_weights(assign_random_weights(inst, seed=seed, low=1, high=16))
    topo = str(tmp_path / "topo.json")
    save_instance(inst, topo)
    rcsv = tmp_path / "routes.csv"
    with open(rcsv, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["prefix", "egress", "neighbor_as", "med"])
        for r in routes:
            wr.writerow([r.prefix, r.egress, r.neighbor_as, r.med])
    dem = str(tmp_path / "dem.csv")
    save_demands(random_demands(inst, pairs=8, seed=3), dem)
    return topo, str(rcsv), dem


# seed 1003 yields a safe weighting, 1001 an unsafe one (checked in test body)
SAFE_SEED, UNSAFE_SEED = 1003, 1001


def test_check_safe_exit_zero(tmp_path, capsys):
    topo, routes, _ = _write_fixture(tmp_path, SAFE_SEED)
    assert main(["check", topo, "--routes", routes, "--hop-bound", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["safe"] and set(doc["prefixes"]) == {"pfx1", "pfx2"}
    for v in doc["prefixes"].values():
        assert isinstance(v["witness"], dict)  # rank map


def test_check_unsafe_exit_two_with_cycle(tmp_path, capsys):
    topo, routes, _ = _write_fixture(tmp_path, UNSAFE_SEED)
    assert main(["check", topo, "--routes", routes, "--hop-bound", "2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert not doc["safe"]
    cycles = [v["witness"] for v in doc["prefixes"].values() if not v["safe"]]
    assert cycles and all(len(c) >= 2 for c in cycles)


def test_missing_file_exit_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json"), "--prefs", "x"]) == 1
    assert "error" in capsys.readouterr().err


def test_repair_exact_consistent_weights_changes_nothing(tmp_path, capsys):
    topo, routes, _ = _write_fixture(tmp_path, SAFE_SEED)
    assert main(["repair", topo, "--routes", routes, "--hop-bound", "2",
                 "--mode", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["changes"] == []
    assert doc["verified"] and doc["stages"]["safety_after"]["safe"]


def test_repair_unsafe_produces_verified_change(tmp_path, capsys):
    topo, routes, dem = _write_fixture(tmp_path, UNSAFE_SEED)
    wout = str(tmp_path / "w.csv")
    assert main(["repair", topo, "--routes", routes, "--hop-bound", "2",
                 "--mode", "exact", "--weights-out", wout]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["changes"] and doc["verified"]
    assert doc["stages"]["safety_after"]["safe"]
    # a work counter, not a time: it sits with the stage, not under timings
    assert doc["stages"]["exact"]["nodes"] > 0 and "nodes" not in doc["timings"]
    with open(wout) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 and all(int(r["weight"]) >= 0 for r in rows)


def test_repair_equal_mode_report(tmp_path, capsys):
    topo, routes, dem = _write_fixture(tmp_path, UNSAFE_SEED)
    report = str(tmp_path / "rep.json")
    assert main(["repair", topo, "--routes", routes, "--hop-bound", "2",
                 "--mode", "equal", "--demands", dem, "--starts", "2",
                 "--seed", "1", "--report", report]) == 0
    doc = json.loads(open(report).read())
    assert doc["mode"] == "equal"
    assert doc["te_cost_normalized"] is not None
    if doc["stages"]["search"]["early_terminated"]:
        assert doc["te_cost_normalized"] <= 1.10 + 1e-9


def test_repair_equal_mode_deterministic(tmp_path, capsys):
    topo, routes, dem = _write_fixture(tmp_path, UNSAFE_SEED)
    args = ["repair", topo, "--routes", routes, "--hop-bound", "2",
            "--mode", "equal", "--demands", dem, "--starts", "4", "--seed", "7",
            "--search-mode", "best-of"]
    assert main(args) == 0
    d1 = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    d2 = json.loads(capsys.readouterr().out)
    d1.pop("timings"), d2.pop("timings")  # wall-clock noise is the only variance
    assert d1 == d2
    # the start already meets the tolerance: the search scores nothing
    search = d1["stages"]["search"]
    assert (search["stop_reason"], search["neighbours_scored"],
            search["destinations_recomputed"]) == ("threshold", 0, 0)


def test_repair_infeasible_exit_three(tmp_path, capsys):
    topo, _, _ = _write_fixture(tmp_path, SAFE_SEED)
    prefs = tmp_path / "bad.csv"
    prefs.write_text("prefix,p_nodes,q_nodes\npx,R A,R B\npx,T R B,T R A\n")
    assert main(["repair", topo, "--prefs", str(prefs), "--mode", "exact"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["conflict"]


def test_repair_mode_requires_demands(tmp_path, capsys):
    topo, routes, _ = _write_fixture(tmp_path, SAFE_SEED)
    assert main(["repair", topo, "--routes", routes, "--mode", "equal"]) == 1


def test_bench_empty_sizes_header_only(capsys):
    assert main(["bench", "--sizes", "", "--seeds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["n,seed,links,constraints,solver_time,first_search_time"]


def test_bench_small_csv(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--sizes", "8", "--seeds", "0", "--paths", "8",
                 "--iters", "3", "--w-max", "16", "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1
    assert int(rows[0]["n"]) == 8 and float(rows[0]["solver_time"]) >= 0


def test_bench_readme_example_with_default_paths(tmp_path):
    # --paths defaults to min(40, n); 40 random paths at n=20 admit no
    # feasible preference set
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--sizes", "20,40,60", "--seeds", "0,1", "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert [(int(r["n"]), int(r["seed"])) for r in rows] == [
        (n, s) for n in (20, 40, 60) for s in (0, 1)
    ]
    assert main(["bench", "--sizes", "20", "--seeds", "0", "--paths", "40"]) == 1


def test_config_env_sets_defaults(tmp_path, capsys, monkeypatch):
    topo, routes, _ = _write_fixture(tmp_path, SAFE_SEED)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"hop_bound": 2}))
    monkeypatch.setenv("IGPFIX_CONFIG", str(cfgp))
    assert main(["check", topo, "--routes", routes]) == 0
    monkeypatch.setenv("IGPFIX_CONFIG", str(tmp_path / "absent.json"))
    assert main(["check", topo, "--routes", routes]) == 1


def _write_waxman_fixture(tmp_path):
    """Waxman n=20 with two MED conflicts, whose demands put the joint
    solution above the TE tolerance, so that a best-of search iterates."""
    base = generate_waxman(WaxmanParams(n=20, seed=0), w_max=20)
    routes = inject_med_conflicts(base, 2, seed=0)
    inst = base.with_weights(assign_random_weights(base, seed=0))
    topo, rcsv, dem = (str(tmp_path / f) for f in ("wax.json", "wax_routes.csv", "wax_dem.csv"))
    save_instance(inst, topo)
    with open(rcsv, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["prefix", "egress", "neighbor_as", "med"])
        for r in routes:
            wr.writerow([r.prefix, r.egress, r.neighbor_as, r.med])
    save_demands(random_demands(inst, pairs=40, seed=2), dem)
    return topo, rcsv, dem


@pytest.mark.parametrize("search_mode", ["best-of", "first-wins"])
def test_repair_equal_mode_deterministic_while_searching(tmp_path, capsys, search_mode):
    """Two runs give the same report in both search modes: the starts are
    searched one after another, not on threads."""
    topo, routes, dem = _write_waxman_fixture(tmp_path)
    args = ["repair", topo, "--routes", routes, "--hop-bound", "2",
            "--mode", "equal", "--demands", dem, "--starts", "2", "--seed", "0",
            "--gamma", "0", "--search-mode", search_mode]
    docs = []
    for _ in range(2):
        assert main(args) == 0
        docs.append(json.loads(capsys.readouterr().out))
        docs[-1].pop("timings")
    assert docs[0] == docs[1]
    search = docs[0]["stages"]["search"]
    assert search["stop_reason"] == "threshold"
    if search_mode == "best-of":
        assert search["iterations"] > 0 and search["neighbours_scored"] > 0


def test_repair_unequal_reports_a_skipped_exact_seed(tmp_path, capsys, monkeypatch):
    import igpfix.te as te
    from igpfix.repair import InfeasibleRepairError

    def infeasible(*args, **kwargs):
        raise InfeasibleRepairError("seed found no assignment")

    monkeypatch.setattr(te, "solve_min_change", infeasible)
    topo, routes, dem = _write_fixture(tmp_path, UNSAFE_SEED)
    assert main(["repair", topo, "--routes", routes, "--hop-bound", "2",
                 "--mode", "unequal", "--demands", dem]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stages"]["joint"]["exact_seed_skipped"] == "seed found no assignment"
    assert set(doc["timings"]) == {"joint"}
