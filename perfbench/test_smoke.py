"""Smoke test of the benchmark: tiny workloads, and checkers that catch lies.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CLI = run.import_cli()


def cli_json(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = CLI.main(list(argv))
    return rc, json.loads(out.getvalue())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_benchmark_file():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_requests(name, 5) == workloads.make_requests(name, 5)


def test_wrong_girth_is_flagged():
    spec = "prod:Zn:2,Zn:3,Zn:5"
    _, analyze = cli_json("analyze", "--ring", spec, "--tasks", workloads.ANALYZE_TASKS, "--json")
    _, export = cli_json("export", "--ring", spec, "--graph", "comaximal", "--format", "json")
    assert checks.ring_analyze_problems(spec, analyze, export) == []
    analyze["results"]["invariants"]["gamma"]["girth"] = 4
    assert any("girth" in p for p in checks.ring_analyze_problems(spec, analyze, export))


def test_wrong_pair_count_is_flagged():
    rc, out = cli_json("analyze", "--ring", "Zn:6", "--check", "armendariz", "--degree", "1",
                       "--json")
    assert checks.poly_check_problems("Zn:6", "armendariz", 1, rc, out) == []
    out["results"]["armendariz"]["pairs_checked"] += 1
    assert any("pairs" in p for p in checks.poly_check_problems("Zn:6", "armendariz", 1, rc, out))


@pytest.mark.parametrize("check", ["armendariz", "gaussian"])
def test_forged_witness_is_flagged(check):
    spec = workloads.X2Y2[0]
    rc, out = cli_json("analyze", "--ring", spec, "--check", check, "--degree", "1", "--json")
    assert rc == 2 and checks.poly_check_problems(spec, check, 1, rc, out) == []
    out["results"][check]["witness"] = ["x", "1"]
    assert any("not a counterexample" in p
               for p in checks.poly_check_problems(spec, check, 1, rc, out))


def test_forged_ag_witness_is_flagged():
    ring = checks.ring("prod:gf:2,gf:2,gf:2")
    assert checks.ag_witness_problems(ring, ("((1,0,0))", "((0,1,0))", "((0,0,1))"), "ag") == []
    assert checks.ag_witness_problems(ring, ("((1,0,0))", "((1,1,0))", "((0,0,1))"), "ag")
