"""Byte identity of the CLI: one sha256 per request, pinned in a golden file.

``tests/golden/digests.json`` maps each request, its argv joined as a shell
line, to the sha256 of its exit code, stdout and stderr, run in process with
``elapsed_s`` and the text-mode suite times blanked.  The requests are every
distinct request of the three benchmark workloads at seeds 1-10 (full and
tiny), every suite as text, and poset, space, lattice and ring analyzes,
DOT and JSON exports and refusals.  Input files are read from
``tests/golden/inputs`` by paths relative to the repository root.

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
from pathlib import Path

from ideal_oracles import _workloads

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "digests.json"
INPUTS = "tests/golden/inputs"
SEEDS = range(1, 11)

POSETS = ["chain3", "vee3", "antichain3", "antichain4", "n4", "diamond4", "crown6",
          "cycle_invalid"]
SPACES = ["sierpinski", "discrete3", "indiscrete2", "chain3", "pairs4", "union_invalid"]
FANS = ["fan:generics=0;sharing=all", "fan:generics=1;sharing=all",
        "fan:generics=2;sharing=all", "fan:generics=3;sharing=all",
        "fan:disjoint=1", "fan:disjoint=2", "fan:disjoint=5"]
SUITES = ["triangle-point", "armendariz", "ag-conjecture", "t1-lattice", "charirrconn",
          "symbolic-lattice", "specs", "content", "comaximal", "pearled"]
REFUSALS = [
    ["verify", "nope"],
    ["verify", "specs", "--max-points", "9"],
    ["verify", "t1-lattice", "--max-ground", "11"],
    ["analyze", "--ring", "Zn:1"],
    ["analyze", "--ring", "Zn:5000"],
    ["analyze", "--ring", "Zn:6", "--tasks", "axioms"],
    ["analyze", "--lattice", "powerset:9", "--tasks", "invariants"],
    ["analyze", "--ring", "prod:Zn:4,Zn:9", "--tasks", "invariants", "--max-chromatic", "5"],
    ["export", "--poset", "fan:disjoint=2"],
]


def _workload_requests() -> list[list[str]]:
    workloads = _workloads()
    return [list(r.argv) for name in workloads.WORKLOADS for seed in SEEDS
            for tiny in (False, True) for r in workloads.make_requests(name, seed, tiny)]


def requests() -> list[list[str]]:
    """The distinct requests, in a fixed order."""
    out = _workload_requests()
    out += [["verify", s] for s in SUITES] + [["verify", "all"]]
    for name in POSETS:
        path = f"{INPUTS}/poset_{name}.json"
        out += [["analyze", "--poset", path, "--tasks", "invariants,specs-suite", *fmt]
                for fmt in (["--json"], [])]
        out.append(["export", "--poset", path])
    for fan in FANS:
        out += [["analyze", "--poset", fan, "--tasks", "invariants,specs-suite", *fmt]
                for fmt in (["--json"], [])]
    for name in SPACES:
        path = f"{INPUTS}/space_{name}.json"
        out += [["analyze", "--space", path, "--tasks", "axioms,invariants", *fmt]
                for fmt in (["--json"], [])]
        out += [["export", "--space", path, "--format", fmt] for fmt in ("dot", "json")]
    for n in range(6):
        out += [["analyze", "--lattice", f"powerset:{n}", "--tasks", "t1,invariants", *fmt]
                for fmt in (["--json"], [])]
    out += [["analyze", "--lattice", "symbolic-cofinite", "--tasks", "t1", "--json"],
            ["export", "--lattice", "powerset:3"]]
    rings = sorted({argv[2] for argv in out if argv[:2] == ["analyze", "--ring"]})
    out += [["export", "--ring", spec, "--graph", "gamma"] for spec in rings]
    out += [["export", "--ring", spec, "--graph", graph] for spec in ("Zn:12", "prod:gf:4,gf:3")
            for graph in ("gamma-e", "beck", "ag", "comaximal")]
    out += [["analyze", "--ring", spec] for spec in ("Zn:12", "gf:9", "prod:Zn:4,Zn:2,Zn:3")]
    out += REFUSALS
    return list(dict.fromkeys(map(tuple, out)).keys())


def _blank(text: str) -> str:
    text = re.sub(r'"elapsed_s": [0-9.]+', '"elapsed_s": null', text)
    return re.sub(r"^(suite \S+: \S+ \(\d+ items, )[0-9.]+s\)$", r"\1-s)", text, flags=re.M)


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``zdgraph`` on argv, in process from
    the repository root, with the timings blanked."""
    from zdgraph.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, _blank(out.getvalue()), _blank(err.getvalue())


def digest(argv) -> str:
    return hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()


def main() -> None:
    table = {shlex.join(argv): digest(argv) for argv in requests()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
