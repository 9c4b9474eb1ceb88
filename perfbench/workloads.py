"""The three workloads: seeded request lists for ``zdgraph.cli.main``.

A workload is a fixed list of slots.  Each slot names one request shape and
how many times a round repeats it (short requests repeat so that their
timings are not a handful of samples).  The seed picks, for each slot, one of
several presentations of the same ring (isomorphic presentations do the
same work), and the order in which the slots are issued.  Heavy slots have a
single presentation, so the work in a round does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GUARDS = ["--max-clique", "100000", "--max-chromatic", "100000", "--max-ideals", "100000"]
MAX_POLYS = ["--max-polys", "1000000"]
ANALYZE_TASKS = "invariants,eq-quotient,ideals,ag-check"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str              # verify | analyze | export | check
    reps: int = 1          # calls per round
    spec: str = ""
    check: str = ""
    degree: int = 0
    partner: int = -1      # index of the analyze request an export is checked with

    @property
    def ok_codes(self) -> tuple[int, ...]:
        # exit 2 is a correct negative verdict of a pair check
        return (0, 2) if self.check in ("armendariz", "gaussian") else (0,)


# -- verify-suites ----------------------------------------------------------

# suite -> calls per round; the defaults of `zdgraph verify` are the
# acceptance parameters
SUITE_REPS = {
    "triangle-point": 10, "armendariz": 3, "ag-conjecture": 1, "t1-lattice": 10,
    "charirrconn": 10, "symbolic-lattice": 20, "specs": 1, "content": 1,
    "comaximal": 10, "pearled": 20,
}
TINY_SUITES = {
    "triangle-point": [], "t1-lattice": [], "comaximal": [], "pearled": ["--max-points", "3"],
    "ag-conjecture": ["--max-order", "40"], "specs": ["--max-points", "3"],
    "content": ["--max-order", "4", "--degree", "1"],
}


def verify_suites(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        slots = [(s, extra, 1) for s, extra in TINY_SUITES.items()]
    else:
        slots = [(s, [], reps) for s, reps in SUITE_REPS.items()]
    rng.shuffle(slots)
    return [Request(("verify", s, *extra, "--json"), "verify", reps) for s, extra, reps in slots]


# -- ring-analyze -----------------------------------------------------------

# (presentations, calls per round, what the slot adds to the catalog)
RING_SLOTS = [
    (["Zn:256"], 1, "order 256, local, principal ideals, girth 3"),
    (["mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz", "mvq:p=2;vars=u,v,w;rel=u2,v2,w2,uvw",
      "mvq:p=2;vars=a,b,c;rel=a2,b2,c2,abc"], 1,
     "order 128, local, 46 ideals, most not principal"),
    (["Zn:210"], 1, "order 210, reduced, 4 minimal primes, ag-check applies"),
    (["prod:gf:4,gf:5,gf:7"], 2, "order 140, reduced, 3 fields, girth 3"),
    (["mvq:p=3;vars=x,y;rel=x2,y2", "mvq:p=3;vars=s,t;rel=s2,t2"], 3,
     "order 81, local, non-principal maximal ideal"),
    (["prod:gf:8,gf:9", "prod:gf:9,gf:8", "prod:polyquot:p=2;mod=1,1,0,1,gf:9",
      "prod:gf:8,polyquot:p=3;mod=2,1,1"], 4, "order 72, reduced, K(7,8), girth 4"),
    (["prod:Zn:2,gf:27", "prod:gf:27,Zn:2", "prod:Zn:2,polyquot:p=3;mod=1,2,0,1"], 4,
     "order 54, reduced, star, girth inf"),
    (["gf:25", "polyquot:p=5;mod=2,0,1", "polyquot:p=5;mod=3,0,1"], 8,
     "order 25, field, empty graph"),
    (["prod:Zn:4,Zn:2,Zn:3", "prod:Zn:2,Zn:4,Zn:3", "prod:Zn:3,Zn:2,Zn:4"], 8,
     "order 24, non-reduced, 3 local factors"),
    (["Zn:12", "prod:Zn:4,Zn:3", "prod:Zn:3,Zn:4"], 8, "order 12, non-reduced"),
    (["polyquot:p=2;mod=0,0,0,1", "polyquot:p=2;mod=1,1,1,1", "mvq:p=2;vars=x;rel=x3"], 8,
     "order 8, local, principal, path, girth inf"),
    (["mvq:p=2;vars=x,y;rel=x2,xy,y2", "mvq:p=2;vars=y,x;rel=y2,yx,x2"], 8,
     "order 8, local, non-principal, triangle"),
]
TINY_RING_SLOTS = [s for s in RING_SLOTS if s[1] >= 4]


def ring_analyze(rng: random.Random, tiny: bool) -> list[Request]:
    slots = [(rng.choice(specs), reps) for specs, reps, _ in
             (TINY_RING_SLOTS if tiny else RING_SLOTS)]
    rng.shuffle(slots)
    out: list[Request] = []
    for spec, reps in slots:
        out.append(Request(("analyze", "--ring", spec, "--tasks", ANALYZE_TASKS, *GUARDS,
                            "--json"), "analyze", reps, spec))
        out.append(Request(("export", "--ring", spec, "--graph", "comaximal", "--format",
                            "json"), "export", reps, spec, partner=len(out) - 1))
    return out


# -- poly-checks ------------------------------------------------------------

Z6 = ["Zn:6", "prod:Zn:2,Zn:3", "prod:Zn:3,Zn:2"]
GF4 = ["gf:4", "polyquot:p=2;mod=1,1,1"]
GF9 = ["gf:9", "polyquot:p=3;mod=1,0,1", "polyquot:p=3;mod=2,1,1", "polyquot:p=3;mod=2,2,1"]
X2Y2 = ["mvq:p=2;vars=x,y;rel=x2,y2"]   # fails at degree 1: (yX+x, yX+x)

# (presentations, check, degree, calls per round)
POLY_SLOTS = [
    (Z6, "gaussian", 2, 1),
    (GF9, "armendariz", 2, 1),
    (["Zn:8"], "armendariz", 2, 1),
    (GF4, "gaussian", 2, 4),
    (GF4, "armendariz", 3, 4),
    (Z6, "armendariz", 2, 4),
    (["prod:Zn:2,Zn:2", "prod:gf:2,gf:2"], "armendariz", 3, 4),
    (["Zn:3", "gf:3"], "gaussian", 3, 4),
    (X2Y2, "armendariz", 1, 8),
    (X2Y2, "gaussian", 1, 4),
    (["Zn:4"], "gaussian", 2, 4),
    (["Zn:8"], "gaussian", 1, 4),
    (["polyquot:p=2;mod=0,0,1", "mvq:p=2;vars=x;rel=x2"], "armendariz", 2, 8),
    (["mvq:p=2;vars=x,y;rel=x2,xy,y2"], "gaussian", 1, 4),
    (Z6, "clique-stab", 2, 4),
    (["prod:Zn:2,Zn:2", "prod:gf:2,gf:2"], "clique-stab", 2, 8),
    (["Zn:10", "prod:Zn:2,Zn:5", "prod:Zn:5,Zn:2"], "clique-stab", 1, 8),
    (["Zn:5", "gf:5"], "clique-stab", 2, 8),
]
TINY_POLY_SLOTS = [s for s in POLY_SLOTS if s[3] >= 4]


def poly_checks(rng: random.Random, tiny: bool) -> list[Request]:
    slots = [(rng.choice(specs), check, d, reps) for specs, check, d, reps in
             (TINY_POLY_SLOTS if tiny else POLY_SLOTS)]
    rng.shuffle(slots)
    return [
        Request(("analyze", "--ring", spec, "--check", check, "--degree", str(d),
                 *MAX_POLYS, "--json"), "check", reps, spec, check, d)
        for spec, check, d, reps in slots
    ]


WORKLOADS = {
    "verify-suites": verify_suites,
    "ring-analyze": ring_analyze,
    "poly-checks": poly_checks,
}


def make_requests(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
