"""Span tracing of zdgraph's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function's binding in every
``zdgraph`` module namespace that holds it (modules import functions by
name), and restores the originals on exit.  Each call records a span
``(id, name, start, end, parent, request)`` in memory; a span's self time is
its duration minus the time its child spans cover.  ``suites.SUITES`` is
left alone: ``cmd_verify`` reads ``fn.__wrapped__.__code__`` from its
entries, so suite time is taken from a span around ``cli.cmd_verify``
named after the suite it runs.  Suite metrics are the one place where whole
span durations are reported (the time of each verify request); every other
time is a self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# metric -> traced functions ("module.function"); times are self times
TIMED = {
    "rings.construct_s": ["rings.make_zn", "rings.make_product", "rings.make_polyquot",
                          "rings.make_gf", "rings.make_multivariate_quot",
                          "rings.ring_from_spec"],
    "rings.ideals_s": ["rings.enumerate_ideals"],
    "rings.ideal_label_s": ["rings.ideal_label"],
    "rings.ideal_semigroup_s": ["rings.ideal_semigroup"],
    "semigroups.validate_s": ["semigroups.validate_semigroup"],
    "semigroups.eq_quotient_s": ["semigroups.eq_quotient"],
    "semigroups.maps_s": ["semigroups.check_armendariz", "semigroups.check_homomorphism",
                          "semigroups.induced_final_map"],
    "semigroups.nilpotent_s": ["semigroups.nilpotent_witness", "semigroups.is_nilpotent_free",
                               "semigroups.zero_divisors"],
    "graphs.build_s": ["graphs.zero_divisor_graph", "graphs.beck_graph"],
    "graphs.diameter_s": ["graphs.diameter"],
    "graphs.girth_s": ["graphs.shortest_cycle", "graphs.girth"],
    "graphs.clique_s": ["graphs.max_clique"],
    "graphs.chromatic_s": ["graphs.optimal_colouring"],
    "polynomials.armendariz_s": ["polynomials.check_armendariz_ring"],
    "polynomials.containment_s": ["polynomials.check_content_containment"],
    "polynomials.gaussian_s": ["polynomials.check_gaussian"],
    "polynomials.truncated_graph_s": ["polynomials.truncated_zero_divisor_graph"],
    "polynomials.enumerate_s": ["polynomials.polys_up_to_degree"],
    "spectra.specs_suite_s": ["spectra.specs_theorem_suite"],
    "spectra.lattice_s": ["spectra.sigma_spec", "spectra.uspec_sigma", "spectra.restrict_to_max"],
    "topology.axioms_s": ["topology.axiom_suite"],
    "topology.lattice_s": ["topology.closure_lattice", "topology.lattice_semigroup",
                           "topology.alpha_map", "topology.powerset_lattice"],
    "topology.t1_s": ["topology.t1_invariants", "topology.char_check_irr_conn"],
    "corpus.posets_s": ["corpus.enumerate_posets"],
    "corpus.topologies_s": ["corpus.enumerate_topologies"],
    "corpus.map_corpus_s": ["corpus.armendariz_map_corpus"],
}
GENERATORS = {"polynomials.polys_up_to_degree", "corpus.enumerate_posets",
              "corpus.enumerate_topologies"}
SUITE_NAMES = ["triangle-point", "armendariz", "ag-conjecture", "t1-lattice", "charirrconn",
               "symbolic-lattice", "specs", "content", "comaximal", "pearled"]
RING_MAKERS = TIMED["rings.construct_s"]
PAIR_CHECKS = ["polynomials.check_armendariz_ring", "polynomials.check_gaussian",
               "polynomials.check_content_containment"]
COUNTS = ["rings.validate_cells", "rings.ideal_count", "graphs.vertices", "graphs.edges",
          "polynomials.pairs", "corpus.posets", "corpus.topologies"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.self_s": "s", "suites.self_s": "s"}
    units.update({f"suites.{s}_s": "s" for s in SUITE_NAMES})
    units.update({m: "s" for m in TIMED})
    units.update({m: "count" for m in COUNTS})
    units["polynomials.pairs_per_s"] = "1/s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Records spans for one traced pass at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = {}
        self.duration: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []   # [id, name, start, child_time]
        self._request = 0
        self._rings: dict[int, object] = {}

    def reset(self) -> None:
        self.spans, self.self_time, self.duration = [], {}, {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._rings = {}

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> list:
        if not self._stack:
            self._request += 1
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        self.duration[name] = self.duration.get(name, 0.0) + dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self._request))

    def _count(self, name: str, result) -> None:
        c = self.counts
        if name in RING_MAKERS and id(result) not in self._rings:
            self._rings[id(result)] = result      # held so ids stay unique
            c["rings.validate_cells"] += result.size ** 3
        elif name == "rings.enumerate_ideals":
            c["rings.ideal_count"] += len(result)
        elif name in ("graphs.zero_divisor_graph", "graphs.beck_graph"):
            c["graphs.vertices"] += result.n
            c["graphs.edges"] += len(result.edges)
        elif name in PAIR_CHECKS:
            c["polynomials.pairs"] += result.pairs_checked

    def _wrap(self, fn, name: str):
        tracer = self
        if name in GENERATORS:
            counter = {"corpus.enumerate_posets": "corpus.posets",
                       "corpus.enumerate_topologies": "corpus.topologies"}.get(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    if counter:
                        tracer.counts[counter] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "cli.cmd_verify":
                span = f"suites.{args[0].suite}"
            frame = tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer._count(name, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all zdgraph modules."""
        names = ["cli.main", "cli.cmd_verify"] + [f for fs in TIMED.values() for f in fs]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zdgraph" or n.startswith("zdgraph."))]
        swapped = []
        for qual in names:
            mod_name, fn_name = qual.split(".")
            orig = getattr(sys.modules[f"zdgraph.{mod_name}"], fn_name)
            wrapper = self._wrap(orig, qual)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in swapped:
                setattr(mod, attr, orig)

    # -- per-layer figures ----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self times and counts of the pass recorded since ``reset``."""
        st = self.self_time
        out = {"cli.self_s": st.get("cli.main", 0.0),
               "suites.self_s": sum(st.get(f"suites.{s}", 0.0) for s in SUITE_NAMES)}
        out.update({f"suites.{s}_s": self.duration.get(f"suites.{s}", 0.0) for s in SUITE_NAMES})
        for metric, fns in TIMED.items():
            out[metric] = sum(st.get(f, 0.0) for f in fns)
        out.update(self.counts)
        pair_time = sum(st.get(f, 0.0) for f in PAIR_CHECKS)
        out["polynomials.pairs_per_s"] = out["polynomials.pairs"] / pair_time if pair_time else 0.0
        return out
