#!/usr/bin/env python3
"""zdgraph benchmark: one client, closed loop, in-process ``cli.main`` calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zdgraph checkout; the program is imported from its
``src`` directory.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 9
ELAPSED = re.compile(r'"elapsed_s": [-+0-9.e]+')
# The host runs at two speeds, each for seconds to minutes at a time.  Every
# call's latency is divided by the time of a fixed piece of pure-Python work
# measured next to it, then multiplied by REFERENCE_S, the time that work
# takes at the host's fast speed: latencies read as seconds at that speed.
REFERENCE_S = 0.0015
PROBE_INTERVAL_S = 0.25


def speed_probe() -> float:
    """Time of a fixed pure-Python workload that shares no code with zdgraph,
    the faster of two back-to-back runs (a run that an interrupt hit is lost)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        table: dict[int, tuple] = {}
        for i in range(8000):
            k = (i * 7919) & 1023
            table[k] = (i, k, table.get(k ^ 1, (0,))[0])
        sorted(table.items())
        best = min(best, time.perf_counter() - t0)
    return best


def import_cli():
    """zdgraph.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "zdgraph" / "cli.py").is_file():
        sys.exit(f"error: no zdgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zdgraph.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "zdgraph").resolve():
        sys.exit(f"error: imported zdgraph from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(workload: str, seed: int, repeats: int) -> float:
    """Median time from starting a fresh interpreter until it has imported
    zdgraph.cli and built the workload's requests.

    It is not normalised: process start-up hardly follows the speed probe
    (over one minute the probe ranged over 1.6-2.9 ms while set-up time had
    a coefficient of variation of 5 %).
    """
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("error: set-up probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {err.strip()}")
        times.append(elapsed)
    return statistics.median(times)


def digest(text: str) -> bytes:
    """Output fingerprint with the reports' own timings blanked."""
    return hashlib.blake2b(ELAPSED.sub('"elapsed_s": 0', text).encode(), digest_size=16).digest()


class Client:
    """Issues requests one at a time and keeps the tallies of a run."""

    def __init__(self, cli, requests):
        self.cli, self.requests = cli, requests
        self.attempted = self.failed = 0
        self.first: dict[int, tuple[int, str]] = {}
        self.fingerprint: dict[int, bytes] = {}
        self.mismatched: set[int] = set()
        self.probes: list[float] = []   # speed probes taken during the last call
        self.tracer = None

    def call(self, i: int, probe_inside: bool = False):
        """Latency of one call, or None when it failed (exception or bad exit).

        With ``probe_inside`` a timer signal runs the speed probe every
        PROBE_INTERVAL_S during the call; probe time is not latency.
        """
        req = self.requests[i]
        out, err = io.StringIO(), io.StringIO()
        self.probes = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if probe_inside:
                signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(req.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                rc = repr(exc)
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0 - sum(self.probes)
        self.attempted += 1
        if rc not in req.ok_codes:
            self.failed += 1
            print(f"# failed: {' '.join(req.argv)}: {rc} {err.getvalue().strip()[:300]}",
                  file=sys.stderr)
            return None
        text = out.getvalue()
        fp = digest(text)
        if i not in self.first:
            self.first[i], self.fingerprint[i] = (rc, text), fp
        elif fp != self.fingerprint[i]:
            self.mismatched.add(i)
        return dt

    def _tick(self, signum, frame) -> None:
        if self.tracer is None:
            self.probes.append(speed_probe())
            return
        span = self.tracer.enter("bench.speed_probe")   # kept out of every layer
        try:
            self.probes.append(speed_probe())
        finally:
            self.tracer.exit(span)

    @contextlib.contextmanager
    def timing(self):
        """Install the probe timer's handler and take the first probe."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            for _ in range(3):
                self.probe = speed_probe()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed_call(self, i: int):
        """(normalised, raw) latency of one call, or None when it failed.

        A call is normalised by the mean of the probes taken just before it,
        during it and just after it: probes come at even intervals of wall
        time, so their mean is the host's average slowness over the call.
        """
        dt = self.call(i, probe_inside=True)
        before, self.probe = self.probe, speed_probe()
        self.probes += [before, self.probe]
        if dt is None:
            return None
        return dt * REFERENCE_S / statistics.fmean(self.probes), dt


def end_to_end(samples: dict[int, list[tuple[float, float]]], setup_s: float,
               rss_mb: float) -> tuple[dict, str]:
    """Per request, the median of its normalised timed calls; pass_s sums
    them and request_p50_ms is their median over the workload's requests."""
    # a request that failed on every call has no latency; it shows in `failed`
    per_req = [[statistics.median(x[k] for x in s) for s in samples.values() if s]
               for k in (0, 1)]
    if not per_req[0]:
        sys.exit("error: no request succeeded")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(per_req[0]), "s"),
        "request_p50_ms": (statistics.median(per_req[0]) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    n = sum(len(s) for s in samples.values())
    note = (f"{n} timed calls over {len(per_req[0])} requests; unnormalised: "
            f"pass {sum(per_req[1]):.3f} s, p50 {statistics.median(per_req[1]) * 1000:.2f} ms")
    return metrics, note


def per_layer(client: Client, seconds: float, seed: int, workload: str) -> tuple[dict, str]:
    """Alternate untraced and traced passes (each request once, seeded order),
    as many pairs as fit in the run (at least one).  A traced pass's layer
    times are normalised by the mean speed probe of that pass."""
    import spans

    def one_pass():
        probes, total = [], 0.0
        for i in order:
            timing = client.timed_call(i)
            probes += client.probes
            total += timing[0] if timing else 0.0
        return total, REFERENCE_S / statistics.fmean(probes)

    tracer = spans.Tracer()
    plain, traced, layers, counts = [], [], [], []
    order = range(len(client.requests))
    t0, last = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - t0 + last <= seconds:
        t_pair = time.perf_counter()
        plain.append(one_pass()[0])
        tracer.reset()
        client.tracer = tracer
        with tracer.installed():
            total, scale = one_pass()
        client.tracer = None
        traced.append(total)
        figures = tracer.layer_metrics()
        counts.append({k: figures[k] for k in spans.COUNTS})
        for k in figures:
            if k == "polynomials.pairs_per_s":
                figures[k] /= scale
            elif k not in spans.COUNTS:
                figures[k] *= scale
        layers.append(figures)
        if len(traced) == 1:
            write_spans(tracer.spans, workload, seed)
        last = time.perf_counter() - t_pair
    units = spans.layer_metric_units()
    metrics = {}
    for name, unit in units.items():
        if name in spans.COUNTS:
            metrics[name] = (counts[0][name], unit)
        elif not name.startswith("trace."):
            metrics[name] = (statistics.median(f[name] for f in layers), unit)
    base, with_spans = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = (with_spans - base, "s")
    metrics["trace.overhead_pct"] = (100 * (with_spans - base) / base, "%")
    if any(c != counts[0] for c in counts):
        client.mismatched.add(-1)
        print("# layer counts differ between traced passes", file=sys.stderr)
    note = (f"{len(traced)} traced and {len(plain)} untraced passes; "
            f"untraced {base:.3f} s, traced {with_spans:.3f} s, {len(tracer.spans)} spans")
    return metrics, note


def write_spans(spans_list, workload: str, seed: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for sid, name, start, end, parent, request in spans_list:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "request": request}) + "\n")


def check_outputs(client: Client) -> list[str]:
    import checks

    problems = []
    for i, req in enumerate(client.requests):
        if i not in client.first:
            continue
        rc, text = client.first[i]
        partner = client.first.get(req.partner, (None, None))[1] if req.partner >= 0 else None
        if req.partner >= 0 and partner is None:
            continue
        problems += checks.problems(req, rc, text, partner)
    problems += [f"output of {' '.join(client.requests[i].argv)} changed between calls"
                 for i in sorted(client.mismatched) if i >= 0]
    if -1 in client.mismatched:
        problems.append("per-layer counts changed between passes")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object."""
    setup_s = measure_setup(workload, seed, setup_repeats)
    cli = import_cli()
    requests = workloads.make_requests(workload, seed, tiny)
    client = Client(cli, requests)
    # The first call of a request is slower and is never timed: a warm-up
    # round (or pass) precedes the timed ones.  Every run is whole rounds of
    # the same calls, so a request that always fails is a fixed share.
    if trace:
        for i in range(len(requests)):
            client.call(i)
        with client.timing():
            metrics, note = per_layer(client, seconds, seed, workload)
    else:
        rng = random.Random(f"phase:{workload}:{seed}")
        phase = [rng.random() for _ in requests]
        schedule = sorted(((k + phase[i]) / r.reps, i)
                          for i, r in enumerate(requests) for k in range(r.reps))
        for _, i in schedule:
            client.call(i)
        samples: dict[int, list[tuple[float, float]]] = {i: [] for i in range(len(requests))}
        # whole rounds, as many as fit in the run (at least one)
        with client.timing():
            t0, rounds, last = time.perf_counter(), 0, 0.0
            while rounds == 0 or time.perf_counter() - t0 + last <= seconds:
                t_round = time.perf_counter()
                for _, i in schedule:
                    timing = client.timed_call(i)
                    if timing is not None:
                        samples[i].append(timing)
                rounds += 1
                last = time.perf_counter() - t_round
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, note = end_to_end(samples, setup_s, rss_mb)
        note = f"{rounds} rounds, {note}"
        save_samples(workload, seed, requests, samples)

    t_check = time.perf_counter()
    problems = check_outputs(client)
    note += f"; checked in {time.perf_counter() - t_check:.1f} s"
    for p in problems[:20]:
        print(f"# check: {p}", file=sys.stderr)
    print(f"# {workload} seed={seed} trace={int(trace)}: {note}; "
          f"{client.attempted} calls, {client.failed} failed, {len(problems)} check problems")
    return {
        "correct": not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def save_samples(workload, seed, requests, samples) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"samples-{workload}-seed{seed}.json"
    path.write_text(json.dumps(
        [{"argv": list(r.argv), "normalised": [x[0] for x in samples[i]],
          "raw": [x[1] for x in samples[i]]} for i, r in enumerate(requests)]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        import_cli()
        workloads.make_requests(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    line = json.dumps(result)
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
