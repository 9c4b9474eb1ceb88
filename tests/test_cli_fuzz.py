"""The CLI on malformed and boundary spec strings, called in process.

Every request must end with exit status 0, 1 or 2, raise nothing out of
``main`` (the CLI's traceback), and finish within ``ALARM_S`` seconds.
Orders stay at most about 64 so the cases run in milliseconds.
"""

import contextlib
import io
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from zdgraph.cli import main

ALARM_S = 5


class Hang(BaseException):
    """Raised by the alarm; not an Exception, so nothing in the CLI catches it."""


def _alarm(signum, frame):
    raise Hang(f"no answer within {ALARM_S} s")


def run(argv) -> tuple[int, str]:
    """The exit status and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag with status 2
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def check(argv) -> None:
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Spec strings

small = st.integers(min_value=-2, max_value=12)
names = st.lists(st.sampled_from(["x", "y", "", "x", "xy", " "]), max_size=3)


@st.composite
def mvq_specs(draw):
    variables = draw(names)
    rels = draw(st.lists(
        st.text(alphabet="xy0123", max_size=4), max_size=3))
    p = draw(st.sampled_from([0, 1, 2, 3, 4]))
    return f"mvq:p={p};vars={','.join(variables)};rel={','.join(rels)}"


@st.composite
def polyquot_specs(draw):
    p = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7]))
    mod = draw(st.lists(st.integers(min_value=-1, max_value=6), max_size=3))
    return f"polyquot:p={p};mod={','.join(map(str, mod))}"


def _factor():
    return st.builds("{}:{}".format, st.sampled_from(["Zn", "gf"]),
                     st.integers(min_value=-2, max_value=8))


ring_specs = st.one_of(
    st.builds("Zn:{}".format, st.integers(min_value=-2, max_value=64)),
    st.builds("gf:{}".format, st.integers(min_value=-2, max_value=64)),
    st.builds(lambda fs: "prod:" + ",".join(fs), st.lists(_factor(), max_size=2)),
    polyquot_specs(),
    mvq_specs(),
    st.text(alphabet="Zngfpromvq:;,=xy0123-", max_size=12),
)
lattice_specs = st.one_of(
    st.builds("powerset:{}".format, small),
    st.sampled_from(["symbolic-cofinite", "powerset:", "powerset:x", "cofinite"]),
)
fan_specs = st.one_of(
    st.builds("fan:disjoint={}".format, small),
    st.builds("fan:generics={};sharing={}".format, small, st.sampled_from(["all", "none", ""])),
    st.builds("fan:{}".format, st.text(alphabet="generics=disjoint;al0-2", max_size=10)),
)
degrees = st.integers(min_value=-2, max_value=3)

requests = st.one_of(
    st.builds(lambda r: ["analyze", "--ring", r], ring_specs),
    st.builds(lambda r, c, d: ["analyze", "--ring", r, "--check", c, "--degree", str(d)],
              ring_specs, st.sampled_from(["armendariz", "gaussian", "clique-stab"]), degrees),
    st.builds(lambda L, t: ["analyze", "--lattice", L, "--tasks", t],
              lattice_specs, st.sampled_from(["t1", "invariants", "t1,invariants"])),
    st.builds(lambda L, f: ["export", "--lattice", L, "--format", f],
              lattice_specs, st.sampled_from(["dot", "json"])),
    st.builds(lambda P, t: ["analyze", "--poset", P, "--tasks", t],
              fan_specs, st.sampled_from(["specs-suite", "invariants"])),
    st.builds(lambda d, m: ["verify", "content", "--degree", str(d), "--max-order", str(m)],
              degrees, st.integers(min_value=2, max_value=4)),
)


# the empty-name spec hung: an empty variable name matched every position
# of a monomial without advancing
@example(["analyze", "--ring", "mvq:p=2;vars=;rel=x2"])
@example(["analyze", "--ring", "mvq:p=2;vars=x,;rel=x2"])
@example(["analyze", "--ring", "mvq:p=2;vars=x,x;rel=x2"])
@example(["analyze", "--lattice", "powerset:-1", "--tasks", "t1"])
@example(["analyze", "--ring", "Zn:6", "--check", "clique-stab", "--degree", "-2"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(requests)
def test_cli_answers_every_request(argv):
    check(argv)


# ---------------------------------------------------------------------------
# Pinned answers


@pytest.mark.parametrize("spec,message", [
    ("mvq:p=2;vars=;rel=x2", "variable 1 has an empty name"),
    ("mvq:p=2;vars=x,;rel=x2", "variable 2 has an empty name"),
    ("mvq:p=2;vars=x,x;rel=x2", "variable 'x' is named twice"),
])
def test_bad_variable_names_are_input_errors(spec, message):
    assert run(["analyze", "--ring", spec]) == (1, f"error: {message}\n")


@pytest.mark.parametrize("argv,bad", [
    (["analyze", "--ring", "Zn:6", "--check", "armendariz", "--degree", "-1"], "-1"),
    (["analyze", "--ring", "Zn:6", "--check", "gaussian", "--degree", "-1"], "-1"),
    (["analyze", "--ring", "Zn:6", "--check", "clique-stab", "--degree", "-2"], "-2"),
    (["verify", "content", "--degree", "-1"], "-1"),
])
def test_negative_degree_bounds_are_input_errors(argv, bad):
    assert run(argv) == (1, f"error: degree bound must be >= 0, not {bad}\n")


def test_negative_powerset_ground_is_an_input_error():
    assert run(["analyze", "--lattice", "powerset:-1", "--tasks", "t1"]) == (
        1, "error: a powerset lattice needs a ground size >= 0, not -1\n")
