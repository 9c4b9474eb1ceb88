"""Labels are display-only: formatted when first read, never by the checks.

A meet table's labels, the labels of a quotient or an ideal semigroup, a
Γ's vertex labels and the names of the Armendariz corpus maps are each
formatted only when something reads them, and every verdict reads none.
"""

import contextlib
import io
import json
import pathlib

import pytest

from table_oracles import eager_mask_labels
from zdgraph import corpus, semigroups, spectra
from zdgraph.cli import main
from zdgraph.graphs import twin_quotient, zero_divisor_graph
from zdgraph.rings import IdealIndex, ideal_semigroup, ring_from_spec
from zdgraph.semigroups import Labels, SemigroupTable, eq_quotient, labels_at, meet_table
from zdgraph.spectra import FinitePoset, sigma_spec, upset_masks
from zdgraph.topology import FiniteSpace, closure_lattice

INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def _counting(monkeypatch, owner, name) -> list:
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_labels_format_each_label_once_when_first_read():
    made = []
    L = Labels(4, lambda i: made.append(i) or f"x{i}")
    assert len(L) == 4 and made == []
    assert L[2] == "x2" and L[-1] == "x3" and made == [2, 3]
    assert L[2] == "x2" and made == [2, 3]  # kept
    assert L[1:3] == ("x1", "x2") and made == [2, 3, 1]
    assert list(L) == ["x0", "x1", "x2", "x3"] and made == [2, 3, 1, 0]
    with pytest.raises(IndexError):
        L[4]


def test_labels_equal_hash_and_print_as_the_tuple_of_their_labels():
    L = Labels(2, lambda i: "ab"[i])
    assert L == ("a", "b") and ("a", "b") == L and L == Labels(2, lambda i: "ab"[i])
    assert L != ("a", "c") and L != ["a", "b"] and L != ("a",)
    assert hash(L) == hash(("a", "b")) and repr(L) == repr(("a", "b"))


def test_a_view_reads_only_the_labels_it_is_asked_for():
    made = []
    parent = Labels(5, lambda i: made.append(i) or str(i))
    view = labels_at(parent, [4, 1])
    assert len(view) == 2 and made == []
    assert view[0] == "4" and made == [4]
    assert tuple(view) == ("4", "1") and made == [4, 1]


def _golden_lattices():
    """The closed-set lattice of every valid poset and space file, with the
    points and members it is built on."""
    out = []
    for path in sorted(INPUTS.glob("*.json")):
        kind = path.name.split("_")[0]
        if kind not in ("poset", "space"):
            continue
        try:
            X = (FinitePoset if kind == "poset" else FiniteSpace).from_json(path.read_text())
        except ValueError:
            continue
        if kind == "poset":
            out.append((X.points, upset_masks(X.leq), sigma_spec(X)))
        else:
            out.append((X.points, X.closed_sets, closure_lattice(X)))
    return out


def test_lazy_set_labels_equal_the_eager_ones_on_every_golden_lattice():
    lattices = _golden_lattices()
    assert len(lattices) == 12
    for points, masks, T in lattices:
        want = eager_mask_labels(points, masks)
        assert isinstance(T.elements, Labels) and T.size == len(want)
        assert tuple(T.elements) == tuple(want)
        G = zero_divisor_graph(T)
        zd = [i for i, m in enumerate(masks) if 0 < m and any(m & n == 0 for n in masks if n)]
        assert list(G.vertices) == [want[i] for i in zd]
        H, _ = twin_quotient(G)
        assert set(H.vertices) <= set(G.vertices)


def test_a_lazily_labelled_table_equals_and_hashes_as_the_eager_one():
    masks = [0b00, 0b01, 0b10, 0b11]
    T = meet_table(["a", "b"], masks)
    eager = SemigroupTable(tuple(eager_mask_labels(["a", "b"], masks)), T.zero, T.product)
    assert T == eager and hash(T) == hash(eager)
    renamed = meet_table(["a", "c"], masks)
    assert renamed != T and renamed.structure_key() == T.structure_key()


def test_quotient_and_ideal_labels_are_formatted_when_read(monkeypatch):
    read = _counting(monkeypatch, IdealIndex, "label")
    S = ideal_semigroup(ring_from_spec("Zn:12"), "mult").table
    assert read == [] and S.size == 6
    assert S.elements[S.zero] == "(0)" and len(read) == 1
    q = eq_quotient(meet_table(["a", "b"], [0b00, 0b01, 0b10, 0b11]))
    assert q.quotient.elements == ("[{}]", "[{a}]", "[{b}]", "[{a,b}]")


@pytest.mark.parametrize("argv", [["armendariz"], ["specs", "--max-points", "3"]])
def test_a_passing_verify_formats_no_meet_label_and_no_corpus_name(monkeypatch, argv):
    labels = _counting(monkeypatch, semigroups, "mask_label")
    names = [_counting(monkeypatch, cls, "to_json") for cls in (FinitePoset, FiniteSpace)]
    names.append(_counting(monkeypatch, corpus.MapName, "__str__"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", *argv]) == 0
    assert labels == [] and names == [[], [], []]


def test_a_failing_map_reports_its_representatives_json_name(monkeypatch, capsys):
    # the restriction map of the one-point poset sends its whole lattice to
    # the empty set, which no Armendariz map may do
    real, broken = spectra.restrict_to_max, []

    def restrict(P):
        g = real(P)
        if not broken:
            broken.append(P)
            g = semigroups.SemigroupMap(g.source, g.target, (0,) * g.source.size)
        return g

    monkeypatch.setattr(spectra, "restrict_to_max", restrict)
    assert main(["verify", "armendariz", "--max-points", "1", "--json"]) == 2
    items = json.loads(capsys.readouterr().out)["items"]
    details = items[1]["details"]
    assert broken and f"first: ('max restriction of {broken[0].to_json()}'" in details
    assert "map is not Armendariz" in details


def test_graph_sizes_are_read_from_rows_not_labels():
    T = meet_table(["a", "b", "c"], [0, 1, 2, 4, 3, 5, 6, 7])
    G = zero_divisor_graph(T)
    assert T.size == T.product.shape[0] == 8 and G.n == len(G.adj) == 6
    assert all(text is None for text in T.elements._kept)  # none formatted
