import pytest

import numpy as np

from table_oracles import compose, identity_map, mask
from zdgraph.semigroups import (
    NotNilpotentFree,
    SemigroupMap,
    SemigroupTable,
    annihilator,
    check_armendariz,
    check_homomorphism,
    eq_quotient,
    induced_final_map,
    is_nilpotent_free,
    mask_row,
    members,
    row_masks,
    row_union,
    validate_semigroup,
    zero_divisors,
)


def zn_mul(n):
    return SemigroupTable(
        tuple(str(i) for i in range(n)),
        0,
        tuple(tuple((a * b) % n for b in range(n)) for a in range(n)),
    )


def test_validate_accepts_ring_multiplication():
    assert validate_semigroup(zn_mul(6)).ok


def test_validate_accepts_one_element_table():
    t = SemigroupTable(("0",), 0, ((0,),))
    assert validate_semigroup(t).ok


def test_validate_rejects_noncommutative_with_witness():
    rows = [[(a * b) % 5 for b in range(5)] for a in range(5)]
    rows[1][2] = 3
    rows[2][1] = 4
    t = SemigroupTable(tuple("01234"), 0, tuple(tuple(r) for r in rows))
    res = validate_semigroup(t)
    assert not res.ok
    assert res.law == "commutative"
    assert res.witness == (1, 2)


def test_validate_rejects_nonassociative():
    # x*x = y on a 3-element set breaks (x*x)*x = x*(x*x) after tweaking
    rows = [[0, 0, 0], [0, 2, 1], [0, 1, 0]]
    t = SemigroupTable(("0", "x", "y"), 0, tuple(tuple(r) for r in rows))
    res = validate_semigroup(t)
    assert not res.ok
    assert res.law == "associative"
    assert len(res.witness) == 3


def test_validate_rejects_nonabsorbing():
    rows = [[0, 1], [1, 1]]
    t = SemigroupTable(("0", "1"), 0, tuple(tuple(r) for r in rows))
    res = validate_semigroup(t)
    assert not res.ok
    assert res.law == "absorbing"


def test_nilpotent_free():
    assert is_nilpotent_free(zn_mul(6))
    assert not is_nilpotent_free(zn_mul(4))


def test_annihilators():
    t = zn_mul(6)
    assert annihilator(t, 2) == mask({0, 3})
    assert annihilator(t, 5) == mask({0})
    assert annihilator(t, 0) == mask(set(range(6)))
    with pytest.raises(IndexError):
        annihilator(t, 7)


def test_zero_divisors():
    assert zero_divisors(zn_mul(6)) == mask({2, 3, 4})
    assert zero_divisors(zn_mul(5)) == mask(frozenset())
    assert zero_divisors(zn_mul(4)) == mask({2})


@pytest.mark.parametrize("cofinite", [-1, ~0b101, -(1 << 70)])
def test_cofinite_masks_have_no_members_or_row_union(cofinite):
    # a negative mask is a cofinite set: listing it would never end
    with pytest.raises(ValueError, match="cofinite"):
        list(members(cofinite))
    with pytest.raises(ValueError, match="cofinite"):
        row_union([1, 2, 4], cofinite)
    assert list(members(0b101)) == [0, 2] and row_union([1, 2, 4], 0b101) == 5


def test_mask_rows_round_trip():
    cases = ((0, [0]), (1, [1, 0]), (8, [0b10000001, 0, 0xFF]), (9, [1 << 8, 0b1]),
             (70, [(1 << 70) - 1, 0b1011 << 60, 1 << 69]))
    for n, masks in cases:
        rows = np.array([mask_row(m, n) for m in masks]).reshape(len(masks), n)
        assert rows.dtype == bool
        assert [np.flatnonzero(r).tolist() for r in rows] == [list(members(m)) for m in masks]
        assert row_masks(rows) == masks


def test_eq_quotient_z6():
    q = eq_quotient(zn_mul(6))
    assert q.classes == ((0,), (1, 5), (2, 4), (3,))
    assert q.quotient.elements == ("[0]", "[1]", "[2]", "[3]")
    assert check_armendariz(q.projection).is_armendariz
    assert check_homomorphism(q.projection).ok
    assert is_nilpotent_free(q.quotient)


def test_eq_quotient_singleton_partition_is_bijective_on_zero_divisors():
    # distinct annihilators everywhere: the quotient relabels injectively
    t = zn_mul(10)
    q = eq_quotient(t)
    zd = frozenset(members(zero_divisors(t)))
    images = {q.projection(s) for s in zd}
    classes_of_zd = [c for c in q.classes if set(c) & zd]
    assert len(images) == len(classes_of_zd)


def test_eq_quotient_strict_rejects_nilpotents():
    with pytest.raises(NotNilpotentFree):
        eq_quotient(zn_mul(4))


def test_eq_quotient_permissive_z4():
    q = eq_quotient(zn_mul(4), permissive=True)
    assert len(q.classes) == 3  # {0}, {2}, {1,3}


def test_check_armendariz_reduction_map_fails_zero_reflection():
    source = zn_mul(6)
    target = zn_mul(3)
    g = SemigroupMap(source, target, tuple(x % 3 for x in range(6)))
    rep = check_armendariz(g)
    assert rep.surjective
    assert not rep.zero_preserving_reflecting
    assert rep.zero_witness == 3
    assert not rep.is_armendariz


def test_check_armendariz_identity():
    rep = check_armendariz(identity_map(zn_mul(6)))
    assert rep.is_armendariz


def test_check_homomorphism_violation_witness():
    # swap two values to break multiplicativity
    source = zn_mul(3)
    g = SemigroupMap(source, source, (0, 2, 1))
    rep = check_homomorphism(g)
    assert not rep.ok
    assert rep.witness is not None


def test_check_homomorphism_zero_semigroup():
    z = SemigroupTable(("0",), 0, ((0,),))
    assert check_homomorphism(SemigroupMap(z, z, (0,))).ok


def test_induced_final_map_of_projection_is_identity():
    q = eq_quotient(zn_mul(6))
    h = induced_final_map(q.projection)
    assert h.assignment == tuple(range(q.quotient.size))
    composed = compose(h, q.projection)
    assert composed.assignment == q.projection.assignment


def test_induced_final_map_through_bijection():
    t = zn_mul(6)
    perm = (0, 5, 4, 3, 2, 1)  # negation mod 6 is a mult. automorphism
    prod = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            prod[perm[a]][perm[b]] = perm[t.product[a][b]]
    target = SemigroupTable(t.elements, 0, tuple(tuple(r) for r in prod))
    g = SemigroupMap(t, target, perm)
    assert check_armendariz(g).is_armendariz
    h = induced_final_map(g)
    e = eq_quotient(t).projection
    assert all(h(g(s)) == e(s) for s in range(6))


def test_induced_final_map_rejects_non_armendariz():
    g = SemigroupMap(zn_mul(6), zn_mul(3), tuple(x % 3 for x in range(6)))
    with pytest.raises(ValueError):
        induced_final_map(g)


def test_json_round_trip():
    t = zn_mul(6)
    assert SemigroupTable.from_json(t.to_json()) == t


def test_map_totality_enforced():
    with pytest.raises(ValueError):
        SemigroupMap(zn_mul(3), zn_mul(3), (0, 1))
    with pytest.raises(ValueError):
        SemigroupMap(zn_mul(3), zn_mul(3), (0, 1, 5))


def test_an_armendariz_report_needs_a_witness_exactly_on_failure():
    from zdgraph.semigroups import ArmendarizReport

    with pytest.raises(ValueError, match="surjective=False needs a witness exactly when False"):
        ArmendarizReport(False, True, True)
    with pytest.raises(ValueError, match="product_zero_equiv=True needs a witness"):
        ArmendarizReport(True, True, True, product_witness=(0, 1))
    assert ArmendarizReport(False, True, True, surjective_witness=2).surjective_witness == 2
