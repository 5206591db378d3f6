"""Tests for weight multiplicities, dimensions, and character polynomials."""

import pytest

from satake_fold import (
    CharPoly,
    Coweight,
    builtin_datum,
    builtin_sigma,
    character,
    enumerate_data,
    fold,
    freudenthal_multiplicity,
    invariant_dominant_coweights,
    is_mv,
    longest_element,
    mv_character,
    weyl_dimension,
    weyl_group,
)
from satake_fold.characters import _freudenthal_table


def cw(*coords):
    return Coweight(tuple(coords))


def test_charpoly_from_map_sorts_and_drops_zeros():
    a2 = builtin_datum("A2")
    poly = CharPoly.from_map(
        a2, {cw(1, 1): 1, cw(0, 0): 2, cw(5, 5): 0, cw(1, 0): 1, cw(0, 1): 1}
    )
    assert [lam.coords for lam, _ in poly.terms] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert poly.multiplicity(cw(0, 0)) == 2
    assert poly.multiplicity(cw(5, 5)) == 0
    assert poly.multiplicity(cw(9, 9)) == 0
    assert poly.mass() == 5
    assert [v.coords for v in poly.support()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_charpoly_json():
    a1 = builtin_datum("A1")
    poly = character(a1, cw(1))
    assert poly.to_json_dict() == {
        "terms": [
            {"coweight": [-1], "mult": 1},
            {"coweight": [0], "mult": 1},
            {"coweight": [1], "mult": 1},
        ]
    }


def test_charpoly_equality():
    a2 = builtin_datum("A2")
    assert character(a2, cw(1, 1)) == character(a2, cw(1, 1))
    assert character(a2, cw(1, 1)) != character(a2, cw(0, 0))


def test_freudenthal_adjoint_a2():
    a2 = builtin_datum("A2")
    mu = cw(1, 1)
    assert freudenthal_multiplicity(a2, mu, mu) == 1
    assert freudenthal_multiplicity(a2, mu, cw(0, 0)) == 2
    assert freudenthal_multiplicity(a2, mu, cw(1, 0)) == 1
    assert freudenthal_multiplicity(a2, mu, cw(-1, -1)) == 1
    assert freudenthal_multiplicity(a2, mu, cw(5, 5)) == 0


def test_weyl_dimension_values():
    assert weyl_dimension(builtin_datum("A1"), cw(1)) == 3
    a2 = builtin_datum("A2")
    assert weyl_dimension(a2, cw(0, 0)) == 1
    assert weyl_dimension(a2, cw(1, 1)) == 8
    assert weyl_dimension(builtin_datum("A3"), cw(1, 1, 1)) == 15
    assert weyl_dimension(builtin_datum("A4"), cw(1, 1, 1, 1)) == 24
    assert weyl_dimension(builtin_datum("D4"), cw(1, 2, 1, 1)) == 28


def test_weyl_dimension_needs_dominant_input():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError) as excinfo:
        weyl_dimension(a2, cw(-1, 0))
    assert "dominant" in str(excinfo.value)


def test_character_a1():
    a1 = builtin_datum("A1")
    poly = character(a1, cw(1))
    assert {lam.coords: m for lam, m in poly.terms} == {(-1,): 1, (0,): 1, (1,): 1}
    assert character(a1, cw(0)).terms == ((cw(0), 1),)


def test_character_adjoint_a2():
    a2 = builtin_datum("A2")
    poly = character(a2, cw(1, 1))
    assert len(poly.terms) == 7
    assert poly.mass() == 8
    assert poly.multiplicity(cw(0, 0)) == 2
    for v in a2.positive_coroots():
        assert poly.multiplicity(v) == 1
        assert poly.multiplicity(-v) == 1


def test_character_mass_equals_dimension():
    for name, bound in [("A1", 5), ("A2", 5), ("A3", 5), ("A4", 4)]:
        datum = builtin_datum(name)
        sigma = builtin_sigma("identity", datum)
        for mu in invariant_dominant_coweights(datum, sigma, bound):
            poly = character(datum, mu)
            assert poly.mass() == weyl_dimension(datum, mu), (name, mu)
    d4 = builtin_datum("D4")
    assert character(d4, cw(1, 2, 1, 1)).mass() == 28


def test_character_is_weyl_invariant():
    a2 = builtin_datum("A2")
    group = weyl_group(a2)
    mu = cw(2, 1)
    poly = character(a2, mu)
    for w in group.elements():
        for lam, m in poly.terms:
            assert poly.multiplicity(w.apply(lam)) == m


def test_character_saturation():
    a2 = builtin_datum("A2")
    mu = cw(2, 2)
    poly = character(a2, mu)
    assert poly.multiplicity(mu) == 1
    for lam in a2.weight_set(mu):
        if a2.is_dominant(lam) and a2.dominance_le(lam, mu):
            assert poly.multiplicity(lam) >= 1, lam


def test_character_rejects_non_dominant():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError):
        character(a2, cw(0, -1))
    with pytest.raises(ValueError):
        mv_character(a2, cw(0, -1))


def test_mv_character_matches_freudenthal_a2():
    a2 = builtin_datum("A2")
    assert mv_character(a2, cw(1, 1)) == character(a2, cw(1, 1))
    assert mv_character(a2, cw(0, 0)) == character(a2, cw(0, 0))


def test_mv_character_matches_freudenthal_a3():
    a3 = builtin_datum("A3")
    mu = cw(1, 1, 1)
    assert mv_character(a3, mu) == character(a3, mu)


def test_polytope_count_matches_freudenthal_at_the_zero_weight_of_d4():
    # Counting only the zero-weight data keeps the largest builtin case
    # affordable: 15 candidates, of which 4 satisfy the vertex inequalities.
    d4 = builtin_datum("D4")
    mu = cw(1, 2, 1, 1)
    word = longest_element(d4).word
    data = enumerate_data(d4, word, -mu)
    assert len(data) == 15
    hits = sum(1 for L in data if is_mv(d4, L, mu))
    assert hits == 4
    assert freudenthal_multiplicity(d4, mu, cw(0, 0, 0, 0)) == 4


def _pairing_form(datum):
    """Integer form on coweights: sum of root-pairing products, Weyl invariant."""
    roots = [a.coords for a in datum.positive_roots()]

    def form(x, y):
        return sum(
            sum(p * q for p, q in zip(a, x)) * sum(p * q for p, q in zip(a, y)) for a in roots
        )

    return form


def _freudenthal_oracle(datum, mu):
    """Freudenthal's recursion at every weight of mu, in reversed(weight_set) order."""
    weights = datum.weight_set(mu)
    form = _pairing_form(datum)
    two_rho_vee = datum.two_rho_vee().coords
    coroots = [b.coords for b in datum.positive_coroots()]
    known = {lam.coords for lam in weights}
    table = {}
    for lam in reversed(weights):
        lc = lam.coords
        if lc == mu.coords:
            table[lc] = 1
            continue
        rhs = 0
        for beta in coroots:
            cur = lc
            while True:
                cur = tuple(a + b for a, b in zip(cur, beta))
                if cur not in known:
                    break
                rhs += table[cur] * form(cur, beta)
        denom = form(
            tuple(m + l + t for m, l, t in zip(mu.coords, lc, two_rho_vee)),
            tuple(m - l for m, l in zip(mu.coords, lc)),
        )
        assert denom > 0 and (2 * rhs) % denom == 0, (lc, rhs, denom)
        table[lc] = (2 * rhs) // denom
    return table


def _folded(group, sigma):
    datum = builtin_datum(group)
    return fold(datum, builtin_sigma(sigma, datum)).datum


# The folded data are not simply laced (D4-rot3 folds to G2, A4-flip to C2),
# so a form that is right only up to a symmetrizer shows up there.
FREUDENTHAL_CASES = [
    ("A1", lambda: builtin_datum("A1"), [(0,), (1,), (4,)]),
    ("A2", lambda: builtin_datum("A2"), [(0, 0), (1, 1), (2, 1), (3, 2)]),
    ("pgl3", lambda: builtin_datum("pgl3"), [(1, 0), (1, 1), (2, 3)]),
    ("A3", lambda: builtin_datum("A3"), [(1, 1, 1), (1, 2, 1), (2, 3, 2)]),
    ("A4", lambda: builtin_datum("A4"), [(1, 1, 1, 1), (1, 2, 2, 1), (2, 2, 2, 2)]),
    ("D4", lambda: builtin_datum("D4"), [(1, 2, 1, 1), (2, 2, 1, 1), (2, 3, 2, 2), (2, 4, 2, 2)]),
    ("D4-rot3 fold", lambda: _folded("D4", "D4-rot3"), [(2, 1), (3, 2), (6, 4)]),
    ("A4-flip fold", lambda: _folded("A4", "A4-flip"), [(1, 1), (3, 2), (4, 4)]),
]


@pytest.mark.parametrize("name,make,mus", FREUDENTHAL_CASES, ids=[c[0] for c in FREUDENTHAL_CASES])
def test_dominant_only_recursion_matches_the_all_weights_oracle(name, make, mus):
    datum = make()
    for coords in mus:
        mu = cw(*coords)
        table = _freudenthal_table(datum, mu)
        assert list(table.items()) == list(_freudenthal_oracle(datum, mu).items()), (name, coords)
        assert list(table) == [w.coords for w in reversed(datum.weight_set(mu))], (name, coords)


@pytest.mark.parametrize("name,make,mus", FREUDENTHAL_CASES, ids=[c[0] for c in FREUDENTHAL_CASES])
def test_character_reads_the_table_in_charpoly_order(name, make, mus):
    datum = make()
    for coords in mus:
        mu = cw(*coords)
        table = _freudenthal_table(datum, mu)
        expected = CharPoly.from_map(datum, {Coweight(c): m for c, m in table.items()})
        assert character(datum, mu).terms == expected.terms, (name, coords)
