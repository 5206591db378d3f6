"""Tests for lattice vectors, root data, and the built-in catalogue."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake_fold import (
    Coweight,
    InputError,
    InvalidDatumError,
    RationalCoweight,
    RootDatum,
    Weight,
    builtin_datum,
    builtin_sigma,
    character,
    datum_from_json_dict,
    fold,
    load_datum,
    pairing,
    validate,
    weyl_dimension,
)

BUILTIN_NAMES = ("A1", "A2", "A3", "A4", "D4", "sl5", "pgl3")


def wt(*coords):
    return Weight(tuple(coords))


def cw(*coords):
    return Coweight(tuple(coords))


def gl2_style_datum():
    """Rank-one datum inside a two-dimensional lattice, with a central line."""
    return RootDatum(2, [wt(1, -1)], [cw(1, -1)])


def test_vector_arithmetic():
    a = cw(1, 2)
    b = cw(3, -1)
    assert (a + b).coords == (4, 1)
    assert (a - b).coords == (-2, 3)
    assert (-a).coords == (-1, -2)
    assert a.scale(3).coords == (3, 6)
    assert a.to_rational().coords == (Fraction(1), Fraction(2))
    assert pairing(wt(2, -1), cw(1, 1)) == 1
    assert pairing(wt(1, 0), RationalCoweight((Fraction(1, 2), Fraction(0)))) == Fraction(1, 2)


def test_builtin_data_are_valid():
    for name in BUILTIN_NAMES:
        assert validate(builtin_datum(name)) == [], name


def test_unknown_builtin_name():
    with pytest.raises(InputError) as excinfo:
        builtin_datum("E8")
    assert "unknown built-in datum" in str(excinfo.value)


@pytest.mark.parametrize(
    "name, rank, n_positive",
    [
        ("A1", 1, 1),
        ("A2", 2, 3),
        ("A3", 3, 6),
        ("A4", 4, 10),
        ("D4", 4, 12),
        ("sl5", 4, 10),
        ("pgl3", 2, 3),
    ],
)
def test_positive_root_counts(name, rank, n_positive):
    datum = builtin_datum(name)
    assert datum.rank == rank
    assert len(datum.positive_roots()) == n_positive
    assert len(datum.positive_coroots()) == n_positive


def test_sl5_is_an_alias_for_a4():
    assert builtin_datum("sl5") == builtin_datum("A4")


def test_cartan_matrices():
    a3 = builtin_datum("A3")
    assert a3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    d4 = builtin_datum("D4")
    assert d4.cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


def test_simply_connected_convention():
    # Coroot-basis builtins: simple coroots are unit vectors, roots are
    # the Cartan rows.
    a2 = builtin_datum("A2")
    assert tuple(v.coords for v in a2.simple_coroots) == ((1, 0), (0, 1))
    assert tuple(x.coords for x in a2.simple_roots) == ((2, -1), (-1, 2))


def test_pgl3_root_basis_convention():
    # pgl3 lives in the root lattice: simple roots are unit vectors and
    # the coroots carry the Cartan columns.
    p = builtin_datum("pgl3")
    assert tuple(x.coords for x in p.simple_roots) == ((1, 0), (0, 1))
    assert tuple(v.coords for v in p.simple_coroots) == ((2, -1), (-1, 2))


def test_positive_roots_a2():
    a2 = builtin_datum("A2")
    assert {x.coords for x in a2.positive_roots()} == {(2, -1), (-1, 2), (1, 1)}
    assert {v.coords for v in a2.positive_coroots()} == {(1, 0), (0, 1), (1, 1)}


def test_positive_system_alignment():
    # positive_roots()[k] and positive_coroots()[k] are a root/coroot pair,
    # so their pairing is always 2.
    for name in BUILTIN_NAMES:
        datum = builtin_datum(name)
        roots = datum.positive_roots()
        coroots = datum.positive_coroots()
        for x, v in zip(roots, coroots):
            assert pairing(x, v) == 2


def test_positive_system_order():
    # Sorted by height (sum of simple-root coefficients) and then by
    # coordinates, so the three height-one entries are the simple roots.
    a3 = builtin_datum("A3")
    roots = a3.positive_roots()
    assert {x.coords for x in roots[:3]} == {x.coords for x in a3.simple_roots}
    assert [x.coords for x in roots[:3]] == sorted(x.coords for x in a3.simple_roots)
    table = a3.coroot_coefficient_table()
    coroots = a3.positive_coroots()
    heights = [sum(table[v.coords]) for v in coroots]
    assert heights == sorted(heights)


def test_root_sign():
    a2 = builtin_datum("A2")
    theta = wt(1, 1)
    assert a2.root_sign(theta) == 1
    assert a2.root_sign(-theta) == -1
    with pytest.raises(ValueError) as excinfo:
        a2.root_sign(wt(5, 5))
    assert "is not a root" in str(excinfo.value)


def test_rho_values():
    a1 = builtin_datum("A1")
    assert a1.rho_vee().coords == (Fraction(1, 2),)
    a2 = builtin_datum("A2")
    assert a2.rho_vee().coords == (Fraction(1), Fraction(1))
    assert a2.two_rho_vee().coords == (2, 2)
    assert a2.two_rho().coords == (2, 2)
    a3 = builtin_datum("A3")
    assert a3.rho_vee().coords == (Fraction(3, 2), Fraction(2), Fraction(3, 2))


def test_rho_vee_pairs_to_one_with_simple_roots():
    for name in BUILTIN_NAMES:
        datum = builtin_datum(name)
        rho_vee = datum.rho_vee()
        for alpha in datum.simple_roots:
            assert pairing(alpha, rho_vee) == 1


def test_height2():
    a2 = builtin_datum("A2")
    assert a2.height2(cw(1, 1)) == 4
    assert a2.height2(cw(0, 0)) == 0
    assert a2.height2(RationalCoweight((Fraction(1, 2), Fraction(0)))) == Fraction(1)


def test_coroot_coefficients():
    p = builtin_datum("pgl3")
    coeffs = p.coroot_coefficients(cw(1, 1))
    assert coeffs == (Fraction(1), Fraction(1))
    g = gl2_style_datum()
    assert g.coroot_coefficients(cw(1, -1)) == (Fraction(1),)
    # (1, 0) has a central component, so it is not in the coroot span.
    assert g.coroot_coefficients(cw(1, 0)) is None


def test_dominance_basic():
    a2 = builtin_datum("A2")
    theta_vee = cw(1, 1)
    assert a2.dominance_le(cw(1, 0), theta_vee)
    assert not a2.dominance_le(cw(1, 0), cw(0, 1))
    assert a2.dominance_le(cw(0, 0), theta_vee)
    assert a2.dominance_le(cw(0, 0), theta_vee, mode="rational")
    assert not a2.dominance_le(theta_vee, cw(0, 0))


def test_dominance_modes_differ_off_the_coroot_lattice():
    # PGL2-style datum: the character lattice is the root lattice, so half
    # of it sits outside the coroot lattice.
    pgl2 = RootDatum(1, [wt(1)], [cw(2)])
    assert validate(pgl2) == []
    lam, mu = cw(0), cw(1)
    assert not pgl2.dominance_le(lam, mu, mode="integer")
    assert pgl2.dominance_le(lam, mu, mode="rational")


def test_dominance_unknown_mode():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError) as excinfo:
        a2.dominance_le(cw(0, 0), cw(1, 1), mode="real")
    assert "unknown dominance mode" in str(excinfo.value)


def test_twisted_dominance():
    from satake_fold import longest_element, weyl_group

    a2 = builtin_datum("A2")
    group = weyl_group(a2)
    e = group.element(())
    w0 = longest_element(a2)
    pts = [cw(0, 0), cw(1, 1), cw(1, 0), cw(0, 1), cw(-1, -1)]
    for lam in pts:
        for mu in pts:
            assert a2.le_w(e, lam, mu) == a2.dominance_le(lam, mu)
            # The longest element reverses the order.
            assert a2.le_w(w0, lam, mu) == a2.dominance_le(mu, lam)


def test_is_dominant_and_representative():
    a2 = builtin_datum("A2")
    assert a2.is_dominant(cw(1, 1))
    assert not a2.is_dominant(cw(-1, 2))
    assert a2.dominant_representative(cw(-1, -1)).coords == (1, 1)
    # s2 sends (2, -1) to (2, -1) + 4 * (0, 1) = (2, 3), which is dominant.
    assert a2.dominant_representative(cw(2, -1)).coords == (2, 3)
    assert a2.dominant_representative(cw(0, 0)).coords == (0, 0)


def test_weight_set_a2_adjoint():
    a2 = builtin_datum("A2")
    ws = a2.weight_set(cw(1, 1))
    assert len(ws) == 7
    coords = {v.coords for v in ws}
    assert coords == {
        (0, 0),
        (1, 1),
        (-1, -1),
        (1, 0),
        (0, 1),
        (-1, 0),
        (0, -1),
    }


def test_weight_set_a1():
    a1 = builtin_datum("A1")
    ws = a1.weight_set(cw(1))
    assert {v.coords for v in ws} == {(-1,), (0,), (1,)}
    assert a1.weight_set(cw(0)) == (cw(0),)


def test_weight_set_is_weyl_stable():
    from satake_fold import weyl_group

    a2 = builtin_datum("A2")
    group = weyl_group(a2)
    ws = set(a2.weight_set(cw(2, 1)))
    for w in group.elements():
        assert {w.apply(v) for v in ws} == ws


def test_weight_set_needs_dominant_input():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError) as excinfo:
        a2.weight_set(cw(-1, 0))
    assert "dominant" in str(excinfo.value)


def _weight_set_oracle(datum, mu):
    """The hull-membership weight set: walk from mu by +-simple coroots, keeping
    each point whose dominant representative is <= mu with rational coefficients."""
    seen = {mu.coords}
    frontier = [mu.coords]
    found = [mu.coords]
    while frontier:
        nxt = []
        for coords in frontier:
            for cv in datum.simple_coroots:
                for sign in (1, -1):
                    cand = tuple(a + sign * b for a, b in zip(coords, cv.coords))
                    if cand not in seen:
                        seen.add(cand)
                        dom = datum.dominant_representative(Coweight(cand))
                        if datum.dominance_le(dom, mu, "rational"):
                            nxt.append(cand)
                            found.append(cand)
        frontier = nxt
    out = [Coweight(c) for c in found]
    out.sort(key=lambda v: (datum.height2(v), v.coords))
    return tuple(out)


def _folded(group, sigma):
    datum = builtin_datum(group)
    return fold(datum, builtin_sigma(sigma, datum)).datum


# Folded data are not simply laced: D4-rot3 folds to G2, A4-flip to type C2.
WEIGHT_SET_CASES = [
    ("A1", lambda: builtin_datum("A1"), [(0,), (1,), (4,)]),
    ("A2", lambda: builtin_datum("A2"), [(0, 0), (1, 1), (2, 1), (3, 2)]),
    ("pgl3", lambda: builtin_datum("pgl3"), [(1, 0), (1, 1), (2, 3)]),
    ("A3", lambda: builtin_datum("A3"), [(1, 1, 1), (1, 2, 1), (2, 3, 2)]),
    ("A4", lambda: builtin_datum("A4"), [(1, 1, 1, 1), (1, 2, 2, 1), (2, 2, 2, 2)]),
    ("D4", lambda: builtin_datum("D4"), [(1, 2, 1, 1), (2, 2, 1, 1), (2, 3, 2, 2), (2, 4, 2, 2)]),
    ("gl2-style", gl2_style_datum, [(3, 0), (1, -4)]),
    ("D4-rot3 fold", lambda: _folded("D4", "D4-rot3"), [(2, 1), (3, 2), (6, 4)]),
    ("A4-flip fold", lambda: _folded("A4", "A4-flip"), [(1, 1), (3, 2), (4, 4)]),
]


@pytest.mark.parametrize("name,make,mus", WEIGHT_SET_CASES, ids=[c[0] for c in WEIGHT_SET_CASES])
def test_weight_set_matches_the_hull_membership_oracle(name, make, mus):
    datum = make()
    for coords in mus:
        mu = cw(*coords)
        assert datum.weight_set(mu) == _weight_set_oracle(datum, mu), (name, coords)


def _small_dominant(datum):
    box = itertools.product(range(-2, 9), repeat=datum.d)
    return [
        cw(*c) for c in box if datum.is_dominant(cw(*c)) and weyl_dimension(datum, cw(*c)) <= 300
    ]


PROPERTY_DATA = {
    "A2": builtin_datum("A2"),
    "pgl3": builtin_datum("pgl3"),
    "A3": builtin_datum("A3"),
    "D4": builtin_datum("D4"),
    "D4-rot3 fold": _folded("D4", "D4-rot3"),
}
PROPERTY_MUS = {name: _small_dominant(datum) for name, datum in PROPERTY_DATA.items()}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_weight_set_and_character_mass_on_random_dominant_mu(data):
    name = data.draw(st.sampled_from(sorted(PROPERTY_DATA)), label="datum")
    mu = data.draw(st.sampled_from(PROPERTY_MUS[name]), label="mu")
    datum = PROPERTY_DATA[name]
    assert datum.weight_set(mu) == _weight_set_oracle(datum, mu)
    assert character(datum, mu).mass() == weyl_dimension(datum, mu)


def test_validate_asymmetric_zero():
    datum = RootDatum(2, [wt(2, -1), wt(0, 2)], [cw(1, 0), cw(0, 1)])
    assert datum.validate() == ["asymmetric zero at (1, 2)"]
    with pytest.raises(InvalidDatumError):
        datum.require_valid()


def test_validate_bad_diagonal():
    datum = RootDatum(1, [wt(3)], [cw(1)])
    msgs = datum.validate()
    assert any("diagonal Cartan entry" in m for m in msgs)


def test_validate_positive_off_diagonal():
    datum = RootDatum(2, [wt(2, 1), wt(1, 2)], [cw(1, 0), cw(0, 1)])
    msgs = datum.validate()
    assert any("positive off-diagonal" in m for m in msgs)


def test_validate_dependent_roots():
    datum = RootDatum(2, [wt(2, -1), wt(-2, 1)], [cw(1, 0), cw(0, 1)])
    msgs = datum.validate()
    assert "simple roots are linearly dependent" in msgs


def test_validate_affine_cartan_is_rejected():
    # The rank-two Cartan matrix [[2, -2], [-2, 2]] is affine, not finite.
    # A third ambient coordinate keeps the two roots linearly independent so
    # the finite-type check is the only failure.
    datum = RootDatum(3, [wt(2, -2, 1), wt(-2, 2, 0)], [cw(1, 0, 0), cw(0, 1, 0)])
    assert datum.validate() == ["Cartan matrix is not of finite type"]
    with pytest.raises(InvalidDatumError) as excinfo:
        datum.require_valid()
    assert "not of finite type" in str(excinfo.value)


def test_invalid_datum_error_carries_violations():
    datum = RootDatum(2, [wt(2, -1), wt(0, 2)], [cw(1, 0), cw(0, 1)])
    try:
        datum.require_valid()
    except InvalidDatumError as exc:
        assert exc.violations == ["asymmetric zero at (1, 2)"]
    else:
        pytest.fail("expected InvalidDatumError")


def test_json_round_trip(tmp_path):
    for name in BUILTIN_NAMES:
        datum = builtin_datum(name)
        again = datum_from_json_dict(datum.to_json_dict())
        assert again == datum
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(builtin_datum("A2").to_json_dict()))
    assert load_datum(str(path)) == builtin_datum("A2")


def test_json_malformed_inputs(tmp_path):
    with pytest.raises(InputError):
        datum_from_json_dict({"d": 2})
    with pytest.raises(InputError):
        datum_from_json_dict(
            {"d": "two", "simple_roots": [[2]], "simple_coroots": [[1]]}
        )
    with pytest.raises(InputError):
        datum_from_json_dict(
            {"d": 1, "simple_roots": [[1.5]], "simple_coroots": [[1]]}
        )
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_datum(str(path))


def test_equality_and_hash():
    a2 = builtin_datum("A2")
    twin = RootDatum(2, list(a2.simple_roots), list(a2.simple_coroots))
    assert a2 == twin
    assert hash(a2) == hash(twin)
    assert a2 != builtin_datum("A3")
