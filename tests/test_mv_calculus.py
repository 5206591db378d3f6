"""Tests for Lusztig data, braid transport, GGMS collections, and counting."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from satake_fold import (
    Coweight,
    LusztigDatum,
    NonSimplyLacedError,
    RootDatum,
    Weight,
    braid_neighbors,
    braid_transition,
    builtin_datum,
    builtin_sigma,
    enumerate_data,
    fold,
    fold_lusztig_datum,
    ggms_datum,
    is_mv,
    is_sigma_invariant,
    kostant,
    longest_element,
    mv_character,
    path_vertices,
    reduced_words,
    sigma_compatible_word,
    transport,
    weyl_dimension,
    weyl_group,
)
from satake_fold.mv_calculus import MVCalculus, coweight, mv_calculus


def cw(*coords):
    return Coweight(tuple(coords))


def b2_datum():
    return RootDatum(2, [Weight((2, -1)), Weight((-2, 2))], [Coweight((1, 0)), Coweight((0, 1))])


def lus(word, entries):
    return LusztigDatum(word=tuple(word), entries=tuple(entries))


def test_lusztig_datum_validation():
    with pytest.raises(ValueError) as excinfo:
        lus((1, 2, 1), (1, 0))
    assert "equal length" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        lus((1, 2, 1), (1, -1, 0))
    assert "nonnegative" in str(excinfo.value)


def test_require_word_rejects_non_longest_words():
    a2 = builtin_datum("A2")
    calc = mv_calculus(a2)
    with pytest.raises(ValueError) as excinfo:
        calc.require_word((1, 2))
    assert "not a reduced word for the longest element" in str(excinfo.value)


def test_require_word_rejects_a_bad_word_after_caching_a_good_one():
    calc = MVCalculus(builtin_datum("A3"))
    good = longest_element(calc.datum).word
    assert calc.require_word(list(good)) == good
    for bad in (good[:-1], good[1:] + good[:1], (1,) * len(good)):
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                calc.require_word(bad)
            assert str(excinfo.value) == f"{bad} is not a reduced word for the longest element"
    assert calc.require_word(good) == good


def test_require_word_checks_each_word_once(monkeypatch):
    calc = MVCalculus(builtin_datum("A3"))
    checked = []
    element = calc.group.element
    monkeypatch.setattr(calc.group, "element", lambda word: checked.append(word) or element(word))
    words = reduced_words(calc.datum, longest_element(calc.datum))[:3]
    for _ in range(3):
        for word in words:
            assert calc.require_word(word) == word
    assert checked == list(words)


def test_step_coweights_a2():
    a2 = builtin_datum("A2")
    pv = path_vertices(a2, lus((1, 2, 1), (0, 0, 0)))
    assert tuple(s.coords for s in pv.steps) == ((-1, 0), (-1, -1), (0, -1))
    assert all(p.coords == (0, 0) for p in pv.points)


def test_path_vertices_partial_sums():
    a2 = builtin_datum("A2")
    pv = path_vertices(a2, lus((1, 2, 1), (1, 0, 1)))
    assert tuple(p.coords for p in pv.points) == ((0, 0), (-1, 0), (-1, 0), (-1, -1))
    assert coweight(a2, lus((1, 2, 1), (1, 0, 1))).coords == (-1, -1)


def test_steps_run_through_all_negated_positive_coroots():
    for name in ("A2", "A3"):
        datum = builtin_datum(name)
        calc = mv_calculus(datum)
        expected = sorted((-v).coords for v in datum.positive_coroots())
        for word in reduced_words(datum, longest_element(datum)):
            steps = calc.step_coweights(word)
            assert sorted(s.coords for s in steps) == expected
    d4 = builtin_datum("D4")
    calc = mv_calculus(d4)
    word = longest_element(d4).word
    expected = sorted((-v).coords for v in d4.positive_coroots())
    assert sorted(s.coords for s in calc.step_coweights(word)) == expected


def test_braid_transition_order_three():
    a2 = builtin_datum("A2")
    moved = braid_transition(a2, lus((1, 2, 1), (1, 0, 1)), 1)
    assert moved.word == (2, 1, 2)
    assert moved.entries == (0, 1, 0)
    back = braid_transition(a2, moved, 1)
    assert back == lus((1, 2, 1), (1, 0, 1))


def test_braid_transition_order_three_formula():
    # min-tropical rule: p = min(n1, n3), image (n2 + n3 - p, p, n1 + n2 - p).
    a2 = builtin_datum("A2")
    for n1, n2, n3 in itertools.product(range(4), repeat=3):
        moved = braid_transition(a2, lus((1, 2, 1), (n1, n2, n3)), 1)
        p = min(n1, n3)
        assert moved.entries == (n2 + n3 - p, p, n1 + n2 - p)


def test_braid_transition_preserves_coweight():
    a3 = builtin_datum("A3")
    word = (1, 2, 1, 3, 2, 1)
    for entries in itertools.product(range(2), repeat=6):
        L = lus(word, entries)
        nu = coweight(a3, L)
        for k, m, _ in braid_neighbors(a3, word):
            moved = braid_transition(a3, L, k, m)
            assert coweight(a3, moved) == nu


def test_braid_transition_commuting_move():
    a3 = builtin_datum("A3")
    L = lus((1, 2, 1, 3, 2, 1), (0, 1, 2, 3, 4, 5))
    moved = braid_transition(a3, L, 3)
    assert moved.word == (1, 2, 3, 1, 2, 1)
    assert moved.entries == (0, 1, 3, 2, 4, 5)


def test_braid_transition_errors():
    a2 = builtin_datum("A2")
    L = lus((1, 2, 1), (0, 0, 0))
    with pytest.raises(ValueError) as excinfo:
        braid_transition(a2, L, 0)
    assert "braid position 0 out of range" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        braid_transition(a2, L, 4)
    assert "out of range" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        braid_transition(a2, L, 2)
    assert "runs off the word" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        braid_transition(a2, L, 1, m=2)
    assert "have braid order 3, not 2" in str(excinfo.value)

    a3 = builtin_datum("A3")
    with pytest.raises(ValueError) as excinfo:
        braid_transition(a3, lus((1, 2, 1, 3, 2, 1), (0,) * 6), 2)
    assert "no braid move of order 3 starts at position 2" in str(excinfo.value)


def test_braid_transition_refuses_higher_orders():
    b2 = b2_datum()
    L = lus((1, 2, 1, 2), (0, 0, 0, 0))
    with pytest.raises(NonSimplyLacedError) as excinfo:
        braid_transition(b2, L, 1)
    assert "orders 2 and 3 only" in str(excinfo.value)


def test_transport_identity_and_single_move():
    a2 = builtin_datum("A2")
    L = lus((1, 2, 1), (1, 0, 1))
    assert transport(a2, L, (1, 2, 1)) == L
    moved = transport(a2, L, (2, 1, 2))
    assert moved == lus((2, 1, 2), (0, 1, 0))


def test_transport_round_trips():
    a3 = builtin_datum("A3")
    words = reduced_words(a3, longest_element(a3))
    src = words[0]
    for entries in [(0, 0, 0, 0, 0, 0), (1, 0, 2, 0, 1, 0), (2, 1, 0, 1, 2, 1)]:
        L = lus(src, entries)
        nu = coweight(a3, L)
        for target in words:
            there = transport(a3, L, target)
            assert there.word == target
            assert coweight(a3, there) == nu
            assert transport(a3, there, src) == L


def test_transport_rejects_bad_target():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError) as excinfo:
        transport(a2, lus((1, 2, 1), (0, 0, 0)), (1, 2, 2))
    assert "not a reduced word for the longest element" in str(excinfo.value)


def test_transport_refuses_non_simply_laced_graphs():
    b2 = b2_datum()
    with pytest.raises(NonSimplyLacedError) as excinfo:
        transport(b2, lus((1, 2, 1, 2), (0, 0, 0, 0)), (2, 1, 2, 1))
    assert "braid orders 2 and 3 everywhere" in str(excinfo.value)


def _replay(datum, L, moves):
    """Apply braid moves (k, m) through the checked, public braid_transition."""
    for k, m in moves:
        L = braid_transition(datum, L, k, m)
    return L


def test_front_moves_replay_to_a_word_starting_with_i():
    for name in ("A3", "A4", "D4"):
        datum = builtin_datum(name)
        calc = MVCalculus(datum)
        for word in reduced_words(datum, longest_element(datum)):
            L = lus(word, range(len(word)))
            for i in calc.group.simple_indices:
                moves, front = calc._front(word, i)
                assert front[0] == i, (name, word, i)
                assert _replay(datum, L, moves).word == front, (name, word, i)


def _bfs_route(datum, src, dst):
    """Oracle: the braid moves (k, m) of a breadth-first route over the graph
    of all reduced words of w0, from src to dst."""
    parent = {src: None}
    frontier = [src]
    while dst not in parent:
        nxt = []
        for node in frontier:
            for k, m, nb in braid_neighbors(datum, node):
                if nb not in parent:
                    parent[nb] = (node, k, m)
                    nxt.append(nb)
        frontier = nxt
    moves = []
    node = dst
    while parent[node] is not None:
        node, k, m = parent[node]
        moves.append((k, m))
    return tuple(reversed(moves))


def test_transport_matches_the_breadth_first_route_oracle():
    a3 = builtin_datum("A3")
    words = reduced_words(a3, longest_element(a3))
    samples = [(0,) * 6, (1, 0, 2, 0, 1, 0), (2, 1, 0, 1, 2, 1), (3, 0, 0, 2, 1, 3)]
    for src, dst in itertools.product(words, words):
        route = _bfs_route(a3, src, dst)
        for entries in samples:
            L = lus(src, entries)
            assert transport(a3, L, dst) == _replay(a3, L, route), (src, dst, entries)
    for name in ("A4", "D4"):
        datum = builtin_datum(name)
        words = reduced_words(datum, longest_element(datum))
        rng = random.Random(name)
        for src in rng.sample(words, 3):
            for dst in rng.sample(words, 12):
                route = _bfs_route(datum, src, dst)
                for _ in range(3):
                    L = lus(src, (rng.randrange(4) for _ in src))
                    assert transport(datum, L, dst) == _replay(datum, L, route), (name, src, dst)


@pytest.mark.parametrize("group,sigma,order", [("D4", "D4-rot3", 6), ("A4", "A4-flip", 4)])
def test_folded_data_refuse_transport(group, sigma, order):
    datum = builtin_datum(group)
    folded = fold(datum, builtin_sigma(sigma, datum)).datum
    words = reduced_words(folded, longest_element(folded))
    L = lus(words[0], (0,) * len(words[0]))
    zero = cw(*(0,) * folded.d)
    mu = next(mu for mu in _small_dominant(folded) if mu != zero)
    calls = [
        lambda: transport(folded, L, words[-1]),
        lambda: is_mv(folded, L, zero),
        lambda: ggms_datum(folded, L),
        lambda: mv_character(folded, zero),
        lambda: mv_character(folded, mu),
    ]
    for call in calls:
        with pytest.raises(NonSimplyLacedError) as excinfo:
            call()
        assert str(excinfo.value) == (
            f"transport needs braid orders 2 and 3 everywhere; order {order} at (1, 2)"
        )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_transport_round_trips_on_random_words_and_entries(data):
    datum = builtin_datum(data.draw(st.sampled_from(("A3", "A4", "D4")), label="group"))
    words = reduced_words(datum, longest_element(datum))
    src = data.draw(st.sampled_from(words), label="src")
    dst = data.draw(st.sampled_from(words), label="dst")
    entries = data.draw(st.tuples(*[st.integers(0, 3)] * len(src)), label="entries")
    L = lus(src, entries)
    there = transport(datum, L, dst)
    assert there.word == dst
    assert coweight(datum, there) == coweight(datum, L)
    assert transport(datum, there, src) == L


def test_ggms_datum_a2_frozen_tables():
    a2 = builtin_datum("A2")
    group = weyl_group(a2)

    g = ggms_datum(a2, lus((1, 2, 1), (1, 0, 1)))
    table = {w.word: v.coords for w, v in g.vertices}
    assert table == {
        (): (0, 0),
        (1,): (-1, 0),
        (2,): (0, 0),
        (1, 2): (-1, 0),
        (2, 1): (-1, -1),
        (1, 2, 1): (-1, -1),
    }

    g = ggms_datum(a2, lus((1, 2, 1), (0, 1, 0)))
    table = {w.word: v.coords for w, v in g.vertices}
    assert table == {
        (): (0, 0),
        (1,): (0, 0),
        (2,): (0, -1),
        (1, 2): (-1, -1),
        (2, 1): (0, -1),
        (1, 2, 1): (-1, -1),
    }

    assert g.vertex(group.element((2,))).coords == (0, -1)
    assert g.as_dict()[group.element(())].coords == (0, 0)
    other = weyl_group(builtin_datum("A3")).identity
    with pytest.raises(KeyError):
        g.vertex(other)


def test_ggms_identity_vertex_is_zero_and_longest_is_the_coweight():
    a3 = builtin_datum("A3")
    group = weyl_group(a3)
    L = lus((1, 2, 1, 3, 2, 1), (1, 1, 0, 2, 0, 1))
    g = ggms_datum(a3, L)
    assert g.vertex(group.identity).coords == (0, 0, 0)
    assert g.vertex(group.longest_element()) == coweight(a3, L)


def _vertices_by_checked_routes(datum, L):
    """Each vertex by replaying the transport route to its prefix target
    through the checked braid_transition, then reading the path point."""
    calc = mv_calculus(datum)
    group = weyl_group(datum)
    w0 = group.longest_element()
    out = {}
    for w in group.elements():
        target = w.word + (w.inverse() * w0).word
        moved = L
        for k in calc.transport_path(L.word, target):
            moved = braid_transition(datum, moved, k)
        assert moved.word == target
        out[w] = path_vertices(datum, moved).points[w.length]
    return out


def test_ggms_tree_walk_matches_checked_routes_a3():
    a3 = builtin_datum("A3")
    for src in reduced_words(a3, longest_element(a3)):
        for entries in itertools.product(range(2), repeat=6):
            L = lus(src, entries)
            assert ggms_datum(a3, L).as_dict() == _vertices_by_checked_routes(a3, L)


def test_ggms_tree_walk_matches_checked_routes_on_the_d4_verify_data():
    d4 = builtin_datum("D4")
    sigma = builtin_sigma("D4-rot3", d4)
    sw = sigma_compatible_word(d4, sigma)
    mu = cw(1, 2, 1, 1)
    calc = mv_calculus(d4)
    data = [
        L
        for lam in d4.weight_set(mu)
        if sigma.apply_to_coweight(lam) == lam
        for L in calc.enumerate_block_data(sw, lam - mu)
    ]
    assert len(data) == 27
    for L in data:
        assert ggms_datum(d4, L).as_dict() == _vertices_by_checked_routes(d4, L)


def test_validate_ggms():
    a2 = builtin_datum("A2")
    calc = mv_calculus(a2)
    g = calc.ggms_datum(lus((1, 2, 1), (1, 0, 1)))
    assert calc.validate_ggms(g)
    # Moving one vertex off its place breaks an edge inequality.
    tampered = type(g)(
        vertices=tuple(
            (w, cw(5, 5) if w.word == (1,) else v) for w, v in g.vertices
        )
    )
    assert not calc.validate_ggms(tampered)


def test_is_mv_zero_datum():
    a2 = builtin_datum("A2")
    assert is_mv(a2, lus((1, 2, 1), (0, 0, 0)), cw(1, 1))
    assert is_mv(a2, lus((1, 2, 1), (0, 0, 0)), cw(0, 0))


def test_is_mv_zero_weight_data_of_the_adjoint():
    a2 = builtin_datum("A2")
    mu = cw(1, 1)
    for entries in [(0, 1, 0), (1, 0, 1)]:
        assert is_mv(a2, lus((1, 2, 1), entries), mu)


def test_is_mv_lowest_weight_selection():
    # Among the three data of coweight -2 theta_vee, only (1, 1, 1) stays
    # inside the adjoint representation.
    a2 = builtin_datum("A2")
    mu = cw(1, 1)
    verdicts = {
        entries: is_mv(a2, lus((1, 2, 1), entries), mu)
        for entries in [(0, 2, 0), (1, 1, 1), (2, 0, 2)]
    }
    assert verdicts == {(0, 2, 0): False, (1, 1, 1): True, (2, 0, 2): False}


def test_is_mv_requires_dominant_mu():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError) as excinfo:
        is_mv(a2, lus((1, 2, 1), (0, 0, 0)), cw(-1, 0))
    assert "dominant" in str(excinfo.value)


def test_is_mv_rejects_points_outside_the_orbit_hull():
    a2 = builtin_datum("A2")
    with pytest.raises(ValueError) as excinfo:
        is_mv(a2, lus((1, 2, 1), (1, 0, 1)), cw(0, 0))
    assert "lies outside hull(W mu)" in str(excinfo.value)


def _vertex_oracle(calc, L, mu):
    """The |W|-vertex membership test: w^{-1}(nu_w + mu) <= mu, with rational
    coefficients, at every vertex nu_w of the datum's polytope."""
    return all(
        calc.datum.dominance_le(w.inverse().apply(nu_w + mu), mu, "rational")
        for w, nu_w in calc.ggms_datum(L).vertices
    )


def _assert_is_mv_matches_the_oracle(calc, data, mu):
    accepted = 0
    for L in data:
        verdict = calc.is_mv(L, mu)
        assert verdict == _vertex_oracle(calc, L, mu), (L, mu)
        accepted += verdict
    return accepted


def test_is_mv_matches_the_vertex_oracle_on_every_datum():
    # On each word, the accepted data of all weights of mu number dim V(mu).
    cases = [
        ("A2", [(1, 1), (2, 1), (3, 2)], False),
        ("pgl3", [(1, 1), (2, 2)], False),
        ("A3", [(1, 1, 1), (1, 2, 1)], True),
        ("A4", [(1, 1, 1, 1)], False),
        ("D4", [(1, 2, 1, 1)], False),
    ]
    for name, mus, all_words in cases:
        datum = builtin_datum(name)
        calc = mv_calculus(datum)
        w0 = longest_element(datum)
        words = reduced_words(datum, w0) if all_words else (w0.word,)
        for coords in mus:
            mu = cw(*coords)
            for word in words:
                data = [L for lam in datum.weight_set(mu) for L in enumerate_data(datum, word, lam - mu)]
                accepted = _assert_is_mv_matches_the_oracle(calc, data, mu)
                assert accepted == weyl_dimension(datum, mu), (name, coords, word)


def test_is_mv_matches_the_vertex_oracle_on_d4_triality_block_data():
    d4 = builtin_datum("D4")
    sigma = builtin_sigma("D4-rot3", d4)
    sw = sigma_compatible_word(d4, sigma)
    calc = mv_calculus(d4)
    for coords, n_data in [((1, 2, 1, 1), 27), ((2, 3, 2, 2), 114)]:
        mu = cw(*coords)
        data = [
            L
            for lam in d4.weight_set(mu)
            if sigma.apply_to_coweight(lam) == lam
            for L in calc.enumerate_block_data(sw, lam - mu)
        ]
        assert len(data) == n_data
        _assert_is_mv_matches_the_oracle(calc, data, mu)


def _small_dominant(datum):
    return [
        cw(*c) for c in itertools.product(range(4), repeat=datum.rank) if datum.is_dominant(cw(*c))
    ]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_is_mv_matches_the_vertex_oracle_on_random_data(data):
    datum = builtin_datum(data.draw(st.sampled_from(("A3", "D4")), label="group"))
    word = data.draw(st.sampled_from(reduced_words(datum, longest_element(datum))), label="word")
    # Mostly zero entries, so that many data land inside hull(W mu).
    entry = st.one_of(st.just(0), st.integers(0, 3))
    entries = data.draw(st.tuples(*[entry] * len(word)), label="entries")
    mu = data.draw(st.sampled_from(_small_dominant(datum)), label="mu")
    L = lus(word, entries)
    if mu + coweight(datum, L) in datum.weight_set(mu):
        assert is_mv(datum, L, mu) == _vertex_oracle(mv_calculus(datum), L, mu)
    else:
        with pytest.raises(ValueError) as excinfo:
            is_mv(datum, L, mu)
        assert "lies outside hull(W mu)" in str(excinfo.value)


def test_enumerate_data_a2():
    a2 = builtin_datum("A2")
    got = enumerate_data(a2, (1, 2, 1), cw(-1, -1))
    assert tuple(l.entries for l in got) == ((0, 1, 0), (1, 0, 1))
    got = enumerate_data(a2, (1, 2, 1), cw(-2, -2))
    assert tuple(l.entries for l in got) == ((0, 2, 0), (1, 1, 1), (2, 0, 2))
    assert enumerate_data(a2, (1, 2, 1), cw(0, 0)) == (lus((1, 2, 1), (0, 0, 0)),)
    assert enumerate_data(a2, (1, 2, 1), cw(1, 1)) == ()
    assert enumerate_data(a2, (1, 2, 1), cw(-1, 0)) == (lus((1, 2, 1), (1, 0, 0)),)


def test_enumerate_data_counts_do_not_depend_on_the_word():
    a3 = builtin_datum("A3")
    nu = cw(-1, -1, -1)
    counts = {
        word: len(enumerate_data(a3, word, nu))
        for word in reduced_words(a3, longest_element(a3))
    }
    assert len(set(counts.values())) == 1
    assert set(counts.values()) == {kostant(a3, nu)}


def test_kostant_small_values():
    a2 = builtin_datum("A2")
    assert kostant(a2, cw(0, 0)) == 1
    assert kostant(a2, cw(-1, 0)) == 1
    assert kostant(a2, cw(-1, -1)) == 2
    assert kostant(a2, cw(-2, -2)) == 3
    assert kostant(a2, cw(1, 1)) == 0
    assert kostant(a2, cw(-1, 1)) == 0


def test_kostant_matches_enumeration_on_a3():
    a3 = builtin_datum("A3")
    word = longest_element(a3).word
    for c1 in range(3):
        for c2 in range(3):
            for c3 in range(3):
                nu = cw(-c1, -c2, -c3)
                assert kostant(a3, nu) == len(enumerate_data(a3, word, nu))


def test_is_sigma_invariant_block_patterns():
    a4 = builtin_datum("A4")
    sigma = builtin_sigma("A4-flip", a4)
    sw = sigma_compatible_word(a4, sigma)
    good = lus(sw.word, (1, 1, 2, 2, 2, 0, 0, 3, 3, 3))
    assert is_sigma_invariant(a4, sigma, good)
    bad = lus(sw.word, (1, 0, 2, 2, 2, 0, 0, 3, 3, 3))
    assert not is_sigma_invariant(a4, sigma, bad)

    a2 = builtin_datum("A2")
    swap = builtin_sigma("A2-swap", a2)
    assert is_sigma_invariant(a2, swap, lus((1, 2, 1), (0, 0, 0)))
    assert not is_sigma_invariant(a2, swap, lus((1, 2, 1), (1, 0, 1)))


def test_is_sigma_invariant_needs_the_compatible_word():
    a2 = builtin_datum("A2")
    swap = builtin_sigma("A2-swap", a2)
    with pytest.raises(ValueError) as excinfo:
        is_sigma_invariant(a2, swap, lus((2, 1, 2), (0, 0, 0)))
    assert "does not live on the sigma-compatible word" in str(excinfo.value)


def test_sigma_invariance_matches_transport_relabeling():
    # Block-constant entries are exactly the data fixed by relabeling the
    # word through sigma and transporting back.
    a4 = builtin_datum("A4")
    sigma = builtin_sigma("A4-flip", a4)
    sw = sigma_compatible_word(a4, sigma)
    relabeled = sigma.apply_to_word(sw.word)
    for entries in itertools.product(range(2), repeat=10):
        L = lus(sw.word, entries)
        moved = transport(a4, L, relabeled)
        assert (moved.entries == L.entries) == is_sigma_invariant(a4, sigma, L)

    a2 = builtin_datum("A2")
    swap = builtin_sigma("A2-swap", a2)
    sw2 = sigma_compatible_word(a2, swap)
    relabeled2 = swap.apply_to_word(sw2.word)
    for entries in itertools.product(range(3), repeat=3):
        L = lus(sw2.word, entries)
        moved = transport(a2, L, relabeled2)
        assert (moved.entries == L.entries) == is_sigma_invariant(a2, swap, L)


def test_fold_lusztig_datum_a4():
    a4 = builtin_datum("A4")
    sigma = builtin_sigma("A4-flip", a4)
    sw = sigma_compatible_word(a4, sigma)
    L = lus(sw.word, (1, 1, 2, 2, 2, 0, 0, 3, 3, 3))
    folded = fold_lusztig_datum(a4, sigma, L)
    assert folded.word == (1, 2, 1, 2)
    assert folded.entries == (1, 2, 0, 3)


def test_fold_lusztig_datum_a2():
    a2 = builtin_datum("A2")
    swap = builtin_sigma("A2-swap", a2)
    folded = fold_lusztig_datum(a2, swap, lus((1, 2, 1), (1, 1, 1)))
    assert folded.word == (1,)
    assert folded.entries == (1,)


def test_fold_lusztig_datum_rejects_non_invariant():
    a2 = builtin_datum("A2")
    swap = builtin_sigma("A2-swap", a2)
    with pytest.raises(ValueError) as excinfo:
        fold_lusztig_datum(a2, swap, lus((1, 2, 1), (1, 0, 1)))
    assert "not sigma-invariant" in str(excinfo.value)


def test_fold_lusztig_datum_preserves_the_coweight():
    cases = [
        ("A2", "A2-swap"),
        ("A4", "A4-flip"),
    ]
    for datum_name, sigma_name in cases:
        datum = builtin_datum(datum_name)
        sigma = builtin_sigma(sigma_name, datum)
        fd = fold(datum, sigma)
        sw = sigma_compatible_word(datum, sigma)
        folded_calc = mv_calculus(fd.datum)
        for block_values in itertools.product(range(3), repeat=len(sw.blocks)):
            entries = [0] * len(sw.word)
            for block, value in zip(sw.blocks, block_values):
                for pos in block:
                    entries[pos - 1] = value
            L = lus(sw.word, entries)
            folded = fold_lusztig_datum(datum, sigma, L)
            nu_up = coweight(datum, L)
            nu_down = folded_calc.coweight(folded)
            assert fd.include_coweight(nu_down) == nu_up


def test_ggms_sigma_equivariance_unit():
    a2 = builtin_datum("A2")
    swap = builtin_sigma("A2-swap", a2)
    group = weyl_group(a2)
    g = ggms_datum(a2, lus((1, 2, 1), (1, 1, 1)))
    for w, v in g.vertices:
        image = swap.apply_to_element(group, w)
        assert swap.apply_to_coweight(v) == g.vertex(image)
