"""Ordered monoids, syntactic morphisms, Green's relations and the local
submonoid conditions."""

import numpy as np
import pytest

import oracles
from fragcheck import monoid as monoid_module
from fragcheck.automata import complement, make_dfa, minimize, regex_to_dfa
from fragcheck.cli import random_dfa
from fragcheck.errors import CapError, InputError
from fragcheck.monoid import (
    Morphism,
    OrderedMonoid,
    format_word,
    generated_morphism,
    is_aperiodic,
    local_condition,
    me_submonoid,
    monoid_to_text,
    syntactic_order,
    transition_monoid,
)
from fragcheck.stability import stability_info


def syntactic(pattern, **kw):
    return syntactic_order(transition_monoid(minimize(regex_to_dfa(pattern)), **kw))


def test_format_word():
    assert format_word(()) == "ε"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("aa", "b")) == "aa b"


def test_ordered_monoid_basics():
    z3 = OrderedMonoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    assert z3.size == 3
    assert z3.mul(1, 2) == 0
    assert z3.product([1, 1, 1]) == 0
    assert list(z3.idempotents()) == [0]
    z3.idempotents().append(2)  # each call hands out its own list
    assert z3.idempotents() == [0]
    assert z3.omega(1) == 0
    assert not z3.is_idempotent(2)
    assert z3.leq is None


def test_ordered_monoid_rejects_bad_tables():
    with pytest.raises(InputError):
        OrderedMonoid([[0, 1], [1, 1]], 1)  # 1 is not an identity
    with pytest.raises(InputError):
        OrderedMonoid([[1, 0], [0, 1]], 0)  # identity row broken
    with pytest.raises(InputError):
        # x(yz) = (xy)z fails for this table
        OrderedMonoid([[0, 1, 2], [1, 0, 0], [2, 2, 1]], 0)
    with pytest.raises(InputError):
        OrderedMonoid([[0, 1], [1, 0]], 0, leq=[[True, True], [True, True]])


def test_with_order_keeps_table():
    u1 = OrderedMonoid([[0, 1], [1, 1]], 0)
    ordered = u1.with_order([[True, False], [True, True]])
    assert ordered.le(1, 0) and not ordered.le(0, 1)
    assert np.array_equal(ordered.mult, u1.mult)


def test_transition_monoid_of_aa_factor_language():
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    m = h.monoid
    assert m.size == 6
    # aba collapses to a, bab to b, and aa is the absorbing accepting element
    assert h.image("aba") == h.image("a")
    assert h.image("bab") == h.image("b")
    zero = h.image("aa")
    assert all(m.mul(zero, x) == zero == m.mul(x, zero) for x in m.elements())
    assert h.accepting == frozenset({zero})
    assert h.image("babaab") in h.accepting


def test_transition_monoid_word_of_is_shortlex():
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    assert h.word_of(h.monoid.identity) == ()
    assert h.word_of(h.image("aa")) == ("a", "a")
    assert h.word_of(h.image("ab")) == ("a", "b")


def test_transition_monoid_minimizes_first():
    # random machines with unreachable and equivalent states give the same
    # morphism as their minimal automata: table, words, letters, accepting
    rng = np.random.default_rng(11)
    grew = 0
    for _ in range(40):
        d = random_dfa(rng, 5, 3)
        m = minimize(d)
        grew += len(d.states) > len(m.states)
        h, want = transition_monoid(d), transition_monoid(m)
        assert np.array_equal(h.monoid.mult, want.monoid.mult)
        assert h.monoid.repr_words == want.monoid.repr_words
        assert h.letter_map == want.letter_map and h.alphabet == want.alphabet
        assert h.accepting == want.accepting
    assert grew >= 10


def test_transition_monoid_cap():
    with pytest.raises(CapError):
        transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")), max_monoid=3)


def test_generated_morphism_modular_counter():
    h = generated_morphism(
        ("a",), {"a": 1}, lambda x, y: (x + y) % 3, 0,
        accepting_label=lambda x: x == 0)
    assert h.monoid.size == 3
    assert h.image("aaa") == h.monoid.identity
    assert h.accepting == frozenset({0})


def test_generated_morphism_cap():
    with pytest.raises(CapError):
        generated_morphism(("a",), {"a": 1}, lambda x, y: (x + y) % 64, 0, cap=10)


def test_syntactic_order_zero_positions():
    # accepting absorbing zero sits at the bottom of the syntactic order
    h = syntactic("(a|b)*(aa|bb)(a|b)*")
    zero = h.image("aa")
    assert all(h.monoid.le(zero, x) for x in h.monoid.elements())
    # non-accepting absorbing zero sits at the top
    g = syntactic("(bc)*")
    sink = g.image("bb")
    assert all(g.monoid.mul(sink, x) == sink for x in g.monoid.elements())
    assert all(g.monoid.le(x, sink) for x in g.monoid.elements())


def test_syntactic_order_is_idempotent_and_in_place():
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    assert h.monoid.leq is None
    h2 = syntactic_order(h)
    assert h2 is h and h.monoid.leq is not None
    before = h.monoid.leq
    assert syntactic_order(h) is h
    assert h.monoid.leq is before


def test_syntactic_order_needs_accepting_set():
    h = generated_morphism(("a",), {"a": 1}, lambda x, y: (x + y) % 2, 0)
    with pytest.raises(InputError):
        syntactic_order(h)


def test_syntactic_order_rejects_non_syntactic_morphism():
    # all elements share every context when everything is accepting
    h = generated_morphism(
        ("a",), {"a": 1}, lambda x, y: (x + y) % 2, 0,
        accepting_label=lambda x: True)
    with pytest.raises(InputError):
        syntactic_order(h)


def test_is_aperiodic():
    ok, _ = is_aperiodic(syntactic("(a|b)*(aa|bb)(a|b)*").monoid)
    assert ok
    h = syntactic("(b*ab*a)*b*")
    ok, witness = is_aperiodic(h.monoid)
    assert not ok
    assert witness == h.image("a")


def test_set_product():
    m = syntactic("(bc)*").monoid
    xs = frozenset({m.identity})
    assert oracles.set_product(m, xs, xs) == xs
    everything = oracles.set_product(m, frozenset(m.elements()), frozenset(m.elements()))
    assert everything == frozenset(m.elements())


def test_green_relations_on_aa_factor():
    h = syntactic("(a|b)*aa(a|b)*")
    m = h.monoid
    g = oracles.green_classes(m)
    assert isinstance(g, oracles.GreenRelations)
    one, a, b = m.identity, h.image("a"), h.image("b")
    ab, ba, zero = h.image("ab"), h.image("ba"), h.image("aa")
    # J-classes: {1}, the four products of a and b, and the zero
    assert set(map(frozenset, g.j_classes)) == {
        frozenset({one}), frozenset({a, b, ab, ba}), frozenset({zero})}
    # a R ab and a L ba, but a and b are not R-related
    assert g.r_leq[a, ab] and g.r_leq[ab, a]
    assert g.l_leq[a, ba] and g.l_leq[ba, a]
    assert not (g.r_leq[a, b] and g.r_leq[b, a])
    # H refines R and L
    assert np.array_equal(g.h_leq, g.r_leq & g.l_leq)


def test_green_h_classes_match_r_and_l(small_corpus):
    for d in small_corpus[:12]:
        m = transition_monoid(d, max_monoid=600).monoid
        g = oracles.green_classes(m)
        r_eq = g.r_leq & g.r_leq.T
        l_eq = g.l_leq & g.l_leq.T
        h_eq = g.h_leq & g.h_leq.T
        assert np.array_equal(h_eq, r_eq & l_eq)


def generated_by(m, generators):
    """The sorted members of the submonoid generated by the given ids."""
    mask = np.zeros(m.size, dtype=bool)
    mask[list(generators)] = True
    return m.generated(mask).tolist()


def test_j_upset_and_submonoid_closure():
    h = syntactic("(a|b)*aa(a|b)*")
    m = h.monoid
    assert np.flatnonzero(m.j_classes().upset(m.identity)).tolist() == [m.identity]
    assert m.j_classes().upset(h.image("aa")).all()
    with pytest.raises(InputError):
        m.j_classes().upset(h.image("a"))  # not idempotent
    assert generated_by(m, [h.image("a")]) == sorted(
        {m.identity, h.image("a"), h.image("aa")})


def test_me_submonoid():
    h = syntactic("(a|b)*aa(a|b)*")
    m = h.monoid
    assert me_submonoid(m, m.identity) == frozenset({m.identity})
    assert me_submonoid(m, h.image("aa")) == frozenset(m.elements())
    with pytest.raises(InputError):
        me_submonoid(m, h.image("a"))  # not idempotent


def test_me_submonoid_contains_identity_and_is_closed(small_corpus):
    for d in small_corpus[:12]:
        m = transition_monoid(d, max_monoid=600).monoid
        for e in m.idempotents():
            sub = me_submonoid(m, e)
            assert m.identity in sub
            assert oracles.set_product(m, sub, sub) == sub


def test_submonoid_view_round_trip():
    h = syntactic("(a|b)*aa(a|b)*")
    m = h.monoid
    elements = generated_by(m, [h.image("a")])
    view, parents = oracles.submonoid_view(m, elements)
    assert view.size == len(elements)
    assert set(parents) == set(elements)
    for x in range(view.size):
        for y in range(view.size):
            assert parents[view.mul(x, y)] == m.mul(parents[x], parents[y])
    # order restricts along the same embedding
    for x in range(view.size):
        for y in range(view.size):
            assert view.le(x, y) == m.le(parents[x], parents[y])


def test_submonoid_view_requires_closed_subset():
    h = syntactic("(a|b)*aa(a|b)*")
    with pytest.raises(InputError):
        oracles.submonoid_view(h.monoid, {h.monoid.identity, h.image("a")})


def test_local_condition_on_repeat_language():
    h = syntactic("(a|b)*(aa|bb)(a|b)*")
    m = h.monoid
    ok, _ = local_condition(m, m.idempotents(), m.me_members, m.leq)
    assert ok
    ok, witness = local_condition(m, m.idempotents(), m.me_members)
    assert not ok
    e, x = witness
    assert h.word_of(e) == ("a", "b")
    assert h.word_of(x) == ("a",)
    exe = h.monoid.mul(h.monoid.mul(e, x), e)
    assert exe != e


def test_local_condition_mes_selector():
    h = syntactic("(bc)*")
    info = stability_info(h)
    ok, _ = local_condition(h.monoid, h.monoid.idempotents(), info.mes_members)
    assert ok


def _first_offenders(h):
    """local_condition against the scalar reference loop, for each member
    source (Me, Mes, and the stable submonoid's Me over its idempotents)
    under equality, the order and the reversed order."""
    m = h.monoid
    info = stability_info(h)
    stable_me = oracles.stable_me_brute(info)
    sources = [
        (m.idempotents(), m.me_members, None),
        (m.idempotents(), info.mes_members, None),
        ([e for e in m.idempotents() if e in info.stable], info.stable_me_members,
         sorted(stable_me)),
    ]
    for idempotents, members, expected_idempotents in sources:
        if expected_idempotents is not None:
            assert idempotents == expected_idempotents
            assert {e: set(members(e).tolist()) for e in idempotents} == stable_me
        for order, mode in ((None, "eq"), (m.leq, "leq"), (m.leq.T, "geq")):
            ok, pair = local_condition(m, idempotents, members, order)
            expected = oracles.local_condition_brute(
                m, mode, lambda e: members(e).tolist(), expected_idempotents)
            assert pair == expected
            assert ok == (expected is None)


def test_local_condition_first_offender_on_corpus(small_corpus):
    for d in small_corpus:
        _first_offenders(syntactic_order(transition_monoid(d, max_monoid=600)))


def test_local_condition_first_offender_on_examples(langs):
    for d in langs.values():
        _first_offenders(syntactic_order(transition_monoid(d)))


def test_syntactic_order_compatible_with_product(small_corpus):
    # x <= y and u <= v force xu <= yv
    for d in small_corpus[:8]:
        m = syntactic_order(transition_monoid(d, max_monoid=600)).monoid
        if m.size > 24:
            continue
        leq = m.leq
        for x in range(m.size):
            for y in range(m.size):
                if not leq[x, y]:
                    continue
                for u in range(m.size):
                    for v in range(m.size):
                        if leq[u, v]:
                            assert leq[m.mul(x, u), m.mul(y, v)]


def _random_seven_state_dfa(seed):
    """A uniformly random 7-state DFA over {a, b}, drawn from the seed."""
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 7, size=(7, 2))
    finals = rng.integers(0, 2, size=7).astype(bool)
    states = [f"q{i}" for i in range(7)]
    delta = {
        (q, a): states[targets[i, j]]
        for i, q in enumerate(states)
        for j, a in enumerate("ab")
    }
    return make_dfa(("a", "b"), states, "q0",
                    [q for q, f in zip(states, finals) if f], delta)


def test_syntactic_order_matches_context_oracle_on_corpus(small_corpus):
    for d in small_corpus:
        h = syntactic_order(transition_monoid(d, max_monoid=600))
        assert np.array_equal(h.monoid.leq, oracles.syntactic_leq_by_contexts(h))


@pytest.mark.parametrize("seed", [43, 58, 61])
def test_syntactic_order_matches_context_oracle_at_mid_size(seed):
    d = minimize(_random_seven_state_dfa(seed))
    assert len(d.states) == 7
    h = syntactic_order(transition_monoid(d))
    assert 150 <= h.monoid.size <= 300
    assert np.array_equal(h.monoid.leq, oracles.syntactic_leq_by_contexts(h))


@pytest.mark.parametrize("seed", [43, 58, 61])
def test_me_submonoid_matches_definition_at_mid_size(seed):
    m = transition_monoid(minimize(_random_seven_state_dfa(seed))).monoid
    for e, brute in oracles.me_brute(m).items():
        assert me_submonoid(m, e) == brute


@pytest.mark.parametrize("seed", [43, 58, 61])
def test_admissible_images_match_brute_at_mid_size(seed):
    h = transition_monoid(minimize(_random_seven_state_dfa(seed)))
    for multiplier in (1, 2):
        info = stability_info(h, multiplier)
        brute = oracles.admissible_brute(h, info.index)
        for (a, r), images in brute.items():
            assert info.admissible_images(a, r) == images, (a, r)


def _me_on_fresh_monoid(h):
    """Me at every idempotent, on a copy of h's monoid with empty stores."""
    mon = h.monoid
    fresh = OrderedMonoid(mon.mult, mon.identity, generators=mon.generators)
    return fresh, {e: fresh.me_members(e) for e in fresh.idempotents()}


def _check_me_against_brute_and_j_classes(h):
    fresh, me = _me_on_fresh_monoid(h)
    brute = oracles.me_brute(fresh)
    assert {e: set(xs.tolist()) for e, xs in me.items()} == brute
    # Me depends only on the J-class: J-equivalent idempotents share one
    # array, and idempotents in different J-classes never do
    owners = {}
    for cls in oracles.green_classes(fresh).j_classes:
        arrays = {id(me[e]) for e in cls if e in me}
        assert len(arrays) <= 1
        for key in arrays:
            assert owners.setdefault(key, cls) == cls


@pytest.mark.parametrize("route_min_size", [0, 10**9], ids=["cayley", "mask"])
def test_me_shared_per_j_class_and_matches_definition(small_corpus, monkeypatch, route_min_size):
    # both routes to the generator set {a : e in MaM}: the reverse search in
    # the two-sided Cayley graph and the two table passes
    monkeypatch.setattr(monoid_module, "_BFS_MIN_SIZE", route_min_size)
    for d in small_corpus:
        _check_me_against_brute_and_j_classes(transition_monoid(d, max_monoid=600))


def test_me_cayley_route_at_mid_size(monkeypatch):
    h = transition_monoid(minimize(_random_seven_state_dfa(43)))
    assert h.monoid.size <= monoid_module._BFS_MIN_SIZE
    monkeypatch.setattr(monoid_module, "_BFS_MIN_SIZE", 0)
    _check_me_against_brute_and_j_classes(h)


@pytest.mark.parametrize("gather_ids", [1 << 16, 1], ids=["one-block", "row-blocks"])
def test_j_classes_of_submonoids_match_brute(small_corpus, monkeypatch, gather_ids):
    # submonoids T generated by seeded random subsets, read on the parent
    # table: the upsets equal the two masked passes over the whole table,
    # and the representatives the least idempotents of T's own J-classes
    monkeypatch.setattr(monoid_module, "_GATHER_IDS", gather_ids)
    rng = np.random.default_rng(11)
    for d in small_corpus[:20]:
        m = transition_monoid(d, max_monoid=600).monoid
        for _ in range(3):
            inside = np.zeros(m.size, dtype=bool)
            inside[m.generated(rng.random(m.size) < 0.2)] = True
            classes = m.j_classes(inside)
            sub, ids = oracles.submonoid_view(m, np.flatnonzero(inside))
            expected = [ids[e] for e in oracles.j_class_representatives(sub)]
            assert list(classes.representatives()) == expected
            for e in (x for x in ids if m.is_idempotent(x)):
                assert np.array_equal(classes.upset(e),
                                      oracles.j_upset_by_passes(m.mult, e, inside))


def test_closure_in_small_blocks_matches_brute(small_corpus, monkeypatch):
    # a tiny gather budget splits every frontier into one-row blocks
    monkeypatch.setattr(monoid_module, "_GATHER_IDS", 1)
    for d in small_corpus[:10]:
        fresh, me = _me_on_fresh_monoid(transition_monoid(d, max_monoid=600))
        for e, brute in oracles.me_brute(fresh).items():
            assert set(me[e].tolist()) == brute


def test_generators_must_lie_in_the_monoid():
    with pytest.raises(InputError):
        OrderedMonoid([[0, 1], [1, 0]], 0, generators=[2])


def test_cayley_route_refuses_generators_that_do_not_generate(monkeypatch):
    # in Z/6, 2 reaches only the even residues, so the search would miss
    # the odd ones; the route checks the generators before trusting them
    monkeypatch.setattr(monoid_module, "_BFS_MIN_SIZE", 0)
    ids = np.arange(6)
    table = (ids[:, None] + ids) % 6
    with pytest.raises(InputError):
        OrderedMonoid(table, 0, generators=[2]).me_members(0)
    assert OrderedMonoid(table, 0, generators=[1]).me_members(0).tolist() == list(range(6))


# A minimal 7-state DFA over {a, b} with a 1632-element syntactic monoid,
# beyond the reach of context enumeration: state -> (a-successor, b-successor)
_LARGE_DELTA = {
    "q0": ("q1", "q0"),
    "q1": ("q2", "q3"),
    "q2": ("q2", "q0"),
    "q3": ("q4", "q2"),
    "q4": ("q5", "q4"),
    "q5": ("q5", "q6"),
    "q6": ("q3", "q0"),
}


def test_syntactic_order_at_scale():
    d = make_dfa(
        ("a", "b"), sorted(_LARGE_DELTA), "q0", ["q1", "q2", "q3", "q5"],
        {(q, a): t for q, row in _LARGE_DELTA.items() for a, t in zip("ab", row)},
    )
    h = syntactic_order(transition_monoid(d))
    m = h.monoid
    assert m.size == 1632
    leq = m.leq
    # x <= y forces xa <= ya and ax <= ay for every letter a
    for a in h.letter_map.values():
        right, left = m.mult[:, a], m.mult[a]
        assert not (leq & ~leq[np.ix_(right, right)]).any()
        assert not (leq & ~leq[np.ix_(left, left)]).any()
    # the complement's order is the reverse order on the same elements
    co = syntactic_order(transition_monoid(complement(d)))
    assert np.array_equal(co.monoid.leq, leq.T)
    stable = stability_info(h).stable
    view, parents = oracles.submonoid_view(m, stable)
    parents = np.array(parents)
    assert sorted(parents) == sorted(stable)
    assert np.array_equal(parents[view.mult], m.mult[np.ix_(parents, parents)])
    assert np.array_equal(view.leq, leq[np.ix_(parents, parents)])


def test_syntactic_morphism_recognizes_language(small_corpus):
    # membership only depends on the image under the syntactic morphism
    for d in small_corpus[:10]:
        h = transition_monoid(d, max_monoid=600)
        for w in oracles.words(d.alphabet, 5):
            assert (h.image(w) in h.accepting) == d.accepts(w)


def test_morphism_rejects_incomplete_letter_map():
    z2 = OrderedMonoid([[0, 1], [1, 0]], 0)
    with pytest.raises(InputError):
        Morphism(monoid=z2, alphabet=("a", "b"), letter_map={"a": 1})
    with pytest.raises(InputError):
        Morphism(monoid=z2, alphabet=("a",), letter_map={"a": 5})


def test_monoid_to_text_mentions_elements():
    h = syntactic("(bc)*")
    text = monoid_to_text(h)
    assert "bc" in text
    assert "ε" in text
