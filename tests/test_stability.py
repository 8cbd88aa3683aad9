"""Stability index, stable submonoid, residue sets and the stable-context
submonoid of an idempotent."""

import pytest

import oracles
from fragcheck.automata import minimize, regex_to_dfa
from fragcheck.errors import InputError
from fragcheck.monoid import me_submonoid, submonoid_closure, transition_monoid
from fragcheck.stability import (
    is_stable_trivial,
    me_s,
    residue_sets,
    stability_index,
    stability_info,
    stable,
    stable_green_preorder,
)


def morphism(pattern, **kw):
    return transition_monoid(minimize(regex_to_dfa(pattern, **kw)))


def test_even_length_language():
    h = morphism("((a|b)(a|b))*")
    assert stability_index(h) == 2
    assert stable(h) == frozenset({h.monoid.identity})


def test_even_letter_count_language():
    # parity of occurrences of a letter never stabilizes below the full group
    h = morphism("(b*ab*a)*b*")
    assert stability_index(h) == 1
    assert stable(h) == frozenset(h.monoid.elements())
    assert h.monoid.size == 2


def test_alternating_blocks_language():
    h = morphism("(bc)*")
    info = stability_info(h)
    assert info.index == 2
    assert info.smallest_index == 2
    one = h.monoid.identity
    bc, cb, sink = h.image("bc"), h.image("cb"), h.image("bb")
    assert info.stable == frozenset({one, bc, cb, sink})
    # odd residue holds the images of odd-length words
    assert info.residues[1] == frozenset(
        {h.image("b"), h.image("c"), h.image("bbb")})
    assert info.residues[0] == info.stable


def test_index_multiplier_scales_but_keeps_stable():
    h = morphism("(bc)*")
    base = stability_info(h)
    doubled = stability_info(h, multiplier=2)
    assert doubled.index == 2 * base.index
    assert doubled.smallest_index == base.smallest_index
    assert doubled.stable == base.stable
    assert len(doubled.residues) == doubled.index


def test_multiplier_must_be_positive():
    h = morphism("(bc)*")
    with pytest.raises(InputError):
        stability_info(h, multiplier=0)


def test_residue_sets_partition_reachability():
    h = morphism("(bc)*")
    rs = residue_sets(h)
    assert len(rs) == 2
    brute = oracles.power_images(h, 4 * h.monoid.size)
    s = stability_index(h)
    for r in range(1, s):
        assert rs[r] == brute[r] | brute[r + s]
    assert rs[0] == brute[s] | {h.monoid.identity}


def test_me_s_trivial_for_empty_word_language():
    h = morphism("()", alphabet=["a"])
    info = stability_info(h)
    assert info.index == 1
    one = h.monoid.identity
    assert me_s(h, info, one) == frozenset({one})


def test_me_s_on_alternating_blocks():
    h = morphism("(bc)*")
    info = stability_info(h)
    e = h.image("bc")
    sub = me_s(h, info, e)
    assert sub == frozenset({h.monoid.identity, e})
    # the unrestricted variant is strictly larger here
    assert sub < me_submonoid(h.monoid, e)


def test_me_s_whole_monoid_when_index_one():
    h = morphism("(b*ab*a)*b*")
    info = stability_info(h)
    e = h.monoid.identity
    sub = me_s(h, info, e)
    assert sub == frozenset(h.monoid.elements())
    assert {h.monoid.mul(h.monoid.mul(e, x), e) for x in sub} == set(
        h.monoid.elements())


def test_me_s_requires_idempotent():
    h = morphism("(bc)*")
    info = stability_info(h)
    with pytest.raises(InputError):
        me_s(h, info, h.image("b"))


def test_stable_preorder_and_triviality():
    h = morphism("(bc)*")
    info = stability_info(h)
    leq = stable_green_preorder(info, "Rs")
    one, bc = h.monoid.identity, h.image("bc")
    sink = h.image("bb")
    assert leq[sink, one] and not leq[one, sink]
    assert leq[bc, bc]
    ok, pair = is_stable_trivial(info, "Rs")
    assert ok and pair is None
    with pytest.raises(InputError):
        stable_green_preorder(info, "Hs")


def test_stable_nontrivial_for_group():
    h = morphism("(b*ab*a)*b*")
    info = stability_info(h)
    leq = stable_green_preorder(info, "Rs")
    ok, pair = is_stable_trivial(info, "Rs")
    assert not ok and pair is not None
    x, y = pair
    assert x != y and leq[x, y] and leq[y, x]


def test_stable_triviality_on_even_length():
    h = morphism("((a|b)(a|b))*")
    info = stability_info(h)
    for rel in ("Rs", "Ls", "Js"):
        ok, pair = is_stable_trivial(info, rel)
        assert ok and pair is None


def test_stability_against_brute_powers(small_corpus):
    for d in small_corpus[:15]:
        h = transition_monoid(d, max_monoid=600)
        info = stability_info(h)
        s = info.index
        brute = oracles.power_images(h, 4 * s)
        # X_s equals X_2s and s is the least multiple of the period doing so
        assert brute[s] == brute[2 * s]
        for t in range(1, s):
            if brute[t] == brute[2 * t]:
                assert s % t != 0 or brute[t] != brute[t + s]
        assert info.stable == brute[s] | {h.monoid.identity}
        for r in range(1, s):
            assert info.residues[r] == brute[r] | brute[r + s]


def test_me_s_matches_brute_closure(small_corpus):
    for d in small_corpus[:12]:
        h = transition_monoid(d, max_monoid=600)
        info = stability_info(h)
        stable_set = info.stable
        for e in h.monoid.idempotents():
            if e not in stable_set:
                continue
            sub = me_s(h, info, e)
            assert sub == oracles.me_s_brute(h, info.index, e)
            assert sub <= me_submonoid(h.monoid, e) & stable_set
            assert h.monoid.identity in sub
            from fragcheck.monoid import set_product
            assert set_product(h.monoid, sub, sub) == sub


def test_local_submonoids_match_definitions(small_corpus):
    mes_pairs = 0
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for e, brute in oracles.me_brute(h.monoid).items():
            assert me_submonoid(h.monoid, e) == brute
        for multiplier in (1, 2):
            info = stability_info(h, multiplier)
            if info.index > 6:
                continue
            for e in h.monoid.idempotents():
                assert me_s(h, info, e) == oracles.me_s_brute(h, info.index, e)
                mes_pairs += 1
    assert mes_pairs == 169
