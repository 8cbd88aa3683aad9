"""Stability index, stable submonoid, residue sets and the stable-context
submonoid of an idempotent."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import oracles
from fragcheck.automata import make_dfa, minimize, regex_to_dfa
from fragcheck.errors import CapError, ConsistencyError, InputError
from fragcheck.fragments import LanguageAnalysis, analyze
from fragcheck.monoid import (
    Morphism,
    OrderedMonoid,
    me_submonoid,
    transition_monoid,
)
from fragcheck.stability import (
    FREE_MULTIPLIER,
    MAX_INDEX_CELLS,
    is_stable_trivial,
    me_s,
    stability_index,
    stability_info,
    stable_green_preorder,
)


def morphism(pattern, **kw):
    return transition_monoid(minimize(regex_to_dfa(pattern, **kw)))


def test_even_length_language():
    h = morphism("((a|b)(a|b))*")
    assert stability_index(h) == 2
    assert stability_info(h).stable.tolist() == [h.monoid.identity]


def test_even_letter_count_language():
    # parity of occurrences of a letter never stabilizes below the full group
    h = morphism("(b*ab*a)*b*")
    assert stability_index(h) == 1
    assert stability_info(h).stable.tolist() == list(h.monoid.elements())
    assert h.monoid.size == 2


def test_alternating_blocks_language():
    h = morphism("(bc)*")
    info = stability_info(h)
    assert info.index == 2
    assert info.smallest_index == 2
    one = h.monoid.identity
    bc, cb, sink = h.image("bc"), h.image("cb"), h.image("bb")
    assert info.stable.tolist() == sorted({one, bc, cb, sink})
    # odd residue holds the images of odd-length words
    assert info.residues[1].tolist() == sorted(
        {h.image("b"), h.image("c"), h.image("bbb")})
    assert info.residues[0] is info.stable


def test_index_multiplier_scales_but_keeps_stable():
    h = morphism("(bc)*")
    base = stability_info(h)
    doubled = stability_info(h, multiplier=2)
    assert doubled.index == 2 * base.index
    assert doubled.smallest_index == base.smallest_index
    assert np.array_equal(doubled.stable, base.stable)
    assert len(doubled.residues) == doubled.index


def test_multiplier_must_be_positive():
    h = morphism("(bc)*")
    with pytest.raises(InputError):
        stability_info(h, multiplier=0)


def test_residue_sets_partition_reachability():
    h = morphism("(bc)*")
    rs = stability_info(h).residues
    assert len(rs) == 2
    brute = oracles.power_images(h, 4 * h.monoid.size)
    s = stability_index(h)
    for r in range(1, s):
        assert rs[r].tolist() == sorted(brute[r] | brute[r + s])
    assert rs[0].tolist() == sorted(brute[s] | {h.monoid.identity})


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
    for rel in ("Rs", "Ls"):
        ok, pair = is_stable_trivial(info, rel)
        assert ok and pair is None
    js = oracles.stable_j_preorder(info)
    assert not (js & js.T & ~np.eye(js.shape[0], dtype=bool)).any()
    with pytest.raises(InputError):
        stable_green_preorder(info, "Js")


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
        # sorted read-only id arrays, equal to the enumerated images
        assert info.stable.tolist() == sorted(brute[s] | {h.monoid.identity})
        assert info.residues[0] is info.stable
        for r in range(1, s):
            assert info.residues[r].tolist() == sorted(brute[r] | brute[r + s])
        for ids in info.residues:
            assert ids.dtype == np.int64 and not ids.flags.writeable


def test_me_s_matches_brute_closure(small_corpus):
    for d in small_corpus[:12]:
        h = transition_monoid(d, max_monoid=600)
        info = stability_info(h)
        stable_set = frozenset(info.stable.tolist())
        for e in h.monoid.idempotents():
            if e not in stable_set:
                continue
            sub = me_s(h, info, e)
            assert sub == oracles.me_s_brute(h, info.index, e)
            assert sub <= me_submonoid(h.monoid, e) & stable_set
            assert h.monoid.identity in sub
            assert oracles.set_product(h.monoid, sub, sub) == sub


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


def test_admissible_images_match_brute_on_corpus(small_corpus):
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            brute = oracles.admissible_brute(h, info.index)
            for (a, r), images in brute.items():
                assert info.admissible_images(a, r) == images, (a, r)


def test_usable_patterns_match_brute_at_every_idempotent(small_corpus):
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            brute = oracles.admissible_brute(h, info.index)
            scatter = oracles.admissible_by_stable_scatter(info)
            for e in h.monoid.idempotents():
                usable = info.usable(e)
                assert usable.shape == (len(h.alphabet), info.index)
                for i, a in enumerate(h.alphabet):
                    for r in range(info.index):
                        assert usable[i, r] == (e in brute[(a, r)]), (e, a, r)
                assert np.array_equal(usable, scatter[:, :, e])


def test_mes_shared_per_usable_pattern(small_corpus):
    checked = 0
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            scatter = oracles.admissible_by_stable_scatter(info)
            by_pattern = {}
            for e in h.monoid.idempotents():
                mes = info.mes_members(e)
                assert set(mes.tolist()) == oracles.mes_by_residue_search(info, e, scatter)
                if info.index <= 6:
                    assert set(mes.tolist()) == oracles.me_s_brute(h, info.index, e)
                    checked += 1
                # one array per pattern, and a new pattern gets its own
                key = info.usable(e).tobytes()
                assert by_pattern.setdefault(key, mes) is mes
            assert len({id(a) for a in by_pattern.values()}) == len(by_pattern)
    assert checked > 150


def test_index_cap_raises_before_residues():
    h = morphism("(bc)*")
    s = stability_index(h)
    limit = MAX_INDEX_CELLS // (s * h.monoid.size)
    assert stability_info(h, limit).index == s * limit
    with pytest.raises(CapError):
        stability_info(h, limit + 1)
    with pytest.raises(CapError):
        stability_info(h, 10**9)


def test_index_cap_spares_the_least_index_and_small_multipliers():
    # (a^1500)*: the cyclic group of order 1500, least index 1500, so
    # s * |M| is over the cap already at x1; x1 to x3 still run
    n = 1500
    assert n * n > MAX_INDEX_CELLS
    ids = np.arange(n)
    mon = OrderedMonoid((ids[:, None] + ids) % n, 0,
                        repr_words=[("a",) * k for k in range(n)], generators=[1])
    h = Morphism(monoid=mon, alphabet=("a",), letter_map={"a": 1}, accepting=frozenset({0}))
    d = make_dfa(["a"], list(range(n)), 0, [0], {(q, "a"): (q + 1) % n for q in range(n)})
    for multiplier in (1, FREE_MULTIPLIER):
        pipeline = LanguageAnalysis(d, index_multiplier=multiplier, morphism=h)
        assert pipeline.stability.index == n * multiplier
        assert pipeline.check("fo_mod") == (True, None)
        assert pipeline.check("fo2_mod_new")[0]
    with pytest.raises(CapError):
        stability_info(h, FREE_MULTIPLIER + 1)


def test_stable_set_checked_for_closure_when_built():
    h = morphism("(a|b)*aa(a|b)*")
    info = stability_info(h)
    # {1, a} is not closed: a a lies outside it
    with pytest.raises(ConsistencyError):
        dataclasses.replace(info, stable=np.array([h.monoid.identity, h.image("a")]))
    again = dataclasses.replace(info, stable=info.stable)
    assert again.stable_me_members(h.image("aa")).tolist() == list(h.monoid.elements())


def test_stability_info_memoised_per_morphism_and_multiplier():
    h = morphism("(bc)*")
    info = stability_info(h)
    assert stability_info(h) is info
    assert stability_info(h, 2) is stability_info(h, 2) is not info
    pipeline = LanguageAnalysis(minimize(regex_to_dfa("(bc)*")), morphism=h)
    assert pipeline.stability is info
    # a new morphism of the same language starts with its own memo
    again = morphism("(bc)*")
    assert stability_info(again) is not info
    assert np.array_equal(stability_info(again).stable, info.stable)


def test_multipliers_share_one_set_of_power_images(monkeypatch):
    from fragcheck import stability
    built = []
    real = stability._PowerImages

    def counted(m):
        built.append(m)
        return real(m)

    monkeypatch.setattr(stability, "_PowerImages", counted)
    h = morphism("((a|b)(a|b))*(aa|bb)(a|b)*")
    s = stability_index(h)
    infos = [stability_info(h, multiplier) for multiplier in (1, 2, 3)]
    assert [info.index for info in infos] == [s, 2 * s, 3 * s]
    assert built == [h]


def test_refused_multiplier_raises_on_every_call():
    h = morphism("(bc)*")
    refused = MAX_INDEX_CELLS // (stability_index(h) * h.monoid.size) + 1
    for _ in range(2):
        with pytest.raises(CapError):
            stability_info(h, refused)
    assert refused not in h._stability


def test_replace_builds_a_fresh_checked_object_outside_the_memo():
    h = morphism("(a|b)*aa(a|b)*")
    info = stability_info(h)
    again = dataclasses.replace(info, stable=info.stable)
    assert again is not info and stability_info(h) is info
    with pytest.raises(ConsistencyError):
        dataclasses.replace(info, stable=np.array([h.monoid.identity, h.image("a")]))
    assert stability_info(h) is info


def test_analysed_morphism_is_freed_by_reference_counting():
    # the stability memo on a morphism and the J-class data of its monoid
    # and stable submonoid form no reference cycle, so dropping the last
    # reference frees the morphism with the cyclic collector off
    enabled = gc.isenabled()
    gc.disable()
    try:
        d = minimize(regex_to_dfa("((a|b)(a|b))*(aa|bb)(a|b)*"))
        h = transition_monoid(d)
        for multiplier in (1, 3):
            analyze(d, index_multiplier=multiplier, morphism=h)
        info = stability_info(h)
        assert info.morphism is h and info.stable_j_classes is not None
        refs = [weakref.ref(h), weakref.ref(h.monoid), weakref.ref(info)]
        del h, info
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()
