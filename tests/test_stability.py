"""Stability index, stable submonoid, residue sets and the stable-context
submonoid of an idempotent."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from fragcheck import monoid as monoid_module
from fragcheck import stability as stability_module
from fragcheck.automata import complement, make_dfa, minimize, regex_to_dfa
from fragcheck.cli import generate_corpus
from fragcheck.errors import CapError, ConsistencyError, InputError
from fragcheck.fragments import LanguageAnalysis, analyze
from fragcheck.hierarchy import sim_quotient
from fragcheck.monoid import (
    Morphism,
    OrderedMonoid,
    complement_morphism,
    me_submonoid,
    transition_monoid,
)
from fragcheck.stability import (
    FREE_MULTIPLIER,
    MAX_INDEX_CELLS,
    is_stable_trivial,
    me_s,
    stability_info,
)
from test_monoid import _random_seven_state_dfa, mid_size_draw


def morphism(pattern, **kw):
    return transition_monoid(minimize(regex_to_dfa(pattern, **kw)))


def test_even_length_language():
    h = morphism("((a|b)(a|b))*")
    assert stability_info(h).index == 2
    assert stability_info(h).stable.tolist() == [h.monoid.identity]


def test_even_letter_count_language():
    # parity of occurrences of a letter never stabilizes below the full group
    h = morphism("(b*ab*a)*b*")
    assert stability_info(h).index == 1
    assert stability_info(h).stable.tolist() == list(h.monoid.elements())
    assert h.monoid.size == 2


def test_alternating_blocks_language():
    h = morphism("(bc)*")
    info = stability_info(h)
    assert info.index == 2
    assert info.powers.smallest_index == 2
    one = h.monoid.identity
    bc, cb, sink = h.image("bc"), h.image("cb"), h.image("bb")
    assert info.stable.tolist() == sorted({one, bc, cb, sink})
    # odd residue holds the images of odd-length words
    assert oracles.residue_set(info, 1).tolist() == sorted(
        {h.image("b"), h.image("c"), h.image("bbb")})
    assert oracles.residue_set(info, 0) is info.stable


def test_index_multiplier_scales_but_keeps_stable():
    h = morphism("(bc)*")
    base = stability_info(h)
    doubled = stability_info(h, multiplier=2)
    assert doubled.index == 2 * base.index
    assert doubled.powers is base.powers and doubled.stable is base.stable
    assert len(doubled._residue_pairs()[1]) == doubled.index


def test_multiplier_must_be_positive():
    h = morphism("(bc)*")
    with pytest.raises(InputError):
        stability_info(h, multiplier=0)


def test_residue_sets_partition_reachability():
    h = morphism("(bc)*")
    info = stability_info(h)
    assert info.index == 2
    brute = oracles.power_images(h, 4 * h.monoid.size)
    s = stability_info(h).index
    for r in range(1, s):
        assert oracles.residue_set(info, r).tolist() == sorted(brute[r] | brute[r + s])
    assert oracles.residue_set(info, 0).tolist() == sorted(brute[s] | {h.monoid.identity})


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
    leq = oracles.stable_green_preorder(info, "Rs")
    one, bc = h.monoid.identity, h.image("bc")
    sink = h.image("bb")
    assert leq[sink, one] and not leq[one, sink]
    assert leq[bc, bc]
    ok, pair = is_stable_trivial(info, "Rs")
    assert ok and pair is None
    with pytest.raises(InputError):
        oracles.stable_green_preorder(info, "Hs")


def test_stable_nontrivial_for_group():
    h = morphism("(b*ab*a)*b*")
    info = stability_info(h)
    leq = oracles.stable_green_preorder(info, "Rs")
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
        oracles.stable_green_preorder(info, "Js")


def test_stable_triviality_agrees_with_the_preorder_oracle(small_corpus):
    # one idempotent per regular J-class of S against the mutual pairs of
    # the |M|^2 ideal masks, on the corpus and on both signature quotients
    cases = trivial = 0
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for m in (h, sim_quotient(h, "K").quotient, sim_quotient(h, "D").quotient):
            for multiplier in (1, 2, 3):
                info = stability_info(m, multiplier)
                for rel in ("Rs", "Ls"):
                    leq = oracles.stable_green_preorder(info, rel)
                    mutual = leq & leq.T & ~np.eye(m.monoid.size, dtype=bool)
                    ok, pair = is_stable_trivial(info, rel)
                    assert ok == (not mutual.any())
                    if ok:
                        assert pair is None
                        trivial += 1
                    else:
                        e, y = pair
                        assert m.monoid.is_idempotent(e) and e != y and mutual[e, y]
                    cases += 1
        with pytest.raises(InputError):
            is_stable_trivial(stability_info(h), "Hs")
    assert cases == 720 and 0 < trivial < cases


def test_stable_triviality_peak_memory_is_far_below_the_table():
    # no |M|^2 mask: the stable J-classes' upsets and one row of S per class
    h = transition_monoid(mid_size_draw())
    info = stability_info(h)
    tracemalloc.start()
    try:
        for rel in ("Rs", "Ls"):
            is_stable_trivial(info, rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.monoid.size == 1580
    assert peak < h.monoid.size ** 2  # the bytes of one |M|^2 boolean mask


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
        assert oracles.residue_set(info, 0) is info.stable
        for r in range(1, s):
            assert oracles.residue_set(info, r).tolist() == sorted(brute[r] | brute[r + s])
        for r in range(s):
            ids = oracles.residue_set(info, r)
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


def test_admissibility_in_one_member_blocks_matches_brute(small_corpus, monkeypatch):
    # a gather budget of one word splits every slot into one-member blocks,
    # on both routes: the idempotent columns and every column
    monkeypatch.setattr(stability_module, "_GATHER_IDS", 1)
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 3):
            info = stability_info(h, multiplier)
            brute = oracles.admissible_brute(h, info.index)
            for (a, r), images in brute.items():
                assert info.admissible_images(a, r) == images, (a, r)
            for e in h.monoid.idempotents():
                usable = oracles.usable(info, e)
                for i, a in enumerate(h.alphabet):
                    for r in range(info.index):
                        assert usable[i, r] == (e in brute[(a, r)]), (e, a, r)


def test_usable_patterns_match_brute_at_every_idempotent(small_corpus):
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            brute = oracles.admissible_brute(h, info.index)
            scatter = oracles.admissible_by_stable_scatter(info)
            for e in h.monoid.idempotents():
                usable = oracles.usable(info, e)
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
                key = oracles.usable(info, e).tobytes()
                assert by_pattern.setdefault(key, mes) is mes
            assert len({id(a) for a in by_pattern.values()}) == len(by_pattern)
    assert checked > 150


def test_walked_mes_matches_the_closure_of_its_blocks(small_corpus):
    # Mes from the block images of the walk by slot pairs, against those of
    # a walk with one step per residue, both closed over the table, at
    # every idempotent and multiplier; the last corpus draw below (|M| =
    # 103) has a block set B whose closure needs B^3
    checked = 0
    deep = generate_corpus(count=249, max_states=5, max_letters=3, seed=0, max_monoid=600)[-1]
    for d in [*small_corpus, deep]:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            for e in h.monoid.idempotents():
                assert set(info.mes_members(e).tolist()) == oracles.mes_by_block_closure(info, e)
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("multiplier", [1, 2])
def test_packed_table_matches_per_residue_oracle_at_mid_size(multiplier):
    # |E| = 212 idempotent columns cross the 64, 128 and 192 word
    # boundaries, and the |M| = 1580 columns of admissible_images more
    h = transition_monoid(mid_size_draw())
    info = stability_info(h, multiplier)
    idempotents = h.monoid.idempotents()
    assert (h.monoid.size, len(idempotents)) == (1580, 212)
    every = oracles.admissible_by_residues(info, np.arange(h.monoid.size))
    usable = np.stack([oracles.usable(info, e) for e in idempotents], axis=2)
    assert np.array_equal(usable, every[:, :, idempotents])
    for i, a in enumerate(h.alphabet):
        for r in range(info.index):
            assert info.admissible_images(a, r) == set(np.flatnonzero(every[i, r]).tolist())


def test_admissibility_peak_memory_is_the_packed_steps():
    # the J + p power steps kept as packed words, plus two more steps'
    # worth of temporaries and the unpacked table
    h = transition_monoid(mid_size_draw())
    info = stability_info(h)
    cols = np.array(h.monoid.idempotents(), dtype=np.int64)
    tracemalloc.start()
    try:
        adm = info._admissible_at(info.powers.steps_at(cols), cols.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    step = h.monoid.size * -(-cols.size // 64) * 8
    assert cols.size == 212
    assert peak < (info.powers.preperiod + info.powers.period + 2) * step + adm.nbytes


def _check_stable_j_classes(h) -> bool:
    """Check the stable J-classes of h at x1, x2 and x3: the least
    idempotents of S's own J-classes as representatives, and every
    idempotent's upset in S equal to the two masked passes over the whole
    table.  Returns whether the identity lies in X_s."""
    mon = h.monoid
    sub, ids = oracles.submonoid_view(mon, stability_info(h).stable)
    expected = [ids[e] for e in oracles.j_class_representatives(sub)]
    for multiplier in (1, 2, 3):
        info = stability_info(h, multiplier)
        mask = np.zeros(mon.size, dtype=bool)
        mask[info.stable] = True
        assert list(info.stable_j_classes.representatives()) == expected
        for e in mon.idempotents():
            assert (info.stable_j_classes.upset(e).tobytes()
                    == oracles.j_upset_by_passes(mon.mult, e, mask).tobytes()), (multiplier, e)
    return bool((info.powers.at(info.index) == mon.identity).any())


def test_stable_j_classes_match_passes_and_brute(small_corpus, xcheck_corpus):
    # the corpora and two ladder-size draws (7 states, 2 letters), with
    # the identity inside X_s and outside it, where its upset is {1}
    dfas = list(small_corpus) + list(xcheck_corpus)
    dfas += [minimize(_random_seven_state_dfa(seed)) for seed in (43, 58)]
    identity_in_xs = {_check_stable_j_classes(transition_monoid(d, max_monoid=600))
                      for d in dfas}
    assert identity_in_xs == {True, False}


def test_stable_upsets_across_word_boundaries_at_mid_size():
    # |E| = 212: the upsets of idempotents in the first, second and last
    # packed words equal the two masked passes
    h = transition_monoid(mid_size_draw())
    mon, info = h.monoid, stability_info(h)
    mask = np.zeros(mon.size, dtype=bool)
    mask[info.stable] = True
    idempotents = mon.idempotents()
    assert len(idempotents) == 212
    for i in (0, 63, 64, 127, 128, 191, 192, 211):
        e = idempotents[i]
        assert (info.stable_j_classes.upset(e).tobytes()
                == oracles.j_upset_by_passes(mon.mult, e, mask).tobytes()), i


def test_stable_j_classes_with_and_without_the_identity_in_xs():
    # (a|b)*: both letters map to 1, so 1 lies in X_s; (bc)*: it does not,
    # and its class in S is {1}
    h = morphism("(a|b)*")
    assert _check_stable_j_classes(h)
    h = morphism("(bc)*")
    assert not _check_stable_j_classes(h)
    one = h.monoid.identity
    assert stability_info(h).stable_j_classes.upset(one).nonzero()[0].tolist() == [one]


def test_closure_check_finds_a_product_outside_in_the_last_row_block(monkeypatch):
    # three table rows per block, so the rows are read in many blocks; a
    # product planted outside the set in any row of a block, or in the
    # last block, is found, and the table as built passes.  S holds most rows, so its rows are read whole;
    # an ideal M z M with the identity, a submonoid that holds under half
    # the rows, takes its own rows
    from fragcheck import stability
    h = transition_monoid(mid_size_draw())
    mult, size = h.monoid.mult, h.monoid.size
    powers = stability_info(h).powers
    sets = [(powers.stable, powers.mask)]
    for z in reversed(range(size)):
        mask = np.zeros(size, dtype=bool)
        mask[mult[mult[:, z]]] = True  # M z M
        mask[h.monoid.identity] = True
        if 3 * 10 < np.count_nonzero(mask) < size / 2:
            sets.append((mask.nonzero()[0], mask))
            break
    assert len(sets) == 2 and 2 * sets[0][0].size > size
    monkeypatch.setattr(stability, "_GATHER_IDS", 3 * size)
    for ids, mask in sets:
        assert 3 * 10 < ids.size < size
        stability._check_closed(mult, ids, mask)
        outside = int((~mask).nonzero()[0][0])
        # rows at every place of a block of up to 12 rows, then the last
        cells = [(row, ids[-1]) for row in ids[:12]]
        cells += [(ids[-1], ids[-1]), (ids[-1], ids[0]), (ids[-2], ids[ids.size // 2])]
        for row, col in cells:
            planted = mult.copy()
            planted[row, col] = outside
            with pytest.raises(ConsistencyError, match="not closed"):
                stability._check_closed(planted, ids, mask)


def test_index_cap_raises_before_residues():
    h = morphism("(bc)*")
    s = stability_info(h).index
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
    mon = OrderedMonoid((ids[:, None] + ids) % n, ([-1, *range(n - 1)], [0] * n, ("a",), [1]))
    h = Morphism(monoid=mon, alphabet=("a",), letter_map={"a": 1}, accepting=frozenset({0}))
    d = make_dfa(["a"], list(range(n)), 0, [0], {(q, "a"): (q + 1) % n for q in range(n)})
    for multiplier in (1, FREE_MULTIPLIER):
        pipeline = LanguageAnalysis(d, index_multiplier=multiplier, morphism=h)
        assert pipeline.stability.index == n * multiplier
        assert pipeline.check("fo_mod") == (True, None)
        assert pipeline.check("fo2_mod_new")[0]
    with pytest.raises(CapError):
        stability_info(h, FREE_MULTIPLIER + 1)


def test_stable_set_checked_for_closure_when_built(monkeypatch):
    from fragcheck import stability
    h = morphism("(a|b)*aa(a|b)*")
    a, real = h.image("a"), stability._PowerImages.at
    # power images read as {a}: the stable set {1, a} is not closed, as a a
    # lies outside it, and the refused entry is not kept
    with monkeypatch.context() as patch:
        patch.setattr(stability._PowerImages, "at",
                      lambda self, k: real(self, k) if k == 0 else np.array([a]))
        for multiplier in (1, 2):
            with pytest.raises(ConsistencyError):
                stability_info(h, multiplier)
    assert h._memo == {}
    info = stability_info(h)
    assert info.stable_me_members(h.image("aa")).tolist() == list(h.monoid.elements())


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
    s = stability_info(h).index
    infos = [stability_info(h, multiplier) for multiplier in (1, 2, 3)]
    assert [info.index for info in infos] == [s, 2 * s, 3 * s]
    assert built == [h]


def test_refused_multiplier_raises_on_every_call():
    h = morphism("(bc)*")
    refused = MAX_INDEX_CELLS // (stability_info(h).index * h.monoid.size) + 1
    for _ in range(2):
        with pytest.raises(CapError):
            stability_info(h, refused)
    assert refused not in h._memo


def test_replace_builds_a_fresh_checked_object_outside_the_memo():
    # a copy shares the per-morphism entry, whose stable set was checked
    # when it was built, and stays out of the memo
    h = morphism("(a|b)*aa(a|b)*")
    info = stability_info(h)
    again = dataclasses.replace(info)
    assert again is not info and stability_info(h) is info
    assert again.powers is info.powers is h._memo["powers"]
    assert again.stable_me_members(h.image("aa")).tolist() == list(h.monoid.elements())


def test_analysed_morphism_is_freed_by_reference_counting():
    # the memo that a morphism shares with its complement, whose verdict
    # keys hold both monoids, and the J-class data of the monoids and the
    # stable submonoid form no reference cycle, so dropping the last
    # references frees both morphisms with the cyclic collector off
    enabled = gc.isenabled()
    gc.disable()
    try:
        d = minimize(regex_to_dfa("((a|b)(a|b))*(aa|bb)(a|b)*"))
        h = transition_monoid(d)
        co = complement_morphism(h)
        for multiplier in (1, 3):
            analyze(d, index_multiplier=multiplier, morphism=h)
        analyze(minimize(complement(d)), morphism=co)
        info = stability_info(h)
        assert info.powers is h._memo["powers"] and info.stable_j_classes is not None
        assert co._memo is h._memo and co.monoid is not h.monoid
        ordered_by = {key[2] for key in h._memo if isinstance(key, tuple)}
        assert ordered_by == {None, h.monoid, co.monoid}
        del ordered_by
        refs = [weakref.ref(x) for x in (h, co, h.monoid, co.monoid, info)]
        del h, co, info
        assert [ref() for ref in refs] == [None] * 5
    finally:
        if enabled:
            gc.enable()


def test_mes_is_the_stable_submonoid_at_every_full_pattern(small_corpus):
    # every letter usable at every residue: every s-letter word is a
    # usable block, so Mes = {1} | X_s = S, which `mes_members` hands out
    # without a walk; the per-residue walk and closure reach S too
    full = 0
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            every = oracles.admissible_by_residues(info, np.arange(h.monoid.size))
            for e in h.monoid.idempotents():
                if every[:, :, e].all():
                    full += 1
                    assert info.mes_members(e) is info.stable
                    assert oracles.mes_by_residues(info, e, every) == set(info.stable.tolist())
    assert full > 100


def test_stable_me_closure_stops_at_the_stable_submonoid(small_corpus, monkeypatch):
    # where S is short of M, the stable Me's generators lie in S, which is
    # closed, so its closure is told |S| and stops once it holds that many
    # elements; where S = M, the stable Me is M's Me, closed without a bound
    limits = []
    real = monoid_module._closure_members

    def recorded(*args, **kw):
        limits.append(kw.get("limit"))
        return real(*args, **kw)

    monkeypatch.setattr(monoid_module, "_closure_members", recorded)
    whole = short = 0
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        info = stability_info(h)
        limits.clear()
        for e, brute in oracles.stable_me_brute(info).items():
            got = info.stable_me_members(e)
            assert set(got.tolist()) == brute
            whole += got.size == info.stable.size
        if info.stable.size < h.monoid.size:
            short += 1
            assert limits and set(limits) == {info.stable.size}
        else:
            assert set(limits) <= {None}
            assert all(info.stable_me_members(e) is h.monoid.me_members(e)
                       for e in h.monoid.idempotents())
    assert whole > 40 and short > 10


def test_a_stable_submonoid_equal_to_the_monoid_reuses_its_structures(small_corpus,
                                                                       monkeypatch):
    # S = M: S's J-classes and stable Me are M's own, and neither the
    # closure check nor S's upset table runs; S short of M takes its own
    from fragcheck import stability
    checks, tables = [], []
    real_check, real_table = stability._check_closed, stability._PowerImages._upset_table

    def counted_check(*args):
        checks.append(args)
        return real_check(*args)

    def counted_table(self):
        tables.append(self)
        return real_table(self)

    monkeypatch.setattr(stability, "_check_closed", counted_check)
    monkeypatch.setattr(stability._PowerImages, "_upset_table", counted_table)
    routes = {True: 0, False: 0}
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        mon = h.monoid
        checks.clear()
        tables.clear()
        info = stability_info(h)
        whole = info.stable.size == mon.size
        routes[whole] += 1
        assert info.powers.whole == whole
        brute = oracles.stable_me_brute(info)
        for e in mon.idempotents():
            got = info.stable_me_members(e)
            assert set(got.tolist()) == brute[e]
            assert (got is mon.me_members(e)) == whole
        assert (info.stable_j_classes is mon.j_classes()) == whole
        assert (len(checks), len(tables)) == ((0, 0) if whole else (1, 1))
    assert routes[True] > 10 and routes[False] > 10, routes


PERIODIC = ("(bc)*", "a(bc)*", "(abc)*", "b(aa)*")
MULTIPLIERS = (1, 2, 3, 5, 8)


def _periodic_and_seeded(small_corpus):
    for pattern in PERIODIC:
        yield morphism(pattern)
    for d in small_corpus[:12]:
        yield transition_monoid(d, max_monoid=600)


def test_per_pair_tables_match_per_residue_oracles(small_corpus):
    brute_checked = 0
    for h in _periodic_and_seeded(small_corpus):
        idempotents = h.monoid.idempotents()
        for multiplier in MULTIPLIERS:
            info = stability_info(h, multiplier)
            every = oracles.admissible_by_residues(info, np.arange(h.monoid.size))
            usable = np.stack([oracles.usable(info, e) for e in idempotents], axis=2)
            assert np.array_equal(usable, every[:, :, idempotents])
            for i, a in enumerate(h.alphabet):
                for r in range(info.index):
                    assert info.admissible_images(a, r) == set(np.flatnonzero(every[i, r]).tolist())
            small = info.index <= 6
            if small:
                brute = oracles.admissible_brute(h, info.index)
                assert all(info.admissible_images(a, r) == images
                           for (a, r), images in brute.items())
            for e in idempotents:
                mes = set(info.mes_members(e).tolist())
                assert mes == oracles.mes_by_residues(info, e, every)
                if small:
                    assert mes == oracles.me_s_brute(h, info.index, e)
                    brute_checked += 1
    assert brute_checked > 100


def test_large_multiplier_costs_what_the_periods_do(monkeypatch):
    # (bc)*: preperiod 2, period 2, least index 2; x166,666 is just under
    # the index cap.  The power steps are built once per morphism, at x1:
    # one right step per power X_1 .. X_(J+p-1), 3, and the stable
    # J-classes' slot(s) = 2 left steps; the recurrence then takes one
    # column per distinct slot pair at every multiplier, and the block walk
    # samples every period in the middle and jumps once a sample repeats: 6
    # steps per walked pattern at x3 and above.  Of the 4 usable patterns,
    # the one of the zero bb is full, so its Mes is S and it walks
    # nothing.  The other 3 walk their block images once from the
    # identity, 2 steps each at x1, and close them over the table, which
    # takes no step
    from fragcheck import stability
    counts = {"step": 0, "block": 0}

    def counted(name, real):
        def step(*args):
            counts[name] += 1
            return real(*args)
        return step

    monkeypatch.setattr(stability, "_step", counted("step", stability._step))
    monkeypatch.setattr(stability, "_block_step", counted("block", stability._block_step))
    d = minimize(regex_to_dfa("(bc)*"))
    h = transition_monoid(d)
    base = analyze(d, morphism=h)
    assert counts == {"step": 5, "block": 6}
    seen = {}
    for multiplier in (3, 166_666):
        counts.update(step=0, block=0)
        report = analyze(d, index_multiplier=multiplier, morphism=h)
        info = stability_info(h, multiplier)
        assert report.verdicts == base.verdicts and report.witnesses == base.witnesses
        assert info.index == 2 * multiplier and len(info._residue_pairs()[1]) == info.index
        seen[multiplier] = (dict(counts), info._adm.shape, len(info._mes_by_pattern))
    assert seen[3] == seen[166_666] == ({"step": 0, "block": 18}, (2, 6, 4), 4)
