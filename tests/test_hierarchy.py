"""Idempotent-signature quotients and the two alternation level counters."""

import tracemalloc

import numpy as np
import pytest

import oracles
from fragcheck import monoid as monoid_module
from fragcheck.automata import minimize, regex_to_dfa
from fragcheck.errors import InputError
from fragcheck.hierarchy import sim_quotient, wv_level
from fragcheck.monoid import transition_monoid
from test_monoid import _random_seven_state_dfa, count_upset_builders, mid_size_draw


def morphism(pattern):
    return transition_monoid(minimize(regex_to_dfa(pattern)))


def signature_classes(m, side):
    """Definition-chasing oracle for the side congruence: its classes,
    numbered by their least members."""
    mon = m.monoid
    sigs = []
    for x in mon.elements():
        parts = []
        for e in mon.idempotents():
            y = mon.mul(e, x) if side == "K" else mon.mul(x, e)
            ideal = {mon.mul(y, z) for z in mon.elements()} if side == "K" else {
                mon.mul(z, y) for z in mon.elements()}
            parts.append(y if e in ideal else -1)
        sigs.append(tuple(parts))
    groups = {}
    for x, s in enumerate(sigs):
        groups.setdefault(s, []).append(x)
    return tuple(tuple(g) for g in groups.values())


def test_sim_quotient_is_a_homomorphism():
    h = morphism("(a|b)*aa(a|b)*")
    q = sim_quotient(h, "K")
    mon, qmon = h.monoid, q.quotient.monoid
    for a in h.alphabet:
        assert q.quotient.letter_map[a] == q.class_of[h.letter_map[a]]
    for x in mon.elements():
        for y in mon.elements():
            assert q.class_of[mon.mul(x, y)] == qmon.mul(q.class_of[x], q.class_of[y])
    assert qmon.identity == q.class_of[mon.identity]


def test_sim_quotient_partition_matches_definition(small_corpus):
    patterns = ("(a|b)*aa(a|b)*", "(bc)*", "a(a|b)*", "(b*ab*a)*b*")
    morphisms = [morphism(p) for p in patterns]
    morphisms += [transition_monoid(d, max_monoid=600) for d in small_corpus[:20]]
    for h in morphisms:
        if h.monoid.size > 64:
            continue
        for side in ("K", "D"):
            q = sim_quotient(h, side)
            assert q.classes == signature_classes(h, side)
            assert q.class_of == tuple(
                next(c for c, members in enumerate(q.classes) if x in members)
                for x in h.monoid.elements())


def test_sim_quotient_group_stays_whole():
    # every right ideal of a group is the group, so signatures separate all
    h = morphism("(b*ab*a)*b*")
    q = sim_quotient(h, "K")
    assert q.quotient.monoid.size == 2
    assert q.classes == ((0,), (1,))


def test_sim_quotient_never_grows(small_corpus):
    for d in small_corpus[:12]:
        h = transition_monoid(d, max_monoid=600)
        for side in ("K", "D"):
            q = sim_quotient(h, side)
            assert q.quotient.monoid.size <= h.monoid.size
            assert sum(len(c) for c in q.classes) == h.monoid.size


def test_sim_quotient_peak_memory_is_below_two_tables():
    # one |Q|^2 quotient table mapped in place, signatures read off the
    # J-upsets, and the congruence checked in blocks of rows
    h = transition_monoid(mid_size_draw())
    for side in ("K", "D"):
        tracemalloc.start()
        try:
            q = sim_quotient(h, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.quotient.monoid.size <= h.monoid.size == 1580
        assert peak < 2 * h.monoid.mult.nbytes


def test_sim_quotient_rejects_unknown_side():
    with pytest.raises(InputError):
        sim_quotient(morphism("a*"), "R")


def test_quotient_words_are_the_least_words_of_their_classes(small_corpus):
    # along the quotient chains that `wv_level` walks, from either side and
    # past the level it stops at: each class spells the shortest, then
    # least, word of its members, and maps to itself
    quotients = 0
    for d in small_corpus:
        for side in ("K", "D"):
            cur, stalls = transition_monoid(d, max_monoid=600), 0
            while stalls < 2:
                q = sim_quotient(cur, side)
                qh = q.quotient
                words = [qh.word_of(c) for c in qh.monoid.elements()]
                assert words == oracles.quotient_words_by_min(q)
                assert [qh.image(w) for w in words] == list(qh.monoid.elements())
                stalls = stalls + 1 if qh.monoid.size == cur.monoid.size else 0
                cur, side = qh, "D" if side == "K" else "K"
                quotients += 1
    assert quotients >= 4 * len(small_corpus)


def test_a_large_quotient_places_its_j_classes_by_letter_steps(monkeypatch):
    # the K quotient of the seed-61 draw has 115 elements, above the table
    # route's threshold: its tree gives the letter-step table
    q = sim_quotient(transition_monoid(minimize(_random_seven_state_dfa(61))), "K")
    mon = q.quotient.monoid
    assert mon.size == 115 > monoid_module._BFS_MIN_SIZE
    built = count_upset_builders(monkeypatch)
    classes = mon.j_classes()
    assert built == {"_upset_table": 1}
    for e in mon.idempotents():
        assert classes.upset(e).tobytes() == oracles.j_upset_by_passes(mon.mult, e).tobytes()


def test_levels_for_simple_languages():
    lv = wv_level(morphism("((a|b)(a|b))*"))
    assert (lv.w, lv.v) == (2, 2)
    assert lv.w_sizes == (2,)
    lv = wv_level(morphism("(a|b)*"))
    assert (lv.w, lv.v) == (2, 2)
    lv = wv_level(morphism("(bc)*"))
    assert (lv.w, lv.v) == (2, 2)


def test_levels_split_between_sides():
    first = wv_level(morphism("a(a|b)*"))
    assert (first.w, first.v) == (2, 3)
    last = wv_level(morphism("(a|b)*a"))
    assert (last.w, last.v) == (3, 2)
    # the two languages are each other's reversals, so the sides swap
    assert (first.w, first.v) == (last.v, last.w)


def test_levels_stall_outside_the_hierarchy():
    # a non-commutative collapse never happens for the parity language
    lv = wv_level(morphism("(b*ab*a)*b*"))
    assert lv.w is None and lv.v is None
    assert all(s == 2 for s in lv.w_sizes)
    lv2 = wv_level(morphism("(a|b)*aa(a|b)*"))
    assert lv2.w is None and lv2.v is None


def test_level_cap_limits_search():
    lv = wv_level(morphism("(a|b)*a"), max_level=2)
    assert lv.w is None
    assert lv.v == 2
