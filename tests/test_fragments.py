"""Fragment verdicts, the combined report, and the ordered wreath-style
witness for the modular product criteria."""

import numpy as np
import pytest

import oracles
from fragcheck.automata import complement, intersect, minimize, regex_to_dfa
from fragcheck.errors import ConsistencyError, InputError
from fragcheck.fragments import (
    FRAGMENTS,
    analyze,
    build_mod_witness,
    check_fragment,
    verify_vmod_implication,
)
from fragcheck.monoid import Morphism, OrderedMonoid, syntactic_order, transition_monoid
from fragcheck.stability import stability_info


def dfa(pattern, **kw):
    return minimize(regex_to_dfa(pattern, **kw))


def test_fragment_list_is_fixed():
    assert FRAGMENTS == (
        "fo_lt", "fo2_lt", "sigma2_lt", "pi2_lt", "delta2_lt",
        "fo_mod", "fo2_mod_qda", "sigma2_mod", "pi2_mod", "delta2_mod",
        "fo2_mod_new",
    )


def test_check_fragment_spot_values():
    d = dfa("(a|b)*aa(a|b)*")
    assert check_fragment(d, "sigma2_lt")[0]
    assert not check_fragment(d, "pi2_lt")[0]
    assert not check_fragment(d, "fo2_lt")[0]
    assert check_fragment(d, "fo_lt")[0]
    d5 = dfa("(bc)*")
    assert not check_fragment(d5, "sigma2_lt")[0]
    assert check_fragment(d5, "pi2_lt")[0]
    assert check_fragment(d5, "sigma2_mod")[0]
    assert check_fragment(d5, "fo2_mod_new")[0]


def test_check_fragment_rejects_unknown_name():
    with pytest.raises(InputError):
        check_fragment(dfa("a*"), "sigma3_lt")


def test_degenerate_languages_lie_in_every_fragment():
    empty = intersect(dfa("a"), dfa("aa"))
    just_eps = dfa("()", alphabet=["a"])
    everything = dfa("(a|b)*")
    for d in (empty, just_eps, everything):
        report = analyze(d)
        assert all(report.verdict(f) for f in FRAGMENTS)


def test_analyze_report_shape():
    report = analyze(dfa("(a|b)*aa(a|b)*"), language_id="factor-aa")
    assert report.language_id == "factor-aa"
    assert report.monoid_size == 6
    assert report.stability_index == 3
    assert report.stable_size == 6
    doc = report.to_doc()
    assert set(doc["fragments"]) == set(FRAGMENTS)
    assert doc["fragments"]["fo_lt"]["definable"] is True
    assert doc["fragments"]["fo2_lt"]["witness"] is not None
    text = report.to_text()
    assert "language factor-aa" in text
    assert "monoid size 6, stability index 3, stable size 6" in text
    for f in FRAGMENTS:
        assert f in text


def decode(h, word):
    return h.image("" if word == "ε" else word)


def test_witness_words_reproduce_failures():
    report = analyze(dfa("(a|b)*(aa|bb)(a|b)*"))
    assert not report.verdict("fo2_lt")
    e_word, x_word = report.witnesses["fo2_lt"]
    h = syntactic_order(transition_monoid(dfa("(a|b)*(aa|bb)(a|b)*")))
    e, x = decode(h, e_word), decode(h, x_word)
    assert h.monoid.is_idempotent(e)
    assert h.monoid.mul(h.monoid.mul(e, x), e) != e
    # aperiodicity witness pairs the omega power with the offending element
    report2 = analyze(dfa("(b*ab*a)*b*"))
    assert not report2.verdict("fo_lt")
    w_word, x_word2 = report2.witnesses["fo_lt"]
    h2 = syntactic_order(transition_monoid(dfa("(b*ab*a)*b*")))
    w2, x2 = decode(h2, w_word), decode(h2, x_word2)
    assert h2.monoid.omega(x2) == w2
    assert h2.monoid.mul(w2, x2) != w2


def test_analyze_index_multiplier_changes_nothing():
    d = dfa("((a|b)(a|b))*(aa|bb)(a|b)*")
    plain = analyze(d).verdicts
    doubled = analyze(d, index_multiplier=2).verdicts
    tripled = analyze(d, index_multiplier=3).verdicts
    assert plain == doubled == tripled


def test_fragment_implications_on_corpus(small_corpus):
    implications = (
        ("sigma2_lt", "sigma2_mod"),
        ("pi2_lt", "pi2_mod"),
        ("fo2_lt", "fo2_mod_qda"),
        ("sigma2_lt", "fo_lt"),
        ("pi2_lt", "fo_lt"),
        ("fo2_mod_new", "fo_mod"),
        ("delta2_lt", "fo2_lt"),
    )
    for d in small_corpus[:20]:
        v = analyze(d).verdicts
        for weak, strong in implications:
            assert not v[weak] or v[strong], (weak, strong)


def test_complement_swaps_the_half_levels(small_corpus):
    for d in small_corpus[:10]:
        v = analyze(d).verdicts
        w = analyze(minimize(complement(d))).verdicts
        assert v["sigma2_lt"] == w["pi2_lt"]
        assert v["pi2_lt"] == w["sigma2_lt"]
        assert v["sigma2_mod"] == w["pi2_mod"]
        assert v["delta2_lt"] == w["delta2_lt"]
        assert v["fo2_mod_new"] == w["fo2_mod_new"]


def test_build_mod_witness_small_bounds():
    h = syntactic_order(transition_monoid(dfa("((a|b)(a|b))*")))
    info = stability_info(h)
    g = build_mod_witness(h, info)
    assert g.monoid.size <= info.index ** 2 * h.monoid.size + 2
    ok, _ = verify_vmod_implication(h, g, info.index, 2 * info.index + 2)
    assert ok


def test_build_mod_witness_separates_residues():
    h = syntactic_order(transition_monoid(dfa("(bc)*")))
    info = stability_info(h)
    g = build_mod_witness(h, info)
    from fragcheck.automata import decorate_word

    assert g.image(decorate_word("bc", info.index)) != g.image(
        decorate_word("cb", info.index))
    assert g.monoid.size <= info.index ** 2 * h.monoid.size + 2


def _witness_order_matches_label_rule(h):
    info = stability_info(h)
    g = build_mod_witness(h, info)
    expected = oracles.witness_leq_by_labels(h, g, info.index)
    assert np.array_equal(g.monoid.leq, expected)
    return g


def test_build_mod_witness_order_follows_label_rule(small_corpus):
    g = _witness_order_matches_label_rule(syntactic_order(transition_monoid(dfa("(bc)*"))))
    assert g.monoid.size == 14
    # the first corpus language with sigma2_mod and a nontrivial stable index
    for d in small_corpus:
        h = syntactic_order(transition_monoid(d, max_monoid=600))
        if stability_info(h).index > 1 and check_fragment(d, "sigma2_mod")[0]:
            g = _witness_order_matches_label_rule(h)
            assert g.monoid.size > h.monoid.size
            break
    else:
        pytest.fail("no corpus language with a nontrivial sigma2_mod witness")


def test_build_mod_witness_requires_order_and_hypothesis():
    h = transition_monoid(dfa("((a|b)(a|b))*"))
    info = stability_info(h)
    with pytest.raises(InputError):
        build_mod_witness(h, info)  # no order bound yet
    bad = syntactic_order(transition_monoid(dfa("(b*ab*a)*b*")))
    bad_info = stability_info(bad)
    with pytest.raises(InputError):
        build_mod_witness(bad, bad_info)  # leq on Mes fails for the group


def test_verify_vmod_implication_catches_bad_morphism():
    # a collapsing comparison monoid claims every pair, so the implication
    # must fail as soon as the syntactic order separates two words
    h = syntactic_order(transition_monoid(dfa("(aa)*")))
    collapsed = OrderedMonoid([[0]], 0, leq=[[True]])
    g = Morphism(monoid=collapsed, alphabet=("a@1",), letter_map={"a@1": 0})
    ok, pair = verify_vmod_implication(h, g, 1, 4)
    assert not ok
    u, v = pair
    assert len(u) <= 4 and len(v) <= 4
    assert not h.monoid.leq[h.image(v), h.image(u)] or not h.monoid.leq[
        h.image(u), h.image(v)]


def test_verify_vmod_implication_vacuous_at_zero_length():
    h = syntactic_order(transition_monoid(dfa("(aa)*")))
    collapsed = OrderedMonoid([[0]], 0, leq=[[True]])
    g = Morphism(monoid=collapsed, alphabet=("a@1",), letter_map={"a@1": 0})
    ok, pair = verify_vmod_implication(h, g, 1, 0)
    assert ok and pair is None


def test_verify_vmod_implication_validates_inputs():
    h = syntactic_order(transition_monoid(dfa("(aa)*")))
    collapsed = OrderedMonoid([[0]], 0, leq=[[True]])
    wrong_alphabet = Morphism(monoid=collapsed, alphabet=("b@1",), letter_map={"b@1": 0})
    with pytest.raises(InputError):
        verify_vmod_implication(h, wrong_alphabet, 1, 2)
    unordered = Morphism(
        monoid=OrderedMonoid([[0]], 0), alphabet=("a@1",), letter_map={"a@1": 0})
    with pytest.raises(InputError):
        verify_vmod_implication(h, unordered, 1, 2)
