"""Fragment verdicts, the combined report, and the ordered wreath-style
witness for the modular product criteria."""

import re

import numpy as np
import pytest

import oracles
from fragcheck import fragments
from fragcheck.automata import complement, intersect, minimize, regex_to_dfa
from fragcheck.errors import ConsistencyError, InputError
from fragcheck.fologic import compile_formula, parse_formula
from fragcheck.fragments import (
    FRAGMENTS,
    LanguageAnalysis,
    analyze,
    build_mod_witness,
    verify_vmod_implication,
)
from fragcheck.monoid import (
    Morphism,
    complement_morphism,
    export_monoid,
    format_word,
    is_aperiodic,
    local_condition,
    syntactic_order,
    transition_monoid,
)
from fragcheck.stability import stability_info
from oracles import table_monoid
from test_acceptance import CORPUS_CAP, corpus


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
    assert LanguageAnalysis(d).check("sigma2_lt")[0]
    assert not LanguageAnalysis(d).check("pi2_lt")[0]
    assert not LanguageAnalysis(d).check("fo2_lt")[0]
    assert LanguageAnalysis(d).check("fo_lt")[0]
    d5 = dfa("(bc)*")
    assert not LanguageAnalysis(d5).check("sigma2_lt")[0]
    assert LanguageAnalysis(d5).check("pi2_lt")[0]
    assert LanguageAnalysis(d5).check("sigma2_mod")[0]
    assert LanguageAnalysis(d5).check("fo2_mod_new")[0]


def test_prebuilt_morphism_gives_the_same_report():
    for pattern in ("(a|b)*aa(a|b)*", "(bc)*", "((a|b)(a|b))*b"):
        d = dfa(pattern)
        morphism = transition_monoid(d)
        for mult in (1, 3):
            shared = analyze(d, index_multiplier=mult, morphism=morphism)
            own = analyze(d, index_multiplier=mult)
            assert shared.to_doc() == own.to_doc(), (pattern, mult)


def test_stable_checks_match_the_copied_submonoid(small_corpus):
    # fo_mod and fo2_mod_qda read the parent table through the stable ids;
    # the oracle copies the stable submonoid into a monoid of its own
    negative = 0
    for d in small_corpus:
        pipeline = LanguageAnalysis(d, max_monoid=600)
        h = pipeline.morphism
        sub, ids = oracles.submonoid_view(h.monoid, pipeline.stability.stable)

        def words(e, x):
            return (format_word(h.word_of(ids[e])), format_word(h.word_of(ids[x])))

        ok, x = is_aperiodic(sub)
        expected = (True, None) if ok else (False, words(sub.omega(x), x))
        assert pipeline.check("fo_mod") == expected
        (pair,) = local_condition(sub, sub.idempotents(), sub.me_members)
        expected = (True, None) if pair is None else (False, words(*pair))
        assert pipeline.check("fo2_mod_qda") == expected
        negative += pair is not None
    assert 0 < negative < len(small_corpus)


def test_one_visit_per_j_class_matches_every_idempotent_on_corpus():
    # fo2_lt, sigma2_lt, pi2_lt and fo2_mod_qda visit one idempotent per
    # regular J-class (of M, or of S); the verdicts and witnesses equal
    # those of visits to every idempotent, and the visited idempotents are
    # the least ones of the classes Green's relations give
    for d in corpus():
        h = syntactic_order(transition_monoid(d, CORPUS_CAP))
        mon = h.monoid
        for multiplier in (1, 3):
            pipeline = LanguageAnalysis(d, max_monoid=CORPUS_CAP,
                                        index_multiplier=multiplier, morphism=h)
            info = pipeline.stability
            for fid, pair in oracles.local_checks_at_every_idempotent(h, info).items():
                words = None if pair is None else tuple(format_word(h.word_of(x)) for x in pair)
                assert pipeline.check(fid) == (pair is None, words), fid
            sub, ids = oracles.submonoid_view(mon, info.stable)
            by_brute = [ids[e] for e in oracles.j_class_representatives(sub)]
            assert list(info.stable_j_classes.representatives()) == by_brute
        assert list(mon.j_classes().representatives()) == oracles.j_class_representatives(mon)


def test_mes_checks_at_one_idempotent_per_stable_j_class_match_every_idempotent(
        xcheck_corpus):
    # fo2_mod_new, sigma2_mod, pi2_mod and the hypothesis guard of
    # build_mod_witness visit the least idempotent of each regular J-class
    # of S; the offenders equal those of visits to every idempotent
    failing = 0
    for d in xcheck_corpus:
        h = syntactic_order(transition_monoid(d, 32))
        for multiplier in (1, 2, 3):
            pipeline = LanguageAnalysis(d, max_monoid=32, index_multiplier=multiplier,
                                        morphism=h)
            info = pipeline.stability
            expected = oracles.mes_checks_at_every_idempotent(h, info)
            for fid, pair in expected.items():
                words = None if pair is None else tuple(format_word(h.word_of(x)) for x in pair)
                assert pipeline.check(fid) == (pair is None, words), (fid, multiplier)
            pair = expected["sigma2_mod"]
            if pair is None:
                build_mod_witness(h, info)
                continue
            failing += 1
            e, x = (format_word(h.word_of(y)) for y in pair)
            with pytest.raises(InputError, match=re.escape(f"fails at e={e} x={x}") + "$"):
                build_mod_witness(h, info)
    assert failing


# A Sigma_2[<,MOD] sentence with |M| = 5216 and a stable submonoid of 849
# elements, all idempotent, in 67 J-classes
SIGMA2_SENTENCE = """
(exists x1 (forall y1 (or (and (not (lab x1 a)) (or (< y1 x1) (mod y1 2 2)))
  (or (and (or (lab x1 a) (len 3 3)) (and (lab y1 b) (< x1 y1)))
      (and (mod x1 3 2) (not (lab y1 b)))))))
"""


def test_sigma2_sentence_computes_one_stable_upset_per_j_class(monkeypatch):
    # S's classes are read off one upset table of S, which holds the upset
    # of every idempotent of S, so each of its 67 classes gets one
    from fragcheck import stability
    tables = []
    real = stability._PowerImages._upset_table

    def counted(self):
        tables.append(self)
        return real(self)

    monkeypatch.setattr(stability._PowerImages, "_upset_table", counted)
    d = compile_formula(parse_formula(SIGMA2_SENTENCE), ["a", "b"])
    h = transition_monoid(d)
    report = analyze(d, morphism=h)
    assert (report.monoid_size, report.stable_size) == (5216, 849)
    modular = [fid for fid in FRAGMENTS if "_mod" in fid]
    assert len(modular) == 6
    for fid in FRAGMENTS:
        expected = (True, None) if fid in modular else (False, ("aaaaaa", "a"))
        assert (report.verdicts[fid], report.witnesses[fid]) == expected, fid
    assert sum(h.monoid.is_idempotent(x) for x in stability_info(h).stable) == 849
    assert tables == [stability_info(h).powers]
    assert len(stability_info(h).stable_j_classes.representatives()) == 67


def _count_sweeps(monkeypatch):
    """Record each local sweep the fragments module makes, as (member
    source, relations), a relation being eq, leq or geq."""
    from fragcheck import fragments
    calls = []
    real = fragments.local_condition

    def counted(m, idempotents, members, orders=(None,)):
        relations = []
        for order in orders:
            if order is None:
                relations.append("eq")
            else:
                relation = "leq" if np.array_equal(order, m.leq) else "geq"
                assert np.array_equal(order, m.leq if relation == "leq" else m.leq.T)
                relations.append(relation)
        calls.append((members.__name__, tuple(relations)))
        return real(m, idempotents, members, orders)

    monkeypatch.setattr(fragments, "local_condition", counted)
    return calls


def test_check_memoises_verdicts_for_the_conjunctions(monkeypatch):
    # one sweep per member source decides its =, <= and >= fragments; S =
    # M here, so fo2_mod_qda is fo2_lt's verdict, from the same sweep
    calls = _count_sweeps(monkeypatch)
    pipeline = LanguageAnalysis(dfa("(a|b)*aa(a|b)*"))
    first = pipeline.check("sigma2_lt")
    assert pipeline.check("delta2_lt") == pipeline.check("pi2_lt")
    assert pipeline.check("sigma2_lt") is first
    pipeline.check("fo2_lt")
    assert calls == [("me_members", ("eq", "leq", "geq"))]
    pipeline.check("delta2_mod")
    pipeline.check("sigma2_mod")
    pipeline.check("fo2_mod_new")
    assert pipeline.check("fo2_mod_qda") is pipeline.check("fo2_lt")
    pipeline.check("pi2_mod")
    assert calls[1:] == [("mes_members", ("eq", "leq", "geq"))]


# (a|b)*aa(a|b)*: S = M, |M| = 6; ((a|b)(a|b))*(aa|bb)(a|b)*: |S| = 9 < |M| = 15
WHOLE, SHORT = "(a|b)*aa(a|b)*", "((a|b)(a|b))*(aa|bb)(a|b)*"


def test_analyze_makes_one_sweep_per_member_source(monkeypatch):
    # the stable Me is swept only where S is short of M: where S = M it is
    # Me, at M's J-classes, which the sweep over Me has decided
    calls = _count_sweeps(monkeypatch)
    analyze(dfa(WHOLE))
    assert sorted(calls) == [
        ("me_members", ("eq", "leq", "geq")), ("mes_members", ("eq", "leq", "geq")),
    ]
    calls.clear()
    analyze(dfa(SHORT))
    assert sorted(calls) == [
        ("me_members", ("eq", "leq", "geq")), ("mes_members", ("eq", "leq", "geq")),
        ("stable_me_members", ("eq",)),
    ]


def test_verdicts_are_kept_with_what_they_read(monkeypatch):
    # a second analysis of one morphism, at another multiplier, and the
    # complement's analysis, sweep only for what reads their own s or order
    calls = _count_sweeps(monkeypatch)
    for pattern in (WHOLE, SHORT):
        d = dfa(pattern)
        h = transition_monoid(d)
        first = analyze(d, morphism=h)
        calls.clear()
        again = analyze(d, morphism=h, index_multiplier=3)
        assert sorted(calls) == [("mes_members", ("eq", "leq", "geq"))], pattern
        assert again.to_doc() == analyze(d, index_multiplier=3).to_doc()
        calls.clear()
        co = analyze(complement(d), morphism=complement_morphism(h))
        assert sorted(calls) == [("me_members", ("leq", "geq")),
                                 ("mes_members", ("leq", "geq"))], pattern
        assert co.to_doc() == analyze(complement(d)).to_doc()
        assert first.to_doc() == analyze(d).to_doc()


def test_lone_equality_checks_build_no_order(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    d = dfa("(a|b)*aa(a|b)*")
    for fid in ("fo2_lt", "fo2_mod_new"):
        pipeline = LanguageAnalysis(d)
        pipeline.check(fid)
        assert pipeline.morphism.monoid.leq is None, fid
    pipeline.check("fo2_lt")
    assert pipeline.morphism.monoid.leq is None
    # an order check then sweeps again for the two relations still open
    pipeline.check("pi2_mod")
    assert pipeline.morphism.monoid.leq is not None
    assert calls == [
        ("me_members", ("eq",)), ("mes_members", ("eq",)), ("me_members", ("eq",)),
        ("mes_members", ("leq", "geq")),
    ]
    report = analyze(d)
    for fid in ("fo2_lt", "fo2_mod_new", "sigma2_mod", "pi2_mod"):
        assert pipeline.check(fid) == (report.verdicts[fid], report.witnesses[fid]), fid


def test_local_sweeps_match_the_brute_loop_on_corpus(small_corpus):
    # each relation's witness, from one sweep per member source, against
    # the scalar loop at every idempotent, relation by relation
    modes = {"fo2_lt": "eq", "sigma2_lt": "leq", "pi2_lt": "geq",
             "fo2_mod_new": "eq", "sigma2_mod": "leq", "pi2_mod": "geq"}
    negative = dict.fromkeys(modes, 0)
    for d in small_corpus:
        h = syntactic_order(transition_monoid(d, max_monoid=600))
        mon = h.monoid
        for multiplier in (1, 3):
            pipeline = LanguageAnalysis(d, index_multiplier=multiplier, morphism=h)
            info = pipeline.stability
            for fid, mode in modes.items():
                source = mon.me_members if fid.endswith("_lt") else info.mes_members
                pair = oracles.local_condition_brute(mon, mode, lambda e: source(e).tolist())
                words = None if pair is None else tuple(format_word(h.word_of(x)) for x in pair)
                assert pipeline.check(fid) == (pair is None, words), (fid, multiplier)
                negative[fid] += pair is not None
    assert all(0 < n < 2 * len(small_corpus) for n in negative.values()), negative


def test_check_fragment_rejects_unknown_name():
    with pytest.raises(InputError):
        LanguageAnalysis(dfa("a*")).check("sigma3_lt")


def test_degenerate_languages_lie_in_every_fragment():
    empty = intersect(dfa("a"), dfa("aa"))
    just_eps = dfa("()", alphabet=["a"])
    everything = dfa("(a|b)*")
    for d in (empty, just_eps, everything):
        report = analyze(d)
        assert all(report.verdicts[f] for f in FRAGMENTS)


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
    assert not report.verdicts["fo2_lt"]
    e_word, x_word = report.witnesses["fo2_lt"]
    h = syntactic_order(transition_monoid(dfa("(a|b)*(aa|bb)(a|b)*")))
    e, x = decode(h, e_word), decode(h, x_word)
    assert h.monoid.is_idempotent(e)
    assert h.monoid.mul(h.monoid.mul(e, x), e) != e
    # aperiodicity witness pairs the omega power with the offending element
    report2 = analyze(dfa("(b*ab*a)*b*"))
    assert not report2.verdicts["fo_lt"]
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
    assert g.image(oracles.decorate_word("bc", info.index)) != g.image(
        oracles.decorate_word("cb", info.index))
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
        if stability_info(h).index > 1 and LanguageAnalysis(d).check("sigma2_mod")[0]:
            g = _witness_order_matches_label_rule(h)
            assert g.monoid.size > h.monoid.size
            break
    else:
        pytest.fail("no corpus language with a nontrivial sigma2_mod witness")


def _witnesses(corpus):
    """(h, info, g): the ordered syntactic morphism, the stability data
    and the witness, for every corpus language with sigma2_mod, at index
    multipliers 1 and 2."""
    for d in corpus:
        h = syntactic_order(transition_monoid(d, max_monoid=32))
        for multiplier in (1, 2):
            pipeline = LanguageAnalysis(d, index_multiplier=multiplier, morphism=h)
            if pipeline.check("sigma2_mod")[0]:
                info = pipeline.stability
                yield h, info, build_mod_witness(h, info)


def test_mod_witness_matches_tuple_label_oracle(xcheck_corpus):
    built = 0
    for h, info, g in _witnesses(xcheck_corpus):
        assert export_monoid(g) == export_monoid(oracles.mod_witness_by_tuple_labels(h, info))
        built += 1
    assert built >= 60


def _weakened(g, leq):
    """g with the relation `leq` in place of its order; the implication
    check reads the relation as it is, so it need not be an order."""
    mon = g.monoid.with_order(None)
    mon.leq = leq
    return Morphism(monoid=mon, alphabet=g.alphabet, letter_map=g.letter_map)


@pytest.mark.parametrize("gather", [None, 7])
def test_vmod_implication_matches_pair_loop_oracle(monkeypatch, xcheck_corpus, gather):
    # the same verdict and the same first counterexample, on the witnesses
    # and on witnesses whose order claims more pairs: every pair, or also
    # every pair of words of equal length residue; `gather` forces blocks
    # of a few rows
    if gather is not None:
        monkeypatch.setattr(fragments, "_GATHER_IDS", gather)
    failed = 0
    for h, info, g in _witnesses(xcheck_corpus):
        s = info.index
        size = g.monoid.size
        every = np.ones((size, size), dtype=bool)
        words = oracles.element_words(g.monoid)
        alike = np.array([[len(u) % s == len(v) % s for v in words] for u in words])
        for witness in (g, _weakened(g, every), _weakened(g, g.monoid.leq | alike)):
            for max_len in (s, 2 * s + 2):
                got = verify_vmod_implication(h, witness, s, max_len)
                assert got == oracles.vmod_implication_by_pair_loop(h, witness, s, max_len)
                failed += not got[0]
    assert failed >= 100


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
    collapsed = table_monoid([[0]], leq=[[True]])
    g = Morphism(monoid=collapsed, alphabet=("a@1",), letter_map={"a@1": 0})
    ok, pair = verify_vmod_implication(h, g, 1, 4)
    assert not ok
    u, v = pair
    assert len(u) <= 4 and len(v) <= 4
    assert not h.monoid.leq[h.image(v), h.image(u)] or not h.monoid.leq[
        h.image(u), h.image(v)]


def test_verify_vmod_implication_vacuous_at_zero_length():
    h = syntactic_order(transition_monoid(dfa("(aa)*")))
    collapsed = table_monoid([[0]], leq=[[True]])
    g = Morphism(monoid=collapsed, alphabet=("a@1",), letter_map={"a@1": 0})
    ok, pair = verify_vmod_implication(h, g, 1, 0)
    assert ok and pair is None


def test_verify_vmod_implication_validates_inputs():
    h = syntactic_order(transition_monoid(dfa("(aa)*")))
    collapsed = table_monoid([[0]], leq=[[True]])
    wrong_alphabet = Morphism(monoid=collapsed, alphabet=("b@1",), letter_map={"b@1": 0})
    with pytest.raises(InputError):
        verify_vmod_implication(h, wrong_alphabet, 1, 2)
    unordered = Morphism(
        monoid=table_monoid([[0]]), alphabet=("a@1",), letter_map={"a@1": 0})
    with pytest.raises(InputError):
        verify_vmod_implication(h, unordered, 1, 2)
