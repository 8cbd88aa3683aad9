"""Block-product language expressions: evaluation, validation, printing,
and the translation into first-order sentences."""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

import exprsuite
import oracles
from fragcheck import modprod
from fragcheck.automata import equivalent, minimize, mod1, regex_to_dfa
from fragcheck.errors import CapError, InputError
from fragcheck.fologic import compile_formula, eval_formula
from fragcheck.modprod import (
    Base,
    CodetProd,
    DetProd,
    Union,
    eval_expr,
    expr_to_formula,
    expr_to_sexp,
    make_base,
    parse_expr,
    validate,
)


def brute_holds(e, word):
    """Direct reading of the combinator semantics, used as the oracle."""
    if isinstance(e, Base):
        n = e.modulus
        if len(word) % n != 0:
            return False
        return all(a in e.sets[mod1(i, n) - 1] for i, a in enumerate(word, start=1))
    if isinstance(e, Union):
        return brute_holds(e.left, word) or brute_holds(e.right, word)
    if isinstance(e, (DetProd, CodetProd)):
        return any(
            word[i] == e.letter
            and brute_holds(e.left, word[:i])
            and brute_holds(e.right, word[i + 1:])
            for i in range(len(word))
        )
    raise AssertionError(f"unknown expression {e!r}")


def test_make_base_validation():
    b = make_base([{"a"}, {"b", "c"}])
    assert b.modulus == 2
    assert b.sets == (frozenset({"a"}), frozenset({"b", "c"}))
    with pytest.raises(InputError):
        make_base([])
    with pytest.raises(InputError):
        make_base([{"a"}, {1}])


def test_valid_suite_passes_validator_and_matches_regex():
    for name, expr, alphabet, regex in exprsuite.VALID:
        assert validate(expr, alphabet) == [], name
        d = eval_expr(expr, alphabet)
        ok, sep = equivalent(minimize(d), minimize(regex_to_dfa(regex, alphabet=alphabet)))
        assert ok, (name, sep)


def test_valid_suite_matches_brute_semantics():
    for name, expr, alphabet, _ in exprsuite.VALID:
        d = eval_expr(expr, alphabet)
        for w in oracles.words(tuple(alphabet), 6):
            assert d.accepts(w) == brute_holds(expr, w), (name, w)


def test_invalid_suite_reports_expected_rules():
    for expr, alphabet, rule in exprsuite.INVALID:
        violations = validate(expr, alphabet)
        assert violations, rule
        assert rule in {v.rule for v in violations}


def test_validator_flags_letters_outside_alphabet():
    violations = validate(exprsuite.BC, ["a", "b"])
    assert {v.rule for v in violations} == {"alphabet"}


def test_eval_expr_refuses_what_stops_the_walk_with_its_message():
    # a letter outside the alphabet or a modulus below 1 leaves no DFA to
    # return; the other side conditions are not needed to evaluate
    with pytest.raises(InputError, match="^marker letter outside the alphabet: z$"):
        eval_expr(DetProd(2, exprsuite.BC, "z", exprsuite.BC), ["b", "c"])
    with pytest.raises(InputError, match="^letters outside the alphabet: a$"):
        eval_expr(exprsuite.AA, ["b", "c"])
    with pytest.raises(InputError, match="^modulus must be at least 1, got 0$"):
        eval_expr(DetProd(0, exprsuite.BC, "a", exprsuite.BC), ["a", "b", "c"])
    expr, alphabet, _ = exprsuite.INVALID[0]
    assert eval_expr(expr, alphabet).accepts(("a",))


def test_validator_flags_nonpositive_modulus():
    bad = DetProd(0, exprsuite.BC, "a", exprsuite.BC)
    violations = validate(bad, ["a", "b", "c"])
    assert "modulus" in {v.rule for v in violations}


def test_huge_modulus_is_capped_not_enumerated():
    # the residue checks walk (state, residue) pairs, so a modulus whose
    # pairs exceed the state cap exits 3 at once instead of walking 10^12
    # of them; just under the cap it still answers
    huge = DetProd(10**12, exprsuite.EPS2, "a", exprsuite.EVEN2)
    with pytest.raises(CapError):
        validate(huge, ["a", "b"])
    with pytest.raises(CapError):
        expr_to_formula(huge, ["a", "b"])
    large = DetProd(50_000, exprsuite.EPS2, "a", exprsuite.EVEN2)
    assert validate(large, ["a", "b"]) == []


def test_uniform_length_message_lists_few_residues_then_their_count():
    # (base ((b))) has every length residue: a small modulus lists them all,
    # as before, a large one the first eight and their count
    b = parse_expr("(base ((b)))")
    (few,) = validate(CodetProd(5, b, "a", b), ["a", "b"])
    assert few.rule == "uniform-length"
    assert few.message == (
        "right operand must have exactly one length residue mod 5, found: 1, 2, 3, 4, 5")
    (many,) = validate(CodetProd(100_000, b, "a", b), ["a", "b"])
    assert many.rule == "uniform-length"
    assert many.message == (
        "right operand must have exactly one length residue mod 100000, "
        "found: 1, 2, 3, 4, 5, 6, 7, 8, ... (100000 residues)")


def test_violation_paths_locate_subterms():
    bad = Union(make_base([{"a"}]), make_base([{"a"}]))
    violations = validate(bad, ["a"])
    assert any(v.rule == "disjoint" for v in violations)
    deep = DetProd(2, Union(exprsuite.AA, exprsuite.AA), "b", exprsuite.EVEN2)
    paths = {v.path for v in validate(deep, ["a", "b"])}
    assert any("left" in p for p in paths)


def test_determinism_violation_has_a_two_split_witness():
    bad = DetProd(2, exprsuite.EVEN2, "a", make_base([exprsuite.ANY2]))
    violations = [v for v in validate(bad, ["a", "b"]) if v.rule == "determinism"]
    assert violations


def test_parse_and_print_round_trip():
    texts = [
        "(base ((b) (c)))",
        "(union (base ((a))) (base ((b) (c))))",
        "(dprod 2 (base ((b) (c))) a (base ((a b c) (a b c))))",
        "(cprod 2 (base ((a b c) (a b c))) a (base ((b) (c))))",
        "(base ((a) ()))",
    ]
    for text in texts:
        e = parse_expr(text)
        assert expr_to_sexp(e) == text
        assert parse_expr(expr_to_sexp(e)) == e


def test_parse_rejects_malformed():
    for bad in ("", "(base)", "(dprod x (base ((a))) a (base ((a))))",
                "(union (base ((a))))", "(base (a))", "(dprod 0 (base ((a))) a (base ((a))))",
                "(blend (base ((a))) (base ((b))))"):
        with pytest.raises(InputError):
            parse_expr(bad)


def test_deterministic_products_split_uniquely():
    # a valid guarded product admits exactly one split at the marker letter
    for name, expr, alphabet, _ in exprsuite.VALID:
        if not isinstance(expr, (DetProd, CodetProd)):
            continue
        d = eval_expr(expr, alphabet)
        for w in oracles.words(tuple(alphabet), 7):
            if not d.accepts(w):
                continue
            splits = [
                i for i in range(len(w))
                if w[i] == expr.letter
                and brute_holds(expr.left, w[:i])
                and brute_holds(expr.right, w[i + 1:])
            ]
            assert len(splits) == 1, (name, w, splits)


def test_expr_to_formula_round_trip_on_suite():
    for name, expr, alphabet, _ in exprsuite.VALID:
        f = expr_to_formula(expr, alphabet)
        d1 = minimize(eval_expr(expr, alphabet))
        d2 = minimize(compile_formula(f, alphabet))
        ok, sep = equivalent(d1, d2)
        assert ok, (name, sep)


def test_expr_to_formula_agrees_with_eval_on_words():
    expr = DetProd(2, exprsuite.BC, "a", exprsuite.EVEN3)
    alphabet = ["a", "b", "c"]
    f = expr_to_formula(expr, alphabet)
    for w in oracles.words(("a", "b", "c"), 5):
        assert eval_formula(f, w) == brute_holds(expr, w)


def test_expr_to_formula_rejects_invalid_expression():
    expr, alphabet, _ = exprsuite.INVALID[0]
    with pytest.raises(InputError):
        expr_to_formula(expr, alphabet)


def test_blocks_translate_to_strict_alternation_sentence():
    f = expr_to_formula(exprsuite.BC, ["b", "c"])
    d = compile_formula(f, ["b", "c"])
    ok, _ = equivalent(minimize(d), minimize(regex_to_dfa("(bc)*")))
    assert ok


def test_expr_to_formula_builds_each_operand_once(monkeypatch):
    # one walk gives the DFAs, the violations and the marker residues: no
    # guarded operand is evaluated again for its residue
    calls = {"concat_letter": 0, "union": 0}

    def counted(name):
        build = getattr(modprod, name)

        def call(*args):
            calls[name] += 1
            return build(*args)
        return call

    def nodes(e, kind):
        if isinstance(e, Base):
            return 0
        return isinstance(e, kind) + nodes(e.left, kind) + nodes(e.right, kind)

    for name in calls:
        monkeypatch.setattr(modprod, name, counted(name))
    products = unions = 0
    for _, expr, alphabet, _ in exprsuite.VALID:
        expr_to_formula(expr, alphabet)
        products += nodes(expr, (DetProd, CodetProd))
        unions += nodes(expr, Union)
    assert calls == {"concat_letter": products, "union": unions}
    assert products == 10


def _product_chain(depth):
    """(dprod 1 (base ((a))) b ...) nested `depth` deep around (base ((b)))."""
    text = "(base ((b)))"
    for _ in range(depth):
        text = f"(dprod 1 (base ((a))) b {text})"
    return parse_expr(text)


def test_nested_products_stop_at_the_node_cap():
    # each level guards every quantifier below it with two more, so the
    # sentence grows about sixfold per level: 20775 nodes at depth 4; the
    # count of built nodes passes the cap at depth 5, before the tree does
    f = expr_to_formula(_product_chain(4), ["a", "b"])
    assert modprod._tree_size(f) == 20775
    with pytest.raises(CapError, match=r"formula node cap exceeded \(100000\)"):
        expr_to_formula(_product_chain(5), ["a", "b"])


def test_a_cprod_marker_past_the_node_cap_is_refused_before_it_is_built():
    # a marker counted from the right holds one residue case per residue,
    # 5 n + 1 nodes: at n = 100000 its operands' side tests would need more
    # than the cap, which refuses them before their cases are made.  Making
    # the cases first costs some 2 CPU s; the child gets 2 s in all
    src = str(pathlib.Path(modprod.__file__).parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (2, 2))

    done = subprocess.run(
        [sys.executable, "-m", "fragcheck.cli", "expr", "to-fo", "--alphabet", "a,b",
         "--sexp", "(cprod 100000 (base ((b))) a (base ((a) ())))"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (
        3, "error: formula node cap exceeded (100000) while translating the expression\n")
