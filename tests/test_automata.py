"""DFA layer: construction, minimization, boolean algebra, regexes, and
the position-decoration machinery."""

import itertools
import json
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fragcheck.cli import random_dfa
from fragcheck.automata import (
    DEFAULT_STATE_CAP,
    DecoratedLetter,
    Dfa,
    InputError,
    complement,
    concat_letter,
    decorate,
    decorated_alphabet,
    decorated_letters,
    dfa_to_json,
    equivalent,
    intersect,
    length_residues,
    make_dfa,
    minimal_table,
    minimize,
    mod1,
    parse_dfa,
    product_table,
    regex_to_dfa,
    reverse,
    shortest_accepted,
    table_dfa,
    union,
)
from fragcheck.errors import CapError


def test_mod1_wraps_into_one_based_range():
    assert [mod1(i, 3) for i in range(1, 8)] == [1, 2, 3, 1, 2, 3, 1]
    assert mod1(0, 4) == 4
    assert mod1(-1, 4) == 3


def test_decorated_letter_text_round_trip():
    dl = DecoratedLetter("a", 2)
    assert dl.text == "a@2"
    assert DecoratedLetter.parse("a@2") == dl
    assert DecoratedLetter.parse("x@11") == DecoratedLetter("x", 11)


def test_decorated_letter_parse_rejects_garbage():
    for bad in ("a", "a@", "@2", "a@b"):
        with pytest.raises(InputError):
            DecoratedLetter.parse(bad)


def test_make_dfa_runs_and_accepts():
    d = make_dfa(
        alphabet=["a", "b"],
        states=["even", "odd"],
        initial="even",
        finals=["even"],
        transitions={("even", "a"): "odd", ("odd", "a"): "even",
                     ("even", "b"): "even", ("odd", "b"): "odd"},
    )
    assert d.accepts("")
    assert d.accepts("aa")
    assert not d.accepts("ab")
    assert d.run("ab") == d.run("ba")


def test_incomplete_delta_rejected():
    with pytest.raises(InputError, match=r"^incomplete delta: no transition from 1 on 'b'$"):
        make_dfa(("a", "b"), (0, 1), 0, {0}, {(0, "a"): 1, (1, "a"): 0, (0, "b"): 0})


def test_parse_dfa_tables_the_reachable_part_of_any_names():
    # letters out of order, names that are not q0, q1, ..., a start that is
    # not listed first and an unreachable state: (a|b)*a
    doc = {
        "alphabet": ["b", "a"],
        "states": ["z", "odd", "start"],
        "initial": "start",
        "finals": ["odd", "z"],
        "transitions": [["z", "b", "start"], ["z", "a", "z"],
                        ["odd", "b", "start"], ["odd", "a", "odd"],
                        ["start", "b", "start"], ["start", "a", "odd"]],
    }
    d = parse_dfa(json.dumps(doc))
    direct = make_dfa(doc["alphabet"], doc["states"], doc["initial"], doc["finals"],
                      {(q, a): t for q, a, t in doc["transitions"]})
    assert (d.alphabet, d.rows, d.accepting) == (("a", "b"), ((1, 0), (1, 0)), (False, True))
    assert (direct.alphabet, direct.rows, direct.accepting) == (d.alphabet, d.rows, d.accepting)
    assert json.loads(dfa_to_json(d)) == {
        "alphabet": ["a", "b"],
        "states": ["q0", "q1"],
        "initial": "q0",
        "finals": ["q1"],
        "transitions": [["q0", "a", "q1"], ["q0", "b", "q0"],
                        ["q1", "a", "q1"], ["q1", "b", "q0"]],
    }
    assert equivalent(d, regex_to_dfa("(a|b)*a"))[0]
    assert equivalent(parse_dfa(dfa_to_json(d)), d)[0]
    for w in oracles.words("ab", 5):
        assert d.accepts(w) == (w[-1:] == ("a",)), w


def test_parse_dfa_json_round_trip():
    doc = {
        "alphabet": ["a", "b"],
        "states": ["p", "q"],
        "initial": "p",
        "finals": ["q"],
        "transitions": [["p", "a", "q"], ["p", "b", "p"],
                        ["q", "a", "q"], ["q", "b", "q"]],
    }
    d = parse_dfa(json.dumps(doc))
    assert d.accepts("a") and not d.accepts("b")
    again = parse_dfa(dfa_to_json(d))
    ok, _ = equivalent(d, again)
    assert ok


def test_parse_dfa_rejects_missing_fields():
    with pytest.raises(InputError):
        parse_dfa(json.dumps({"alphabet": ["a"], "states": ["p"]}))
    with pytest.raises(InputError):
        parse_dfa("not json at all {")


def test_minimize_collapses_redundant_states():
    # aa as a factor, built wastefully with a duplicated sink chain
    d = make_dfa(
        alphabet=["a", "b"],
        states=[0, 1, 2, 3],
        initial=0,
        finals=[2, 3],
        transitions={(0, "a"): 1, (0, "b"): 0, (1, "a"): 2, (1, "b"): 0,
                     (2, "a"): 3, (2, "b"): 2, (3, "a"): 3, (3, "b"): 3},
    )
    m = minimize(d)
    assert len(m.states) == 3
    assert oracles.language(m, 6) == oracles.language(d, 6)


def test_minimize_empty_language_is_single_state():
    d = make_dfa(["a"], [0, 1], 0, [], {(0, "a"): 1, (1, "a"): 0})
    assert len(minimize(d).states) == 1


def test_equivalent_yields_separating_word():
    d1 = regex_to_dfa("(a|b)*aa(a|b)*")
    d2 = regex_to_dfa("(a|b)*aa")
    ok, w = equivalent(d1, d2)
    assert not ok
    assert d1.accepts(w) != d2.accepts(w)
    ok2, w2 = equivalent(d1, minimize(d1))
    assert ok2 and w2 is None


def test_boolean_ops_match_brute_semantics():
    d1 = regex_to_dfa("(a|b)*aa(a|b)*")
    d2 = regex_to_dfa("((a|b)(a|b))*")
    lang1 = oracles.language(d1, 6)
    lang2 = oracles.language(d2, 6)
    assert oracles.language(intersect(d1, d2), 6) == lang1 & lang2
    assert oracles.language(union(d1, d2), 6) == lang1 | lang2
    all_words = set(oracles.words(("a", "b"), 6))
    assert oracles.language(complement(d1), 6) == all_words - lang1


def seeded_machine(rng, n, k, finals, unreachable=0):
    """A DFA over k letters: states 0..n-1 move among themselves at random
    from the initial state 0, and `unreachable` more states, which nothing
    enters, move anywhere.  `finals` is "random", "all" or "none"."""
    letters = "abc"[:k]
    states = list(range(n + unreachable))
    delta = {(q, a): int(rng.integers(0, n if q < n else n + unreachable))
             for q in states for a in letters}
    accepting = {"all": states, "none": []}.get(
        finals, [q for q in states if rng.integers(0, 2)])
    return make_dfa(letters, states, 0, accepting, delta)


def seeded_machines(seed):
    """Small machines of every final-set kind, with and without unreachable
    states, then a few of 40 states."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2, 3, 5):
        for finals in ("random", "all", "none"):
            for unreachable in (0, 3):
                out.append(seeded_machine(rng, n, int(rng.integers(1, 4)), finals, unreachable))
    out += [seeded_machine(rng, 40, int(rng.integers(1, 4)), "random", 2) for _ in range(4)]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_table_routes_match_dict_oracles(seed):
    rng = np.random.default_rng(1000 + seed)
    for d1 in seeded_machines(seed):
        want = oracles.minimize_by_dicts(d1)
        assert dfa_to_json(minimize(d1)) == dfa_to_json(want)
        assert dfa_to_json(minimize(want)) == dfa_to_json(want)
        assert dfa_to_json(complement(d1)) == dfa_to_json(oracles.complement_by_dicts(d1))
        d2 = seeded_machine(rng, int(rng.integers(1, 7)), len(d1.alphabet), "random", 1)
        assert dfa_to_json(intersect(d1, d2)) == dfa_to_json(oracles.intersect_by_dicts(d1, d2))
        assert dfa_to_json(union(d1, d2)) == dfa_to_json(oracles.union_by_dicts(d1, d2))


def seeded_table(rng, n, width, finals="random"):
    """A table of n states over `width` columns, each a copy of one of a
    few drawn columns, so columns repeat.  Only states 0..m-1 (m drawn in
    1..n) move among themselves; the others, which state 0 cannot reach,
    move anywhere.  `finals` is "random", "all" or "none"."""
    m = int(rng.integers(1, n + 1))
    base = np.vstack([rng.integers(0, m, (m, width)), rng.integers(0, n, (n - m, width))])
    delta = base[:, rng.integers(0, int(rng.integers(1, width + 1)), width)]
    accepting = {"all": [True] * n, "none": [False] * n}.get(
        finals, rng.integers(0, 2, n).astype(bool).tolist())
    return delta.tolist(), accepting


def table_machine(letters, t):
    rows, finals = t
    states = range(len(finals))
    return make_dfa(letters, states, 0, [q for q in states if finals[q]],
                    {(q, a): rows[q][c] for q in states for c, a in enumerate(letters)})


def plant_absorbing(rng, t):
    """The table with 1-3 absorbing accepting and 1-3 absorbing rejecting
    states added, each entered on a random column from a random state that
    state 0 reaches.  In one draw of four, state 0 itself is first made
    absorbing, accepting or rejecting at random, and the added states are
    left unreachable."""
    rows, finals = [list(row) for row in t[0]], list(t[1])
    width = len(rows[0])
    sources = [0]
    if rng.integers(0, 4) == 0:
        rows[0], finals[0], sources = [0] * width, bool(rng.integers(0, 2)), []
    for q in sources:
        for r in rows[q]:
            if r not in sources:
                sources.append(r)
    for flag in (True, False):
        for _ in range(int(rng.integers(1, 4))):
            q = len(rows)
            if sources:
                rows[sources[int(rng.integers(0, len(sources)))]][int(rng.integers(0, width))] = q
            rows.append([q] * width)
            finals.append(flag)
    return rows, finals


@pytest.mark.parametrize("seed", range(4))
def test_product_table_matches_pair_closure_and_dict_products(seed):
    """On tables with absorbing accepting and rejecting states planted, the
    product numbers the pairs the fixpoint reaches, with every pair that
    has an absorbing component at the operation's annihilating flag as one
    sink, and its minimal table is the product of the dictionary route;
    each seed reaches the sink under both operations."""
    rng = np.random.default_rng(2000 + seed)
    sunk = set()                    # the operations whose product reached the sink
    for width in (1, 2, 3, 7, 32, 256):
        letters = [f"{c:03d}" for c in range(width)]  # sorted in column order
        for _ in range(2):
            t1 = plant_absorbing(rng, seeded_table(rng, int(rng.integers(1, 41)), width))
            t2 = plant_absorbing(rng, seeded_table(rng, int(rng.integers(1, 41)), width))
            d1, d2 = table_machine(letters, t1), table_machine(letters, t2)
            for accept, by_dicts in ((operator.and_, oracles.intersect_by_dicts),
                                     (operator.or_, oracles.union_by_dicts)):
                states = oracles.reachable_pairs_by_fixpoint(t1, t2, accept)
                if "sink" in states:
                    sunk.add(accept)
                delta, finals = product_table(t1, t2, accept, DEFAULT_STATE_CAP)
                assert [len(row) for row in delta] == [width] * len(states)
                assert len(finals) == len(states)
                seen, todo = {0}, [0]
                while todo:
                    for r in delta[todo.pop()]:
                        if r not in seen:
                            seen.add(r)
                            todo.append(r)
                assert seen == set(range(len(states)))
                # both minimal and named canonically, so equal languages
                # give equal fields
                got = table_dfa(letters, minimal_table((delta, finals)))
                want = by_dicts(d1, d2)
                assert (got.rows, got.accepting) == (want.rows, want.accepting)
                # the cap counts the numbered states, the sink among them
                product_table(t1, t2, accept, len(states))
                with pytest.raises(CapError):
                    product_table(t1, t2, accept, len(states) - 1)
    assert sunk == {operator.and_, operator.or_}


def redundant_table(rng, n, width, finals):
    """A seeded table of n states with each state then copied up to three
    times, every successor pointing at one of the target's copies drawn at
    random, so that Moore has blocks to merge."""
    rows, accepting = seeded_table(rng, n, width, finals)
    copies = [int(rng.integers(1, 4)) for _ in range(n)]
    names = [(q, i) for q in range(n) for i in range(copies[q])]
    index = {name: j for j, name in enumerate(names)}
    return ([[index[r, int(rng.integers(0, copies[r]))] for r in rows[q]] for q, _ in names],
            [accepting[q] for q, _ in names])


@pytest.mark.parametrize("seed", range(3))
def test_minimal_table_matches_moore_by_bytes(seed):
    """The column-wise Moore refinement gives the same quotient, numbered
    alike, as whole-row refinement keyed by bytes: on tables with repeated
    columns, states unreachable from 0, copied states, and every kind of
    accepting set."""
    rng = np.random.default_rng(3000 + seed)
    for width in (1, 2, 3, 7, 32, 256):
        for finals in ("random", "all", "none"):
            for n in (1, 2, int(rng.integers(3, 41))):
                for t in (seeded_table(rng, n, width, finals),
                          redundant_table(rng, n, width, finals)):
                    want = oracles.minimal_table_by_bytes(t)
                    got = minimal_table(t)
                    assert ([list(row) for row in got[0]], list(got[1])) == want


def test_boolean_ops_require_matching_alphabets():
    with pytest.raises(InputError):
        intersect(regex_to_dfa("a*"), regex_to_dfa("b*"))


def test_emptiness_and_shortest_word():
    d = regex_to_dfa("(a|b)*aa(a|b)*")
    assert shortest_accepted(d) == ("a", "a")
    assert shortest_accepted(intersect(d, complement(d))) is None


def test_regex_examples():
    d = regex_to_dfa("(bc)*", alphabet=["a", "b", "c"])
    assert d.alphabet == ("a", "b", "c")  # declared letters join the pattern's
    assert d.accepts("") and d.accepts("bcbc")
    assert not d.accepts("cb") and not d.accepts("bca")
    d2 = regex_to_dfa("a(a|)")  # empty branch stands for the empty word
    assert d2.accepts("a") and d2.accepts("aa") and not d2.accepts("aaa")


def test_regex_rejects_bad_syntax():
    for bad in ("(", "a)", "*a", "a(b", ""):
        with pytest.raises(InputError):
            regex_to_dfa(bad)


def test_regex_long_flat_patterns_do_not_recurse():
    # only group nesting deepens the parse; runs, chains and stars are flat
    assert equivalent(regex_to_dfa("(ab)" + "*" * 1200), regex_to_dfa("(ab)*"))[0]
    assert equivalent(regex_to_dfa("a|" * 1200 + "b"), regex_to_dfa("a|b"))[0]
    d = regex_to_dfa("c" * 1000)
    assert d.accepts("c" * 1000) and not d.accepts("c" * 999)


def _random_pattern(rng, depth=0, height=0):
    """A pattern over a-c with empty branches, "()", star runs and groups
    nested up to 4 deep.  Stars nest at most 2 deep (star height 2), as
    Python's backtracking re takes minutes on some deeper nestings."""
    branches = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        parts = []
        for _ in range(rng.randint(0, 3)):
            stars = "*" * rng.choice((0, 0, 1, 2, 3)) if height < 2 else ""
            if depth < 4 and rng.random() < 0.35:
                inner = _random_pattern(rng, depth + 1, height + bool(stars))
                parts.append("(" + inner + ")" + stars)
            else:
                parts.append(rng.choice("abc") + stars)
        branches.append("".join(parts))
    return "|".join(branches)


# the union, over the first 14 words xyz of {a,b,c}^3 in product order, of
# (a|b|c)*x(a|b|c)*y(a|b|c)*z(a|b|c)*: 503 characters, 6 states
REGEX_UNION = "|".join(
    "(a|b|c)*" + "(a|b|c)*".join(w) + "(a|b|c)*"
    for w in list(itertools.product("abc", repeat=3))[:14])


def test_regex_matches_python_re():
    # Python's re is the independent matcher; it rejects a run of stars,
    # which denotes what one star does
    rng = random.Random(2027)
    patterns = [REGEX_UNION, "()", "()*", "(|a)*", "((a*)*|)b**"]
    patterns += [_random_pattern(rng) for _ in range(60)]
    all_words = ["".join(w) for w in oracles.words("abc", 6)]
    for pattern in patterns:
        d = regex_to_dfa(pattern, alphabet="abc")
        matcher = re.compile(re.sub(r"\*+", "*", pattern))
        for w in all_words:
            assert d.accepts(w) == bool(matcher.fullmatch(w)), (pattern, w)
    assert len(REGEX_UNION) == 503 and len(regex_to_dfa(REGEX_UNION).states) == 6


def test_reverse_and_concat_letter_match_brute_membership():
    rng = np.random.default_rng(27)
    draws = [random_dfa(rng, 4, 3) for _ in range(24)]
    for d in draws[:8]:
        rev = reverse(d)
        for w in oracles.words(d.alphabet, 6):
            assert rev.accepts(w) == oracles.accepts(d, w[::-1])
    pairs = [(d1, d2) for d1, d2 in zip(draws[::2], draws[1::2])
             if d1.alphabet == d2.alphabet]
    assert len(pairs) >= 4
    for d1, d2 in pairs:
        letter = d1.alphabet[-1]
        joined = concat_letter(d1, letter, d2)
        for w in oracles.words(d1.alphabet, 6):
            want = any(w[i] == letter and oracles.accepts(d1, w[:i])
                       and oracles.accepts(d2, w[i + 1:]) for i in range(len(w)))
            assert joined.accepts(w) == want, w


def test_reverse_and_concat_letter():
    d = regex_to_dfa("ab*")
    rev = reverse(d)
    for w in oracles.words(("a", "b"), 5):
        assert rev.accepts(w) == d.accepts(w[::-1])
    full = ["a", "b", "c"]
    joined = concat_letter(regex_to_dfa("a*", alphabet=full), "b",
                           regex_to_dfa("c*", alphabet=full))
    ok, _ = equivalent(minimize(joined), regex_to_dfa("a*bc*", alphabet=full))
    assert ok


def test_decorate_word_examples():
    assert oracles.decorate_word("acbabc", 3, offset=1) == (
        "a@2", "c@3", "b@1", "a@2", "b@3", "c@1")
    assert oracles.decorate_word("ab", 2) == ("a@1", "b@2")
    assert oracles.decorate_word("", 5) == ()
    assert oracles.decorate_word("aaa", 1) == ("a@1", "a@1", "a@1")


def test_decorated_letters_enumeration():
    assert decorated_letters(["b", "a"], 2) == ["a@1", "a@2", "b@1", "b@2"]


@given(
    word=st.lists(st.sampled_from("ab"), max_size=8).map(tuple),
    n=st.integers(min_value=1, max_value=4),
    offset=st.integers(min_value=0, max_value=4),
)
@settings(deadline=None)
def test_decorate_word_matches_brute(word, n, offset):
    assert oracles.decorate_word(word, n, offset) == oracles.decorate_brute(word, n, offset)


@given(word=st.lists(st.sampled_from("ab"), max_size=7).map("".join),
       n=st.integers(min_value=1, max_value=3))
@settings(deadline=None)
def test_decoration_membership_round_trip(word, n):
    # w is in L exactly when the decorated copy of w is in the decorated language
    d = regex_to_dfa("(a|b)*aa(a|b)*")
    dec = decorate(d, n)
    assert dec.accepts(oracles.decorate_word(word, n)) == d.accepts(word)


def test_decorate_matches_dict_product_oracle(xcheck_corpus):
    # the table product gives the document the dictionary product did, on
    # minimal inputs and on one with an unreachable and a redundant state
    spare = make_dfa(["a", "b"], ["p", "q", "r", "u"], "p", ["p", "q", "u"],
                     {("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "r", ("q", "b"): "r",
                      ("r", "a"): "r", ("r", "b"): "r", ("u", "a"): "p", ("u", "b"): "u"})
    for d in [*xcheck_corpus, spare]:
        for n in range(1, 5):
            assert dfa_to_json(decorate(d, n)) == dfa_to_json(
                oracles.decorate_by_dict_product(d, n)), (dfa_to_json(d), n)


def test_decorate_with_modulus_one_relabels():
    d = regex_to_dfa("(a|b)*aa(a|b)*")
    dec = decorate(d, 1)
    for w in oracles.words(("a", "b"), 6):
        assert dec.accepts(tuple(f"{a}@1" for a in w)) == d.accepts(w)


def test_length_residues_one_based_convention():
    assert length_residues(regex_to_dfa("(bc)*"), 2) == frozenset({2})
    assert length_residues(regex_to_dfa("a(a|b)*"), 2) == frozenset({1, 2})
    assert length_residues(regex_to_dfa("aaa"), 6) == frozenset({3})
    empty = intersect(regex_to_dfa("a"), regex_to_dfa("aa"))
    assert length_residues(empty, 4) == frozenset()


def test_length_residues_match_brute(small_corpus):
    for d in small_corpus[:10]:
        for n in (1, 2, 3):
            bound = len(d.states) * n + n
            assert length_residues(d, n) == oracles.length_residues_brute(d, n, bound)


def test_decorated_alphabet_examples():
    assert decorated_alphabet(regex_to_dfa("(bc)*"), 2) == frozenset({"b@1", "c@2"})
    assert decorated_alphabet(regex_to_dfa("(a|b)*"), 2) == frozenset(
        {"a@1", "a@2", "b@1", "b@2"})


def test_decorated_alphabet_matches_brute(small_corpus):
    # words no longer than |Q| * n + n already realize every usable letter
    for d in small_corpus[:10]:
        for n in (1, 2, 3):
            bound = len(d.states) * n + n
            assert decorated_alphabet(d, n) == oracles.decorated_alphabet_brute(d, n, bound)
