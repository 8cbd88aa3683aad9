"""First-order layer: parsing, semantics on words, and compilation down to
DFAs.  The evaluator walks positions directly, so it doubles as the oracle
for the compiler."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import exprsuite
import oracles
from test_automata import plant_absorbing, seeded_table
from fragcheck import fologic
from fragcheck.automata import (
    DEFAULT_STATE_CAP, dfa_to_doc, equivalent, minimal_table, minimize, regex_to_dfa)
from fragcheck.errors import CapError, InputError
from fragcheck.fologic import (
    And,
    Eq,
    Exists,
    FalseF,
    Forall,
    Lab,
    Len,
    Lt,
    Mod,
    Not,
    Or,
    TrueF,
    and_all,
    compile_formula,
    eval_formula,
    formula_letters,
    formula_stats,
    free_vars,
    make_len,
    make_mod,
    or_all,
    parse_formula,
    parse_formula_document,
    to_sexp,
    _rename_apart,
)
from fragcheck.modprod import expr_to_formula

AA_SOMEWHERE = "(exists x (exists y (and (suc x y) (and (lab x a) (lab y a)))))"


def test_parse_basic_forms():
    f = parse_formula("(and (lab x a) (< x y))")
    assert isinstance(f, And)
    assert free_vars(f) == frozenset({"x", "y"})
    g = parse_formula("(exists x (exists y (< x y)))")
    assert free_vars(g) == frozenset()


def test_parse_macros_expand():
    # implication, biconditional and bounded comparison are sugar
    f = parse_formula("(-> (lab x a) (lab x b))")
    assert isinstance(f, Or)
    g = parse_formula("(<-> (lab x a) (lab x b))")
    assert eval_formula(Exists("x", g), "a") is False
    le = parse_formula("(exists x (exists y (<= x y)))")
    assert eval_formula(le, "ab")
    multi = parse_formula("(and true true true)")
    assert eval_formula(multi, "")
    labset = parse_formula("(exists x (lab x (a b)))")
    assert eval_formula(labset, "b") and not eval_formula(labset, "c")


def test_parse_rejects_malformed():
    for bad in ("", "(", "(foo x)", "(lab x)", "(mod x 0 1)",
                "(exists (lab x a))", "(exists x)", "true false"):
        with pytest.raises(InputError):
            parse_formula(bad)


def test_mod_and_len_normalization():
    assert make_mod("x", 3, 0).residue == 3
    assert make_len(2, 0).residue == 2
    with pytest.raises(InputError):
        make_mod("x", 3, 4)
    with pytest.raises(InputError):
        make_len(0, 0)
    assert parse_formula("(len 2 0)") == parse_formula("(len 2 2)")


def test_to_sexp_round_trip():
    texts = [
        "(exists x (and (lab x a) (mod x 2 1)))",
        "(forall x (or (lab x b) (len 3 1)))",
        "(not (exists x (= x x)))",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(to_sexp(f)) == f


def test_document_header_fixes_alphabet():
    alphabet, f = parse_formula_document("(alphabet a b c) (exists x (lab x a))")
    assert alphabet == ["a", "b", "c"]
    headless, g = parse_formula_document("(exists x (lab x a))")
    assert headless is None and g == f
    with pytest.raises(InputError):
        parse_formula_document("(alphabet a b) (lab x a) (lab x b)")


def test_eval_examples():
    f = parse_formula(AA_SOMEWHERE)
    assert eval_formula(f, "baab")
    assert not eval_formula(f, "bab")
    assert not eval_formula(f, "")
    assert eval_formula(make_len(2, 2), "")
    assert not eval_formula(make_len(2, 2), "b")
    # alternate even/odd positions with fixed letters, as in strict block codes
    alt = parse_formula(
        "(forall x (and (lab x (b c)) (<-> (mod x 2 1) (lab x b))))")
    assert eval_formula(alt, "bcbc")
    assert not eval_formula(alt, "cb")
    assert eval_formula(alt, "")


def test_eval_rejects_free_variables():
    with pytest.raises(InputError):
        eval_formula(parse_formula("(lab x a)"), "a")


def test_eval_is_boolean_homomorphism():
    f = parse_formula("(exists x (lab x a))")
    g = parse_formula("(len 2 2)")
    for w in oracles.words(("a", "b"), 4):
        fv, gv = eval_formula(f, w), eval_formula(g, w)
        assert eval_formula(And(f, g), w) == (fv and gv)
        assert eval_formula(Or(f, g), w) == (fv or gv)
        assert eval_formula(Not(f), w) == (not fv)


def test_and_or_all_fold():
    parts = [TrueF(), parse_formula("(len 2 2)")]
    assert eval_formula(and_all(parts), "aa")
    assert not eval_formula(and_all(parts), "a")
    assert eval_formula(or_all(parts), "a")
    assert eval_formula(or_all([]), "a") is False
    assert eval_formula(and_all([]), "a") is True


def test_compile_simple_sentences():
    d = compile_formula(parse_formula(AA_SOMEWHERE), ["a", "b"])
    ok, _ = equivalent(minimize(d), minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    assert ok
    d2 = compile_formula(parse_formula("(not (exists x true))"), ["a"])
    assert d2.accepts("") and not d2.accepts("a")


def test_compile_respects_declared_alphabet():
    with pytest.raises(InputError):
        compile_formula(parse_formula("(exists x (lab x c))"), ["a", "b"])


def test_compile_rejects_free_variables():
    with pytest.raises(InputError):
        compile_formula(parse_formula("(lab x a)"), ["a"])


def test_compile_walks_the_sentence_once(monkeypatch):
    """The renaming walk also finds free variables and foreign letters, so
    `compile_formula` runs none of the other formula walks."""
    def second_walk(*args):
        raise AssertionError("compile_formula walked the formula twice")

    for name in ("_nodes", "free_vars", "formula_letters"):
        monkeypatch.setattr(fologic, name, second_walk)
    for text in BATTERY + SHARED:
        compile_formula(parse_formula(text), ["a", "b", "c"])
    with pytest.raises(InputError, match="^formula has free variables: x, y$"):
        compile_formula(parse_formula("(and (lab y a) (< x y))"), ["a"])
    with pytest.raises(InputError, match="^formula letter 'c' not in the alphabet$"):
        compile_formula(parse_formula("(exists x (or (lab x d) (lab x c)))"), ["a", "b"])


def test_free_variables_are_reported_before_foreign_letters():
    # x is bound in one operand of the shared `<->` and free in the other
    text = "(and (<-> (exists x (lab x c)) (lab z a)) (lab x d))"
    with pytest.raises(InputError, match="^formula has free variables: x, z$"):
        compile_formula(parse_formula(text), ["a", "b"])
    with pytest.raises(InputError, match="^formula letter 'c' not in the alphabet$"):
        compile_formula(parse_formula(f"(forall x (forall z {text}))"), ["a", "b"])


CAPPED = "(exists x (exists y (and (< x y) (and (mod x 7 1) (mod y 11 2)))))"


def test_compile_state_cap():
    f = parse_formula(CAPPED)
    with pytest.raises(CapError):
        compile_formula(f, ["a", "b"], state_cap=3)


def test_a_deciding_constant_ends_a_product():
    # X nests one quantifier too many for MAX_MARKED_LETTERS, so compiling
    # it is refused; as the operand of an `or` with true or an `and` with
    # false it is never compiled, on either side of a constant node, and
    # after an operand whose compiled table has one state of that flag
    deep = "(lab x0 a)"
    for i in reversed(range(fologic.MAX_MARKED_LETTERS.bit_length())):
        deep = f"(exists x{i} {deep})"
    with pytest.raises(CapError, match="marked-alphabet cap"):
        compile_formula(parse_formula(deep), ["a"])
    for text, accepts in ((f"(or true {deep})", True), (f"(or {deep} true)", True),
                          (f"(and false {deep})", False), (f"(and {deep} false)", False),
                          (f"(or (not false) {deep})", True),
                          (f"(and (exists x false) {deep})", False)):
        d = compile_formula(parse_formula(text), ["a"])
        assert d.rows == ((0,),) and d.accepting == (accepts,), text


def test_formula_stats_counts():
    f = parse_formula("(exists x (exists y (and (mod x 2 1) (< x y))))")
    stats = formula_stats(f)
    assert stats["variables"] == ["x", "y"]
    assert stats["variable_count"] == 2
    assert stats["uses_modular_predicates"] is True
    assert stats["prenex_blocks"] == ["exists"]
    mixed = formula_stats(parse_formula("(forall x (exists y (< x y)))"))
    assert mixed["prenex_blocks"] == ["forall", "exists"]
    assert mixed["uses_modular_predicates"] is False
    not_prenex = formula_stats(parse_formula("(not (exists x true))"))
    assert not_prenex["prenex_blocks"] is None
    assert formula_letters(parse_formula("(exists x (lab x (a c)))")) == {"a", "c"}


@given(word=st.lists(st.sampled_from("ab"), max_size=7).map("".join))
@settings(deadline=None)
def test_compile_matches_eval_modular(word):
    f = parse_formula(
        "(exists x (and (lab x a) (and (mod x 2 1) (len 2 2))))")
    d = compile_formula(f, ["a", "b"])
    assert d.accepts(word) == eval_formula(f, word)


@given(word=st.lists(st.sampled_from("ab"), max_size=7).map("".join))
@settings(deadline=None)
def test_compile_matches_eval_nested_quantifiers(word):
    f = parse_formula(
        "(forall x (-> (lab x a) (exists y (and (< x y) (lab y b)))))")
    d = compile_formula(f, ["a", "b"])
    assert d.accepts(word) == eval_formula(f, word)


BATTERY = [
    "true",
    "false",
    "(len 3 3)",
    "(exists x (mod x 3 2))",
    "(forall x (or (lab x a) (mod x 2 2)))",
    "(exists x (forall y (<= y x)))",
    "(exists x (and (forall y (<= x y)) (lab x b)))",
    "(-> (exists x (lab x a)) (exists x (lab x b)))",
    "(exists x (exists y (and (suc x y) (and (lab x b) (lab y c)))))",
]


def test_compile_matches_eval_battery():
    for text in BATTERY:
        f = parse_formula(text)
        d = compile_formula(f, ["a", "b", "c"])
        for w in oracles.words(("a", "b", "c"), 4):
            assert d.accepts(w) == eval_formula(f, w), (text, w)


# ---------------------------------------------------------------------------
# The table compiler against the connective-by-connective Dfa compiler

def same_dfa(f, alphabet):
    return dfa_to_doc(compile_formula(f, alphabet)) == dfa_to_doc(
        oracles.compile_formula_by_dfas(f, alphabet))


def test_compile_matches_dfa_oracle_on_fixed_sentences():
    for name, expr, alphabet, _ in exprsuite.VALID:
        assert same_dfa(expr_to_formula(expr, alphabet), alphabet), name
    for text in BATTERY:
        assert same_dfa(parse_formula(text), ["a", "b", "c"]), text


def test_compile_and_oracle_share_the_state_cap():
    for text in (CAPPED, "(forall x (not (mod x 7 1)))"):
        f = parse_formula(text)
        for compiler in (compile_formula, oracles.compile_formula_by_dfas):
            with pytest.raises(CapError):
                compiler(f, ["a", "b"], state_cap=3)


def test_rename_apart_names_binders_by_depth():
    f = _rename_apart(parse_formula("(exists y (and (lab y a) (exists y (< y y))))"))
    assert to_sexp(f) == "(exists v0 (and (lab v0 a) (exists v1 (< v1 v1))))"


def test_rename_apart_shares_alpha_equivalent_subformulas_at_equal_depth():
    siblings = _rename_apart(parse_formula("(and (exists x (lab x a)) (exists y (lab y a)))"))
    assert siblings.left is siblings.right
    # under sibling binders, in the scope of one outer variable
    nested = _rename_apart(parse_formula(
        "(exists x (or (exists y (and (< x y) (lab y b))) (exists z (and (< x z) (lab z b)))))"))
    assert nested.body.left is nested.body.right
    # the operands `<->` shares stay shared
    iff = _rename_apart(parse_formula("(<-> (exists x (lab x a)) (len 2 1))"))
    assert iff.left.left.sub is iff.right.right
    assert iff.left.right is iff.right.left.sub


def test_rename_apart_keeps_depths_apart():
    f = _rename_apart(parse_formula(
        "(and (exists x (lab x a)) (exists y (and (lab y b) (exists x (lab x a)))))"))
    inner = f.right.body.right
    assert to_sexp(f.left) == "(exists v0 (lab v0 a))"
    assert to_sexp(inner) == "(exists v1 (lab v1 a))"
    assert f.left is not inner


SHARED = [
    "(<-> (exists x (lab x a)) (exists y (and (lab y b) (mod y 2 1))))",
    "(-> (forall x (lab x a)) (<-> (len 2 1) (exists x (lab x b))))",
    "(<-> (<-> (exists x (lab x a)) (len 3 2)) (<-> (len 3 2) (exists x (lab x a))))",
    "(exists x (and (lab x a) (lab x a) (mod x 2 2) (lab x a)))",
    "(exists x (and (lab x a) (exists y (and (< x y) (lab x a)))))",
    "(and (exists x (exists y (< x y))) (exists y (exists x (< y x))))",
    "(exists x (and (forall y (<= x y)) (forall z (<= x z))))",
    "(forall x (<-> (exists y (and (< x y) (lab y a))) (exists z (and (< x z) (lab z a)))))",
    "(exists x (or (exists y (and (< y x) (lab y b))) (not (exists z (and (< z x) (lab z b))))))",
    "(and (forall x (-> (lab x a) (exists y (suc x y)))) (forall z (-> (lab z a) (exists y (suc z y)))))",
]


def test_compile_matches_dfa_oracle_on_shared_subformulas():
    for text in SHARED:
        f = parse_formula(text)
        assert same_dfa(f, ["a", "b"]), text
        d = compile_formula(f, ["a", "b"])
        for w in oracles.words(("a", "b"), 5):
            assert d.accepts(w) == eval_formula(f, w), (text, w)


def test_products_only_under_and_or_and_one_erasure_per_quantifier(monkeypatch):
    """Each compiled `and`/`or` (node, depth) makes one product and each
    compiled quantifier one erasure, which applies the exactly-once rule to
    its variable itself: no other node makes a product or an erasure."""
    compile_node = fologic._Compiler.compile
    project = fologic._Compiler._project
    product_table = fologic.product_table
    compiling, products, erasures = [], [], []

    def recording_compile(self, f, frame):
        compiling.append((id(f), len(frame)))
        try:
            return compile_node(self, f, frame)
        finally:
            compiling.pop()

    def counting_product(t1, t2, accept, cap):
        products.append(compiling[-1])
        return product_table(t1, t2, accept, cap)

    def counting_project(self, t, frame):
        erasures.append(compiling[-1])
        return project(self, t, frame)

    monkeypatch.setattr(fologic._Compiler, "compile", recording_compile)
    monkeypatch.setattr(fologic._Compiler, "_project", counting_project)
    monkeypatch.setattr(fologic, "product_table", counting_product)
    for text, alphabet in [(t, ["a", "b", "c"]) for t in BATTERY] + [(t, ["a", "b"]) for t in SHARED]:
        f = fologic._rename_apart(parse_formula(text))
        compiler = fologic._Compiler(alphabet, DEFAULT_STATE_CAP)
        del products[:], erasures[:]
        compiler.compile(f, ())
        kinds = {id(g): type(g) for g in fologic._nodes(f)}

        def compiled(*types):
            return sorted(key for key in compiler._memo if kinds[key[0]] in types)

        assert sorted(products) == compiled(And, Or), text
        assert sorted(erasures) == compiled(Exists, Forall), text


def test_moore_runs_on_each_erasure_body_and_on_the_sentence(monkeypatch):
    """Products and negations keep the tables they build: Moore runs once
    per compiled quantifier (node, depth), on the body it erases, and once
    on the sentence's table, never for an `and`, `or` or `not`."""
    compile_node = fologic._Compiler.compile
    minimal = fologic.minimal_table
    compiling, runs, sentences = [], [], []

    def recording_compile(self, f, frame):
        if not compiling:
            sentences.append((self, f))     # keeps the renamed nodes alive
        compiling.append((id(f), len(frame)))
        try:
            return compile_node(self, f, frame)
        finally:
            compiling.pop()

    def counting_minimal(t):
        runs.append(compiling[-1] if compiling else "sentence")
        return minimal(t)

    monkeypatch.setattr(fologic._Compiler, "compile", recording_compile)
    monkeypatch.setattr(fologic, "minimal_table", counting_minimal)
    for text, alphabet in [(t, ["a", "b", "c"]) for t in BATTERY] + [(t, ["a", "b"]) for t in SHARED]:
        del runs[:], sentences[:]
        compile_formula(parse_formula(text), alphabet)
        [(compiler, f)] = sentences
        kinds = {id(g): type(g) for g in fologic._nodes(f)}
        quantifiers = sorted(key for key in compiler._memo if kinds[key[0]] in (Exists, Forall))
        assert sorted(run for run in runs if run != "sentence") == quantifiers, text
        assert runs.count("sentence") == 1 and runs[-1] == "sentence", text


def test_battery_and_shared_number_few_states_for_moore(monkeypatch):
    # products number one sink for the pairs an absorbing component
    # decides, and erasures drop the runs at absorbing rejecting states and
    # collapse the subsets an absorbing accepting state decides; Moore runs
    # only on the bodies of erasures and on the sentences, so products read
    # operands that no Moore run has reduced
    counts = {"moore": 0, "product": 0, "erasure": 0}

    def counting(name, build, read=lambda args, out: out):
        def call(*args):
            out = build(*args)
            counts[name] += len(read(args, out)[1])
            return out
        return call

    monkeypatch.setattr(fologic, "minimal_table", counting(
        "moore", fologic.minimal_table, lambda args, out: args[0]))
    monkeypatch.setattr(fologic, "product_table", counting("product", fologic.product_table))
    monkeypatch.setattr(fologic._Compiler, "_project", counting(
        "erasure", fologic._Compiler._project))
    for text, alphabet in [(t, ["a", "b", "c"]) for t in BATTERY] + [(t, ["a", "b"]) for t in SHARED]:
        compile_formula(parse_formula(text), alphabet)
    assert counts == {"moore": 165, "product": 170, "erasure": 86}


def test_erasure_keeps_only_runs_marking_the_variable_once():
    """`_project` on hand-made body tables over one letter, column 0 the
    letter with x unmarked and column 1 with x marked.  The body counts
    the marks of x (0, 1, 2 or more); only a run with exactly one mark may
    accept.  Compiled atoms decide at the first mark, so no sentence shows
    a run taking a second mark; these tables do."""
    counting = [[0, 1], [1, 2], [2, 2]]
    compiler = fologic._Compiler(["a"], DEFAULT_STATE_CAP)

    def accepted(finals, n):
        delta, accepting = compiler._project((counting, finals), ())
        state = 0
        for _ in range(n):
            state = delta[state][0]
        return bool(accepting[state])

    lengths = range(5)
    assert [accepted([False, True, False], n) for n in lengths] == [False] + [True] * 4
    assert not any(accepted([False, False, True], n) for n in lengths)  # two marks
    assert not any(accepted([True, False, False], n) for n in lengths)  # no mark


def every_atom(letters, depth, moduli):
    """Each kind of atom over the letters and a frame of `depth` variables,
    `len` and `mod` at every residue of every modulus given."""
    frame = tuple(f"v{i}" for i in range(depth))
    atoms = [Len(n, r) for n in moduli for r in range(1, n + 1)]
    for x in frame:
        atoms += [Lab(x, a) for a in letters]
        atoms += [Mod(x, n, r) for n in moduli for r in range(1, n + 1)]
        atoms += [kind(x, y) for kind in (Eq, Lt) for y in frame]
    return frame, atoms


def test_every_atom_state_is_reachable():
    """Atom tables carry no state that no marked word reaches, so none
    counts toward the state cap; `(lab x a)` over one letter never
    rejects, nor does `(mod x 1 1)`."""
    for letters in (["a"], ["a", "b"]):
        for depth in (1, 2, 3):
            frame, atoms = every_atom(letters, depth, range(1, 5))
            compiler = fologic._Compiler(letters, DEFAULT_STATE_CAP)
            for atom in atoms:
                delta, finals = compiler._atom(atom, frame)
                seen, todo = {0}, [0]
                while todo:
                    for t in delta[todo.pop()]:
                        if t not in seen:
                            seen.add(t)
                            todo.append(t)
                assert seen == set(range(len(finals))), (atom, letters, depth)
    lab = fologic._Compiler(["a"], DEFAULT_STATE_CAP)._atom(Lab("v0", "a"), ("v0",))
    assert lab[1] == [False, True]


def test_atoms_are_built_minimal():
    """The compiler skips Moore on atoms: each atom table is its own Moore
    quotient, state for state."""
    for letters in (["a"], ["a", "b"]):
        for depth in (1, 2, 3):
            frame, atoms = every_atom(letters, depth, range(1, 6))
            compiler = fologic._Compiler(letters, DEFAULT_STATE_CAP)
            for atom in atoms:
                t = compiler._atom(atom, frame)
                assert minimal_table(t) == t, (atom, letters, depth)
                assert oracles.minimal_table_by_bytes(t) == t, (atom, letters, depth)


def test_an_atom_over_the_state_cap_is_refused():
    """`(mod x n r)` has n waiting states and two absorbing ones; without
    Moore the cap is checked on the table as built, with the message the
    minimized table gave."""
    f = parse_formula("(exists x (mod x 5 2))")
    assert compile_formula(f, ["a"], state_cap=7).accepts("aa")
    with pytest.raises(CapError, match=r"^state cap exceeded \(6\) while compiling$"):
        compile_formula(f, ["a"], state_cap=6)


@pytest.mark.parametrize("seed", range(3))
def test_erasure_matches_sorted_subset_erasure(seed, monkeypatch):
    """`_project` numbers the same subsets in the same order as the numpy
    erasure over sorted (state, flag) pairs, and refuses one subset past
    the cap, on body tables with repeated columns, states unreachable from
    0, every kind of accepting set and planted absorbing states: outer
    widths 1, 2, 3, 7, 32 and 256.  Each seed has bodies where dropping
    the runs at absorbing rejecting states, and where the accepting sink,
    saves subsets."""
    rng = np.random.default_rng(4000 + seed)
    absorbing = fologic.absorbing_states
    saving = set()                  # the flags whose collapse saved subsets
    for letter_count, depth in ((1, 0), (2, 0), (1, 1), (3, 0), (7, 0), (2, 4), (1, 5),
                                (1, 8), (2, 7)):
        letters = [f"l{i}" for i in range(letter_count)]
        frame = tuple(f"v{i}" for i in range(depth))
        for _ in range(4):
            finals = ("random", "all", "none")[int(rng.integers(0, 3))]
            body = plant_absorbing(rng, seeded_table(
                rng, int(rng.integers(1, 9)), letter_count << (depth + 1), finals))
            want = oracles.erase_by_sorted_subsets(body, depth, letter_count)
            assert fologic._Compiler(letters, len(want[1]))._project(body, frame) == want
            if len(want[1]) > 1:
                with pytest.raises(CapError):
                    fologic._Compiler(letters, len(want[1]) - 1)._project(body, frame)
            # the erasure without one of the collapses, until each has shown
            for flag in {False, True} - saving:
                monkeypatch.setattr(fologic, "absorbing_states",
                                    lambda t, f, flag=flag: set() if f == flag else absorbing(t, f))
                plain = fologic._Compiler(letters, DEFAULT_STATE_CAP)._project(body, frame)
                if len(plain[1]) > len(want[1]):
                    saving.add(flag)
                monkeypatch.setattr(fologic, "absorbing_states", absorbing)
    assert saving == {False, True}


@st.composite
def formulas(draw, bound=(), quantifiers=3, size=4):
    """A formula over letters a, b whose free variables lie in `bound`, with
    at most `quantifiers` nested quantifiers and moduli at most 3."""
    kinds = ["true", "false", "len"]
    if bound:
        kinds += ["lab", "eq", "lt", "mod"]
    if size:
        # twice each, so that trees grow past their leaves
        kinds += 2 * (["and", "or", "not"] + (["exists", "forall"] if quantifiers else []))
    kind = draw(st.sampled_from(kinds))
    var = st.sampled_from(bound) if bound else None
    if kind in ("len", "mod"):
        modulus = draw(st.integers(1, 3))
        residue = draw(st.integers(1, modulus))
    if kind == "true":
        return TrueF()
    if kind == "false":
        return FalseF()
    if kind == "len":
        return Len(modulus, residue)
    if kind == "lab":
        return Lab(draw(var), draw(st.sampled_from("ab")))
    if kind == "eq":
        return Eq(draw(var), draw(var))
    if kind == "lt":
        return Lt(draw(var), draw(var))
    if kind == "mod":
        return Mod(draw(var), modulus, residue)
    if kind == "not":
        return Not(draw(formulas(bound, quantifiers, size - 1)))
    if kind in ("and", "or"):
        left = draw(formulas(bound, quantifiers, size - 1))
        right = draw(formulas(bound, quantifiers, size - 1))
        return And(left, right) if kind == "and" else Or(left, right)
    x = draw(st.sampled_from("xyz"))
    body = draw(formulas(tuple(sorted(set(bound) | {x})), quantifiers - 1, size - 1))
    return Exists(x, body) if kind == "exists" else Forall(x, body)


@given(f=formulas())
@example(f=parse_formula("(exists x (forall y (not (< x y))))"))
@example(f=parse_formula("(forall x (exists y (and (not (lab y a)) (not (= x y)))))"))
@example(f=parse_formula("(exists x (not (exists y (and (< y x) (not (mod y 2 1))))))"))
@example(f=parse_formula("(forall x (forall y (or (not (lab x b)) (not (< y x)))))"))
@settings(deadline=None, max_examples=100)
def test_compile_matches_dfa_oracle_on_random_sentences(f):
    assert same_dfa(f, ["a", "b"]), to_sexp(f)


@given(f=formulas(), cap=st.sampled_from([4, 8, 16]))
@settings(deadline=None, max_examples=100)
def test_a_state_cap_refuses_a_sentence_or_gives_its_dfa(f, cap):
    """A cap may refuse a sentence, but never changes the DFA it compiles
    to."""
    try:
        capped = compile_formula(f, ["a", "b"], state_cap=cap)
    except CapError:
        return
    assert dfa_to_doc(capped) == dfa_to_doc(compile_formula(f, ["a", "b"])), to_sexp(f)
