"""Ordered monoids, syntactic morphisms, Green's relations and the local
submonoid conditions."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import oracles
from fragcheck import monoid as monoid_module
from fragcheck.automata import complement, decorate, make_dfa, minimize, regex_to_dfa
from fragcheck.cli import generate_corpus, random_dfa
from fragcheck.errors import CapError, InputError
from fragcheck.fragments import LanguageAnalysis, analyze, build_mod_witness
from fragcheck.hierarchy import sim_quotient
from fragcheck.monoid import (
    Morphism,
    OrderedMonoid,
    complement_morphism,
    format_word,
    generated_morphism,
    is_aperiodic,
    local_condition,
    me_submonoid,
    syntactic_order,
    transition_monoid,
)
from fragcheck.stability import stability_info
from fragcheck.wreath import lift_decorated_hom, project_hom


def syntactic(pattern, **kw):
    return syntactic_order(transition_monoid(minimize(regex_to_dfa(pattern)), **kw))


def test_format_word():
    assert format_word(()) == "ε"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("aa", "b")) == "aa b"


def test_ordered_monoid_basics():
    z3 = oracles.table_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert z3.size == 3
    assert z3.mul(1, 2) == 0
    assert Morphism(z3, ("a",), {"a": 1}).image("aaa") == 0
    assert list(z3.idempotents()) == [0]
    z3.idempotents().append(2)  # each call hands out its own list
    assert z3.idempotents() == [0]
    assert z3.omega(1) == 0
    assert not z3.is_idempotent(2)
    assert z3.leq is None


def test_ordered_monoid_rejects_bad_tables():
    # the identity law is checked ahead of the star tree, which reads the
    # identity's row
    refused = [
        (([[1, 0], [0, 1]],), "identity law fails"),  # identity row broken
        # x(yz) = (xy)z fails for this table
        (([[0, 1, 2], [1, 0, 0], [2, 2, 1]],), "multiplication is not associative"),
        (([[0, 1], [1, 0]], [[True, True], [True, True]]), "order is not antisymmetric"),
        (([[0, 1], [1, 0]], [[True, False], [False, False]]), "order is not reflexive"),
        (([[0, 1, 2], [1, 1, 1], [2, 1, 2]],
          [[True, True, False], [False, True, True], [False, False, True]]),
         "order is not transitive"),
        (([[0, 1], [1]],), None),  # ragged: numpy refuses it
        (([0, 1],), "multiplication table must be square"),
        (([[0, 1, 2], [1, 2, 0]],), "multiplication table must be square"),
        (([[0, 1], [1, -1]],), "multiplication table entry out of range"),
        (([[0, 1], [1, 2]],), "multiplication table entry out of range"),
        (([[0]], [[True, True]]), "order matrix must be size x size"),
    ]
    for args, message in refused:
        if message is None:
            with pytest.raises(ValueError):
                oracles.table_monoid(*args)
            continue
        with pytest.raises(InputError, match=f"^{message}$"):
            oracles.table_monoid(*args)


def _with_identity(rest: np.ndarray) -> np.ndarray:
    """The table of {1} + rest, with rest[x - 1, y - 1] the ids of x y."""
    m = rest.shape[0] + 1
    table = np.empty((m, m), dtype=np.int64)
    table[0], table[:, 0] = np.arange(m), np.arange(m)
    table[1:, 1:] = rest
    return table


def test_entries_out_of_range_are_refused_at_every_size():
    for m in (2, 64, 65, 200):
        table = _with_identity((np.add.outer(np.arange(m - 1), np.arange(m - 1)) % (m - 1)) + 1)
        oracles.table_monoid(table)  # 1 + Z_(m-1) is a monoid
        # 65536 + y wraps onto the right product y in a two-byte table, as
        # the table of 200 elements is held
        for x, y, bad in ((m - 1, m - 1, -1), (m - 1, 1, m), (1, m - 1, np.iinfo(np.int64).min),
                          (1, 1, np.iinfo(np.int64).max), (1, 1, (1 << 16) + table[1, 1])):
            broken = table.copy()
            broken[x, y] = bad
            with pytest.raises(InputError, match="^multiplication table entry out of range$"):
                oracles.table_monoid(broken)


@pytest.mark.parametrize("n", [99, 299])
def test_sampled_associativity_refuses_a_largely_non_associative_table(n):
    # {1} + (Z_n, x - y): (x - y) - z = x - (y - z) only where 2 z = 0.  At
    # 300 elements the table holds two-byte ids, whose product x * |M|
    # overflows them
    table = _with_identity(np.subtract.outer(np.arange(n), np.arange(n)) % n + 1)
    # [y, z] at each x: (xy)z against x(yz)
    broken = sum(np.count_nonzero(table[row] != row[table]) for row in table)
    assert broken >= table.size * table.shape[0] / 4
    with pytest.raises(InputError, match="^multiplication is not associative$"):
        oracles.table_monoid(table)
    # the same law on Z_n under addition holds
    oracles.table_monoid(_with_identity(np.add.outer(np.arange(n), np.arange(n)) % n + 1))


def test_sampled_associativity_refuses_one_broken_row():
    # {1} + Z_99 with one element multiplying like the next: about 2% of
    # the triples fail, and the 4096 sampled triples find one
    n = 99
    table = _with_identity(np.add.outer(np.arange(n), np.arange(n)) % n + 1)
    table[5, 1:] = table[6, 1:]
    small = table.astype(np.uint8)
    broken = np.count_nonzero(small[small] != small[:, small])
    assert 0.01 * small.size * len(small) < broken < 0.03 * small.size * len(small)
    with pytest.raises(InputError, match="^multiplication is not associative$"):
        oracles.table_monoid(table)


def _tree_edges(mon) -> set:
    """The cells (parent[y], letter[y]) that the tree check of mon reads."""
    tree = mon._tree
    letters = tree.letters.tolist()
    return set(zip(tree.parent[1:], (letters[i] for i in tree.last[1:])))


def _tree_of(h) -> tuple:
    """The spanning tree of h's monoid, as the constructor takes it."""
    tree = h.monoid._tree
    return tree.parent, tree.last, h.alphabet, [h.letter_map[a] for a in h.alphabet]


def _with_one_wrong_entry(h, rng, count: int) -> list:
    """Up to `count` copies of the table of h, each with one entry changed
    off the tree's edges and off the identity's row and column: the tree
    still proves that the letters generate."""
    mon, m = h.monoid, h.monoid.size
    edges = _tree_edges(mon)
    cells = [(x, y) for x in range(1, m) for y in range(1, m) if (x, y) not in edges]
    out = []
    for i in rng.choice(len(cells), size=min(count, len(cells)), replace=False):
        x, y = cells[i]
        table = mon.mult.copy()
        table[x, y] = (table[x, y] + rng.integers(1, m)) % m
        out.append(table)
    return out


def test_associativity_cube_matches_the_triple_loop(small_corpus, xcheck_corpus):
    # random tables with an identity, and the tables of small monoids, on
    # the star tree, where Light's test is the cube; and the tables of 3-32
    # elements of both corpora, as built and with one wrong entry, on
    # Light's test over the letters their own tree proves
    rng = np.random.default_rng(16)
    cases = [(_with_identity(rng.integers(0, m, size=(m - 1, m - 1))), None)
             for m in range(2, 9) for _ in range(60)]
    for d in [*small_corpus, *xcheck_corpus]:
        h = transition_monoid(d, max_monoid=600)
        mon = h.monoid
        if mon.size <= 8:
            cases.append((mon.mult, None))
        if 3 <= mon.size <= 32:
            for table in [mon.mult, *_with_one_wrong_entry(h, rng, 6)]:
                cases.append((table, _tree_of(h)))
    verdicts = {True: [], False: []}
    for table, tree in cases:
        expected = oracles.is_associative_brute(table)
        try:
            if tree is None:
                oracles.table_monoid(table)
            else:
                OrderedMonoid(table, tree)
            got = True
        except InputError as err:
            assert str(err) == "multiplication is not associative"
            got = False
        assert got == expected, (table.tolist(), tree)
        verdicts[tree is not None].append(got)
    for found in verdicts.values():
        assert 20 <= sum(found) <= len(found) - 20


def test_light_refuses_a_wrong_entry_that_the_sampled_triples_miss(monkeypatch):
    # a transition monoid of 65-128 elements with one entry changed where
    # none of the 4096 sampled triples reads, off the tree's edges and off
    # the identity's row and column: on the star tree the table is only
    # sampled, and passes; on its own tree Light's test checks it in full
    # over the letters, while it reads no more than _LIGHT_MAX_CELLS cells
    d = generate_corpus(count=50, max_states=5, max_letters=2, seed=7, max_monoid=128)[-1]
    h = transition_monoid(d)
    mon, m = h.monoid, h.monoid.size
    cells = m * m * mon.generators.size
    assert 64 < m and cells <= monoid_module._LIGHT_MAX_CELLS
    xs, ys, zs = (monoid_module._TRIPLES * m).astype(np.int64)
    mult = mon.mult
    xy, yz = mult[xs, ys], mult[ys, zs]
    read = {*zip(xs.tolist(), ys.tolist()), *zip(xy.tolist(), zs.tolist()),
            *zip(ys.tolist(), zs.tolist()), *zip(xs.tolist(), yz.tolist())}
    edges = _tree_edges(mon)
    for x, y in ((x, y) for x in range(1, m) for y in range(1, m)):
        if (x, y) in read or (x, y) in edges:
            continue
        table = mult.copy()
        table[x, y] = (table[x, y] + 1) % m
        small = table.astype(np.uint8)
        if small[small].tobytes() != small[:, small].tobytes():
            break
    else:
        raise AssertionError("no unread entry breaks associativity")
    oracles.table_monoid(table)
    with pytest.raises(InputError, match="^multiplication is not associative$"):
        OrderedMonoid(table, _tree_of(h))
    monkeypatch.setattr(monoid_module, "_LIGHT_MAX_CELLS", cells - 1)
    OrderedMonoid(table, _tree_of(h))


def test_with_order_keeps_table():
    u1 = oracles.table_monoid([[0, 1], [1, 1]])
    ordered = u1.with_order([[True, False], [True, True]])
    assert ordered.leq[1, 0] and not ordered.leq[0, 1]
    assert np.array_equal(ordered.mult, u1.mult)


def test_with_order_checks_the_order_and_shares_the_caches():
    # the sibling shares the table and the order-free caches, not the order
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    m = h.monoid
    e = m.idempotents()[1]
    me = m.me_members(e)
    sibling = m.with_order(None)
    assert sibling.mult is m.mult and sibling._tree is m._tree
    assert sibling.generators is m.generators and sibling.leq is None
    assert sibling.j_classes() is m.j_classes() and sibling.me_members(e) is me
    letter = np.zeros(m.size, dtype=bool)
    letter[h.image("a")] = True
    assert letter.tobytes() not in m._generated
    built = sibling.generated(letter)
    assert m.generated(letter) is built  # closed once, for both
    syntactic_order(h)
    assert sibling.leq is None and m.with_order(m.leq).leq is not None
    # a given order is checked as the constructor checks it
    u1 = oracles.table_monoid([[0, 1], [1, 1]])
    for leq, message in (([[True]], "order matrix must be size x size"),
                         ([[False, False], [True, True]], "order is not reflexive"),
                         ([[True, True], [True, True]], "order is not antisymmetric")):
        for build in (lambda: u1.with_order(leq),
                      lambda: oracles.table_monoid([[0, 1], [1, 1]], leq=leq)):
            with pytest.raises(InputError, match=message):
                build()
    cycle = np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool)  # 0 <= 1 <= 2, not 0 <= 2
    with pytest.raises(InputError, match="order is not transitive"):
        oracles.table_monoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]]).with_order(cycle)


def test_complement_morphism_matches_an_independent_build(small_corpus, xcheck_corpus):
    # a* over {a, b} with the accepting state split in two, as in the
    # battery's not-minimal test: the morphism is the minimal automaton's
    not_minimal = make_dfa(["a", "b"], ["p", "q", "r"], "p", ["p", "q"],
                           {("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "r",
                            ("q", "b"): "r", ("r", "a"): "r", ("r", "b"): "r"})
    for i, d in enumerate([*small_corpus, *xcheck_corpus, not_minimal]):
        h = transition_monoid(d, max_monoid=600)
        co = complement_morphism(h)
        co_d = complement(d)
        want = transition_monoid(co_d, max_monoid=600)
        assert co.monoid.mult is h.monoid.mult
        assert co.monoid.mult.tobytes() == want.monoid.mult.tobytes()
        assert oracles.element_words(co.monoid) == oracles.element_words(want.monoid)
        assert co.alphabet == want.alphabet and co.letter_map == want.letter_map
        assert co.accepting == want.accepting
        # binding either order first leaves the other monoid without one
        first, second = (co, h) if i % 2 else (h, co)
        syntactic_order(first)
        assert second.monoid.leq is None
        syntactic_order(second)
        leq = syntactic_order(want).monoid.leq
        assert np.array_equal(co.monoid.leq, leq)
        assert np.array_equal(co.monoid.leq, h.monoid.leq.T)
        for t in (1, 2, 3):
            assert (analyze(co_d, max_monoid=600, index_multiplier=t, morphism=co).to_doc()
                    == analyze(co_d, max_monoid=600, index_multiplier=t,
                               morphism=want).to_doc()), (i, t)
        assert co._memo is h._memo


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


def _doubled(d):
    """d with two copies (q, 0) and (q, 1) of each state, every move
    switching copies: the copies of a state are equivalent."""
    delta = {((q, i), a): (t, 1 - i)
             for q, row in enumerate(d.rows) for a, t in zip(d.alphabet, row) for i in (0, 1)}
    states = [(q, i) for q in range(len(d.rows)) for i in (0, 1)]
    finals = [(q, i) for q, i in states if d.accepting[q]]
    return make_dfa(d.alphabet, states, (0, 0), finals, delta)


def test_transition_monoid_minimizes_first():
    # random machines with equivalent states give the same morphism as
    # their minimal automata: table, words, letters, accepting.  A Dfa
    # keeps only its reachable states, so each draw is also taken with its
    # states doubled
    rng = np.random.default_rng(11)
    grew = 0
    for _ in range(40):
        drawn = random_dfa(rng, 5, 3)
        for d in (drawn, _doubled(drawn)):
            m = minimize(d)
            grew += len(d.rows) > len(m.rows)
            h, want = transition_monoid(d), transition_monoid(m)
            assert np.array_equal(h.monoid.mult, want.monoid.mult)
            assert oracles.element_words(h.monoid) == oracles.element_words(want.monoid)
            assert h.letter_map == want.letter_map and h.alphabet == want.alphabet
            assert h.accepting == want.accepting
    assert grew >= 10


def _cyclic_counter(n):
    # a counts modulo n, b does nothing; L = the lengths in a divisible by n
    states = [f"c{i}" for i in range(n)]
    delta = {(q, "a"): states[(i + 1) % n] for i, q in enumerate(states)}
    delta.update({(q, "b"): q for q in states})
    return make_dfa(["a", "b"], states, "c0", ["c0"], delta)


def _reset_counter(n):
    # a counts the n - 1 states of a cycle, b resets them to its start, c
    # leads to a rejecting sink: n states, and |M| = 2 n - 1 (the
    # rotations, the resets followed by rotations, and the zero)
    states = [f"c{i}" for i in range(n - 1)] + ["sink"]
    delta = {(q, "a"): states[(i + 1) % (n - 1)] for i, q in enumerate(states[:-1])}
    delta.update({(q, "b"): states[0] for q in states[:-1]})
    delta.update({(q, "c"): "sink" for q in states})
    delta.update({("sink", "a"): "sink", ("sink", "b"): "sink"})
    return make_dfa(["a", "b", "c"], states, "c0", ["c0"], delta)


def test_transition_monoid_matches_the_tuple_closure(small_corpus):
    # the closure by one C call per product (byte labels below 256 states,
    # tuple labels from 256 up) and the row fill against the per-state
    # generator and column fill: equal ids, words, tables, letters and
    # accepting sets, and the same cap at the boundary
    def same(d, cap=monoid_module.DEFAULT_MAX_MONOID):
        h, want = transition_monoid(d, cap), oracles.transition_monoid_by_tuples(d, cap)
        assert isinstance(h.action, bytes if len(minimize(d).rows) < 256 else tuple)
        assert np.array_equal(h.monoid.mult, want.monoid.mult)
        assert oracles.element_words(h.monoid) == oracles.element_words(want.monoid)
        assert h.letter_map == want.letter_map and h.alphabet == want.alphabet
        assert h.accepting == want.accepting
        return h

    rng = np.random.default_rng(13)
    ladder = []
    while len(ladder) < 20:  # ladder-shaped draws
        d = random_dfa(rng, 7, 2)
        try:
            ladder.append(same(d, 824))
        except CapError as e:
            assert str(e) == "monoid size cap exceeded (824)"
            with pytest.raises(CapError, match=r"^monoid size cap exceeded \(824\)$"):
                oracles.transition_monoid_by_tuples(d, 824)
    assert max(h.monoid.size for h in ladder) > 200
    for d in small_corpus:
        same(d)
    for finals in ([], ["q"]):  # the empty language and A*, one state each
        d = make_dfa(["a", "b"], ["q"], "q", finals, {("q", "a"): "q", ("q", "b"): "q"})
        assert same(d).monoid.size == 1
    for n in (255, 256):  # one state on each side of the byte labels
        assert same(_reset_counter(n)).monoid.size == 2 * n - 1
    counter = _cyclic_counter(300)  # more states than a byte can name
    assert same(counter).monoid.size == 300
    same(counter, 300)  # exactly cap elements pass
    for build in (transition_monoid, oracles.transition_monoid_by_tuples):
        with pytest.raises(CapError, match=r"^monoid size cap exceeded \(299\)$"):
            build(counter, 299)


def mid_size_draw():
    """The first draw of seed 2 with |M| >= 1500 under the ladder's cap of
    2000 (|M| = 1580), as a DFA; the memory guards run on its monoid."""
    rng = np.random.default_rng(2)
    for _ in range(170):
        d = random_dfa(rng, 8, 2)
    return d


def test_transition_monoid_peak_memory_is_about_its_table():
    # the fill writes the table in place, with no second |M|^2 buffer
    d = mid_size_draw()
    tracemalloc.start()
    try:
        h = transition_monoid(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.monoid.size == 1580
    assert h.monoid.mult.itemsize == 2
    assert peak < 1.25 * h.monoid.mult.nbytes


def test_transition_monoid_cap():
    with pytest.raises(CapError):
        transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")), max_monoid=3)


def test_transition_monoid_label_cap(monkeypatch):
    # (a|b)*a(a|b)(a|b): 8 states, so labels of 9 cells, and |M| = 15
    d = minimize(regex_to_dfa("(a|b)*a(a|b)(a|b)"))
    monkeypatch.setattr(monoid_module, "MAX_LABEL_CELLS", 9 * 15)
    assert transition_monoid(d).monoid.size == 15
    monkeypatch.setattr(monoid_module, "MAX_LABEL_CELLS", 9 * 14)
    with pytest.raises(CapError, match=r"^monoid label cap exceeded \(more than 14 elements "
                                       r"of 9 cells, at most 126 cells\)$"):
        transition_monoid(d)
    # a cap below the 8 states is refused before the closure starts, with
    # the message of the cap that binds
    monkeypatch.setattr(monoid_module, "generated_morphism", None)
    with pytest.raises(CapError, match=r"^monoid size cap exceeded \(5\)$"):
        transition_monoid(d, max_monoid=5)
    monkeypatch.setattr(monoid_module, "MAX_LABEL_CELLS", 9 * 7)
    with pytest.raises(CapError, match=r"^monoid label cap exceeded \(more than 7 elements"):
        transition_monoid(d)


def test_generated_morphism_modular_counter():
    h = generated_morphism(
        {"a": 1}, lambda x: lambda y: (x + y) % 3, 0,
        label_accepting=lambda labels: [x == 0 for x in labels])
    assert h.monoid.size == 3
    assert h.image("aaa") == h.monoid.identity
    assert h.accepting == frozenset({0})


def test_generated_morphism_cap():
    with pytest.raises(CapError):
        generated_morphism({"a": 1}, lambda x: lambda y: (x + y) % 64, 0, cap=10)


def test_syntactic_order_zero_positions():
    # accepting absorbing zero sits at the bottom of the syntactic order
    h = syntactic("(a|b)*(aa|bb)(a|b)*")
    zero = h.image("aa")
    assert all(h.monoid.leq[zero, x] for x in h.monoid.elements())
    # non-accepting absorbing zero sits at the top
    g = syntactic("(bc)*")
    sink = g.image("bb")
    assert all(g.monoid.mul(sink, x) == sink for x in g.monoid.elements())
    assert all(g.monoid.leq[x, sink] for x in g.monoid.elements())


def test_syntactic_order_is_idempotent_and_in_place():
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    assert h.monoid.leq is None
    h2 = syntactic_order(h)
    assert h2 is h and h.monoid.leq is not None
    before = h.monoid.leq
    assert syntactic_order(h) is h
    assert h.monoid.leq is before


def test_syntactic_order_needs_accepting_set():
    h = generated_morphism({"a": 1}, lambda x: lambda y: (x + y) % 2, 0)
    with pytest.raises(InputError):
        syntactic_order(h)


def test_syntactic_order_rejects_non_syntactic_morphism():
    # all elements share every context when everything is accepting; the
    # morphism comes from no automaton, so it has no action to order by
    h = generated_morphism(
        {"a": 1}, lambda x: lambda y: (x + y) % 2, 0,
        label_accepting=lambda labels: [True] * len(labels))
    with pytest.raises(InputError):
        syntactic_order(h)


def test_syntactic_order_needs_an_action():
    # a morphism with an accepting set but not from `transition_monoid`
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    bare = Morphism(OrderedMonoid(h.monoid.mult, _tree_of(h)), h.alphabet, h.letter_map,
                    h.accepting)
    with pytest.raises(InputError, match="^syntactic order needs the action of a "):
        syntactic_order(bare)
    assert bare.monoid.leq is None


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
    """The sorted members of the submonoid generated by the given ids,
    closed into the monoid's store by the breadth-first closure and checked
    against the scalar search."""
    mask = np.zeros(m.size, dtype=bool)
    mask[list(generators)] = True
    got = m.generated(mask)
    assert got.tolist() == sorted(oracles.closure_brute(m.mult, m.identity, generators))
    return got.tolist()


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
            assert view.leq[x, y] == m.leq[parents[x], parents[y]]


def test_submonoid_view_requires_closed_subset():
    h = syntactic("(a|b)*aa(a|b)*")
    with pytest.raises(InputError):
        oracles.submonoid_view(h.monoid, {h.monoid.identity, h.image("a")})


def test_local_condition_on_repeat_language():
    h = syntactic("(a|b)*(aa|bb)(a|b)*")
    m = h.monoid
    (offender,) = local_condition(m, m.idempotents(), m.me_members, (m.leq,))
    assert offender is None
    (witness,) = local_condition(m, m.idempotents(), m.me_members)
    assert witness is not None
    e, x = witness
    assert h.word_of(e) == ("a", "b")
    assert h.word_of(x) == ("a",)
    exe = h.monoid.mul(h.monoid.mul(e, x), e)
    assert exe != e


def test_local_condition_mes_selector():
    h = syntactic("(bc)*")
    info = stability_info(h)
    assert local_condition(h.monoid, h.monoid.idempotents(), info.mes_members) == (None,)


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
        relations = ((None, "eq"), (m.leq, "leq"), (m.leq.T, "geq"))
        expected = [oracles.local_condition_brute(
            m, mode, lambda e: members(e).tolist(), expected_idempotents)
            for _, mode in relations]
        # one sweep for all three, and each relation on its own
        assert local_condition(m, idempotents, members, [o for o, _ in relations]) == (
            tuple(expected))
        for (order, _), pair in zip(relations, expected):
            assert local_condition(m, idempotents, members, (order,)) == (pair,)


def test_local_condition_closes_each_relation_at_its_own_offender(langs):
    # relations that first fail at different idempotents: one sweep finds
    # each one's first offender (e, least x), a relation that never fails
    # reads None, and no idempotent past the last failure is visited.  The
    # orders are reflexive, as local_condition requires, so they can fail
    # only at idempotents where e x e = e fails for some x of Me: 2, 4, 5
    m = syntactic_order(transition_monoid(minimize(langs["factor_aa"]))).monoid
    es = m.idempotents()
    assert es == [0, 2, 3, 4, 5]

    def failing_at(e):
        """A reflexive order that holds except at e x e <= e for the
        largest x of Me with e x e != e."""
        xs = m.me_members(e)
        exe = m.mult[m.mult[e, xs], e]
        last = exe[exe != e][-1]
        order = np.ones((m.size, m.size), dtype=bool)
        order[last, e] = False
        return order, (e, int(xs[exe == last][0]))

    (late, late_pair), (early, early_pair) = failing_at(es[3]), failing_at(es[1])
    holds = np.ones((m.size, m.size), dtype=bool)
    visited = []

    def members(e):
        visited.append(e)
        return m.me_members(e)

    assert local_condition(m, es, members, (late, early, holds)) == (
        late_pair, early_pair, None)
    assert visited == es
    visited.clear()
    assert local_condition(m, es, members, (late, early)) == (late_pair, early_pair)
    assert visited == es[:4]
    visited.clear()
    assert local_condition(m, es, members, (early,)) == (early_pair,)
    assert visited == es[:2]


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


def _check_order_against_oracles(h):
    """The packed order equals the class loop and the context enumeration."""
    by_loop = oracles.syntactic_order_by_class_loop(h)
    h = syntactic_order(h)
    assert h.monoid.leq.dtype == bool
    assert np.array_equal(h.monoid.leq, by_loop)
    assert np.array_equal(h.monoid.leq, oracles.syntactic_leq_by_contexts(h))


def test_syntactic_order_matches_context_oracle_on_corpus(small_corpus):
    for d in small_corpus:
        _check_order_against_oracles(transition_monoid(d, max_monoid=600))


@pytest.mark.parametrize("seed", [43, 58, 61])
def test_syntactic_order_matches_context_oracle_at_mid_size(seed):
    d = minimize(_random_seven_state_dfa(seed))
    assert len(d.states) == 7
    h = transition_monoid(d)
    assert 150 <= h.monoid.size <= 300
    _check_order_against_oracles(h)


def test_syntactic_order_from_the_action_matches_the_table_route(small_corpus):
    # the order read off the closure's labels against the class loop, the
    # table route that `syntactic_order` once had: the corpus, ladder-shaped
    # draws, the mid-size draw, and one automaton on each side of the byte
    # labels' 256 states
    rng = np.random.default_rng(13)
    ladder = []
    while len(ladder) < 8:
        try:
            h = transition_monoid(random_dfa(rng, 7, 2), 824)
        except CapError:
            continue
        if h.monoid.size >= 150:
            ladder.append(h)
    morphisms = [transition_monoid(d, max_monoid=600) for d in small_corpus] + ladder
    morphisms += [transition_monoid(d) for d in (mid_size_draw(), _reset_counter(255),
                                                 _reset_counter(256))]
    assert [type(h.action) for h in morphisms[-3:]] == [bytes, bytes, tuple]
    for h in morphisms:
        leq = syntactic_order(h).monoid.leq
        assert np.array_equal(leq, oracles.syntactic_order_by_class_loop(h))


def test_syntactic_order_over_many_classes_and_a_ragged_byte():
    # 16 quotient classes and |M| = 31, so the last byte of a row is partial
    d = minimize(regex_to_dfa("(a|b)*a(a|b)(a|b)(a|b)"))
    h = transition_monoid(d)
    assert (len(d.states), h.monoid.size) == (16, 31)
    _check_order_against_oracles(h)


def test_syntactic_order_one_class_per_block_matches_oracles(small_corpus, monkeypatch):
    # a gather budget of one byte puts every quotient class in a block of its own
    monkeypatch.setattr(monoid_module, "_GATHER_IDS", 1)
    dfas = list(small_corpus) + [minimize(_random_seven_state_dfa(seed)) for seed in (43, 58, 61)]
    dfas.append(minimize(regex_to_dfa("(a|b)*a(a|b)(a|b)(a|b)")))
    for d in dfas:
        _check_order_against_oracles(transition_monoid(d, max_monoid=600))


def test_syntactic_order_peak_memory_is_below_two_byte_matrices():
    # the packed rows are ANDed into |M|^2 / 8 bytes and unpacked once;
    # the bits of the quotients are dropped first
    h = transition_monoid(mid_size_draw())
    size = h.monoid.size
    tracemalloc.start()
    try:
        syntactic_order(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 1580
    assert peak < 2 * size * size


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


def _fresh_monoid(h, star=False):
    """A copy of h's monoid with empty stores: with its spanning tree, or
    on the star tree when `star` is set."""
    if star:
        return oracles.table_monoid(h.monoid.mult)
    return OrderedMonoid(h.monoid.mult, _tree_of(h))


def _me_on_fresh_monoid(h, star=False):
    """Me at every idempotent, on a copy of h's monoid with empty stores."""
    fresh = _fresh_monoid(h, star)
    return fresh, {e: fresh.me_members(e) for e in fresh.idempotents()}


def _check_me_against_brute_and_j_classes(h, star=False):
    fresh, me = _me_on_fresh_monoid(h, star)
    brute = oracles.me_brute(fresh)
    assert {e: set(xs.tolist()) for e, xs in me.items()} == brute
    # Me depends only on the J-class: J-equivalent idempotents share one
    # array, and two classes share one exactly when the same letters lie
    # in their upsets.  On the star tree every element but the identity is
    # a letter, so each class has its own
    letters = frozenset(fresh.generators.tolist())
    for cls in oracles.green_classes(fresh).j_classes:
        assert len({id(me[e]) for e in cls if e in me}) <= 1
    generators = {}
    for e in me:
        upset = frozenset(np.flatnonzero(oracles.j_upset_by_passes(fresh.mult, e)).tolist())
        generators[e] = upset & letters
    for e in me:
        for f in me:
            assert (me[e] is me[f]) == (generators[e] == generators[f]), (e, f)


@pytest.mark.parametrize("route_min_size", [0, 10**9], ids=["table", "mask"])
def test_me_shared_per_j_class_and_matches_definition(small_corpus, monkeypatch, route_min_size):
    # both routes to the upsets {a : e in MaM}: the letter-step table and
    # the two table passes; Me from the letters in the upset, on the tree
    # of the closure and on the star tree, whose letters are every element
    # but the identity
    monkeypatch.setattr(monoid_module, "_BFS_MIN_SIZE", route_min_size)
    for d in small_corpus:
        h = transition_monoid(d, max_monoid=600)
        for star in (False, True):
            _check_me_against_brute_and_j_classes(h, star)


def _ladder_draws(count):
    """The first `count` ladder-shaped draws (7 states, 2 letters) of seed 13
    with 150 to 300 elements, as morphisms: small enough for `me_brute`."""
    rng = np.random.default_rng(13)
    out = []
    while len(out) < count:
        try:
            h = transition_monoid(random_dfa(rng, 7, 2), 300)
        except CapError:
            continue
        if h.monoid.size >= 150:
            out.append(h)
    return out


def test_me_table_route_at_mid_size():
    # the seed-43 draw and ladder-shaped draws lie above the table route's
    # threshold, so their J-classes come from the letter-step table
    morphisms = [transition_monoid(minimize(_random_seven_state_dfa(43)))] + _ladder_draws(2)
    for h in morphisms:
        assert h.monoid.size > monoid_module._BFS_MIN_SIZE
        _check_me_against_brute_and_j_classes(h)


def test_mes_on_ladder_draws_matches_the_residue_search():
    # ladder-shaped draws, with S short of M and stability indices 21 and
    # 32: Mes, closed over the table from the block images, against the
    # residue-tagged search at every idempotent and multiplier
    draws = _ladder_draws(2)
    shapes = [(h.monoid.size, stability_info(h).stable.size, stability_info(h).index)
              for h in draws]
    assert [(m, s) for m, _, s in shapes] == [(249, 21), (281, 32)]
    assert all(stable < m for m, stable, _ in shapes)
    for h in draws:
        for multiplier in (1, 2, 3):
            info = stability_info(h, multiplier)
            scatter = oracles.admissible_by_stable_scatter(info)
            for e in h.monoid.idempotents():
                want = oracles.mes_by_residue_search(info, e, scatter)
                assert set(info.mes_members(e).tolist()) == want, (multiplier, e)


def test_me_matches_the_upset_closure_on_the_mid_size_draw():
    # at |M| = 1580 the brute scan of `me_brute` is too slow, so Me is
    # checked against its definition by the table-pass upsets of the
    # oracles and the plain closure of the whole upset
    h = transition_monoid(mid_size_draw())
    mon = h.monoid
    assert mon.size == 1580
    closed = {}
    for e in mon.idempotents():
        up = oracles.j_upset_by_passes(mon.mult, e)
        key = up.tobytes()
        if key not in closed:
            closed[key] = monoid_module._closure_members(mon.mult, np.flatnonzero(up))
        assert mon.me_members(e).tobytes() == closed[key].tobytes(), e


def test_me_is_the_monoid_at_a_full_letter_set_without_a_closure(monkeypatch):
    # the zero of (a|b)*aa(a|b)* lies in M a M for every letter a
    h = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    mon = h.monoid
    zero = h.image("aa")
    assert all(mon.mul(zero, x) == zero == mon.mul(x, zero) for x in mon.elements())
    closures = []
    monkeypatch.setattr(monoid_module, "_closure_members",
                        lambda *args, **kw: closures.append(args) or None)
    assert mon.me_members(zero).tolist() == list(mon.elements())
    assert closures == []


def count_upset_builders(monkeypatch) -> Counter:
    """A Counter of the calls to each builder of M's upset table,
    `_pass_table` and `_upset_table`, made through the monoid module."""
    built = Counter()
    for name in ("_pass_table", "_upset_table"):
        def counted(*args, real=getattr(monoid_module, name), name=name):
            built[name] += 1
            return real(*args)
        monkeypatch.setattr(monoid_module, name, counted)
    return built


@pytest.mark.parametrize("route_min_size", [0, 10**9], ids=["table", "passes"])
def test_letter_step_table_matches_the_table_passes(small_corpus, monkeypatch, route_min_size):
    # M's classes are read off one upset table, from the builder the size
    # picks, and both builders give the upsets of the oracle's passes
    passes, steps = monoid_module._pass_table, monoid_module._upset_table
    monkeypatch.setattr(monoid_module, "_BFS_MIN_SIZE", route_min_size)
    built = count_upset_builders(monkeypatch)
    morphisms = [transition_monoid(d, max_monoid=600) for d in small_corpus]
    # a 7-element monoid of depth 2 whose left steps need both rounds
    deep_left = make_dfa(("a", "b"), ["0", "1", "2", "3"], "0", ["0", "2"], {
        ("0", "a"): "1", ("0", "b"): "1", ("1", "a"): "2", ("1", "b"): "3",
        ("2", "a"): "2", ("2", "b"): "2", ("3", "a"): "3", ("3", "b"): "3"})
    morphisms.append(transition_monoid(deep_left))
    assert (morphisms[-1].monoid.size, morphisms[-1].monoid._tree.depth) == (7, 2)
    for h in morphisms + _ladder_draws(2):
        mon = _fresh_monoid(h)
        built.clear()
        classes = mon.j_classes()
        assert built == {"_upset_table" if route_min_size == 0 else "_pass_table": 1}
        ids = np.array(mon.idempotents())
        by_steps = steps(mon.mult, ids, mon.generators, mon._tree.depth)
        by_passes = passes(mon.mult, ids)
        for i, e in enumerate(ids.tolist()):
            want = oracles.j_upset_by_passes(mon.mult, e).tobytes()
            assert (classes.upset(e).tobytes() == want == by_steps[i].tobytes()
                    == by_passes[i].tobytes()), e


def test_j_classes_at_the_builders_boundary(monkeypatch):
    # monoids of `_BFS_MIN_SIZE` elements take the table passes and those
    # of one more the letter steps; the classes of M, and of S where S is
    # short of M, are those Green's relations give
    built = count_upset_builders(monkeypatch)
    edge = monoid_module._BFS_MIN_SIZE
    rng = np.random.default_rng(17)
    found = {edge: [], edge + 1: []}
    while min(map(len, found.values())) < 2:
        try:
            h = transition_monoid(random_dfa(rng, 5, 3), edge + 1)
        except CapError:
            continue
        bucket = found.get(h.monoid.size)
        if bucket is not None and len(bucket) < 2:
            bucket.append(h)
    short = 0
    for size, morphisms in found.items():
        for h in morphisms:
            mon = h.monoid
            built.clear()
            assert list(mon.j_classes().representatives()) == oracles.j_class_representatives(mon)
            assert built == {"_pass_table" if size == edge else "_upset_table": 1}
            info = stability_info(h)
            if info.stable.size < size:
                short += 1
                sub, ids = oracles.submonoid_view(mon, info.stable)
                by_brute = [ids[e] for e in oracles.j_class_representatives(sub)]
                assert list(info.stable_j_classes.representatives()) == by_brute
    assert short


def test_a_corrupted_tree_is_refused():
    # every tree is checked when its monoid is built, on Light's test and
    # on a sampled table alike: a wrong parent or letter, a parent that is
    # not earlier (itself, say), a root other than the identity, a letter index past the
    # names, and a letter outside the monoid
    small = transition_monoid(minimize(regex_to_dfa("(a|b)*aa(a|b)*")))
    large = _ladder_draws(1)[0]
    assert small.monoid.size <= 64
    assert large.monoid.size ** 2 * large.monoid.generators.size > monoid_module._LIGHT_MAX_CELLS
    for h in (small, large):
        mon = h.monoid
        parent, last, names, letters = _tree_of(h)
        y = mon.size - 1
        assert OrderedMonoid(mon.mult, _tree_of(h)).word_of(y) == mon.word_of(y)
        wrong_parent = parent[:y] + [parent[y] - 1]
        wrong_last = last[:y] + [1 - last[y]]
        late_parent = parent[:y] + [y]
        # a z with z a = z: the gather alone would pass z as its own parent
        z, i = next((z, i) for z in range(1, mon.size) for i, a in enumerate(letters)
                    if mon.mul(z, a) == z)
        self_parent = (parent[:z] + [z] + parent[z + 1:], last[:z] + [i] + last[z + 1:])
        for tree in ((wrong_parent, last, names, letters), (parent, wrong_last, names, letters),
                     (late_parent, last, names, letters), (*self_parent, names, letters),
                     ([5] + parent[1:], last, names, letters),
                     (parent, last[:y] + [len(names)], names, letters),
                     (parent, last, names, [letters[0], mon.size]),
                     (parent, last, names, [-1, letters[1]])):
            with pytest.raises(InputError):
                OrderedMonoid(mon.mult, tree)


def test_generators_must_lie_in_the_monoid():
    # the generators are the tree's letters: one past the table, or
    # negative, is refused before the tree is walked
    for letters in ([2], [-1]):
        with pytest.raises(InputError, match="^the tree's letters must lie in the monoid$"):
            OrderedMonoid([[0, 1], [1, 0]], ([-1, 0], [0, 0], ("a",), letters))


def test_the_tree_spells_the_words_on_demand():
    h = transition_monoid(minimize(_random_seven_state_dfa(43)))
    mon = h.monoid
    assert mon._tree._spelled == {}  # no word is spelled until it is read
    assert mon.word_of(7) == mon._tree.word(7) and list(mon._tree._spelled) == [7]
    walked = [mon.word_of(x) for x in mon.elements()]
    assert walked == list(oracles.element_words(oracles.transition_monoid_by_tuples(
        minimize(_random_seven_state_dfa(43))).monoid))
    assert all(h.image(w) == x for x, w in enumerate(walked))


def test_every_kind_of_morphism_spells_a_word_of_each_element():
    # h(word_of(x)) = x for every element x of each kind of morphism that
    # the library builds: transition monoids and their complements, the K
    # and D quotients, the sigma2_mod witnesses, and the lifts and
    # projections of decorated morphisms (of the decorated language at
    # modulus 2, and of each witness at its index)
    counts = Counter()

    def check(kind, g):
        counts[kind] += 1
        for x in g.monoid.elements():
            assert g.image(g.word_of(x)) == x, (kind, x)

    for d in generate_corpus(120, 4, 2, seed=3, max_monoid=300):
        h = syntactic_order(transition_monoid(d, max_monoid=300))
        check("transition", h)
        check("complement", complement_morphism(h))
        for side in ("K", "D"):
            check("quotient", sim_quotient(h, side).quotient)
        decorated = [(transition_monoid(decorate(d, 2)), 2)]
        info = stability_info(h)
        if LanguageAnalysis(d, morphism=h).check("sigma2_mod")[0]:
            g = build_mod_witness(h, info)
            check("witness", g)
            decorated.append((g, info.index))
        for g, n in decorated:
            lifted = lift_decorated_hom(g, n)
            check("lift", lifted.morphism)
            check("project", project_hom(lifted))
    assert counts == {"transition": 120, "complement": 120, "quotient": 240, "witness": 107,
                      "lift": 227, "project": 227}


def test_a_closure_stops_at_its_limit():
    # Z/6 is generated by 1; a closure told that 3 elements hold the result
    # stops at the level that reaches them
    ids = np.arange(6)
    table = (ids[:, None] + ids) % 6
    full = monoid_module._closure_members(table, np.array([1]))
    assert full.tolist() == list(range(6))
    assert monoid_module._closure_members(table, np.array([1]), limit=3).tolist() == [0, 1, 2]


def test_a_closure_stops_within_a_level_at_its_limit(monkeypatch):
    # in Z/12, 2, 4, 6 and 8 generate the 6 even residues; the first level
    # gathers 2 + {2, 4, 6, 8} in its first one-row block, which reaches
    # 10 and so all 6, and the bound stops it before the other 3 rows
    class Counting(np.ndarray):
        def __getitem__(self, index):
            gathers.append(index)
            return np.asarray(self).__getitem__(index)

    gathers = []
    ids = np.arange(12)
    plain = (ids[:, None] + ids) % 12
    gens = np.array([2, 4, 6, 8])
    want = sorted(oracles.closure_brute(plain, 0, gens.tolist()))
    table = plain.view(Counting)
    monkeypatch.setattr(monoid_module, "_CLOSURE_BLOCK", gens.size)
    assert monoid_module._closure_members(table, gens, limit=6).tolist() == want
    assert len(gathers) == 1
    # without the bound the closure reads the level's other 3 blocks, and
    # the next level's, before it finds nothing new
    gathers.clear()
    assert monoid_module._closure_members(table, gens).tolist() == want
    assert len(gathers) == 4 + 1


def test_closure_in_small_blocks_matches_brute(small_corpus, monkeypatch):
    # a budget of one product splits every frontier into one-row blocks
    monkeypatch.setattr(monoid_module, "_CLOSURE_BLOCK", 1)
    for d in small_corpus[:10]:
        fresh, me = _me_on_fresh_monoid(transition_monoid(d, max_monoid=600))
        for e, brute in oracles.me_brute(fresh).items():
            assert set(me[e].tolist()) == brute


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
    z2 = oracles.table_monoid([[0, 1], [1, 0]])
    with pytest.raises(InputError):
        Morphism(monoid=z2, alphabet=("a", "b"), letter_map={"a": 1})
    with pytest.raises(InputError):
        Morphism(monoid=z2, alphabet=("a",), letter_map={"a": 5})
