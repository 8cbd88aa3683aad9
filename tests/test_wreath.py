"""Sequential products with a modular counter: the pair monoid, lifting a
morphism on decorated letters, and projecting back down."""

import numpy as np
import pytest

from fragcheck.automata import decorated_letters
from fragcheck.errors import CapError, InputError
from fragcheck.monoid import Morphism
from fragcheck.wreath import (
    _pair_order,
    lift_decorated_hom,
    pair_product,
    project_hom,
    wreath_morphism,
)
import oracles
from oracles import decorate_word, pair_le, table_monoid, wreath_product

TRIVIAL = table_monoid([[0]])
Z2 = table_monoid([[0, 1], [1, 0]])
Z3 = table_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
U1_ORD = table_monoid([[0, 1], [1, 1]], leq=[[True, False], [True, True]])


def decorated_morphism(base, n, letters, assign):
    dls = decorated_letters(letters, n)
    return Morphism(
        monoid=base,
        alphabet=tuple(dls),
        letter_map={dl: assign(i) % base.size for i, dl in enumerate(dls)},
    )


def test_wreath_product_sizes():
    assert wreath_product(TRIVIAL, 3).monoid.size == 3
    assert wreath_product(Z2, 2).monoid.size == 8
    assert wreath_product(Z3, 2).monoid.size == 18


def test_wreath_product_cap():
    with pytest.raises(CapError):
        wreath_product(Z3, 8)  # 3^8 * 8 pairs is past the default cap
    with pytest.raises(InputError):
        wreath_product(Z2, 0)


def test_pair_product_law():
    # function component reads its argument at the position shifted by the
    # first counter, counter components add mod n
    n = 2
    p1 = ((1, 0), 1)
    p2 = ((0, 1), 1)
    f, k = pair_product(Z2, n, p1, p2)
    assert k == 0
    assert f == (Z2.mul(1, p2[0][1 % n]), Z2.mul(0, p2[0][0]))
    # and on every pair of the full pair monoid, spelled pair by pair
    for base in (Z2, Z3, U1_ORD):
        w = wreath_product(base, n)
        for x in w.monoid.elements():
            for y in w.monoid.elements():
                got = pair_product(base, n, w.pairs[x], w.pairs[y])
                assert got == w.pairs[w.monoid.mul(x, y)]


def test_wreath_product_is_associative_and_ordered():
    w = wreath_product(U1_ORD, 2)
    m = w.monoid
    assert m.size == 8
    # spot-check the order: equal counters and pointwise base order
    assert pair_le(U1_ORD, 2, ((1, 1), 0), ((0, 0), 0))
    assert not pair_le(U1_ORD, 2, ((0, 0), 0), ((0, 0), 1))
    # the library's order matrix is the order taken pair by pair
    assert np.array_equal(_pair_order(U1_ORD, 2, w.pairs), m.leq)
    assert np.array_equal(_pair_order(Z2, 2, wreath_product(Z2, 2).pairs),
                          np.eye(8, dtype=bool))


def test_wreath_morphism_generates_submonoid():
    wm = wreath_morphism(Z2, 2, {"a": ((1, 0), 1), "b": ((0, 0), 1)})
    f, k = wm.pair_image("ab")
    assert k == 0
    # counting a's at even distance from the start only
    f2, k2 = wm.pair_image("aa")
    assert k2 == 0 and f2 == (1, 1)
    assert wm.morphism.monoid.size <= 8


def test_wreath_morphism_rejects_bad_pairs():
    with pytest.raises(InputError):
        wreath_morphism(Z2, 2, {"a": ((1,), 1)})
    with pytest.raises(InputError):
        wreath_morphism(Z2, 2, {"a": ((1, 0), 2)})
    with pytest.raises(InputError):
        wreath_morphism(Z2, 0, {"a": ((), 0)})


def test_lift_translates_decorated_images():
    for n in (1, 2, 3):
        g = decorated_morphism(Z3, n, ("a", "b"), lambda i: i)
        lifted = lift_decorated_hom(g, n)
        for u in oracles.words(("a", "b"), 2 * n + 2):
            f, k = lifted.pair_image(u)
            assert k == len(u) % n
            assert f[0] == g.image(decorate_word(u, n))


def test_lift_components_cover_all_offsets():
    n = 2
    g = decorated_morphism(Z3, n, ("a",), lambda i: i + 1)
    lifted = lift_decorated_hom(g, n)
    for u in oracles.words(("a",), 2 * n + 2):
        f, _ = lifted.pair_image(u)
        for j in range(n):
            assert f[j] == g.image(decorate_word(u, n, offset=j))


def test_lift_requires_full_decorated_alphabet():
    g = Morphism(monoid=Z2, alphabet=("a@1",), letter_map={"a@1": 1})
    with pytest.raises(InputError):
        lift_decorated_hom(g, 2)  # a@2 missing


def test_project_recovers_a_decorated_morphism():
    n = 2
    g = decorated_morphism(Z3, n, ("a", "b"), lambda i: i)
    lifted = lift_decorated_hom(g, n)
    proj = project_hom(lifted)
    assert set(proj.alphabet) == set(decorated_letters(("a", "b"), n))
    seen = {}
    for u in oracles.words(("a", "b"), 2 * n + 2):
        f, _ = lifted.pair_image(u)
        x = proj.image(decorate_word(u, n))
        # equal projected images always carry equal function components
        if x in seen:
            assert seen[x] == f
        else:
            seen[x] = f


def test_project_rejects_mixed_counters():
    wm = wreath_morphism(Z2, 2, {"a@1": ((1, 0), 1), "a@2": ((0, 1), 0)})
    with pytest.raises(InputError):
        project_hom(wm)
    wm2 = wreath_morphism(Z2, 2, {"a@1": ((1, 0), 1), "a@2": ((0, 1), 1)})
    with pytest.raises(InputError):
        project_hom(wm2, d=0)


def test_ordered_base_keeps_order_through_lift_and_project():
    n = 2
    g = decorated_morphism(U1_ORD, n, ("a",), lambda i: i)
    proj = project_hom(lift_decorated_hom(g, n))
    assert proj.monoid.leq is not None
