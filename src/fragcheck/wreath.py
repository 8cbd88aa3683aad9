"""Sequential composition of a finite monoid with a modular counter.

Elements are pairs (f, k) where k counts letters mod n and f maps each
counter value to a base element; the product twists the right factor by the
left counter:

    (f1, k1)(f2, k2) = (k -> f1(k) f2(k + k1), k1 + k2)      (counters mod n)

The order compares equal counters pointwise in the base order (equality when
the base is unordered).  `lift_decorated_hom` turns a morphism over
residue-decorated letters into one over plain letters valued in pairs;
`project_hom` goes back, spreading each pair over all counter offsets into
the n-fold power of the base.  The two directions are inverse enough to
transport definability: the implication tested by position-residue
decoration holds for the original morphism exactly when it holds through
the pair-valued lift.

Only the submonoid that the letters' pairs generate is built here
(`wreath_morphism`), by the closure every morphism comes from.  The full
pair monoid, all |M|^n n pairs with the order taken pair by pair, is a
brute-force reference in the test oracles, where it checks `pair_product`
and `_pair_order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .automata import DecoratedLetter, decorated_letters
from .errors import InputError
from .monoid import DEFAULT_MAX_MONOID, Morphism, OrderedMonoid, generated_morphism


def pair_product(base: OrderedMonoid, n: int, p1, p2):
    f1, k1 = p1
    f2, k2 = p2
    f = tuple(int(base.mult[f1[k], f2[(k + k1) % n]]) for k in range(n))
    return f, (k1 + k2) % n


def _pointwise_leq(base: OrderedMonoid, tuples, n: int) -> np.ndarray:
    """leq[x, y] iff tuples[x][k] <= tuples[y][k] in the base for every
    k < n (equality when the base is unordered)."""
    rows = np.array(tuples, dtype=np.int64).reshape(len(tuples), n)
    out = np.ones((len(rows), len(rows)), dtype=bool)
    for col in rows.T:
        if base.leq is None:
            out &= col[:, None] == col[None, :]
        else:
            out &= base.leq[col[:, None], col[None, :]]
    return out


def _check_pair(base: OrderedMonoid, n: int, pair):
    f, k = pair
    if len(f) != n or not 0 <= k < n:
        raise InputError(f"malformed pair {pair!r}")
    if not all(0 <= x < base.size for x in f):
        raise InputError(f"pair component outside the base monoid: {pair!r}")


@dataclass(frozen=True, eq=False)
class WreathMorphism:
    """A morphism from words into pair values over a base and modulus."""

    base: OrderedMonoid
    modulus: int
    morphism: Morphism  # into the generated submonoid of pairs
    pairs: tuple  # element id -> (f, k)


def wreath_morphism(
    base: OrderedMonoid,
    n: int,
    letter_pairs: dict,
    cap: int = DEFAULT_MAX_MONOID,
) -> WreathMorphism:
    """The submonoid of pairs generated by the letter images."""
    if n < 1:
        raise InputError("modulus must be at least 1")
    for pair in letter_pairs.values():
        _check_pair(base, n, pair)
    identity = (tuple([base.identity] * n), 0)
    morphism = generated_morphism(
        dict(letter_pairs),
        lambda p1: partial(pair_product, base, n, p1),
        identity,
        cap=cap,
        label_order=lambda pairs: _pair_order(base, n, pairs),
    )
    labels = _element_pairs(morphism, letter_pairs, base, n, identity)
    return WreathMorphism(base=base, modulus=n, morphism=morphism, pairs=labels)


def _pair_order(base: OrderedMonoid, n: int, pairs) -> np.ndarray:
    """The order matrix over a list of pairs: equal counters, and the
    functions pointwise in the base order."""
    counters = np.array([k for _, k in pairs])
    same = counters[:, None] == counters[None, :]
    return same & _pointwise_leq(base, [f for f, _ in pairs], n)


def _element_pairs(morphism: Morphism, letter_pairs, base, n, identity) -> tuple:
    out = []
    for x in morphism.monoid.elements():
        pair = identity
        for a in morphism.word_of(x):
            pair = pair_product(base, n, pair, letter_pairs[a])
        out.append(pair)
    return tuple(out)


def lift_decorated_hom(g: Morphism, n: int, cap: int = DEFAULT_MAX_MONOID) -> WreathMorphism:
    """From a morphism over residue-decorated letters to a pair-valued
    morphism over the plain letters: the function component of a letter
    records its image at every counter offset, the counter advances by one.

    The pair of a word u, pairs[morphism.image(u)], is (f, |u| mod n) with
    f(0) the image of the decorated u under g."""
    if n < 1:
        raise InputError("modulus must be at least 1")
    bases = sorted({DecoratedLetter.parse(a).base for a in g.alphabet})
    expected = set(decorated_letters(bases, n))
    if set(g.alphabet) != expected:
        missing = sorted(expected - set(g.alphabet))
        raise InputError(
            f"alphabet is not a full decorated alphabet for modulus {n}; "
            f"missing {', '.join(missing[:4])}"
        )
    letter_pairs = {
        a: (
            tuple(g.letter_map[DecoratedLetter(a, k + 1).text] for k in range(n)),
            1 % n,  # one letter advances the counter by one
        )
        for a in bases
    }
    return wreath_morphism(g.monoid, n, letter_pairs, cap=cap)


def project_hom(
    lifted: WreathMorphism, d: int | None = None, cap: int = DEFAULT_MAX_MONOID
) -> Morphism:
    """From a pair-valued morphism over plain letters to a morphism over
    decorated letters, valued in the n-fold power of the base: labels are
    multiplied componentwise and ordered pointwise when the base is ordered.

    Every letter must advance the counter by the same amount d (supplied or
    inferred); the decorated letter (a, i) acts at offset (i-1)d.  The first
    component of the image of a decorated word recovers the pair morphism's
    function component at 0."""
    n = lifted.modulus
    hom = lifted.morphism
    shifts = {a: lifted.pairs[hom.letter_map[a]][1] for a in hom.alphabet}
    distinct = sorted(set(shifts.values()))
    if len(distinct) != 1:
        raise InputError("letters with unequal second components cannot be projected")
    inferred = distinct[0]
    if d is None:
        d = inferred
    elif d != inferred:
        raise InputError(f"letters advance the counter by {inferred}, not {d}")

    letter_labels = {}
    for a in hom.alphabet:
        f = lifted.pairs[hom.letter_map[a]][0]
        for i in range(1, n + 1):
            letter_labels[DecoratedLetter(a, i).text] = tuple(
                f[(k + (i - 1) * d) % n] for k in range(n)
            )
    base = lifted.base

    def mult_label(t1, t2):
        return tuple(int(base.mult[t1[k], t2[k]]) for k in range(n))

    label_order = None
    if base.leq is not None:
        label_order = lambda labels: _pointwise_leq(base, labels, n)
    return generated_morphism(
        letter_labels,
        lambda t1: partial(mult_label, t1),
        tuple([base.identity] * n),
        cap=cap,
        label_order=label_order,
    )

