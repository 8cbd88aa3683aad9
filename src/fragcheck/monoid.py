"""Finite ordered monoids, syntactic morphisms, and local submonoid conditions.

Elements are integer ids 0..size-1.  Multiplication is a full table; the
order, when present, is a full boolean matrix leq[x][y] meaning x <= y.
Morphisms carry shortlex-least representative words for every element.

Every morphism built here comes from one breadth-first closure,
`generated_morphism` (Froidure & Pin 1997): transition monoids, and the
witness, wreath and power morphisms.  A transition monoid labels an
element by its action on the states of the minimal automaton: below 256
states as n bytes, whose product with a letter is one `bytes.translate`
by the letter's 256-byte table, and from 256 states up, which a byte
cannot name, as a tuple, whose product is one `itemgetter(*t1)(t2)`.  The
morphism keeps those labels as its `action`.  The closure keeps each
element's parent and letter as ints and checks the size cap before it
builds any word or table; the words then follow from the parents, and
the table is written row by row, mult[x a] = mult[x][L_a] with L_a the
left letter column: one |M|^2 table plus O(|M|) temporaries.

Every table handed to the `OrderedMonoid` constructor is checked: its
entries in range (one pass), the identity law, and associativity, over
the whole |M|^3 cube at 64 elements or fewer and at 4096 fixed
pseudo-random triples above that.

The syntactic order of a morphism with an accepting set P is built from
the right quotients of P (the sets {r : p r in P}), compared by inclusion
once per pair of distinct quotients and then pulled back along the
action of each element, as packed rows of bits ANDed over the quotients:
O(k |M|^2 / 8) time plus one |M|^2 unpack into the boolean matrix, for k
distinct quotients, where k is the state count of the minimal automaton.
This is Pin's ordered syntactic monoid ("A variety theorem without
complementation", 1995).  For a transition monoid the quotients and the
action are read off its labels, one n x |M| array; only a morphism that
carries no action, such as one built by hand, takes the table route,
which finds the distinct quotients by an |M|^2 gather of P along the
table and checks that no two elements share every context.  Brute-force
context enumeration of the same order, and its earlier byte-gather
route, live in the test oracles.

The complement of a language has the same syntactic monoid, with the
complementary accepting set, and the reverse order.  `complement_morphism`
builds it from the language's morphism without a second closure: a
sibling monoid (`OrderedMonoid.with_order`) shares the table, the words
and the order-free caches, and the two morphisms share one stability
memo, while each monoid binds its own order.

The J-order of the monoid has one owner, `JClasses`: it yields the least
idempotent of each regular J-class and the class's upset {a : e in MaM},
which generates the local submonoid Me, by two passes over the table or
by a search of the Cayley graph.  The stability layer places the
J-classes of its stable submonoid with the same lazy placement, from
upsets of its own.  Each generated submonoid is closed once per
generator set and kept on the monoid (`generated`), so a J-class shares
one Me.  The stability layer keeps its stable Me there too, and its Mes,
which it closes by its own block walk, under the mask of the block
images, so the analyses at every index multiplier close a block set
once.  The breadth-first closure starts from the generators.  The upsets
also serve `stability.is_stable_trivial` and `hierarchy.sim_quotient`.
`local_condition` checks e x e = e, <= e and >= e over a member source
in one sweep of the given idempotents, computing e x e once per visit:
one idempotent per regular J-class suffices for Me (see `JClasses`).
Each visit tests e x e = e first; where it holds for every x, the
(reflexive) orders hold too, so they are gathered only at the visits
where equality fails.  Sets of elements are sorted read-only int64 id
arrays throughout.  Brute-force set products and Green's relations live
in the test oracles.

The per-call paths call numpy's C entry points, not its Python-level
convenience wrappers, which cost 1-4 us a call, several times the C call
beside them, on the tiny monoids that make up most inputs: `_all` and
`_any` count the nonzero entries in place of `ndarray.all()` and `.any()`
without an axis; `_packbits` and `_unpackbits` are numpy's C functions
without their dispatchers; a 1-D mask gives its ids by `nonzero()[0]`, not
`np.flatnonzero`; arrays of one dtype and shape compare by `tobytes()`,
not `np.array_equal`; a short list of ids is deduplicated by
`sorted(set(...))`, not `np.unique`; and a fresh mask is `np.zeros` of a
shape, not `np.zeros_like`.  Reductions along an axis stay numpy's.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

import numpy as np

from .automata import Dfa, minimal_table
from .errors import CapError, ConsistencyError, InputError

DEFAULT_MAX_MONOID = 10_000
# Most cells the labels of a transition monoid may hold together: an
# element of the monoid of an n-state automaton is labelled by n + 1 cells,
# pointers of a tuple from 256 states up (1 GiB here), so the labels take
# |M| (n + 1) cells.  The n-byte labels below 256 states are counted alike.
MAX_LABEL_CELLS = 1 << 27

Word = tuple


def format_word(word: Word) -> str:
    if not word:
        return "ε"
    if all(len(str(a)) == 1 for a in word):
        return "".join(str(a) for a in word)
    return " ".join(str(a) for a in word)


# 3 x 4096 fractions in [0, 1), drawn once: scaled by the size of a table
# above 64 elements, they are the triples its associativity is sampled at.
# Each is 53 random bits of a seeded standard-library generator, as
# importing numpy.random would cost about 30 ms and 6 MB at every start.
_TRIPLES = (np.frombuffer(random.Random(0).randbytes(3 * 4096 * 8), dtype=np.uint64)
            >> np.uint64(11)).reshape(3, 4096) * 2.0 ** -53

try:  # the C functions that `np.count_nonzero`, `np.packbits` and
    # `np.unpackbits` call from a Python frame
    from numpy._core.multiarray import count_nonzero as _count_nonzero
    from numpy._core._multiarray_umath import packbits as _packbits
    from numpy._core._multiarray_umath import unpackbits as _unpackbits
except ImportError:  # numpy 1.x
    _count_nonzero, _packbits, _unpackbits = np.count_nonzero, np.packbits, np.unpackbits


def _all(a: np.ndarray) -> bool:
    """`a.all()` without its Python-level wrapper (`numpy/_core/_methods`)."""
    return _count_nonzero(a) == a.size


def _any(a: np.ndarray) -> bool:
    """`a.any()` without its Python-level wrapper."""
    return _count_nonzero(a) != 0


class OrderedMonoid:
    """A finite monoid with an optional compatible partial order.

    `generators`, when given, must generate the monoid (a morphism passes
    its letter images); the Cayley-graph search for Me relies on it and
    checks it once before its first use, raising InputError otherwise.
    """

    def __init__(self, mult, identity: int, leq=None, repr_words=None, generators=None):
        self.mult = np.ascontiguousarray(mult, dtype=np.int64)  # flat takes read it in place
        if self.mult.ndim != 2 or self.mult.shape[0] != self.mult.shape[1]:
            raise InputError("multiplication table must be square")
        self.size = int(self.mult.shape[0])
        self.identity = int(identity)
        if not (0 <= self.identity < self.size):
            raise InputError("identity out of range")
        # one pass: a negative entry reads as a huge unsigned one
        if self.mult.view(np.uint64).max() >= self.size:
            raise InputError("multiplication table entry out of range")
        self.repr_words = None if repr_words is None else tuple(
            tuple(w) for w in repr_words
        )
        if self.repr_words is not None and len(self.repr_words) != self.size:
            raise InputError("need one representative word per element")
        # ids that generate the monoid (the letter images of a morphism),
        # which open the Cayley-graph search for Me; None when unknown
        self.generators = None if generators is None else np.array(
            sorted(set(np.asarray(generators, dtype=np.int64).tolist())), dtype=np.int64)
        if self.generators is not None and self.generators.size and (
                self.generators[0] < 0 or self.generators[-1] >= self.size):
            raise InputError("generator out of range")
        self._validate()
        self.leq = self._checked_order(leq)
        self._generated = {}  # generator mask bytes -> sorted members
        self._me = {}  # idempotent -> members of Me, shared through _generated
        self._idempotents = None
        self._j_classes = None  # the JClasses of the monoid, once built

    def _validate(self):
        """The identity law on its row and column, then associativity: the
        whole |M|^3 cube at 64 elements or fewer, on a uint8 copy of the
        table (256 KiB at 64), and above that the 4096 triples `_TRIPLES`
        picks for the size, read by flat takes of the table."""
        m, mult = self.size, self.mult
        e = self.identity
        ids = np.arange(m).tobytes()  # each comparison is of equal dtypes and shapes
        if not (mult[e].tobytes() == ids and mult[:, e].tobytes() == ids):
            raise InputError("identity law fails")
        if m <= 64:
            small = mult.astype(np.uint8)
            if small[small].tobytes() != small[:, small].tobytes():  # (xy)z, x(yz)
                raise InputError("multiplication is not associative")
        else:
            xs, ys, zs = (_TRIPLES * m).astype(np.int64)
            if (mult.take(mult.take(xs * m + ys) * m + zs).tobytes()
                    != mult.take(xs * m + mult.take(ys * m + zs)).tobytes()):
                raise InputError("multiplication is not associative")

    def _checked_order(self, leq) -> np.ndarray | None:
        """`leq` as a boolean matrix, checked square of the monoid's size,
        reflexive and antisymmetric, and transitive at 64 elements or
        fewer; None stays None."""
        if leq is None:
            return None
        leq, m = np.asarray(leq, dtype=bool), self.size
        if leq.shape != (m, m):
            raise InputError("order matrix must be size x size")
        if not _all(leq.diagonal()):
            raise InputError("order is not reflexive")
        if _any(leq & leq.T & ~np.eye(m, dtype=bool)):
            raise InputError("order is not antisymmetric")
        if m <= 64:
            closure = (leq.astype(int) @ leq.astype(int)) > 0
            if _any(closure & ~leq):
                raise InputError("order is not transitive")
        return leq

    def elements(self):
        return range(self.size)

    def mul(self, x: int, y: int) -> int:
        return int(self.mult[x, y])

    def product(self, xs) -> int:
        out = self.identity
        for x in xs:
            out = int(self.mult[out, x])
        return out

    def le(self, x: int, y: int) -> bool:
        if self.leq is None:
            raise InputError("monoid carries no order")
        return bool(self.leq[x, y])

    def is_idempotent(self, x: int) -> bool:
        return int(self.mult[x, x]) == x

    def idempotents(self) -> list[int]:
        """The idempotents in increasing order, as a new list each call; the
        diagonal test runs once per monoid."""
        if self._idempotents is None:
            self._idempotents = (self.mult.diagonal() == np.arange(self.size)).nonzero()[0]
        return self._idempotents.tolist()

    def omega(self, x: int) -> int:
        """The unique idempotent power of x."""
        y = x
        for _ in range(2 * self.size + 2):
            if int(self.mult[y, y]) == y:
                return y
            y = int(self.mult[y, x])
        raise ConsistencyError("no idempotent power found")

    def word_of(self, x: int) -> Word:
        if self.repr_words is None:
            return (f"#{x}",)
        return self.repr_words[x]

    def with_order(self, leq) -> "OrderedMonoid":
        """A sibling monoid with the order `leq` (None for none), checked as
        the constructor checks an order.  The table is not checked again:
        the sibling shares it, with the words, the generators and the
        caches that do not read the order.  The generated submonoids and
        the Me arrays are one store, which either monoid fills for both;
        the idempotents and the J-classes are shared once built, as they
        are in a monoid that has analysed its language.  Its order is its
        own: binding one leaves the other's as it was."""
        sibling = copy.copy(self)
        sibling.leq = self._checked_order(leq)
        return sibling

    def generated(self, gens: np.ndarray, close=None) -> np.ndarray:
        """The sorted members of the submonoid generated by the ids marked
        in the boolean mask `gens`, built once per distinct mask and kept
        for the life of the monoid (read-only).  `close`, when given, maps
        the mask to those members in place of the breadth-first closure:
        the stability layer closes Mes by its own block walk."""
        key = gens.tobytes()
        got = self._generated.get(key)
        if got is None:
            if close is None:
                got = _closure_members(self.mult, self.identity, gens.nonzero()[0])
            else:
                got = close(gens)
            got.flags.writeable = False
            self._generated[key] = got
        return got

    def me_members(self, e: int) -> np.ndarray:
        """The sorted members of Me for the idempotent e (read-only): the
        closure of its J-class's upset {a : e in MaM} (`j_classes`), once
        per class, so J-equivalent idempotents get the same array."""
        got = self._me.get(e)
        if got is None:
            got = self._me[e] = self.generated(self.j_classes().upset(e))
        return got

    def j_classes(self) -> "JClasses":
        """The regular J-classes of the monoid, built once.  It is searched by
        its Cayley graph above `_BFS_MIN_SIZE` elements when it knows
        generators, which must then generate it (InputError otherwise)."""
        if self._j_classes is None:
            cayley, g = None, self.generators
            if g is not None and self.size > _BFS_MIN_SIZE:
                if _closure_members(self.mult, self.identity, g).size != self.size:
                    raise InputError("the generators do not generate the monoid")
                cayley = np.concatenate([self.mult[:, g], self.mult[g].T], axis=1)
            self.idempotents()  # fills the sorted id array `_idempotents`
            self._j_classes = JClasses(self.mult, self._idempotents, cayley)
        return self._j_classes


def is_aperiodic(m: OrderedMonoid, elements=None) -> tuple[bool, int | None]:
    """Whether x^w = x^w x for every x (of `elements`, in their order, when
    given: the ids of a submonoid, say); returns an offending x otherwise."""
    for x in m.elements() if elements is None else elements:
        w = m.omega(x)
        if m.mul(w, x) != w:
            return False, int(x)
    return True, None


@dataclass(frozen=True, eq=False)
class Morphism:
    """A surjective morphism from the free monoid over `alphabet` onto
    `monoid`, with an optional accepting set (the image of a language).

    `action`, set by `transition_monoid` only, holds the closure's labels
    (joined into one bytes object below 256 states) for
    `syntactic_order`."""

    monoid: OrderedMonoid
    alphabet: tuple
    letter_map: dict
    accepting: frozenset | None = None
    action: bytes | tuple | None = field(default=None, repr=False)
    # the stability layer's memo (see `stability.stability_info`): its
    # per-morphism entry, and one StabilityInfo per index multiplier; a
    # morphism and its `complement_morphism` hold one memo
    _stability: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if set(self.letter_map) != set(self.alphabet):
            raise InputError("letter map must cover exactly the alphabet")
        for a, x in self.letter_map.items():
            if not (0 <= x < self.monoid.size):
                raise InputError(f"letter {a!r} maps outside the monoid")
        if self.accepting is not None:
            if not all(0 <= x < self.monoid.size for x in self.accepting):
                raise InputError("accepting set outside the monoid")

    def image(self, word) -> int:
        out = self.monoid.identity
        mult = self.monoid.mult
        for a in word:
            if a not in self.letter_map:
                raise InputError(f"letter {a!r} outside alphabet")
            out = int(mult[out, self.letter_map[a]])
        return out

    def word_of(self, x: int) -> Word:
        return self.monoid.word_of(x)


def generated_morphism(
    letter_labels: dict,
    right_mult,
    identity_label,
    *,
    cap: int = DEFAULT_MAX_MONOID,
    label_order=None,
    label_accepting=None,
    label_action=None,
) -> Morphism:
    """Close the letter labels under multiplication and index the result.

    The letters are the keys of `letter_labels`, in sorted order, each
    mapped to its label or to what `right_mult` takes in its place (the
    byte tables of `transition_monoid`).  Labels are opaque hashable
    values.  `right_mult(x)` is the map y -> x y; the closure asks for it
    once per element and calls it once per product x a, so with
    `bytes.translate` or `itemgetter` (see `transition_monoid`) each
    product is one C call, and the rest of its cost is one dict probe.
    Each letter's id is read off the identity's products.  Element ids
    are assigned in breadth-first shortlex order, so id 0 is the identity
    and every element's representative word is shortlex-least.

    The closure keeps, per element, its parent and letter as two int
    lists, and the ids of its products with the letters (the right letter
    columns R_a[x] = x a).  More than `cap` elements raise CapError before
    any word or table is built.  The words then follow from the parents,
    and `_fill_table` writes the table row by row: one |M|^2 table plus
    O(|M|) temporaries.  When given, `label_order` maps the list of
    labels, by element id, to the boolean order matrix,
    `label_accepting` maps it to one truth value per element id, which
    marks the accepting set, and `label_action` maps it to the morphism's
    `action`.
    """
    letters = sorted(letter_labels)
    gens = [letter_labels[a] for a in letters]
    k = len(gens)
    labels = [identity_label]
    index = {identity_label: 0}
    parent, last = [-1], [0]  # y = parent[y] letters[last[y]]; none for the identity
    right = []  # right[x k + i]: the id of x letters[i]
    # `labels` grows while it is walked: its tail is the breadth-first frontier
    for x, lab in enumerate(labels):
        times = right_mult(lab)
        for g in gens:
            z = times(g)
            y = index.get(z)
            if y is None:
                y = len(labels)
                if y >= cap:
                    raise CapError(f"monoid size cap exceeded ({cap})")
                index[z] = y
                labels.append(z)
                parent.append(x)
                last.append(len(right) - x * k)  # right holds x's products so far
            right.append(y)

    m = len(labels)
    words = [()]
    for p, i in zip(parent[1:], last[1:]):
        words.append(words[p] + (letters[i],))
    letter_map = dict(zip(letters, right[:k]))  # 1 a = a
    mult = _fill_table(right, parent, last, right[:k])

    leq = None if label_order is None else label_order(labels)
    accepting = None
    if label_accepting is not None:
        accepting = frozenset(compress(range(m), label_accepting(labels)))

    monoid = OrderedMonoid(mult, 0, leq=leq, repr_words=words, generators=right[:k])
    return Morphism(
        monoid=monoid,
        alphabet=tuple(letters),
        letter_map=letter_map,
        accepting=accepting,
        action=None if label_action is None else label_action(labels),
    )


def _fill_table(right: list, parent: list, last: list, gens: list) -> np.ndarray:
    """The table of a monoid closed breadth first, from its right letter
    columns right[x k + i] = x a_i (k letters), each element's parent and
    letter, and the letter ids.

    Row x a is row x gathered at the left letter column L_a[z] = a z, as
    (x a) z = x (a z): one contiguous `take` per row, in id order, so each
    row's parent row is already written.  The left columns follow from the
    right ones in the same order, a (z b) = (a z) b."""
    k, m = len(gens), len(parent)
    columns = []
    for g in gens:
        col = [g]  # col[z] = g z
        for p, i in zip(parent[1:], last[1:]):
            col.append(right[col[p] * k + i])
        columns.append(np.array(col, dtype=np.int64))
    mult = np.empty((m, m), dtype=np.int64)
    mult[0] = np.arange(m)
    rows = list(mult)
    # the ids are in range by construction; mode="clip" lets `take` write
    # straight into the row, where the default mode buffers `out`
    for y, p, i in zip(range(1, m), parent[1:], last[1:]):
        rows[p].take(columns[i], out=rows[y], mode="clip")
    return mult


def _action_times(t: tuple):
    # right multiplication by the action t: t then u, gathered by one C call
    return itemgetter(*t)


def _translate_times(t: bytes):
    # right multiplication by the action t: t then a letter, one C call by
    # the letter's 256-byte table
    return t.translate


def transition_monoid(d: Dfa, max_monoid: int = DEFAULT_MAX_MONOID) -> Morphism:
    """The syntactic morphism of L(d): the transition monoid of the minimal
    automaton, with the image of the language as accepting set.

    An element's label is its action on the n states of the minimal table
    (the Moore quotient of d's table, state 0 initial): the states each
    state moves to, which the morphism keeps as its `action`.  Below 256
    states a label is n bytes, and its product with a letter is one
    `bytes.translate` by the letter's column padded to a 256-byte table.
    From 256 states up, which a byte cannot name, a label is a tuple with
    one more slot, a fixed point past the last state, and the product of
    t1 by t2 (t1, then t2) is `itemgetter(*t1)(t2)`: the extra slot makes
    the gather return a tuple also at one state.  The state count alone
    picks the encoding; either way a product is one C call.  The accepting
    set is read off the labels' first slots in one pass.  Element ids and
    words come from the closure over words, so they do not depend on how
    the states are numbered, nor on the encoding.

    The labels are held until the closure ends, so the cap is lowered to
    MAX_LABEL_CELLS // (n + 1) elements when that is below `max_monoid`,
    and more elements than that raise CapError with its own message: a
    cell is a pointer of a tuple label and a byte of a byte label, so
    byte labels at the cap hold an eighth of the tuples' memory.  As the
    words reach all n states, |M| >= n, so n states above the cap are
    refused before the closure starts."""
    rows, final_mask = minimal_table((d.rows, d.accepting))
    n = len(final_mask)
    cap = min(max_monoid, MAX_LABEL_CELLS // (n + 1))
    if n < 256:
        pad = bytes(256 - n)
        letter_ops = {a: bytes(col) + pad for a, col in zip(d.alphabet, zip(*rows))}
        times, identity, action = _translate_times, bytes(range(n)), b"".join
    else:
        letter_ops = {a: (*col, n) for a, col in zip(d.alphabet, zip(*rows))}
        times, identity, action = _action_times, tuple(range(n + 1)), tuple
    try:
        if n > cap:
            raise CapError(f"monoid size cap exceeded ({cap})")
        return generated_morphism(
            letter_ops,
            times,
            identity,
            cap=cap,
            label_accepting=lambda labels: map(final_mask.__getitem__, map(itemgetter(0), labels)),
            label_action=action,
        )
    except CapError:
        if cap == max_monoid:
            raise
        raise CapError(f"monoid label cap exceeded (more than {cap} elements of {n + 1} "
                       f"cells, at most {MAX_LABEL_CELLS} cells)") from None


def complement_morphism(m: Morphism) -> Morphism:
    """The syntactic morphism of the complement of the language that m
    recognises: the same monoid with the complementary accepting set.

    Complementing the accepting set keeps the syntactic congruence, and
    only the order changes, to the reverse one (Pin 1995).  For a
    transition monoid the sharing is exact: the complement's minimal
    automaton has the same rows with the final states flipped, so its
    closure meets the same actions at the same shortlex words, and gives
    the same ids, table and letter map.  So the result shares m's table,
    words, generators and order-free caches (`OrderedMonoid.with_order`),
    its `action`, and its stability memo, which never reads an order.  Its
    monoid carries no order: `syntactic_order` builds the complement's from
    its own accepting set, in place, and leaves m's as it is."""
    if m.accepting is None:
        raise InputError("complement needs an accepting set")
    co = Morphism(
        monoid=m.monoid.with_order(None),
        alphabet=m.alphabet,
        letter_map=m.letter_map,
        accepting=frozenset(range(m.monoid.size)) - m.accepting,
        action=m.action,
    )
    object.__setattr__(co, "_stability", m._stability)  # frozen; one memo for both
    return co


def syntactic_order(m: Morphism) -> Morphism:
    """The syntactic order x <= y iff every accepting context of y is an
    accepting context of x, materialized as a full order matrix.

    The order is read off the right quotients of the accepting set P: the
    quotient of p is the set of r with p r in P.  Contexts (p, r) accept y
    exactly when r lies in the quotient of p y, so x <= y iff the quotient
    of p y is included in the quotient of p x for every p.  The quotient of
    p y depends only on the quotient of p and on y, so one representative
    p per distinct quotient suffices: with k distinct quotients (the
    states of the minimal automaton, for a transition monoid) and
    act[c, x] the quotient of rep_c x, x <= y iff contains[act[c, x],
    act[c, y]] for every c, where contains[i, j] says that quotient j is
    included in quotient i.

    A transition monoid carries its `action`, and its quotients are read
    off it (Pin's theorem: the order is the inclusion of the minimal
    automaton's right languages, along the action).  The quotient of p is
    that of the state 0 p, and the states' right languages are distinct,
    so the classes are the n states, with act[q, x] = q x the label of x
    at q and quotient q = {x : q x final}.  Distinct labels are distinct
    columns of act, so that route needs no antisymmetry check.  A morphism
    without an action (built by hand, say) takes the table route: the
    quotient of every p from the |M|^2 gather of the accepting set along
    the table, one representative per distinct quotient, and the check
    below.

    The rows of the matrix are built as packed bits (`_order_bits`) and
    unpacked once: O(k |M|^2 / 8) time plus one |M|^2 unpack.  The traced
    peak is about 1.2 |M|^2 bytes, the order included, as the bits of the
    quotients are dropped before the AND pass.

    The order is canonical for the accepting set, so it is bound onto the
    morphism's monoid in place (idempotently) and the same morphism is
    returned.  The table route does not assume the morphism came from a
    minimal automaton, so there the relation is checked for antisymmetry:
    it fails, with InputError, exactly when two elements share every
    context, which means the morphism was not the syntactic morphism of
    its accepting set.  Two elements share every context exactly when
    every quotient moves them alike: when two columns of act are equal.
    """
    if m.monoid.leq is not None:
        return m
    if m.accepting is None:
        raise InputError("syntactic order needs an accepting set")
    size = m.monoid.size
    acc = np.zeros(size, dtype=bool)
    acc[list(m.accepting)] = True

    if m.action is not None:
        if isinstance(m.action, bytes):
            act = np.frombuffer(m.action, dtype=np.uint8).reshape(size, -1).T.astype(np.intp)
        else:  # tuples, with the fixed point in their last slot
            act = np.array(m.action, dtype=np.intp)[:, :-1].T
        final = np.zeros(act.shape[0], dtype=bool)
        final[act[0]] = acc  # the state 0 x is final iff x accepts
        quotients = final[act].astype(np.float32)  # [q, x]: q x is final
    else:
        mult = m.monoid.mult
        packed = _packbits(acc[mult], axis=1)  # [p]: the quotient of p, as bits
        width, buf = packed.shape[1], packed.tobytes()
        index, reps, cls = {}, [], []     # cls[p]: which distinct quotient is p's
        for p in range(size):
            c = index.setdefault(buf[p * width:(p + 1) * width], len(reps))
            if c == len(reps):
                reps.append(p)
            cls.append(c)
        quotients = _unpackbits(packed[reps], axis=1, count=size).astype(np.float32)
        del packed, buf
        act = np.array(cls).take(mult.take(reps, 0))  # act[c, x]: the quotient of rep_c x
        alike = _first_alike(act)
        if alike is not None:
            x, y = alike
            raise InputError(
                "syntactic order not antisymmetric: elements "
                f"{format_word(m.word_of(x))} and {format_word(m.word_of(y))} "
                "share all contexts (not a syntactic morphism)"
            )
    contains = ((1.0 - quotients) @ quotients.T) == 0
    m.monoid.leq = _unpackbits(_order_bits(contains, act), axis=1, count=size).view(bool)
    return m


def _first_alike(act: np.ndarray) -> list | None:
    """The least pair [x, y], x < y, of elements with equal columns of
    `act`, or None when the columns are distinct."""
    columns, step = act.T.tobytes(), act.shape[0] * act.itemsize
    alike = {}  # column -> the elements with it, increasing
    for x in range(act.shape[1]):
        alike.setdefault(columns[x * step:(x + 1) * step], []).append(x)
    pairs = [xs[:2] for xs in alike.values() if len(xs) > 1]
    return min(pairs) if pairs else None


def _order_bits(contains: np.ndarray, act: np.ndarray) -> np.ndarray:
    """Row x of the order as packed bits: bit y is set iff contains[act[c,
    x], act[c, y]] for every class c.  Per class c, the set {y :
    contains[i, act[c, y]]} is packed once per class i and gathered as the
    row of each x, i = act[c, x]; the rows are ANDed in one |M| x |M|/8
    byte array.  The classes go in blocks of about `_GATHER_IDS` gathered
    bytes: one block for a tiny monoid, one class per block at large |M|."""
    size = act.shape[1]
    width = (size + 7) // 8
    bits = np.empty((size, width), dtype=np.uint8)
    bits.fill(0xFF)
    per = max(1, _GATHER_IDS // (size * width))  # classes per block
    for lo in range(0, act.shape[0], per):
        block = act[lo:lo + per]
        n = block.shape[0]
        # sets[i n + j]: the y with contains[i, block[j, y]], packed
        sets = _packbits(contains.take(block, axis=1), axis=2).reshape(-1, width)
        for row in sets.take(block * n + np.arange(n)[:, None], axis=0):  # [j, x]
            bits &= row
    return bits


# ---------------------------------------------------------------------------
# Local submonoids

# Above this size a monoid with known generators finds its J-classes by the
# Cayley-graph search, below it by table passes.  Placing every class of
# the monoids of the benchmark's seed-1 inputs (2-core x86-64), passes
# against search: 1214 corpus monoids (|M| <= 128) 0.074 against 0.181 s,
# 20 ladder monoids (|M| 195-802) 0.034 against 0.016 s.
_BFS_MIN_SIZE = 256


class JClasses:
    """The regular J-classes of a monoid T, placed lazily in order of their
    least idempotents.  For T = M, the monoid of the table `mult`, two
    routes remain, the table passes and the Cayley graph; the stability
    layer's subclass places the classes of its stable submonoid S from
    upsets of its own (its `_up` and `_below`).

    The least idempotent e not yet placed opens a class and gets its upset
    {a in T : e in T a T}, by two passes over the table or by a backward
    search of the Cayley graph `cayley` (x -> x g, then x -> g x).  Its
    downset T e T, a scatter of rows or a forward search, is built only
    when the next class is wanted and a later unplaced idempotent lies in
    the upset; the idempotents in both join the class.

    One visit per class decides e Me e = e (or <= e, or >= e).  J-related
    idempotents e, f of the finite T are D-related: some a, a' in T have
    a a' = e, a' a = f, a a' a = a, a' a a' = a'.  Both lie in Me = Mf, as
    e is in T a T and T a' T, and for x in Mf, f x f = a' (e (a x a') e) a
    with a x a' in Me; so the condition at e gives f x f = a' e a = f (or
    <= f, or >= f, the order being compatible with the product), and back.
    For T the stable submonoid S this holds with S's own J-classes, as a
    and a' lie in S.  So the first failing class's least idempotent is the
    first failing idempotent, and x is searched at it as before.
    """

    def __init__(self, mult: np.ndarray, idempotents: np.ndarray, cayley=None):
        self._mult, self._cayley = mult, cayley
        self._pending = idempotents
        self._reps = []  # least idempotents of the classes opened, increasing
        self._upsets = {}  # placed idempotent -> the upset of its class
        self._open = None  # the class opened last, until its rest is placed

    def representatives(self):
        """Yield the least idempotent of each regular J-class in increasing
        order, placing classes only as far as iterated."""
        i = 0
        while i < len(self._reps) or self._open_next():
            yield self._reps[i]
            i += 1

    def upset(self, e: int) -> np.ndarray:
        """The mask of {a in T : e in T a T} for the idempotent e of T,
        one read-only array per J-class."""
        while e not in self._upsets:
            if self._open is not None:
                self._close()
            elif not self._open_next():
                raise InputError(f"element {e} is not an idempotent of the submonoid")
        return self._upsets[e]

    def _close(self):
        e, self._open = self._open, None
        rest, up = self._pending, self._upsets[e]
        above = up[rest]
        if _any(above):
            same = above & self._below(e, rest)
            self._upsets.update(dict.fromkeys(rest[same].tolist(), up))
            self._pending = rest[~same]

    def _open_next(self) -> bool:
        if self._open is not None:
            self._close()
        if not self._pending.size:
            return False
        e = self._open = int(self._pending[0])
        self._pending = self._pending[1:]
        up = self._upsets[e] = self._up(e)
        up.flags.writeable = False
        self._reps.append(e)
        return True

    def _up(self, e: int) -> np.ndarray:
        """The z with e in z M, then the a with some x a among them."""
        if self._cayley is not None:
            return _reach(self._cayley, e, backward=True)
        mult = self._mult
        return (mult == e).any(axis=1)[mult].any(axis=0)

    def _below(self, e: int, rest: np.ndarray) -> np.ndarray:
        """Which of the idempotents `rest` lie in T e T."""
        if self._cayley is not None:
            return _reach(self._cayley, e)[rest]
        mult = self._mult
        down, me = np.zeros(mult.shape[0], dtype=bool), np.zeros(mult.shape[0], dtype=bool)
        me[mult[:, e]] = True  # M e
        ids, block = me.nonzero()[0], max(1, _GATHER_IDS // mult.shape[0])
        for lo in range(0, ids.size, block):  # M e M, in blocks of rows
            down[mult[ids[lo:lo + block]]] = True
        return down[rest]


def _reach(cayley: np.ndarray, e: int, backward: bool = False) -> np.ndarray:
    """The mask of the x reached from e along the edges x -> cayley[x, k],
    or reaching e when `backward`, breadth first: one gather per level."""
    reached = np.zeros(cayley.shape[0], dtype=bool)
    reached[e] = True
    frontier = reached
    while _any(frontier):
        if backward:  # the x with an edge into the last level
            frontier = frontier[cayley].any(axis=1)
        else:  # the ends of the edges out of the last level
            ends, frontier = cayley[frontier], np.zeros(reached.size, dtype=bool)
            frontier[ends] = True
        frontier &= ~reached
        reached |= frontier
    return reached


_GATHER_IDS = 1 << 16  # products gathered at once by a closure (512 KiB of ids)


def _closure_members(mult: np.ndarray, identity: int, gens: np.ndarray) -> np.ndarray:
    """Sorted members of the submonoid generated by the ids `gens`, by a
    breadth-first frontier multiplied on the right by every generator.
    Each level gathers its products from the table in blocks of frontier
    rows, so no temporary holds more than about _GATHER_IDS ids; the
    search starts from the generators, and stops early once every element
    is reached."""
    reached = np.zeros(mult.shape[0], dtype=bool)
    reached[identity] = True
    reached[gens] = True
    frontier = gens[gens != identity]
    block = max(1, _GATHER_IDS // max(1, gens.size))
    while frontier.size and not _all(reached):
        hit = np.zeros(reached.size, dtype=bool)
        for lo in range(0, frontier.size, block):
            hit[mult[frontier[lo:lo + block, None], gens]] = True
        hit &= ~reached
        reached |= hit
        frontier = hit.nonzero()[0]
    members = reached.nonzero()[0]
    members.flags.writeable = False
    return members


def me_submonoid(m: OrderedMonoid, e: int) -> frozenset[int]:
    """The submonoid generated by every a whose two-sided ideal contains e,
    built once per generator set and kept on the monoid (`me_members`)."""
    if not m.is_idempotent(e):
        raise InputError(f"element {e} is not idempotent")
    return frozenset(m.me_members(e).tolist())


# ---------------------------------------------------------------------------
# Local submonoid conditions

def local_condition(m: OrderedMonoid, idempotents, members, orders=(None,)) -> tuple:
    """Check e x e REL e for each relation REL in `orders`, for every
    idempotent e in `idempotents`, in their order, and every x in the
    sorted id array `members(e)`: Me (`OrderedMonoid.me_members`), Mes
    (`StabilityInfo.mes_members`) or the stable submonoid's Me
    (`StabilityInfo.stable_me_members`).  A relation is equality when its
    entry is None, and otherwise order[e x e, e]: the monoid order for
    e x e <= e, its transpose for e x e >= e.  Every order passed must be
    reflexive, as these are.

    One sweep decides them all: e x e is computed once per visit, each
    relation keeps its first offender (e, least x), and the sweep stops
    once every relation has failed.  Each visit tests e x e = e first:
    where it holds for every x, every relation holds at e, the orders
    being reflexive, so none of them is gathered there.  Returns, per
    relation, that pair, or None when the relation holds throughout.
    """
    mult = m.mult
    found = [None] * len(orders)
    pending = dict(enumerate(orders))
    for e in idempotents:
        xs = members(e)
        exe = mult[mult[e, xs], e]
        equal = exe == e
        if _all(equal):
            continue
        for i, order in list(pending.items()):
            ok = equal if order is None else order[exe, e]
            if not _all(ok):
                found[i] = (e, int(xs[ok.argmin()]))
                del pending[i]
        if not pending:
            break
    return tuple(found)


# ---------------------------------------------------------------------------
# Export

def export_monoid(m: Morphism) -> dict:
    """A structured document for golden-file comparisons."""
    mon = m.monoid
    doc = {
        "size": mon.size,
        "identity": mon.identity,
        "elements": [
            {"id": x, "word": format_word(mon.word_of(x))} for x in mon.elements()
        ],
        "letters": {str(a): m.letter_map[a] for a in m.alphabet},
        "table": [[int(v) for v in row] for row in mon.mult],
    }
    if mon.leq is not None:
        doc["order"] = [
            [x, y]
            for x in mon.elements()
            for y in mon.elements()
            if x != y and mon.leq[x, y]
        ]
    if m.accepting is not None:
        doc["accepting"] = sorted(m.accepting)
    return doc


def monoid_to_text(m: Morphism) -> str:
    doc = export_monoid(m)
    lines = [f"size {doc['size']}", f"identity {doc['identity']}"]
    for entry in doc["elements"]:
        lines.append(f"element {entry['id']} {entry['word']}")
    for a, x in doc["letters"].items():
        lines.append(f"letter {a} {x}")
    lines.append("table")
    for row in doc["table"]:
        lines.append("  " + " ".join(str(v) for v in row))
    if "order" in doc:
        lines.append("order " + " ".join(f"{x}<{y}" for x, y in doc["order"]))
    if "accepting" in doc:
        lines.append("accepting " + " ".join(str(x) for x in doc["accepting"]))
    return "\n".join(lines) + "\n"
