"""Finite ordered monoids, syntactic morphisms, and local submonoid conditions.

Elements are integer ids 0..size-1.  Multiplication is a full table; the
order, when present, is a full boolean matrix leq[x][y] meaning x <= y.
Morphisms carry shortlex-least representative words for every element,
spelled by the closure's spanning tree.

Every morphism built here comes from one breadth-first closure,
`generated_morphism` (Froidure & Pin 1997): transition monoids, and the
witness, wreath and power morphisms.  A transition monoid labels an
element by its action on the states of the minimal automaton: below 256
states as n bytes, whose product with a letter is one `bytes.translate`
by the letter's 256-byte table, and from 256 states up, which a byte
cannot name, as a tuple, whose product is one `itemgetter(*t1)(t2)`.  The
morphism keeps those labels as its `action`.  The closure keeps each
element's parent and letter as ints and checks the size cap before it
builds the table, which is written row by row, mult[x a] = mult[x][L_a]
with L_a the left letter column: one |M|^2 table plus O(|M|)
temporaries.  The parents and letters are handed to the monoid as its
spanning tree; a word is spelled by walking the tree from its element,
when that element's word is read.

Every table handed to the `OrderedMonoid` constructor is checked, with
the spanning tree that every monoid carries: its entries in range (one
pass), the identity law at id 0, the tree by one gather, mult[parent[y],
letter[y]] = y with parent[y] < y for every y != 0, which proves by
induction on y that the letters generate the monoid, and associativity.
The monoids built here are images of words, so each has a tree: the
closure's, or, for the quotients of `hierarchy`, one read off the
source's (`quotient_morphism`).  Associativity is checked at one of two
strengths:

- up to 64 elements, and above that while the test reads at most 2^15
  cells |M|^2 |G| (every monoid of at most 128 elements over 2 letters,
  104 over 3, 90 over 4): in full, by Light's test over the letters,
  (x a) y = x (a y) for every letter a and all x, y (Clifford & Preston
  1961, section 1.2);
- every other table: at 4096 fixed pseudo-random triples.

The syntactic order of a morphism with an accepting set P is built from
the right quotients of P (the sets {r : p r in P}), compared by inclusion
once per pair of distinct quotients and then pulled back along the
action of each element, as packed rows of bits ANDed over the quotients:
O(k |M|^2 / 8) time plus one |M|^2 unpack into the boolean matrix, for k
distinct quotients, where k is the state count of the minimal automaton.
This is Pin's ordered syntactic monoid ("A variety theorem without
complementation", 1995).  The quotients and the action are read off the
labels of a transition monoid, one n x |M| array; a morphism without
them has no syntactic order here.  Brute-force context enumeration of
the same order, and its earlier byte-gather route, live in the test
oracles.

The complement of a language has the same syntactic monoid, with the
complementary accepting set, and the reverse order.  `complement_morphism`
builds it from the language's morphism without a second closure: a
sibling monoid (`OrderedMonoid.with_order`) shares the table, the words
and the order-free caches, and the two morphisms share one memo
(`Morphism._memo`), while each monoid binds its own order.

The J-order of the monoid has one owner, `JClasses`: it reads the
regular J-classes off one table of the upsets U_e = {a : e in MaM} of
every idempotent, whose equal rows are the classes, and yields the least
idempotent of each class and the class's upset.  Up to `_BFS_MIN_SIZE`
elements the table comes from two passes over the multiplication table,
for every idempotent at once (`_pass_table`); above that, from letter
steps, packed 64 idempotents to a word (`_upset_table`): as many right
steps along the letter columns as the tree is deep reach {z : e in zM},
and as many left steps along the letter rows reach U_e.  The stability
layer builds the table of its stable submonoid, from which `JClasses`
places S's classes alike, or reads these when the stable submonoid is
the whole monoid.  Me is generated by U_e, and by
the letters in U_e alone (see `me_members`), so only those letters are
closed, and none when every letter is in U_e, where Me = M.  Every
generated submonoid is closed in one place, `generated`, by one
breadth-first closure over the table (`_closure_members`), once per
generator set, and kept on the monoid, so J-classes with one letter set
share one Me.  A generator set that holds every letter gives M, and
nothing is closed.  The stability layer closes its submonoids there too:
the stable Me, bounded by the size of the stable submonoid, and Mes, from
its block images, so the analyses at every index multiplier close a
block set once.  The upsets also serve
`stability.is_stable_trivial` and `hierarchy.sim_quotient`.
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
shape, not `np.zeros_like`.  Reductions along an axis are the ufuncs'
own, `np.logical_or.reduce(a, axis=...)` in place of `a.any(axis=...)`.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from functools import cached_property
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
# that `_light` does not check, they are the triples its associativity is
# sampled at.
# Each is 53 random bits of a seeded standard-library generator, as
# importing numpy.random would cost about 30 ms and 6 MB at every start.
_TRIPLES = (np.frombuffer(random.Random(0).randbytes(3 * 4096 * 8), dtype=np.uint64)
            >> np.uint64(11)).reshape(3, 4096) * 2.0 ** -53

# Most cells |M|^2 |G| that `_light` reads over the letters G of a table
# above 64 elements, which is sampled otherwise: those of 2 letters at 128
# elements.  On transition monoids of random 4- to 7-state automata with
# 65 to 200 elements and 2 to 10 letters, the test cost less than the
# 4096 sampled triples (about 45 us) on every one up to there, and more on
# most from about 40000 cells up: in the median 1.4 times as much at 45000
# to 70000 cells and 1.9 times at 70000 to 110000 (2-core x86-64, numpy 2.4)
_LIGHT_MAX_CELLS = 1 << 15


def _light(mult: np.ndarray, gens: np.ndarray) -> bool:
    """Light's associativity test (Clifford & Preston 1961, section 1.2):
    whether (x a) y = x (a y) for every a in the ids `gens` and all x, y,
    by two gathers [x, i, y] of |M|^2 |G| cells: of the table itself up to
    2048 cells, and of a uint8 copy of it (at most 256 elements) above
    that, where the copy costs less than it saves.  The a that pass hold
    the identity, by the identity law, and are closed under products, so
    when `gens` generate the monoid the whole table is associative; over
    every element it is the |M|^3 cube."""
    small = mult if mult.size * gens.size <= 2048 else mult.astype(np.uint8)
    return (small.take(small.take(gens, axis=1), axis=0).tobytes()  # (x a) y
            == small.take(small.take(gens, axis=0), axis=1).tobytes())  # x (a y)

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
    """A finite monoid with its spanning tree and an optional compatible
    partial order.  The identity is id 0.

    `tree` is a spanning tree of the right Cayley graph from the identity:
    (parent, last, names, letters), with element y = parent[y] times the
    letter letters[last[y]], parent[0] = -1, and names[i] the name of the
    i-th letter.  The constructor checks the identity law, then the tree
    by one gather (`_check_tree`), which proves that the letters generate
    the monoid, and raises InputError otherwise.  `generators`, the
    distinct letters, sorted, then prove associativity by Light's test
    (see `_validate`), close Me and, above `_BFS_MIN_SIZE` elements, build
    the upset table of the J-classes by letter steps; the words,
    names[last[y]] appended to the word of parent[y], are spelled when
    read.
    """

    identity = 0

    def __init__(self, mult, tree, leq=None):
        self.mult = np.ascontiguousarray(mult, dtype=np.int64)  # flat takes read it in place
        if self.mult.ndim != 2 or self.mult.shape[0] != self.mult.shape[1]:
            raise InputError("multiplication table must be square")
        self.size = int(self.mult.shape[0])
        # one pass: a negative entry reads as a huge unsigned one
        if self.mult.view(np.uint64).max() >= self.size:
            raise InputError("multiplication table entry out of range")
        ids = np.arange(self.size).tobytes()  # each comparison is of equal dtypes and shapes
        if not (self.mult[0].tobytes() == ids and self.mult[:, 0].tobytes() == ids):
            raise InputError("identity law fails")
        self._tree = _Tree(*tree)
        self.generators = self._check_tree()  # the ids that generate the monoid, sorted
        self._validate()
        self.leq = self._checked_order(leq)
        self._generated = {}  # generator mask bytes -> sorted members
        self._me = {}  # idempotent -> members of Me, shared through _generated
        self._idempotents = None
        self._j_classes = None  # the JClasses of the monoid, once built

    def _check_tree(self) -> np.ndarray:
        """Check the spanning tree by one gather, and return its distinct
        letters, sorted: for every y != 0, 0 <= parent[y] < y, 0 <= last[y]
        < len(names) and mult[parent[y], letters[last[y]]] = y, with every
        letter in range.  By induction on y every element is then a product
        of letters, the word the tree spells for it."""
        tree, m = self._tree, self.size
        letters = tree.letters
        if len(tree.parent) != m or len(tree.last) != m or letters.shape != (len(tree.names),):
            raise InputError("the tree needs one parent and letter per element, "
                             "and one name per letter")
        if tree.parent[0] != -1:
            raise InputError("the tree must be rooted at the identity, element 0")
        given = letters.tolist()
        gens = sorted(set(given))
        if gens and (gens[0] < 0 or gens[-1] >= m):
            raise InputError("the tree's letters must lie in the monoid")
        ps = np.array(tree.parent, dtype=np.int64)[1:]
        ls = np.array(tree.last, dtype=np.int64)[1:]
        ids = np.arange(1, m, dtype=np.uint64)  # a negative entry reads as a huge one
        if not (_all(ps.view(np.uint64) < ids) and _all(ls.view(np.uint64) < letters.size)
                and self.mult[ps, letters.take(ls)].tobytes() == ids.tobytes()):
            raise InputError("the tree does not spell its elements")
        return letters if gens == given else np.array(gens, dtype=np.int64)

    def _validate(self):
        """Associativity, in full by Light's test (`_light`) over the
        generators the tree has proven, where it costs no more than the
        sampled triples: at 64 elements or fewer, or while it reads at most
        `_LIGHT_MAX_CELLS` cells.  Every other table is checked at the 4096
        triples `_TRIPLES` picks for its size, read by flat takes of the
        table."""
        m, mult, letters = self.size, self.mult, self.generators
        if m <= 64 or m * m * letters.size <= _LIGHT_MAX_CELLS:
            associative = _light(mult, letters)
        else:
            xs, ys, zs = (_TRIPLES * m).astype(np.int64)
            associative = (mult.take(mult.take(xs * m + ys) * m + zs).tobytes()
                           == mult.take(xs * m + mult.take(ys * m + zs)).tobytes())
        if not associative:
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
        return self._tree.word(x)

    def with_order(self, leq) -> "OrderedMonoid":
        """A sibling monoid with the order `leq` (None for none), checked as
        the constructor checks an order.  The table is not checked again:
        the sibling shares it, with the words, the generators and the
        caches that do not read the order.  The generated submonoids and
        the Me arrays are one store, which either monoid fills for both;
        the idempotents and the J-classes are shared once built, as they
        are in a monoid that has analysed its language.  Its order is its
        own: binding one leaves the other's as it was, and the verdicts
        that read an order are kept under the monoid that carries it
        (`fragments.LanguageAnalysis`)."""
        sibling = copy.copy(self)
        sibling.leq = self._checked_order(leq)
        return sibling

    def generated(self, gens: np.ndarray, seed=None, limit=None) -> np.ndarray:
        """The sorted members of the submonoid generated by the ids marked
        in the boolean mask `gens`, closed on the first call with a mask
        (`_closure_members`) and kept for the life of the monoid
        (read-only).  A mask that holds every generator gives the whole
        monoid, and nothing is closed.  `seed`, ids of the submonoid that
        include the generators, starts the closure there, and `limit`, the
        size of a submonoid known to hold the generators, stops it there:
        Me is seeded with its upset, the stable Me is bounded by |S|, and
        Mes closes its block images alone."""
        key = gens.tobytes()
        got = self._generated.get(key)
        if got is None:
            if _all(gens.take(self.generators)):
                got = np.arange(self.size)
            else:
                got = _closure_members(self.mult, gens.nonzero()[0], seed=seed, limit=limit)
            got.flags.writeable = False
            self._generated[key] = got
        return got

    def me_members(self, e: int) -> np.ndarray:
        """The sorted members of Me for the idempotent e (read-only).

        Me is generated by the upset U_e = {a : e in MaM} of e's J-class
        (`j_classes`), and by the letters in U_e alone: each u in U_e is a
        product of letters, and e lies in M a M for every letter a of that
        product, as M u M does.  So the letters in U_e are closed, from
        U_e; when every letter is in U_e, Me = M and nothing is closed.
        The store is keyed by the mask of those letters, so J-classes with
        one letter set share one array."""
        got = self._me.get(e)
        if got is None:
            up = self.j_classes().upset(e)
            mask = np.zeros(self.size, dtype=bool)
            mask[self.generators] = up.take(self.generators)
            got = self._me[e] = self.generated(mask, seed=up.nonzero()[0])
        return got

    def j_classes(self) -> "JClasses":
        """The regular J-classes of the monoid, built once from the upset
        table of every idempotent: by table passes (`_pass_table`) up to
        `_BFS_MIN_SIZE` elements, and by letter steps (`_upset_table`)
        above."""
        if self._j_classes is None:
            self.idempotents()  # fills the sorted id array `_idempotents`
            ids = self._idempotents
            if self.size > _BFS_MIN_SIZE:
                table = _upset_table(self.mult, ids, self.generators, self._tree.depth)
            else:
                table = _pass_table(self.mult, ids)
            self._j_classes = JClasses(ids, table)
        return self._j_classes


class _Tree:
    """A spanning tree of a monoid's right Cayley graph (see
    `OrderedMonoid`), over the letter ids `letters` in the order of their
    `names`: the words it spells, each on first read, and its depth, the
    length of its longest word."""

    def __init__(self, parent: list, last: list, names, letters):
        self.parent, self.last, self.names = parent, last, names
        self.letters = np.array(letters, dtype=np.int64)
        self._spelled = {}  # element -> its word, for the elements asked

    def word(self, x: int) -> Word:
        """The word of x, by walking the tree up to the root, once per x."""
        got = self._spelled.get(x)
        if got is None:
            got, y, parent, last, names = (), x, self.parent, self.last, self.names
            while y:
                got = (names[last[y]],) + got
                y = parent[y]
            self._spelled[x] = got
        return got

    @cached_property
    def depth(self) -> int:
        depth = [0]
        for p in self.parent[1:]:
            depth.append(depth[p] + 1)
        return max(depth)


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

    `action`, set by `transition_monoid` (and shared by
    `complement_morphism`), holds the closure's labels (joined into one
    bytes object below 256 states), from which `syntactic_order` reads the
    order; a morphism without one has no syntactic order here."""

    monoid: OrderedMonoid
    alphabet: tuple
    letter_map: dict
    accepting: frozenset | None = None
    action: bytes | tuple | None = field(default=None, repr=False)
    # one dict for it and its `complement_morphism`: the stability entry
    # "powers" and one StabilityInfo per multiplier (`stability_info`), and
    # each verdict under (fragment, multiplier if it reads s else 0, the
    # monoid carrying the order if it reads it else None) (`fragments`)
    _memo: dict = field(repr=False, default_factory=dict)

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
    the table is built.  `_fill_table` writes it row by row: one |M|^2
    table plus O(|M|) temporaries.  The parents and letters are the
    monoid's spanning tree, which spells the words.  When given, `label_order` maps the list of
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
    letter_map = dict(zip(letters, right[:k]))  # 1 a = a
    mult = _fill_table(right, parent, last, right[:k])

    leq = None if label_order is None else label_order(labels)
    accepting = None
    if label_accepting is not None:
        accepting = frozenset(compress(range(m), label_accepting(labels)))

    monoid = OrderedMonoid(mult, (parent, last, letters, right[:k]), leq=leq)
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
    its `action`, and its memo (`_memo`), where a verdict that reads an
    order is keyed by the monoid that carries it.  Its monoid carries no
    order: `syntactic_order` builds the complement's from its own
    accepting set, in place, and leaves m's as it is."""
    if m.accepting is None:
        raise InputError("complement needs an accepting set")
    return Morphism(
        monoid=m.monoid.with_order(None),
        alphabet=m.alphabet,
        letter_map=m.letter_map,
        accepting=frozenset(range(m.monoid.size)) - m.accepting,
        action=m.action,
        _memo=m._memo,
    )


def quotient_morphism(m: Morphism, class_of: list, least: list, mult) -> Morphism:
    """The morphism onto the quotient of m's monoid by a congruence: x maps
    to class_of[x], the classes are numbered in the order of their least
    elements `least`, and `mult` is the table of the classes.

    The quotient's spanning tree is read off m's, which spells
    shortlex-least words, so ids are in shortlex order of those words.  The
    least element r of a class then spells the class's least word, and its
    parent p is the least element of its own class: a p' < p in p's class
    would give p' a in r's class, spelled by a word shortlex below r's.
    So class c = class_of[r] has the parent class_of[p] < c and r's
    letter, and spells r's word.  The congruence itself is the caller's to
    check."""
    tree = m.monoid._tree
    parent, last = tree.parent, tree.last
    qtree = ([-1] + [class_of[parent[r]] for r in least[1:]], [last[r] for r in least],
             tree.names, [class_of[a] for a in tree.letters.tolist()])
    return Morphism(
        monoid=OrderedMonoid(mult, qtree),
        alphabet=m.alphabet,
        letter_map={a: class_of[x] for a, x in m.letter_map.items()},
        accepting=None if m.accepting is None else frozenset(class_of[x] for x in m.accepting),
    )


def syntactic_order(m: Morphism) -> Morphism:
    """The syntactic order x <= y iff every accepting context of y is an
    accepting context of x, materialized as a full order matrix.

    The order is read off the right quotients of the accepting set P: the
    quotient of p is the set of r with p r in P.  Contexts (p, r) accept y
    exactly when r lies in the quotient of p y, so x <= y iff the quotient
    of p y is included in the quotient of p x for every p.  The quotient of
    p y depends only on the quotient of p and on y, so one representative
    p per distinct quotient suffices: with k distinct quotients and act[c,
    x] the quotient of rep_c x, x <= y iff contains[act[c, x], act[c, y]]
    for every c, where contains[i, j] says that quotient j is included in
    quotient i.

    The quotients and act are read off the morphism's `action`, which a
    transition monoid carries (Pin's theorem: the order is the inclusion
    of the minimal automaton's right languages, along the action).  The
    quotient of p is that of the state 0 p, and the states' right
    languages are distinct, so the classes are the n states, with act[q,
    x] = q x the label of x at q and quotient q = {x : q x final}.  A
    morphism without an action raises InputError: every morphism that is
    ordered here comes from `transition_monoid`, and the others get their
    order from `generated_morphism`'s `label_order`.

    The rows of the matrix are built as packed bits (`_order_bits`) and
    unpacked once: O(k |M|^2 / 8) time plus one |M|^2 unpack.  The traced
    peak is about 1.2 |M|^2 bytes, the order included, as the bits of the
    quotients are dropped before the AND pass.

    The order is canonical for the accepting set, so it is bound onto the
    morphism's monoid in place (idempotently) and the same morphism is
    returned.
    """
    if m.monoid.leq is not None:
        return m
    if m.accepting is None:
        raise InputError("syntactic order needs an accepting set")
    if m.action is None:
        raise InputError("syntactic order needs the action of a transition monoid")
    size = m.monoid.size
    acc = np.zeros(size, dtype=bool)
    acc[list(m.accepting)] = True
    if isinstance(m.action, bytes):
        act = np.frombuffer(m.action, dtype=np.uint8).reshape(size, -1).T.astype(np.intp)
    else:  # tuples, with the fixed point in their last slot
        act = np.array(m.action, dtype=np.intp)[:, :-1].T
    final = np.zeros(act.shape[0], dtype=bool)
    final[act[0]] = acc  # the state 0 x is final iff x accepts
    quotients = final[act].astype(np.float32)  # [q, x]: q x is final
    contains = ((1.0 - quotients) @ quotients.T) == 0
    m.monoid.leq = _unpackbits(_order_bits(contains, act), axis=1, count=size).view(bool)
    return m


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

# Above this size a monoid's upset table comes from letter steps
# (`_upset_table`), up to it from table passes (`_pass_table`).  Mean cost
# per monoid of each builder (least of 7) over 2000 draws of the CLI's
# random shape (5 states, 3 letters), passes against steps (2-core x86-64,
# numpy 2.4): 4.0 against 11.2 us at 1-10 elements, 10.2/24.2 at 11-20,
# 22.2/31.9 at 21-24, 28.6/31.0 at 25-28, 39.3/34.4 at 31-32, 65.9/42.3 at
# 37-40, 98.9/38.0 at 41-60, 442/51 at 81-128.
_BFS_MIN_SIZE = 28

# _BITS[i]: bit i of a packed uint64 word
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _packed_seed(cols: np.ndarray, size: int) -> np.ndarray:
    """seed[w, z] over `size` elements: bit i of word w is set iff z =
    cols[64 w + i]."""
    at = np.arange(cols.size)
    seed = np.zeros((-(-cols.size // 64), size), dtype=np.uint64)
    seed[at >> 6, cols] = _BITS[at & 63]
    return seed


def _step(columns, reach: np.ndarray) -> np.ndarray:
    """out[:, z] = OR_c reach[:, c[z]] over the index rows c of `columns`,
    on packed words [w, z]: along the right letter columns mult[:, b],
    from {z : f in z Y} to {z : f in z b Y}; along the rows mult[b], from
    {a : f in X a Y} to {a : f in X b a Y}."""
    out = reach.take(columns[0], axis=1)
    for column in columns[1:]:
        out |= reach.take(column, axis=1)
    return out


def _unpacked(reach: np.ndarray, count: int) -> np.ndarray:
    """The packed words reach[w, z] as booleans bits[z, i], i < count."""
    words = np.ascontiguousarray(reach.T).astype("<u8", copy=False).view(np.uint8)
    return _unpackbits(words, axis=1, count=count, bitorder="little").view(bool)


def _pass_table(mult: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """table[i, a]: the idempotent ids[i] lies in M a M, by two passes over
    the table for every idempotent at once: the z with ids[i] in z M, then
    the a with some x a among them."""
    right = np.logical_or.reduce(mult == ids[:, None, None], axis=2)  # [i, z]
    return np.logical_or.reduce(right.take(mult, axis=1), axis=1)  # over x of [i, x, a]


def _upset_table(mult: np.ndarray, ids: np.ndarray, letters: np.ndarray,
                 rounds: int) -> np.ndarray:
    """table[i, a]: the idempotent ids[i] lies in M a M, for a monoid that
    the ids `letters` generate in words of at most `rounds` letters.

    Every idempotent at once, packed 64 to a word: from the seed {E_i},
    `rounds` right steps along the letter columns mult[:, b], each ORed
    into the last, reach Z_i = {z : E_i in z M}, as E_i = z x with x a
    word of at most `rounds` letters; then as many left steps along the
    letter rows mult[b] reach {a : x a in Z_i for some x}, the upset."""
    reach = _packed_seed(ids, mult.shape[0])
    right = list(mult.take(letters, axis=1).T.copy())
    for _ in range(rounds):
        reach |= _step(right, reach)
    left = [mult[b] for b in letters.tolist()]
    for _ in range(rounds):
        reach |= _step(left, reach)
    return np.ascontiguousarray(_unpacked(reach, ids.size).T)


class JClasses:
    """The regular J-classes of a monoid T, in order of their least
    idempotents, placed from one table of the upsets of every idempotent:
    table[i, a] says E[i] lies in T a T.  For T = M it comes from table
    passes (`_pass_table`) or letter steps (`_upset_table`), by size; the
    stability layer builds one for its stable submonoid S.

    Two idempotents are J-equivalent exactly when their upsets are equal:
    if T e T = T f T, then e and f lie in the same ideals T a T; and if the
    upsets are equal, e lies in its own upset, so in f's, and f in e's,
    which gives f in T e T and e in T f T.  So a class is the idempotents
    whose rows have the same bytes, opened by its least idempotent, and
    the upset of each is that one's row.

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

    def __init__(self, idempotents: np.ndarray, table: np.ndarray):
        table.flags.writeable = False
        reps, upsets, first = [], {}, {}  # first: row bytes -> the row of its class
        for e, row in zip(idempotents.tolist(), table):
            up = upsets[e] = first.setdefault(row.tobytes(), row)
            if up is row:
                reps.append(e)
        self._reps, self._upsets = tuple(reps), upsets

    def representatives(self) -> tuple:
        """The least idempotent of each regular J-class, increasing."""
        return self._reps

    def upset(self, e: int) -> np.ndarray:
        """The mask of {a in T : e in T a T} for the idempotent e of T,
        one read-only array per J-class."""
        got = self._upsets.get(e)
        if got is None:
            raise InputError(f"element {e} is not an idempotent of the submonoid")
        return got


_GATHER_IDS = 1 << 16  # ids gathered at once by a blocked table read (512 KiB)
# Products gathered at once by `_closure_members`, whose bound is read
# after each block.  The 62 bounded closures of the stable Me in one pass
# of the ladder workload's 20 languages (|M| 200-800) took 2.6, 2.2, 2.0,
# 1.9, 2.1, 2.5 and 3.2 ms at 2^9 .. 2^14 and 2^16 products a block, and
# 3.5 ms when the bound was read once a level (least of 7 replays); its
# 56 unbounded closures took 0.27-0.29 ms at every size (a shared 2-core
# host, Python 3.11, numpy 2.4).
_CLOSURE_BLOCK = 1 << 12


def _closure_members(mult: np.ndarray, gens: np.ndarray, seed=None,
                     limit: int | None = None) -> np.ndarray:
    """Sorted members of the submonoid generated by the ids `gens` of a
    monoid with the identity 0, by a breadth-first frontier multiplied on
    the right by every generator.
    Each level gathers its products from the table in blocks of frontier
    rows, about _CLOSURE_BLOCK products at once.  The search starts from
    the generators, or from the ids `seed`, members that include them, and
    stops once `limit` elements are reached: every element by default, or
    the size of a submonoid known to hold the generators.  The count is
    read after every block, so a closure that fills its bound early in a
    level gathers none of the level's later blocks."""
    reached = np.zeros(mult.shape[0], dtype=bool)
    start = gens if seed is None else seed
    reached[0] = True
    reached[start] = True
    frontier = start[start != 0]
    block = max(1, _CLOSURE_BLOCK // max(1, gens.size))
    limit = reached.size if limit is None else limit
    while frontier.size and _count_nonzero(reached) < limit:
        before = reached.copy()
        for lo in range(0, frontier.size, block):
            reached[mult[frontier[lo:lo + block, None], gens]] = True
            if _count_nonzero(reached) >= limit:
                break
        frontier = (reached ^ before).nonzero()[0]
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
        # a take from the column mult[:, e] would first copy all of it
        exe = mult[mult[e].take(xs), e]
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

