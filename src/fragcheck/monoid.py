"""Finite ordered monoids, syntactic morphisms, and local submonoid conditions.

Elements are integer ids 0..size-1.  Multiplication is a full table; the
order, when present, is a full boolean matrix leq[x][y] meaning x <= y.
Morphisms carry shortlex-least representative words for every element,
computed during the generating breadth-first closure.

The syntactic order of a morphism with an accepting set P is built from
the right quotients of P (the sets {r : p r in P}), compared by inclusion
once per pair of distinct quotients and then pulled back along the
action of each element: O(|M|^2 k) time and O(|M|^2) memory for k
distinct quotients, where k is the state count of the minimal automaton.
This is Pin's ordered syntactic monoid ("A variety theorem without
complementation", 1995).  Brute-force context enumeration of the same
order lives in the test oracles.

The local submonoid Me of an idempotent e is generated by the set
{a : e in MaM}, which depends only on the J-class of e.  Each generated
submonoid is built once per distinct generator set, as a sorted numpy
member array kept on the monoid (`generated`), so J-equivalent
idempotents share one Me, and the stability layer's Mes and stable Me
share the same store.  A monoid that knows generators (every monoid a
morphism builds: the letter images) finds {a : e in MaM} above
`_BFS_MIN_SIZE` elements by a reverse breadth-first search from e in the
two-sided Cayley graph (edges x -> x g and x -> g x), O(d |A| |M|) for d
levels; smaller monoids, and tables without generators, take two
O(|M|^2) boolean passes.  A closure gathers each breadth-first level
through the table in blocks, O(|Me| g) for g generators with no copy of
the generator columns.

Sets of elements are sorted read-only int64 id arrays throughout, from
the stability layer's power images to the local submonoids.
`local_condition` checks e x e REL e given the idempotents to visit, the
member source (Me here; Mes or the stable submonoid's Me from the
stability layer) and the order to read, or none for equality: one
gathered row e Me e per idempotent.  Brute-force products of sets and
Green's relations live in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automata import Dfa, dfa_table, minimal_table
from .errors import CapError, ConsistencyError, InputError

DEFAULT_MAX_MONOID = 10_000

Word = tuple


def format_word(word: Word) -> str:
    if not word:
        return "ε"
    if all(len(str(a)) == 1 for a in word):
        return "".join(str(a) for a in word)
    return " ".join(str(a) for a in word)


class OrderedMonoid:
    """A finite monoid with an optional compatible partial order.

    `generators`, when given, must generate the monoid (a morphism passes
    its letter images); the Cayley-graph search for Me relies on it and
    checks it once before its first use, raising InputError otherwise.
    """

    def __init__(self, mult, identity: int, leq=None, repr_words=None, generators=None):
        self.mult = np.asarray(mult, dtype=np.int64)
        if self.mult.ndim != 2 or self.mult.shape[0] != self.mult.shape[1]:
            raise InputError("multiplication table must be square")
        self.size = int(self.mult.shape[0])
        self.identity = int(identity)
        if not (0 <= self.identity < self.size):
            raise InputError("identity out of range")
        if self.mult.size and (self.mult.min() < 0 or self.mult.max() >= self.size):
            raise InputError("multiplication table entry out of range")
        self.leq = None if leq is None else np.asarray(leq, dtype=bool)
        if self.leq is not None and self.leq.shape != (self.size, self.size):
            raise InputError("order matrix must be size x size")
        self.repr_words = None if repr_words is None else tuple(
            tuple(w) for w in repr_words
        )
        if self.repr_words is not None and len(self.repr_words) != self.size:
            raise InputError("need one representative word per element")
        # ids that generate the monoid (the letter images of a morphism),
        # which open the Cayley-graph search for Me; None when unknown
        self.generators = None if generators is None else np.unique(
            np.asarray(generators, dtype=np.int64))
        if self.generators is not None and self.generators.size and (
                self.generators[0] < 0 or self.generators[-1] >= self.size):
            raise InputError("generator out of range")
        self._validate()
        self._generated = {}  # packed generator mask -> sorted members
        self._me = {}  # idempotent -> members of Me, shared through _generated
        self._idempotents = None
        self._cayley = None  # [x, k] -> x g_k, then g_k x, for the generators

    def _validate(self):
        m, mult = self.size, self.mult
        e = self.identity
        if not (np.array_equal(mult[e], np.arange(m)) and
                np.array_equal(mult[:, e], np.arange(m))):
            raise InputError("identity law fails")
        if m <= 64:
            left = mult[mult]            # [x, y, z] -> (xy)z
            right = mult[:, mult]        # [x, y, z] -> x(yz)
            if not np.array_equal(left, right):
                raise InputError("multiplication is not associative")
        else:
            rng = np.random.default_rng(m)
            xs, ys, zs = rng.integers(0, m, size=(3, 4096))
            if not np.array_equal(mult[mult[xs, ys], zs], mult[xs, mult[ys, zs]]):
                raise InputError("multiplication is not associative")
        if self.leq is not None:
            if not self.leq.diagonal().all():
                raise InputError("order is not reflexive")
            both = self.leq & self.leq.T
            if (both & ~np.eye(m, dtype=bool)).any():
                raise InputError("order is not antisymmetric")
            if m <= 64:
                closure = (self.leq.astype(int) @ self.leq.astype(int)) > 0
                if (closure & ~self.leq).any():
                    raise InputError("order is not transitive")

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
            self._idempotents = np.flatnonzero(self.mult.diagonal() == np.arange(self.size))
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
        return OrderedMonoid(self.mult, self.identity, leq=leq,
                             repr_words=self.repr_words, generators=self.generators)

    def generated(self, gens: np.ndarray) -> np.ndarray:
        """The sorted members of the submonoid generated by the ids marked
        in the boolean mask `gens`, built once per distinct mask and kept
        for the life of the monoid (read-only)."""
        key = np.packbits(gens).tobytes()
        got = self._generated.get(key)
        if got is None:
            got = _closure_members(self.mult, self.identity, np.flatnonzero(gens))
            self._generated[key] = got
        return got

    def me_members(self, e: int) -> np.ndarray:
        """The sorted members of Me for the idempotent e (read-only).  The
        generator set {a : e in MaM} is found once per idempotent and the
        closure once per generator set, so J-equivalent idempotents get
        the same array."""
        got = self._me.get(e)
        if got is None:
            got = self._me[e] = self.generated(self._j_above(e))
        return got

    def _j_above(self, e: int) -> np.ndarray:
        """The mask of {a : e in MaM}: a reverse search in the two-sided
        Cayley graph when the monoid knows generators and is large, two
        boolean passes over the table otherwise."""
        if self.generators is None or self.size <= _BFS_MIN_SIZE:
            return _j_upset_mask(self.mult, e)
        if self._cayley is None:
            g = self.generators
            if _closure_members(self.mult, self.identity, g).size != self.size:
                raise InputError("the generators do not generate the monoid")
            self._cayley = np.concatenate([self.mult[:, g], self.mult[g].T], axis=1)
        return _reaching(self._cayley, e)


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
    `monoid`, with an optional accepting set (the image of a language)."""

    monoid: OrderedMonoid
    alphabet: tuple
    letter_map: dict
    accepting: frozenset | None = None
    # the stability layer's memo (see `stability.stability_info`): its
    # power images, and one StabilityInfo per index multiplier
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
    alphabet,
    letter_labels: dict,
    mult_label,
    identity_label,
    *,
    cap: int = DEFAULT_MAX_MONOID,
    label_order=None,
    accepting_label=None,
) -> Morphism:
    """Close the letter labels under multiplication and index the result.

    Labels are opaque hashable values with `mult_label` as the product.
    Element ids are assigned in breadth-first shortlex order, so id 0 is the
    identity and every element's representative word is shortlex-least.
    The closure evaluates every product x . a once and records it as the
    letter column R_a[x]; the full multiplication table is then filled by
    the column recurrence mult[x][y'a] = R_a[mult[x][y']].  When given,
    `label_order` maps the list of labels, by element id, to the boolean
    order matrix.
    """
    letters = sorted(letter_labels)
    labels = [identity_label]
    index = {identity_label: 0}
    words = [()]
    parent = [None]  # (parent element, letter position) for non-identity
    gen_cols = {a: [] for a in letters}  # R_a[x] = index of x . a

    frontier = 0
    while frontier < len(labels):
        x = frontier
        frontier += 1
        for a in letters:
            lab = mult_label(labels[x], letter_labels[a])
            y = index.get(lab)
            if y is None:
                y = index[lab] = len(labels)
                labels.append(lab)
                words.append(words[x] + (a,))
                parent.append((x, a))
                if len(labels) > cap:
                    raise CapError(f"monoid size cap exceeded ({cap})")
            gen_cols[a].append(y)

    m = len(labels)
    gen_cols = {a: np.array(col, dtype=np.int64) for a, col in gen_cols.items()}
    mult = np.empty((m, m), dtype=np.int64)
    mult[:, 0] = np.arange(m)
    for y in range(1, m):
        py, a = parent[y]
        mult[:, y] = gen_cols[a][mult[:, py]]

    leq = None if label_order is None else label_order(labels)

    accepting = None
    if accepting_label is not None:
        accepting = frozenset(x for x in range(m) if accepting_label(labels[x]))

    letter_map = {a: index[letter_labels[a]] for a in letters}
    monoid = OrderedMonoid(mult, 0, leq=leq, repr_words=words,
                           generators=list(letter_map.values()))
    return Morphism(
        monoid=monoid,
        alphabet=tuple(letters),
        letter_map=letter_map,
        accepting=accepting,
    )


def transition_monoid(d: Dfa, max_monoid: int = DEFAULT_MAX_MONOID) -> Morphism:
    """The syntactic morphism of L(d): the transition monoid of the minimal
    automaton, with the image of the language as accepting set.

    A letter's label is its column of the minimal table (the Moore quotient
    of d's reachable table, state 0 initial), an element's the tuple of
    the states each state moves to.  Element ids and words come from the
    closure over words, so they do not depend on how the states are
    numbered."""
    letters, t = dfa_table(d)
    delta, finals = minimal_table(t)
    final_mask = finals.tolist()
    letter_labels = {a: tuple(col) for a, col in zip(letters, delta.T.tolist())}
    identity = tuple(range(len(final_mask)))

    def compose(t1, t2):
        # t1 then t2: the action of the concatenated word
        return tuple(t2[s] for s in t1)

    return generated_morphism(
        letters,
        letter_labels,
        compose,
        identity,
        cap=max_monoid,
        accepting_label=lambda t: final_mask[t[0]],
    )


def syntactic_order(m: Morphism) -> Morphism:
    """The syntactic order x <= y iff every accepting context of y is an
    accepting context of x, materialized as a full order matrix.

    The order is read off the right quotients of the accepting set P: the
    quotient of p is the set of r with p r in P.  Contexts (p, r) accept y
    exactly when r lies in the quotient of p y, so x <= y iff the quotient
    of p y is included in the quotient of p x for every p.  The quotient of
    p y depends only on the quotient of p and on y, so one representative
    p per distinct quotient suffices.  With k distinct quotients (the
    states of the minimal automaton, for a transition monoid) this costs
    O(|M|^2 k) time and O(|M|^2) memory.

    The order is canonical for the accepting set, so it is bound onto the
    morphism's monoid in place (idempotently) and the same morphism is
    returned.  Nothing here assumes the morphism came from a minimal
    automaton, so the relation is still checked for antisymmetry: it
    fails, with InputError, exactly when two elements share every context,
    which means the morphism was not the syntactic morphism of its
    accepting set.
    """
    if m.monoid.leq is not None:
        return m
    if m.accepting is None:
        raise InputError("syntactic order needs an accepting set")
    size = m.monoid.size
    mult = m.monoid.mult
    acc = np.zeros(size, dtype=bool)
    acc[list(m.accepting)] = True

    rows = acc[mult]                  # [p, r] -> p r in P
    packed = np.packbits(rows, axis=1)
    width, buf = packed.shape[1], packed.tobytes()
    index, reps, cls = {}, [], []     # cls[p]: which distinct row is p's
    for p in range(size):
        c = index.setdefault(buf[p * width:(p + 1) * width], len(reps))
        if c == len(reps):
            reps.append(p)
        cls.append(c)

    # contains[i, j]: quotient j is included in quotient i
    quotients = rows.take(reps, 0).astype(np.float32)
    contains = ((1.0 - quotients) @ quotients.T) == 0
    leq = np.ones((size, size), dtype=bool)
    for moved in np.take(cls, mult.take(reps, 0)):  # class of rep_c x, by x
        leq &= contains.take(moved, 0).take(moved, 1)

    if np.count_nonzero(leq & leq.T) > size:
        both = leq & leq.T & ~np.eye(size, dtype=bool)
        x, y = map(int, np.argwhere(both)[0])
        raise InputError(
            "syntactic order not antisymmetric: elements "
            f"{format_word(m.word_of(x))} and {format_word(m.word_of(y))} "
            "share all contexts (not a syntactic morphism)"
        )
    m.monoid.leq = leq
    return m


# ---------------------------------------------------------------------------
# Local submonoids

# Above this size a monoid with known generators finds {a : e in MaM} by the
# Cayley-graph search; below it the two table passes cost fewer numpy calls.
_BFS_MIN_SIZE = 256


def _j_upset_mask(mult: np.ndarray, e: int, inside: np.ndarray | None = None) -> np.ndarray:
    """The mask of {a in T : e in T a T} for the submonoid T marked by
    `inside` (all of M when None): the z in T with e in z T, then every a
    in T with some x a among them, x in T.  Two O(|M|^2) boolean passes."""
    hit = mult == e
    if inside is None:
        return hit.any(axis=1)[mult].any(axis=0)
    left = (hit & inside).any(axis=1) & inside
    return (left[mult] & inside[:, None]).any(axis=0) & inside


def _reaching(cayley: np.ndarray, e: int) -> np.ndarray:
    """The mask of the x from which e is reached along the edges
    x -> cayley[x, k], by a reverse breadth-first search: each level marks
    the x with an edge into the last level, one gather of the edge table."""
    reached = np.zeros(cayley.shape[0], dtype=bool)
    reached[e] = True
    frontier = reached
    while True:
        frontier = frontier[cayley].any(axis=1) & ~reached
        if not frontier.any():
            return reached
        reached |= frontier


_GATHER_IDS = 1 << 16  # products gathered at once by a closure (512 KiB of ids)


def _closure_members(mult: np.ndarray, identity: int, gens: np.ndarray) -> np.ndarray:
    """Sorted members of the submonoid generated by the ids `gens`, by a
    breadth-first frontier multiplied on the right by every generator.
    Each level gathers its products from the table in blocks of frontier
    rows, so no temporary holds more than about _GATHER_IDS ids; the
    search stops early once every element is reached."""
    reached = np.zeros(mult.shape[0], dtype=bool)
    reached[identity] = True
    frontier = np.array([identity])
    block = max(1, _GATHER_IDS // max(1, gens.size))
    while frontier.size and not reached.all():
        hit = np.zeros_like(reached)
        for lo in range(0, frontier.size, block):
            hit[mult[frontier[lo:lo + block, None], gens]] = True
        hit &= ~reached
        reached |= hit
        frontier = np.flatnonzero(hit)
    members = np.flatnonzero(reached)
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

def local_condition(
    m: OrderedMonoid,
    idempotents,
    members,
    order: np.ndarray | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Check e x e REL e for every idempotent e in `idempotents`, in their
    order, and every x in the sorted id array `members(e)`: Me
    (`OrderedMonoid.me_members`), Mes (`StabilityInfo.mes_members`) or the
    Me of the stable submonoid (`StabilityInfo.stable_me_members`, over
    its idempotents).

    REL is equality when `order` is None, and otherwise the relation read
    as order[e x e, e]: the monoid order for e x e <= e, its transpose for
    e x e >= e.  Each idempotent costs one gather of e x e over its member
    array and one mask test.  Returns the first offending pair (e, x),
    members in increasing order, when the condition fails.
    """
    mult = m.mult
    for e in idempotents:
        xs = members(e)
        exe = mult[mult[e, xs], e]
        ok = exe == e if order is None else order[exe, e]
        if not ok.all():
            return False, (e, int(xs[ok.argmin()]))
    return True, None


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
