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

The local submonoid Me of an idempotent e (generated by every a with e in
MaM) is built once per e as a sorted numpy member array and kept on the
monoid, so it lives as long as the monoid does and serves every check
that reads it.  Its generators cost two O(|M|^2) mask passes over the
table, its closure one frontier step of O(|frontier| g) per
breadth-first level for g generators.  The local conditions e x e REL e
then read one gathered row e Me e per idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import Dfa, minimize
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
    """A finite monoid with an optional compatible partial order."""

    def __init__(self, mult, identity: int, leq=None, repr_words=None):
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
        self._validate()
        self._me = {}  # idempotent -> sorted member array of Me

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
        return np.flatnonzero(self.mult.diagonal() == np.arange(self.size)).tolist()

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
        return OrderedMonoid(self.mult, self.identity, leq=leq, repr_words=self.repr_words)

    def me_members(self, e: int) -> np.ndarray:
        """The sorted members of Me for the idempotent e, built on first
        use and kept for the life of the monoid (read-only)."""
        got = self._me.get(e)
        if got is None:
            gens = np.flatnonzero(_j_upset_mask(self.mult, e))
            got = self._me[e] = _closure_members(self.mult, self.identity, gens)
        return got


def is_aperiodic(m: OrderedMonoid) -> tuple[bool, int | None]:
    """Whether x^w = x^w x for every x; returns an offending x otherwise."""
    for x in m.elements():
        w = m.omega(x)
        if m.mul(w, x) != w:
            return False, x
    return True, None


def set_product(m: OrderedMonoid, xs, ys) -> frozenset[int]:
    """The set {x y : x in xs, y in ys}."""
    xs, ys = list(xs), list(ys)
    if not xs or not ys:
        return frozenset()
    hit = np.zeros(m.size, dtype=bool)
    hit[m.mult[np.ix_(xs, ys)]] = True
    return frozenset(np.flatnonzero(hit).tolist())


@dataclass(frozen=True, eq=False)
class Morphism:
    """A surjective morphism from the free monoid over `alphabet` onto
    `monoid`, with an optional accepting set (the image of a language)."""

    monoid: OrderedMonoid
    alphabet: tuple
    letter_map: dict
    accepting: frozenset | None = None

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

    monoid = OrderedMonoid(mult, 0, leq=leq, repr_words=words)
    letter_map = {a: index[letter_labels[a]] for a in letters}
    return Morphism(
        monoid=monoid,
        alphabet=tuple(letters),
        letter_map=letter_map,
        accepting=accepting,
    )


def transition_monoid(d: Dfa, max_monoid: int = DEFAULT_MAX_MONOID) -> Morphism:
    """The syntactic morphism of L(d): the transition monoid of the minimal
    automaton, with the image of the language as accepting set."""
    d = minimize(d)
    states = list(d.states)
    pos = {q: i for i, q in enumerate(states)}
    init = pos[d.initial]
    final_mask = tuple(q in d.finals for q in states)

    letter_labels = {
        a: tuple(pos[d.delta[(q, a)]] for q in states) for a in d.alphabet
    }
    identity = tuple(range(len(states)))

    def compose(t1, t2):
        # t1 then t2: the action of the concatenated word
        return tuple(t2[s] for s in t1)

    return generated_morphism(
        d.alphabet,
        letter_labels,
        compose,
        identity,
        cap=max_monoid,
        accepting_label=lambda t: final_mask[t[init]],
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
# Green's relations

@dataclass(frozen=True, eq=False)
class GreenRelations:
    """Preorder matrices (leq[x][y] means x below-or-equal y) and the
    partition into classes for R, L, J and H."""

    r_leq: np.ndarray
    l_leq: np.ndarray
    j_leq: np.ndarray
    r_classes: tuple
    l_classes: tuple
    j_classes: tuple
    h_classes: tuple

    @property
    def h_leq(self) -> np.ndarray:
        return self.r_leq & self.l_leq


def _classes_of(leq: np.ndarray) -> tuple:
    equiv = leq & leq.T
    size = leq.shape[0]
    seen = set()
    classes = []
    for x in range(size):
        if x in seen:
            continue
        members = tuple(int(y) for y in np.flatnonzero(equiv[x]))
        seen.update(members)
        classes.append(members)
    return tuple(classes)


def green_classes(m: OrderedMonoid) -> GreenRelations:
    size, mult = m.size, m.mult
    right_has = np.zeros((size, size), dtype=bool)  # right_has[y][x] iff x in yM
    left_has = np.zeros((size, size), dtype=bool)
    for y in range(size):
        right_has[y, mult[y]] = True
        left_has[y, mult[:, y]] = True
    r_leq = right_has.T.copy()
    l_leq = left_has.T.copy()
    two_has = np.zeros((size, size), dtype=bool)
    for y in range(size):
        members = np.flatnonzero(left_has[y])  # My
        two_has[y] = right_has[members].any(axis=0)
    j_leq = two_has.T.copy()
    h_leq = r_leq & l_leq
    return GreenRelations(
        r_leq=r_leq,
        l_leq=l_leq,
        j_leq=j_leq,
        r_classes=_classes_of(r_leq),
        l_classes=_classes_of(l_leq),
        j_classes=_classes_of(j_leq),
        h_classes=_classes_of(h_leq),
    )


def _j_upset_mask(mult: np.ndarray, e: int) -> np.ndarray:
    # z with e in zM, then every a with some x a among them
    left = (mult == e).any(axis=1)
    return left[mult].any(axis=0)


def _closure_members(mult: np.ndarray, identity: int, gens: np.ndarray) -> np.ndarray:
    """Sorted members of the submonoid generated by the ids `gens`, by a
    breadth-first frontier pushed through the generator columns at once."""
    cols = mult[:, gens]
    reached = np.zeros(mult.shape[0], dtype=bool)
    reached[identity] = True
    frontier = np.array([identity])
    while frontier.size:
        hit = np.zeros_like(reached)
        hit[cols[frontier]] = True
        hit &= ~reached
        reached |= hit
        frontier = np.flatnonzero(hit)
    members = np.flatnonzero(reached)
    members.flags.writeable = False
    return members


def j_upset(m: OrderedMonoid, e: int) -> frozenset[int]:
    """All a with e in MaM: the z with e in zM are one mask over the table,
    and a qualifies iff some x a is among them, so two O(|M|^2) passes."""
    return frozenset(np.flatnonzero(_j_upset_mask(m.mult, e)).tolist())


def submonoid_closure(m: OrderedMonoid, generators) -> frozenset[int]:
    gens = np.array(sorted({int(g) for g in generators}), dtype=np.int64)
    return frozenset(_closure_members(m.mult, m.identity, gens).tolist())


def me_submonoid(m: OrderedMonoid, e: int) -> frozenset[int]:
    """The submonoid generated by every a whose two-sided ideal contains e,
    built once per idempotent and kept on the monoid (`me_members`)."""
    if not m.is_idempotent(e):
        raise InputError(f"element {e} is not idempotent")
    return frozenset(m.me_members(e).tolist())


def submonoid_view(m: OrderedMonoid, elements) -> tuple[OrderedMonoid, tuple]:
    """Reindex a multiplication-closed subset containing the identity as a
    monoid in its own right.  Returns (submonoid, parent ids by new id)."""
    elems = sorted(set(int(x) for x in elements))
    if m.identity not in elems:
        raise InputError("submonoid must contain the identity")
    pos = np.full(m.size, -1, dtype=np.int64)  # new id by parent id
    pos[elems] = np.arange(len(elems))
    table = pos[m.mult[np.ix_(elems, elems)]]
    if (table < 0).any():
        raise InputError("subset is not closed under multiplication")
    leq = None
    if m.leq is not None:
        leq = m.leq[np.ix_(elems, elems)]
    words = None
    if m.repr_words is not None:
        words = [m.repr_words[x] for x in elems]
    return OrderedMonoid(table, int(pos[m.identity]), leq=leq, repr_words=words), tuple(elems)


# ---------------------------------------------------------------------------
# Local submonoid conditions

_MODES = ("eq", "leq", "geq")
_SELECTORS = ("Me", "Mes")


def local_condition(
    m: OrderedMonoid,
    mode: str,
    selector: str,
    stability_ctx=None,
) -> tuple[bool, tuple[int, int] | None]:
    """Check e x e REL e for every idempotent e and every x in the selected
    submonoid (Me, or the stable-context variant Mes).

    REL is equality, or the monoid order in either direction.  Each
    idempotent costs one gather of e x e over the kept member array of its
    local submonoid and one mask test.  Returns the first offending pair
    (e, x), idempotents and members in increasing order, when the
    condition fails.
    """
    if mode not in _MODES:
        raise InputError(f"unknown mode {mode!r}")
    if selector not in _SELECTORS:
        raise InputError(f"unknown submonoid selector {selector!r}")
    if mode != "eq" and m.leq is None:
        raise InputError("ordered comparison requires an order on the monoid")
    if selector == "Mes":
        if stability_ctx is None:
            raise InputError("Mes selector requires stability data")
        if stability_ctx.morphism.monoid is not m:
            raise InputError("stability data belongs to a different monoid")
        members = stability_ctx.mes_members
    else:
        members = m.me_members

    mult, leq = m.mult, m.leq
    for e in m.idempotents():
        xs = members(e)
        exe = mult[mult[e, xs], e]
        if mode == "eq":
            ok = exe == e
        elif mode == "leq":
            ok = leq[exe, e]
        else:
            ok = leq[e, exe]
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
