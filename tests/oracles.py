"""Brute-force reference computations.

Everything in this file recomputes results from first principles (word
enumeration, explicit context search) using only the documented data
fields of the library types, so that a disagreement between a test and
the library always points at real mathematics, not at shared code.
"""

from itertools import product

import numpy as np


def words(alphabet, max_len):
    """All words over the alphabet up to max_len, shortest first."""
    letters = sorted(alphabet)
    for k in range(max_len + 1):
        yield from product(letters, repeat=k)


def words_of_length(alphabet, k):
    yield from product(sorted(alphabet), repeat=k)


def run(d, word):
    q = d.initial
    for a in word:
        q = d.delta[(q, a)]
    return q


def accepts(d, word):
    return run(d, word) in d.finals


def language(d, max_len):
    return {w for w in words(d.alphabet, max_len) if accepts(d, w)}


def decorate_brute(word, n, offset=0):
    # position i (1-based) carries the residue of i + offset in 1..n
    return tuple(f"{a}@{(i + offset - 1) % n + 1}" for i, a in enumerate(word, start=1))


def length_residues_brute(d, n, max_len):
    out = set()
    for w in words(d.alphabet, max_len):
        if accepts(d, w):
            out.add((len(w) - 1) % n + 1)
    return out


def decorated_alphabet_brute(d, n, max_len):
    out = set()
    for w in words(d.alphabet, max_len):
        if accepts(d, w):
            out.update(decorate_brute(w, n))
    return out


def residual_profiles(d, prefix_len, suffix_len):
    """Distinct acceptance profiles of prefixes, probed by all suffixes up
    to suffix_len.  A lower bound for the minimal state count."""
    profiles = set()
    suffixes = list(words(d.alphabet, suffix_len))
    for u in words(d.alphabet, prefix_len):
        q = run(d, u)
        profiles.add(tuple(accepts_from(d, q, v) for v in suffixes))
    return profiles


def accepts_from(d, state, word):
    q = state
    for a in word:
        q = d.delta[(q, a)]
    return q in d.finals


def image(h, word):
    """Fold a word through a Morphism without calling its helpers."""
    x = h.monoid.identity
    for a in word:
        x = int(h.monoid.mult[x, h.letter_map[a]])
    return x


def power_images(h, max_k):
    """X_k = set of images of words of length exactly k, by enumeration."""
    out = {0: {h.monoid.identity}}
    current = {h.monoid.identity}
    for k in range(1, max_k + 1):
        current = {
            int(h.monoid.mult[x, h.letter_map[a]])
            for x in current
            for a in h.alphabet
        }
        out[k] = set(current)
    return out


def idempotents_brute(mon):
    return [x for x in range(mon.size) if int(mon.mult[x, x]) == x]


def closure_brute(mult, identity, generators):
    """The submonoid generated by `generators`, by a scalar search."""
    closure = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = int(mult[x, g])
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


def me_s_brute(h, s, e):
    """The context-constrained local submonoid at e, straight from the
    definition: images of words whose length is a multiple of s and whose
    i-th letter has a context p a_i q with image e, |p| congruent to i-1
    and |q| congruent to -i mod s.  Context words of length r and r+s
    realize every image a length-residue r word can have (the image sets
    of lengths beyond s repeat), so those two exact lengths suffice.
    Admissibility of a letter depends only on its position residue, so the
    submonoid is the closure of the admissible length-s block images."""
    powers = power_images(h, 2 * s + 1)
    mult = h.monoid.mult

    def residue_images(r):
        small = r % s
        return powers[small] | powers[small + s]

    usable = {}
    for a in h.alphabet:
        for i in range(1, s + 1):
            left = residue_images(i - 1)
            right = residue_images(-i % s)
            ha = h.letter_map[a]
            usable[(a, i)] = any(
                int(mult[int(mult[x, ha]), y]) == e for x in left for y in right
            )

    generators = {
        image(h, w)
        for w in words_of_length(h.alphabet, s)
        if all(usable[(a, i)] for i, a in enumerate(w, start=1))
    }
    return closure_brute(mult, h.monoid.identity, generators)


def syntactic_leq_by_contexts(h):
    """The syntactic order matrix from explicit context enumeration:
    x <= y iff every context (p, q) with p y q accepted also accepts
    p x q.  Uses only the multiplication table and the accepting set."""
    size = h.monoid.size
    mult = np.asarray(h.monoid.mult)
    acc = np.zeros(size, dtype=bool)
    acc[list(h.accepting)] = True

    distinct = {}
    for p in range(size):
        in_acc = acc[mult[mult[p]]]       # [x, q] -> p x q accepted
        packed = np.packbits(in_acc.T, axis=1)
        for q in range(size):
            distinct.setdefault(packed[q].tobytes(), None)

    not_leq = np.zeros((size, size), dtype=bool)
    for key in distinct:
        vec = np.unpackbits(
            np.frombuffer(key, dtype=np.uint8), count=size
        ).astype(bool)
        # a context satisfied by y but not by x rules out x <= y
        not_leq |= np.outer(~vec, vec)
    return ~not_leq


def me_brute(mon):
    """Me for every idempotent e of the monoid, straight from the
    definition: the closure of {a : x a y = e for some x, y}.  The scan
    marks every product x a y, one row of y per (a, x)."""
    mult = np.asarray(mon.mult)
    ideal = np.zeros((mon.size, mon.size), dtype=bool)  # [a, z]: z in MaM
    for a in range(mon.size):
        for x in range(mon.size):
            ideal[a, mult[int(mult[x, a])]] = True
    return {
        e: closure_brute(mult, mon.identity, np.flatnonzero(ideal[:, e]).tolist())
        for e in idempotents_brute(mon)
    }


def local_condition_brute(mon, mode, members):
    """The first (e, x) with e x e not REL e, idempotents in increasing
    order and x through sorted(members(e)); None when there is none.
    REL is =, <= or >= in the order matrix for mode eq, leq or geq."""
    for e in idempotents_brute(mon):
        for x in sorted(members(e)):
            exe = int(mon.mult[int(mon.mult[e, x]), e])
            if mode == "eq":
                ok = exe == e
            elif mode == "leq":
                ok = bool(mon.leq[exe, e])
            else:
                ok = bool(mon.leq[e, exe])
            if not ok:
                return e, x
    return None


def witness_leq_by_labels(h, g, s):
    """The order of the sigma2_mod witness g, recomputed from the label of
    each element's representative word by the scalar label rule: the sink
    (a word whose residues do not chain) lies below everything, the empty
    word only below itself, and chaining words compare by h's order when
    their first and last residues agree."""
    labels = []
    for x in range(g.monoid.size):
        word = g.word_of(x)
        if not word:
            labels.append(("eps",))
            continue
        parsed = [text.rpartition("@") for text in word]
        residues = [int(res) for _, _, res in parsed]
        if any(r2 != r1 % s + 1 for r1, r2 in zip(residues, residues[1:])):
            labels.append(("sink",))
            continue
        base = [next(a for a in h.alphabet if str(a) == b) for b, _, _ in parsed]
        labels.append(("wf", residues[0], residues[-1], image(h, base)))

    def rule(l1, l2):
        if l1 == ("sink",):
            return True
        if l1[0] != "wf" or l2[0] != "wf":
            return l1 == l2
        return l1[1:3] == l2[1:3] and bool(h.monoid.leq[l1[3], l2[3]])

    return np.array([[rule(l1, l2) for l2 in labels] for l1 in labels])
