"""Brute-force reference computations.

Everything in this file recomputes results from first principles (word
enumeration, explicit context search) using only the documented data
fields of the library types, so that a disagreement between a test and
the library always points at real mathematics, not at shared code.

The exceptions are earlier routes of the library, kept as second routes
to the same objects:

- `minimize_by_dicts`, `intersect_by_dicts`, `union_by_dicts`,
  `complement_by_dicts` and `determinize_by_dicts`: Moore refinement, the
  pair product and the subset construction over the `Dfa` dictionaries,
  as the automata module ran them before they moved onto integer tables.
  A `Dfa` is now its table, so these dictionaries are its `delta` view,
  with its `states`, `initial` and `finals` views, and the DFAs they build
  go back through `make_dfa`;
- `compile_formula_by_dfas`, the formula compiler as it was before it
  moved onto integer tables: it composes those dictionary operations
  connective by connective, with its own renaming of bound variables and
  no sharing of subformulas;
- `submonoid_view`, which copies a submonoid's table out of its parent
  into a validated `OrderedMonoid` of its own, on the star tree of
  `table_monoid`, on which the stable checks ran before they read the
  parent table;
- `admissible_by_stable_scatter` and `mes_by_residue_search`: the
  admissibility table seeded by an |M|^2 scatter of the stable columns,
  and the residue-tagged breadth-first search for Mes built on it, as the
  stability layer computed them before Mes was keyed by usable pattern;
- `set_product` and `green_classes` (with `GreenRelations`), the product
  of two sets of elements as a frozenset and Green's R, L, J and H
  preorders and classes by per-element scatters of the table, which the
  monoid module carried before its sets became sorted id arrays;
- `decoration_membership_fails`, the xcheck battery's decoration check
  as a plain enumeration of every word up to length 4, which the battery
  ran before it walked the reachable state triples;
- `j_upset_by_passes` and `local_checks_at_every_idempotent`: the upset
  {a in T : e in T a T} by two passes over the whole table, with an
  `inside` mask for the stable submonoid, and the Me local checks run
  from it at every idempotent, as the library ran them before it visited
  one idempotent per regular J-class.  With the mask it is also the
  stable upset as `monoid.JClasses` placed it before the stability layer
  read the upsets of S off the power steps; and
  `mes_checks_at_every_idempotent`,
  the Mes local checks at every idempotent, as the library ran them
  before it visited one idempotent per regular J-class of the stable
  submonoid;
- `admissible_by_residues` and `mes_by_residues`: the admissibility
  recurrence and the Mes block walk with one step per residue, as the
  stability layer ran them before it worked per distinct residue slot
  and jumped over repeating periods;
- `mes_by_block_closure`: Mes as the images of the usable blocks, walked
  s frontier steps from the identity, closed by the monoid's
  breadth-first closure, as `StabilityInfo.mes_members` built it before
  it closed Mes by walking on from its blocks;
- `stable_green_preorder` (with `_product_mask`), the stable R and L
  preorders over all of M by |M|^2 scatters of the table's stable
  columns or rows, from which `stability.is_stable_trivial` and
  `hierarchy.sim_quotient` read their ideals before they read the
  J-upsets of the monoid and of S; and `stable_j_preorder`, the stable J
  preorder as a float product of the two stable ideal scatters, which
  `stable_green_preorder` carried as its "Js" relation;
- `transition_monoid_by_tuples`, the transition-monoid closure with a
  per-state generator as its product, the letter columns kept per letter
  and the table filled column by column, as `monoid.generated_morphism`
  ran it before its products became one C call and its table was filled
  row by row; it hands its parents and letters to the monoid as its
  tree;
- `quotient_words_by_min`, the words of a quotient's classes as the
  shortest, then lexicographically least, word of a member, as
  `hierarchy.sim_quotient` chose them before a quotient read its tree off
  its source's;
- `syntactic_order_by_class_loop`, the syntactic order by one |M|^2 byte
  gather per distinct right quotient, as `monoid.syntactic_order` built
  it before it ANDed packed rows of bits;
- `minimal_table_by_bytes` and `erase_by_sorted_subsets`: Moore
  refinement keyed by the bytes of whole numpy rows, and the formula
  compiler's erasure by numpy gathers of sorted (state, flag) pairs keyed
  by bytes, as `automata.minimal_table` and `fologic._Compiler._project`
  ran them before tables became Python rows; the erasure makes the same
  collapses at absorbing states as `_project`, found by its own numpy
  test of the rows, and `reachable_pairs_by_fixpoint` counts the product
  states with the same sink as `automata.product_table`;
- `decorate_by_dict_product`, `mod_witness_by_tuple_labels` and
  `vmod_implication_by_pair_loop`: the residue product over the `Dfa`
  dictionaries, minimised; the sigma2_mod witness over tuple labels, one
  `OrderedMonoid.mul` per product; and its implication check with the
  pairs tested in a Python loop, as `automata.decorate`,
  `fragments.build_mod_witness` and `fragments.verify_vmod_implication`
  ran them before they moved onto integer tables and labels.

Two references here were library functions that no command reached:

- `decorate_word`, a word's position-residue decoration at an offset, the
  reference for `automata.decorate` (the language of decorated words);
  `decorate_brute` spells the same letters without `DecoratedLetter`;
- `wreath_product` (with `WreathMonoid`, `pair_le` and
  `DEFAULT_WREATH_CAP`), the full pair monoid of a base and a counter
  modulus, its product and order spelled pair by pair, which checks
  `wreath.pair_product` and `wreath._pair_order`.

Tables written by hand become monoids through `table_monoid`, which
gives each one the star tree: every element other than the identity is a
letter of its own.
"""

import itertools
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from fragcheck import fologic as fo
from fragcheck.automata import (
    DEFAULT_STATE_CAP, DecoratedLetter, decorated_letters, make_dfa, minimal_table, mod1)
from fragcheck.errors import CapError, InputError
from fragcheck.monoid import (
    DEFAULT_MAX_MONOID, Morphism, OrderedMonoid, _closure_members, format_word,
    generated_morphism)


def words(alphabet, max_len):
    """All words over the alphabet up to max_len, shortest first."""
    letters = sorted(alphabet)
    for k in range(max_len + 1):
        yield from product(letters, repeat=k)


def words_of_length(alphabet, k):
    yield from product(sorted(alphabet), repeat=k)


def element_words(m):
    """The word of every element of the monoid m, by id, as `word_of`
    spells them."""
    return tuple(m.word_of(x) for x in m.elements())


def run(d, word):
    q = d.initial
    for a in word:
        q = d.delta[(q, a)]
    return q


def accepts(d, word):
    return run(d, word) in d.finals


def language(d, max_len):
    return {w for w in words(d.alphabet, max_len) if accepts(d, w)}


def decorate_word(word, n, offset=0):
    """Attach to each position its residue: position i (1-based) carries
    the residue of i + offset in the 1..n convention, as `DecoratedLetter`
    spells it."""
    if n < 1:
        raise InputError("modulus must be at least 1")
    return tuple(
        DecoratedLetter(a, mod1(i + offset, n)).text for i, a in enumerate(word, start=1)
    )


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


def is_associative_brute(mult):
    """Whether (x y) z = x (y z) for every triple, by a scalar loop."""
    table = [[int(v) for v in row] for row in np.asarray(mult)]
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


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


def admissible_brute(h, s):
    """{(a, r): images x a y} with x in X_r | X_(r+s) and y in
    X_r' | X_(r'+s), r' = -(r+1) mod s, for every letter a and residue
    0 <= r < s, with the X_k enumerated by `power_images` (X_0 holds only
    the identity)."""
    powers = power_images(h, 2 * s)
    mult = np.asarray(h.monoid.mult)
    out = {}
    for a in h.alphabet:
        for r in range(s):
            left = sorted({int(mult[x, h.letter_map[a]]) for x in powers[r] | powers[r + s]})
            rr = -(r + 1) % s
            right = sorted(powers[rr] | powers[rr + s])
            out[(a, r)] = set(mult[np.ix_(left, right)].ravel().tolist())
    return out


def table_monoid(mult, leq=None):
    """The monoid of the table `mult`, whose identity is id 0, on the star
    tree: every other element x is a letter of its own, named `#x`, with
    the identity as its parent.  Light's test over these letters is the
    whole |M|^3 cube up to 64 elements, and above that the table is
    sampled."""
    m = len(mult)
    tree = ([-1] + [0] * (m - 1), [0] + list(range(m - 1)),
            tuple(f"#{x}" for x in range(1, m)), list(range(1, m)))
    return OrderedMonoid(mult, tree, leq=leq)


def submonoid_view(m, elements):
    """Reindex a multiplication-closed subset containing the identity as a
    monoid in its own right (`table_monoid`), with the parent's order
    restricted to it.  Returns (submonoid, parent ids by new id)."""
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
    return table_monoid(table, leq=leq), tuple(elems)


def residue_set(info, r):
    """residues[r] of the stability info: the image of the words whose
    length is congruent to r mod s, its per-morphism slot."""
    return info.powers.slots[info.powers.slot(r)]


def admissible_by_stable_scatter(info):
    """The table adm[a, r, x] (x in residues[r] . h(a) . residues[s-1-r])
    by the right-reach recurrence over full |M| x |M| matrices, seeded with
    reach_0[z, x] = x in z . stable by one scatter of the stable columns."""
    s, images = info.index, info.powers.images
    mult, size = np.asarray(info.monoid.mult), info.monoid.size
    adm = np.zeros((len(images), s, size), dtype=bool)
    reach = np.zeros((size, size), dtype=bool)
    stable = sorted(info.stable)
    reach[np.arange(size)[:, None], mult[:, stable]] = True
    for j in range(s):
        r = s - 1 - j
        left = np.array(sorted(residue_set(info, r)))
        for i, b in enumerate(images):
            hit = np.zeros(size, dtype=bool)  # residues[r] . h(a)
            hit[mult[left, b]] = True
            adm[i, r] = reach[hit].any(axis=0)
        if j + 1 < s:
            step = np.zeros_like(reach)
            for b in np.unique(images):
                step |= reach[mult[:, b]]
            reach = step
    return adm


def mes_by_residue_search(info, e, adm=None):
    """Mes at the idempotent e by a residue-tagged breadth-first search:
    every level sits at one residue r and pushes its frontier through the
    letters usable at r (adm[a, r, e], from `admissible_by_stable_scatter`
    unless given), and reached[r] marks what residue r has seen."""
    s, images = info.index, info.powers.images
    mult, identity = np.asarray(info.monoid.mult), info.monoid.identity
    if adm is None:
        adm = admissible_by_stable_scatter(info)
    usable = adm[:, :, e]
    cols = [mult[:, images[usable[:, r]]] for r in range(s)]
    reached = np.zeros((s, info.monoid.size), dtype=bool)
    reached[0, identity] = True
    frontier, r = np.array([identity]), 0
    while frontier.size:
        hit = np.zeros_like(reached[0])
        hit[cols[r][frontier]] = True
        r = (r + 1) % s
        hit &= ~reached[r]
        reached[r] |= hit
        frontier = np.flatnonzero(hit)
    return set(np.flatnonzero(reached[0]).tolist())


def admissible_by_residues(info, cols):
    """The table adm[a, r, i] (cols[i] in residues[r] . h(a) .
    residues[s-1-r]) by the right-reach recurrence run once per residue:
    s right steps from the seed {z} to z . X_s, then one step and one
    gathered column per residue r, with no sharing of repeated residue
    sets or pairs."""
    s = info.index
    mult, size = info.monoid.mult, info.monoid.size
    images = info.powers.images
    steps = np.unique(images)

    def right_step(reach):  # z . X_(k+1) from z . X_k
        out = reach[mult[:, steps[0]]]
        for b in steps[1:]:
            out |= reach[mult[:, b]]
        return out

    cols = np.asarray(cols)
    seed = np.arange(size)[:, None] == cols
    reach = seed
    for _ in range(s):
        reach = right_step(reach)
    reach |= seed
    adm = np.empty((images.size, s, cols.size), dtype=bool)
    for j in range(s):
        r = s - 1 - j
        adm[:, r] = reach[mult[residue_set(info, r), images[:, None]]].any(axis=1)
        if j + 1 < s:
            reach = right_step(reach)
    return adm


def mes_by_residues(info, e, adm=None):
    """Mes at the idempotent e by the block walk with one frontier step per
    residue: s steps from the identity, step r through the letters usable
    at r (adm[a, r, e], from `admissible_by_residues` unless given), then
    the closure of the block images."""
    mon = info.monoid
    if adm is None:
        adm = admissible_by_residues(info, np.arange(mon.size))
    usable = adm[:, :, e]
    blocks = np.zeros(mon.size, dtype=bool)
    blocks[mon.identity] = True
    for r in range(info.index):
        ends = np.flatnonzero(blocks)
        blocks = np.zeros(mon.size, dtype=bool)
        blocks[mon.mult[ends[:, None], info.powers.images[usable[:, r]]]] = True
    return closure_brute(mon.mult, mon.identity, np.flatnonzero(blocks).tolist())


def mes_by_block_closure(info, e):
    """Mes at the idempotent e as the breadth-first closure of its block
    images: s frontier steps from the identity, step r through the letters
    usable at r (`info.usable`).  It reads the table directly, so it adds
    nothing to the monoid's store of generated submonoids."""
    mon = info.monoid
    usable = info.usable(e)
    blocks = np.zeros(mon.size, dtype=bool)
    blocks[mon.identity] = True
    for r in range(info.index):
        ends = np.flatnonzero(blocks)
        blocks = np.zeros(mon.size, dtype=bool)
        blocks[mon.mult[ends[:, None], info.powers.images[usable[:, r]]]] = True
    return set(_closure_members(mon.mult, np.flatnonzero(blocks)).tolist())


def syntactic_order_by_class_loop(h):
    """The syntactic order matrix by one |M|^2 byte gather per distinct
    right quotient of the accepting set, as `monoid.syntactic_order` built
    it before it worked on packed bits: x <= y iff the quotient of p y is
    included in that of p x for one representative p per quotient.  Raises
    the same InputError when two elements share every context.  Leaves h
    unchanged."""
    size = h.monoid.size
    mult = h.monoid.mult
    acc = np.zeros(size, dtype=bool)
    acc[list(h.accepting)] = True

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
            f"{format_word(h.word_of(x))} and {format_word(h.word_of(y))} "
            "share all contexts (not a syntactic morphism)"
        )
    return leq


def quotient_words_by_min(q):
    """The word of each class of the congruence quotient q (a
    `hierarchy.CongruenceQuotient`): the shortest, then lexicographically
    least, of its members' words in the source."""
    word = q.source.word_of
    return [min((word(x) for x in members), key=lambda w: (len(w), w)) for members in q.classes]


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


def stable_me_brute(info):
    """Me of the stable submonoid S at each of its idempotents, in parent
    ids: S copied into a monoid of its own by `submonoid_view`, and Me
    taken there from the definition by `me_brute`."""
    sub, ids = submonoid_view(info.monoid, info.stable)
    return {ids[e]: {ids[x] for x in xs} for e, xs in me_brute(sub).items()}


def local_condition_brute(mon, mode, members, idempotents=None):
    """The first (e, x) with e x e not REL e, e through `idempotents` (every
    idempotent in increasing order when None) and x through
    sorted(members(e)); None when there is none.  REL is =, <= or >= in
    the order matrix for mode eq, leq or geq."""
    for e in idempotents_brute(mon) if idempotents is None else idempotents:
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


def minimize_by_dicts(d):
    """Minimal complete DFA with canonically named, BFS-ordered states, by
    Moore refinement over the reachable part of `d.delta`."""
    letters = sorted(d.alphabet)
    reachable = [d.initial]
    seen = {d.initial}
    for q in reachable:
        for a in letters:
            t = d.delta[(q, a)]
            if t not in seen:
                seen.add(t)
                reachable.append(t)

    # Moore partition refinement over the reachable part.
    block = {q: (q in d.finals) for q in reachable}
    while True:
        sig = {
            q: (block[q], tuple(block[d.delta[(q, a)]] for a in letters))
            for q in reachable
        }
        ids = {}
        new_block = {}
        for q in reachable:
            new_block[q] = ids.setdefault(sig[q], len(ids))
        if len(ids) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    # Canonical rename by BFS over the quotient.
    order = []
    names = {}

    def visit(b):
        if b not in names:
            names[b] = f"q{len(order)}"
            order.append(b)

    rep = {}
    for q in reachable:
        rep.setdefault(block[q], q)
    visit(block[d.initial])
    for b in order:
        for a in letters:
            visit(block[d.delta[(rep[b], a)]])

    delta = {
        (names[b], a): names[block[d.delta[(rep[b], a)]]] for b in order for a in letters
    }
    finals = frozenset(names[b] for b in order if rep[b] in d.finals)
    return make_dfa(letters, [names[b] for b in order], names[order[0]], finals, delta)


def complement_by_dicts(d):
    return minimize_by_dicts(
        make_dfa(d.alphabet, d.states, d.initial, set(d.states) - d.finals, d.delta))


def _pair_product_by_dicts(d1, d2, accept):
    """The minimal product automaton over the reachable state pairs; a pair
    is final when accept(q1 final, q2 final) holds."""
    if set(d1.alphabet) != set(d2.alphabet):
        raise InputError(
            f"alphabet mismatch: {sorted(d1.alphabet)!r} vs {sorted(d2.alphabet)!r}"
        )
    letters = sorted(d1.alphabet)
    start = (d1.initial, d2.initial)
    states = [start]
    seen = {start}
    delta = {}
    for pair in states:
        q1, q2 = pair
        for a in letters:
            nxt = (d1.delta[(q1, a)], d2.delta[(q2, a)])
            delta[(pair, a)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
    finals = [(q1, q2) for q1, q2 in states if accept(q1 in d1.finals, q2 in d2.finals)]
    return minimize_by_dicts(make_dfa(letters, states, start, finals, delta))


def intersect_by_dicts(d1, d2):
    return _pair_product_by_dicts(d1, d2, lambda x, y: x and y)


def union_by_dicts(d1, d2):
    return _pair_product_by_dicts(d1, d2, lambda x, y: x or y)


def reachable_pairs_by_fixpoint(t1, t2, accept):
    """The states of the product of two integer tables reachable from
    (0, 0), where every pair with a component that is absorbing at the
    flag accept(False, True) counts as the one state "sink": add the
    successors of every other state on every column until the set stops
    growing.  A state is absorbing when its row holds only itself."""
    zero = accept(False, True)
    rows1, rows2 = t1[0], t2[0]
    sunk1 = {p for p, row in enumerate(rows1) if t1[1][p] == zero and set(row) == {p}}
    sunk2 = {q for q, row in enumerate(rows2) if t2[1][q] == zero and set(row) == {q}}

    def state(pair):
        return "sink" if pair[0] in sunk1 or pair[1] in sunk2 else pair

    reached = {state((0, 0))}
    while True:
        grown = reached | {state(pair) for s in reached if s != "sink"
                           for pair in zip(rows1[s[0]], rows2[s[1]])}
        if grown == reached:
            return reached
        reached = grown


def minimal_table_by_bytes(t):
    """Moore refinement of a table on a numpy copy: each round keys every
    state by the bytes of its row (block, blocks of its successors) and
    numbers the keys by first occurrence; the quotient comes back as lists."""
    delta, finals = np.array(t[0], np.int64), np.array(t[1], bool)
    n = len(finals)
    block = finals.astype(np.int64)
    count = int(finals.any()) + int(not finals.all())
    while count < n:
        rows = np.column_stack((block, block[delta]))
        width, buf = rows.shape[1] * rows.itemsize, rows.tobytes()
        ids = {}
        block = np.fromiter(
            (ids.setdefault(buf[q * width:(q + 1) * width], len(ids)) for q in range(n)),
            np.int64, n,
        )
        if len(ids) == count:
            _, reps = np.unique(block, return_index=True)
            return block[delta[reps]].tolist(), finals[reps].tolist()
        count = len(ids)
    return delta.tolist(), finals.tolist()


def erase_by_sorted_subsets(t, depth, letter_count, cap=DEFAULT_STATE_CAP):
    """The formula compiler's erasure of the innermost of `depth` + 1
    frame variables, keeping the runs that mark it exactly once, on a numpy
    copy of the body table: one subset step is two gathers of
    (state, flag) pairs sorted per column, and a subset is keyed by the
    bytes of its sorted members.  Pairs at an absorbing rejecting state
    are dropped from every subset, and a subset holding a flagged pair at
    an absorbing accepting state is replaced by the subset holding only
    the flagged pair of the least such state.  The table comes back as
    lists."""
    delta, finals = np.array(t[0], np.int64), np.array(t[1], bool)
    n = len(finals)
    cols = np.arange(letter_count << depth)
    top = 1 << depth
    lo = (cols >> depth << (depth + 1)) | (cols & (top - 1))
    absorbing = (delta == np.arange(n)[:, None]).all(axis=1)
    dropped = 2 * n                 # sorts after every pair
    gone = np.append(np.repeat(absorbing & ~finals, 2), True)      # by pair, then dropped
    full = np.append(np.repeat(absorbing & finals, 2) & np.tile([False, True], n), False)
    sink = np.flatnonzero(full)[:1].astype(np.int64).tobytes()
    unmarked = np.repeat(2 * delta[:, lo], 2, axis=0)
    unmarked[1::2] += 1             # the flag stays set
    marked = np.repeat(2 * delta[:, lo | top] + 1, 2, axis=0)
    marked[1::2] = dropped          # a second mark drops the run
    unmarked[gone[unmarked]] = dropped
    marked[gone[marked]] = dropped
    accepts = np.repeat(finals, 2)
    accepts[::2] = False
    keys = [np.zeros(0 if gone[0] else 1, np.int64).tobytes()]
    ids = {keys[0]: 0}
    rows, accepting = [], []
    for key in keys:
        members = np.frombuffer(key, np.int64)
        step = np.concatenate((unmarked[members], marked[members]))
        step.sort(axis=0)
        step[1:][step[1:] == step[:-1]] = dropped
        step.sort(axis=0)
        height = step.shape[0] * step.itemsize
        buf = step.T.tobytes()      # column c starts at c * height
        sunk = full[step].any(0).tolist()
        row = []
        for c, size in enumerate((step < dropped).sum(0).tolist()):
            nxt = sink if sunk[c] else buf[c * height:c * height + size * step.itemsize]
            j = ids.setdefault(nxt, len(keys))
            if j == len(keys):
                keys.append(nxt)
                if len(keys) > cap:
                    raise CapError(f"state cap exceeded ({cap}) during determinization")
            row.append(j)
        rows.append(row)
        accepting.append(bool(accepts[members].any()))
    return rows, accepting


def determinize_by_dicts(moves, starts, finals, alphabet, cap=DEFAULT_STATE_CAP):
    """The minimal DFA of a nondeterministic automaton, by the subset
    construction over frozensets: `moves` maps (state, letter) to the set
    of the states it leads to."""
    letters = sorted(alphabet)
    if not letters:
        raise InputError("empty alphabet")
    start = frozenset(starts)
    states = [start]
    seen = {start}
    delta = {}
    for subset in states:
        for a in letters:
            targets = set()
            for q in subset:
                targets |= moves.get((q, a), set())
            nxt = frozenset(targets)
            delta[(subset, a)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                if len(states) > cap:
                    raise CapError(f"state cap exceeded ({cap}) during determinization")
    accepting = [s for s in states if s & finals]
    return minimize_by_dicts(make_dfa(letters, states, start, accepting, delta))


def compile_formula_by_dfas(f, alphabet, state_cap=DEFAULT_STATE_CAP):
    """The minimal DFA of a sentence, compiled connective by connective
    through public `Dfa` objects: every intermediate is a product, a
    complement or a determinized projection over marked letters, built with
    the dictionary routes above.

    It keeps the exactly-once validity automaton at every node on purpose:
    each intermediate accepts exactly the validly marked models, which
    `fologic.compile_formula` only guarantees on validly marked words (it
    checks the rule only inside each erasure, for the erased variable), so
    the two constructions differ and meet only in the final DFA.  Both
    raise CapError on the same kinds of events, the subset count while
    determinizing and the size of an intermediate automaton, though not
    always on the same intermediates: here a subset is a set of states of
    the validity product, there a set of (state, flag) pairs."""
    letters = sorted(set(alphabet))
    if not letters:
        raise InputError("empty alphabet")
    fv = fo.free_vars(f)
    if fv:
        raise InputError(f"formula has free variables: {', '.join(sorted(fv))}")
    for a in fo.formula_letters(f):
        if a not in letters:
            raise InputError(f"formula letter {a!r} not in the alphabet")
    compiler = _DfaCompiler(letters, state_cap)
    d = compiler.compile(_rename_apart_by_counter(f), ())
    plain = {(a, ()): a for a in letters}
    delta = {(q, plain[m]): t for (q, m), t in d.delta.items()}
    return minimize_by_dicts(make_dfa(letters, d.states, d.initial, d.finals, delta))


def _rename_apart_by_counter(f):
    """Give every binder a distinct variable name, numbered in the order
    the walk meets them, so scopes never collide.  This is the oracle's own
    renaming, kept apart from the depth naming and sharing of
    `fologic._rename_apart`."""
    counter = itertools.count()

    def walk(g, env):
        if isinstance(g, (fo.TrueF, fo.FalseF, fo.Len)):
            return g
        if isinstance(g, fo.Lab):
            return fo.Lab(env[g.var], g.letter)
        if isinstance(g, fo.Mod):
            return fo.Mod(env[g.var], g.modulus, g.residue)
        if isinstance(g, fo.Eq):
            return fo.Eq(env[g.left], env[g.right])
        if isinstance(g, fo.Lt):
            return fo.Lt(env[g.left], env[g.right])
        if isinstance(g, fo.And):
            return fo.And(walk(g.left, env), walk(g.right, env))
        if isinstance(g, fo.Or):
            return fo.Or(walk(g.left, env), walk(g.right, env))
        if isinstance(g, fo.Not):
            return fo.Not(walk(g.sub, env))
        if isinstance(g, (fo.Exists, fo.Forall)):
            fresh = f"v{next(counter)}"
            body = walk(g.body, {**env, g.var: fresh})
            return type(g)(fresh, body)
        raise InputError(f"not a formula: {g!r}")

    return walk(f, {})


class _DfaCompiler:
    """Compiles subformulas over letters marked with the variables of the
    enclosing quantifier scopes.  A marked letter is the pair
    (base letter, sorted tuple of variables marked at that position)."""

    def __init__(self, letters, cap):
        self.letters = letters
        self.cap = cap
        self._validity = {}
        self._marked = {}

    def marked(self, frame):
        if frame not in self._marked:
            vs = sorted(frame)
            self._marked[frame] = [
                (a, marks)
                for a in self.letters
                for k in range(len(vs) + 1)
                for marks in itertools.combinations(vs, k)
            ]
        return self._marked[frame]

    def validity(self, frame):
        """Accepts the markings placing each frame variable exactly once."""
        if frame not in self._validity:
            full = frozenset(frame)
            subsets = [
                frozenset(c)
                for k in range(len(frame) + 1)
                for c in itertools.combinations(sorted(frame), k)
            ]
            dead = "dead"
            delta = {}
            for s in subsets:
                for a, marks in self.marked(frame):
                    m = frozenset(marks)
                    delta[(s, (a, marks))] = dead if m & s else s | m
            for a in self.marked(frame):
                delta[(dead, a)] = dead
            self._validity[frame] = make_dfa(
                self.marked(frame), subsets + [dead], frozenset(), [full], delta
            )
        return self._validity[frame]

    def _const(self, frame, accept):
        m = self.marked(frame)
        return make_dfa(m, ["s"], "s", ["s"] if accept else [], {("s", a): "s" for a in m})

    def _guard(self, d):
        if len(d.states) > self.cap:
            raise CapError(f"state cap exceeded ({self.cap}) while compiling")
        return d

    def compile(self, f, frame):
        if isinstance(f, fo.TrueF):
            return self.validity(frame) if frame else self._const(frame, True)
        if isinstance(f, fo.FalseF):
            return self._const(frame, False)
        if isinstance(f, (fo.Lab, fo.Eq, fo.Lt, fo.Mod, fo.Len)):
            return self._guard(intersect_by_dicts(self._atomic(f, frame), self.validity(frame)))
        if isinstance(f, fo.And):
            return self._guard(
                intersect_by_dicts(self.compile(f.left, frame), self.compile(f.right, frame))
            )
        if isinstance(f, fo.Or):
            return self._guard(
                union_by_dicts(self.compile(f.left, frame), self.compile(f.right, frame))
            )
        if isinstance(f, fo.Not):
            inner = self.compile(f.sub, frame)
            flipped = make_dfa(
                inner.alphabet,
                inner.states,
                inner.initial,
                set(inner.states) - inner.finals,
                inner.delta,
            )
            if not frame:
                return self._guard(minimize_by_dicts(flipped))
            return self._guard(intersect_by_dicts(flipped, self.validity(frame)))
        if isinstance(f, fo.Exists):
            inner = self.compile(f.body, frame + (f.var,))
            return self._guard(self._project(inner, f.var, frame))
        if isinstance(f, fo.Forall):
            return self.compile(fo.Not(fo.Exists(f.var, fo.Not(f.body))), frame)
        raise InputError(f"not a formula: {f!r}")

    def _project(self, d, var, frame):
        moves = {}
        for (q, (a, marks)), t in d.delta.items():
            erased = tuple(v for v in marks if v != var)
            moves.setdefault((q, (a, erased)), set()).add(t)
        return determinize_by_dicts(moves, {d.initial}, d.finals, self.marked(frame), self.cap)

    def _atomic(self, f, frame):
        m = self.marked(frame)
        if isinstance(f, fo.Lab):

            def step(state, a, marks):
                if state != "w":
                    return state
                if f.var in marks:
                    return "o" if a == f.letter else "d"
                return "w"

            return self._chain(m, step, finals=["o"])
        if isinstance(f, fo.Eq):
            if f.left == f.right:
                return self._const(frame, True)

            def step(state, a, marks):
                if state != "w":
                    return state
                both = f.left in marks and f.right in marks
                one = (f.left in marks) != (f.right in marks)
                return "o" if both else ("d" if one else "w")

            return self._chain(m, step, finals=["o"])
        if isinstance(f, fo.Lt):
            if f.left == f.right:
                return self._const(frame, False)

            def step(state, a, marks):
                if state in ("o", "d"):
                    return state
                has_l = f.left in marks
                has_r = f.right in marks
                if state == "w":
                    if has_l and has_r:
                        return "d"
                    if has_r:
                        return "d"
                    return "l" if has_l else "w"
                # state == "l": left already seen
                return "o" if has_r else "l"

            return self._chain(m, step, finals=["o"], extra=["l"])
        if isinstance(f, fo.Mod):
            n, i = f.modulus, f.residue
            states = list(range(n)) + ["o", "d"]
            delta = {}
            for r in range(n):
                for a, marks in m:
                    if f.var in marks:
                        delta[(r, (a, marks))] = "o" if mod1(r + 1, n) == i else "d"
                    else:
                        delta[(r, (a, marks))] = (r + 1) % n
            for s in ("o", "d"):
                for x in m:
                    delta[(s, x)] = s
            return make_dfa(m, states, 0, ["o"], delta)
        if isinstance(f, fo.Len):
            n, i = f.modulus, f.residue
            delta = {(r, x): (r + 1) % n for r in range(n) for x in m}
            return make_dfa(m, list(range(n)), 0, [i % n], delta)
        raise InputError(f"not an atomic formula: {f!r}")

    def _chain(self, m, step, finals, extra=None):
        states = ["w", "o", "d"] + (extra or [])
        delta = {(s, (a, marks)): step(s, a, marks) for s in states for a, marks in m}
        return make_dfa(m, states, "w", finals, delta)


def set_product(m, xs, ys):
    """The set {x y : x in xs, y in ys}, as a frozenset."""
    xs, ys = list(xs), list(ys)
    if not xs or not ys:
        return frozenset()
    hit = np.zeros(m.size, dtype=bool)
    hit[m.mult[np.ix_(xs, ys)]] = True
    return frozenset(np.flatnonzero(hit).tolist())


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


def _classes_of(leq):
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


def green_classes(m):
    """Green's relations of the monoid: the ideals yM and My by one scatter
    of a table row or column per element, MyM as the union of the zM over
    z in My, in O(|M|^3)."""
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


def j_class_representatives(m):
    """The least idempotent of each regular J-class of `green_classes(m)`,
    in increasing order."""
    return sorted(next(x for x in c if m.is_idempotent(x))
                  for c in green_classes(m).j_classes if any(m.is_idempotent(x) for x in c))


def decoration_membership_fails(minimal, decorate):
    """Whether the xcheck battery flags `decoration-membership` on the
    minimal DFA, with `decorate(minimal, n)` as the decorated language: for
    n in 2 and 3, every word w up to length 4 is enumerated, and its
    decoration must be accepted iff w is, and its decoration at offset 1
    never."""
    for n in (2, 3):
        decorated = decorate(minimal, n)
        ok = True
        for length in range(0, 5):
            for w in itertools.product(minimal.alphabet, repeat=length):
                if decorated.accepts(decorate_word(w, n)) != minimal.accepts(w):
                    ok = False
                if length and n > 1 and decorated.accepts(decorate_word(w, n, offset=1)):
                    ok = False
        if not ok:
            return True
    return False


def j_upset_by_passes(mult, e, inside=None):
    """The mask of {a in T : e in T a T} for the submonoid T marked by
    `inside` (all of M when None): the z in T with e in z T, then every a
    in T with some x a among them, x in T.  Two O(|M|^2) boolean passes."""
    hit = mult == e
    if inside is None:
        return hit.any(axis=1)[mult].any(axis=0)
    left = (hit & inside).any(axis=1) & inside
    return (left[mult] & inside[:, None]).any(axis=0) & inside


def local_checks_at_every_idempotent(h, info):
    """The first offender (e, x), or None, of fo2_lt, sigma2_lt, pi2_lt and
    fo2_mod_qda, visiting every idempotent (every stable one for
    fo2_mod_qda) in increasing order, each Me closed by `closure_brute`
    from its own `j_upset_by_passes`.  h must carry its order."""
    mon = h.monoid
    inside = np.zeros(mon.size, dtype=bool)
    inside[info.stable] = True

    def me_by_passes(mask):
        def members(e):
            gens = np.flatnonzero(j_upset_by_passes(mon.mult, e, mask))
            return closure_brute(mon.mult, mon.identity, gens)
        return members

    stable = [e for e in idempotents_brute(mon) if inside[e]]
    return {
        "fo2_lt": local_condition_brute(mon, "eq", me_by_passes(None)),
        "sigma2_lt": local_condition_brute(mon, "leq", me_by_passes(None)),
        "pi2_lt": local_condition_brute(mon, "geq", me_by_passes(None)),
        "fo2_mod_qda": local_condition_brute(mon, "eq", me_by_passes(inside), stable),
    }


def mes_checks_at_every_idempotent(h, info):
    """The first offender (e, x), or None, of fo2_mod_new, sigma2_mod and
    pi2_mod, visiting every idempotent in increasing order, over the Mes
    arrays of `info`.  h must carry its order."""
    mon = h.monoid
    return {
        fid: local_condition_brute(mon, mode, info.mes_members)
        for fid, mode in (("fo2_mod_new", "eq"), ("sigma2_mod", "leq"), ("pi2_mod", "geq"))
    }


_SCATTER_IDS = 1 << 16  # products gathered per scatter (512 KiB of int64 ids)


def _product_mask(mult, elems, left=False):
    """mask[z, x] iff x in z E, or x in E z when `left`, for the ids E.
    One scatter per block of rows, sized so that the gathered products
    stay small next to the table."""
    size = mult.shape[0]
    elems = np.asarray(elems)
    mask = np.zeros((size, size), dtype=bool)
    block = max(1, _SCATTER_IDS // max(1, elems.size))
    for lo in range(0, size, block):
        rows = np.arange(lo, min(lo + block, size))
        prods = mult[np.ix_(elems, rows)].T if left else mult[np.ix_(rows, elems)]
        mask[rows[:, None], prods] = True
    return mask


def stable_green_preorder(info, relation):
    """leq[x][y] iff x is below-or-equal y in the stable Green preorder:
    x in yS (Rs) or x in Sy (Ls), for every x and y of M.

    The ideal mask has[y, x] (x in the ideal of y) is a scatter of the
    table's stable columns (yS) or rows (Sy)."""
    if relation not in ("Rs", "Ls"):
        raise InputError(f"unknown stable relation {relation!r}")
    has = _product_mask(info.monoid.mult, info.stable, left=relation == "Ls")
    return has.T.copy()


def stable_j_preorder(info):
    """leq[x][y] iff x in S y S for the stable submonoid S: the union of
    the z S over z in S y, one float product of the two ideal scatters."""
    mult = info.monoid.mult
    right = _product_mask(mult, info.stable).astype(np.float32)
    left = _product_mask(mult, info.stable, left=True).astype(np.float32)
    return ((left @ right) > 0.5).T.copy()  # counts stay exact below 2^24 elements


def transition_monoid_by_tuples(d, max_monoid=DEFAULT_MAX_MONOID):
    """The syntactic morphism of L(d) by the breadth-first closure over
    tuple actions: each product a per-state generator, each element's
    parent and letter kept as its tree, the letter columns R_a[x] = x . a
    kept per letter and the table filled by the column recurrence
    mult[x][y a] = R_a[mult[x][y]]."""
    letters = d.alphabet
    rows, final_mask = minimal_table((d.rows, d.accepting))
    letter_labels = {a: tuple(col) for a, col in zip(letters, zip(*rows))}
    identity = tuple(range(len(final_mask)))
    labels, index, parent = [identity], {identity: 0}, [None]
    gen_cols = {a: [] for a in letters}
    frontier = 0
    while frontier < len(labels):
        x = frontier
        frontier += 1
        for a in letters:
            lab = tuple(letter_labels[a][s] for s in labels[x])
            y = index.get(lab)
            if y is None:
                y = index[lab] = len(labels)
                labels.append(lab)
                parent.append((x, a))
                if len(labels) > max_monoid:
                    raise CapError(f"monoid size cap exceeded ({max_monoid})")
            gen_cols[a].append(y)
    m = len(labels)
    gen_cols = {a: np.array(col, dtype=np.int64) for a, col in gen_cols.items()}
    mult = np.empty((m, m), dtype=np.int64)
    mult[:, 0] = np.arange(m)
    for y in range(1, m):
        py, a = parent[y]
        mult[:, y] = gen_cols[a][mult[:, py]]
    letter_map = {a: index[letter_labels[a]] for a in letters}
    tree = ([-1] + [x for x, _ in parent[1:]], [0] + [letters.index(a) for _, a in parent[1:]],
            letters, [letter_map[a] for a in letters])
    return Morphism(
        monoid=OrderedMonoid(mult, tree),
        alphabet=tuple(letters),
        letter_map=letter_map,
        accepting=frozenset(x for x in range(m) if final_mask[labels[x][0]]),
    )


def decorate_by_dict_product(d, n):
    """The decorated language of L(d), as `automata.decorate` built it
    before it built the residue product as a table: the product over the
    states (q, r) of d and a sink as a `Dfa` dictionary, then minimised by
    `minimize_by_dicts`."""
    sink = "sink"
    states = [(q, r) for q in d.states for r in range(n)] + [sink]
    delta = {}
    letters = decorated_letters(d.alphabet, n)
    parsed = [DecoratedLetter.parse(x) for x in letters]
    for q in d.states:
        for r in range(n):
            for text, dl in zip(letters, parsed):
                if dl.residue == mod1(r + 1, n):
                    delta[((q, r), text)] = (d.delta[(q, dl.base)], (r + 1) % n)
                else:
                    delta[((q, r), text)] = sink
    for text in letters:
        delta[(sink, text)] = sink
    finals = [(q, r) for q in d.states for r in range(n) if q in d.finals]
    return minimize_by_dicts(make_dfa(letters, states, (d.initial, 0), finals, delta))


def mod_witness_by_tuple_labels(m, info):
    """The sigma2_mod witness of `fragments.build_mod_witness`, as it was
    built before its labels became ints: a class is ("eps",), ("sink",)
    or ("wf", i, j, x), each product is one `OrderedMonoid.mul`, and the
    order compares the kinds as numpy string arrays."""
    mon, s = m.monoid, info.index
    eps, sink = ("eps",), ("sink",)
    letter_labels = {DecoratedLetter(str(a), i).text: ("wf", i, i, m.letter_map[a])
                     for a in m.alphabet for i in range(1, s + 1)}

    def mult_label(l1, l2):
        if l1 == eps:
            return l2
        if l2 == eps:
            return l1
        if l1 == sink or l2 == sink:
            return sink
        _, i1, j1, x1 = l1
        _, i2, j2, x2 = l2
        if i2 != mod1(j1 + 1, s):
            return sink
        return ("wf", i1, j2, mon.mul(x1, x2))

    def label_order(labels):
        kind = np.array([lab[0] for lab in labels])
        is_eps, wf = kind == "eps", kind == "wf"
        start, end, base = np.array(
            [lab[1:] if lab[0] == "wf" else (0, 0, 0) for lab in labels], dtype=np.int64
        ).reshape(len(labels), 3).T
        return (
            (kind == "sink")[:, None]
            | (is_eps[:, None] & is_eps)
            | (wf[:, None] & wf
               & (start[:, None] == start) & (end[:, None] == end)
               & mon.leq[base[:, None], base])
        )

    return generated_morphism(letter_labels, lambda l1: partial(mult_label, l1), eps,
                              cap=s * s * mon.size + 3, label_order=label_order)


def vmod_implication_by_pair_loop(m, g, n, max_len):
    """`fragments.verify_vmod_implication` as it ran before it stepped
    through list columns and tested the pairs in blocks: the triples by
    `OrderedMonoid.mul`, then every pair in a Python loop, the first
    failure in row-major order."""
    letters = sorted(m.alphabet)
    start = (g.monoid.identity, m.monoid.identity, 0)
    triples = [start]
    found = {start: ()}
    frontier = [start]
    for _ in range(max_len):
        if not frontier:
            break
        nxt_frontier = []
        for gx, hx, r in frontier:
            w = found[(gx, hx, r)]
            for a in letters:
                dl = DecoratedLetter(str(a), mod1(r + 1, n)).text
                triple = (g.monoid.mul(gx, g.letter_map[dl]),
                          m.monoid.mul(hx, m.letter_map[a]), (r + 1) % n)
                if triple not in found:
                    found[triple] = w + (a,)
                    triples.append(triple)
                    nxt_frontier.append(triple)
        frontier = nxt_frontier
    for g1, h1, r1 in triples:
        for g2, h2, r2 in triples:
            if r1 == r2 and g.monoid.leq[g1, g2] and not m.monoid.leq[h1, h2]:
                return False, (found[(g1, h1, r1)], found[(g2, h2, r2)])
    return True, None


DEFAULT_WREATH_CAP = 4096


def pair_le(base, n, p1, p2):
    """(f1, k1) <= (f2, k2): equal counters, and f1(k) <= f2(k) in the base
    for every k (equality when the base is unordered)."""
    (f1, k1), (f2, k2) = p1, p2
    if k1 != k2:
        return False
    if base.leq is None:
        return f1 == f2
    return all(bool(base.leq[f1[k], f2[k]]) for k in range(n))


@dataclass(frozen=True, eq=False)
class WreathMonoid:
    """The full pair monoid over a base and a counter modulus."""

    base: OrderedMonoid
    modulus: int
    monoid: OrderedMonoid
    pairs: tuple  # element id -> (f, k)


def wreath_product(base, n, cap=DEFAULT_WREATH_CAP):
    """Every pair (f, k), f an n-tuple of base elements and k < n, with the
    product (f1, k1)(f2, k2) = (k -> f1(k) f2(k + k1), k1 + k2) spelled
    pair by pair and the order by `pair_le`."""
    if n < 1:
        raise InputError("modulus must be at least 1")
    total = base.size**n * n
    if total > cap:
        raise CapError(f"wreath product would have {total} elements (cap {cap})")
    pairs = [(f, k) for f in product(range(base.size), repeat=n) for k in range(n)]
    index = {p: i for i, p in enumerate(pairs)}

    def times(p1, p2):
        (f1, k1), (f2, k2) = p1, p2
        return tuple(base.mul(f1[k], f2[(k + k1) % n]) for k in range(n)), (k1 + k2) % n

    mult = [[index[times(p1, p2)] for p2 in pairs] for p1 in pairs]
    leq = None
    if base.leq is not None:
        leq = [[pair_le(base, n, p1, p2) for p2 in pairs] for p1 in pairs]
    # pairs[0], the identities at every slot with the counter at 0, is the
    # identity: the base's identity is id 0
    monoid = table_monoid(mult, leq=leq)
    return WreathMonoid(base=base, modulus=n, monoid=monoid, pairs=tuple(pairs))
