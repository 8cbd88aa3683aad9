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
  as the automata module ran them before they moved onto integer tables;
- `compile_formula_by_dfas`, the formula compiler as it was before it
  moved onto integer tables: it composes those dictionary operations
  connective by connective, with its own renaming of bound variables and
  no sharing of subformulas;
- `submonoid_view`, which copies a submonoid's table out of its parent
  into a validated `OrderedMonoid` of its own, on which the stable
  checks ran before they read the parent table;
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
  one idempotent per regular J-class;
- `stable_j_preorder`, the stable J preorder as a float product of the
  two stable ideal scatters, which `stability.stable_green_preorder`
  carried as its "Js" relation.
"""

import itertools
from dataclasses import dataclass
from itertools import product

import numpy as np

from fragcheck import fologic as fo
from fragcheck.automata import DEFAULT_STATE_CAP, Nfa, decorate_word, make_dfa, mod1
from fragcheck.errors import CapError, InputError
from fragcheck.monoid import OrderedMonoid
from fragcheck.stability import _product_mask


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


def submonoid_view(m, elements):
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


def admissible_by_stable_scatter(info):
    """The table adm[a, r, x] (x in residues[r] . h(a) . residues[s-1-r])
    by the right-reach recurrence over full |M| x |M| matrices, seeded with
    reach_0[z, x] = x in z . stable by one scatter of the stable columns."""
    h, s = info.morphism, info.index
    mult, size = np.asarray(h.monoid.mult), h.monoid.size
    images = np.array([h.letter_map[a] for a in h.alphabet])
    adm = np.zeros((len(images), s, size), dtype=bool)
    reach = np.zeros((size, size), dtype=bool)
    stable = sorted(info.stable)
    reach[np.arange(size)[:, None], mult[:, stable]] = True
    for j in range(s):
        r = s - 1 - j
        left = np.array(sorted(info.residues[r]))
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
    h, s = info.morphism, info.index
    mult, identity = np.asarray(h.monoid.mult), h.monoid.identity
    if adm is None:
        adm = admissible_by_stable_scatter(info)
    images = np.array([h.letter_map[a] for a in h.alphabet])
    usable = adm[:, :, e]
    cols = [mult[:, images[usable[:, r]]] for r in range(s)]
    reached = np.zeros((s, h.monoid.size), dtype=bool)
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
    sub, ids = submonoid_view(info.morphism.monoid, info.stable)
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


def determinize_by_dicts(nfa, alphabet, cap=DEFAULT_STATE_CAP):
    letters = sorted(alphabet)
    if not letters:
        raise InputError("empty alphabet")
    start = nfa.closure(nfa.starts)
    states = [start]
    seen = {start}
    delta = {}
    for subset in states:
        for a in letters:
            targets = set()
            for q in subset:
                targets |= nfa.trans.get((q, a), set())
            nxt = nfa.closure(targets)
            delta[(subset, a)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                if len(states) > cap:
                    raise CapError(f"state cap exceeded ({cap}) during determinization")
    finals = [s for s in states if s & nfa.finals]
    return minimize_by_dicts(make_dfa(letters, states, start, finals, delta))


def compile_formula_by_dfas(f, alphabet, state_cap=DEFAULT_STATE_CAP):
    """The minimal DFA of a sentence, compiled connective by connective
    through public `Dfa` objects: every intermediate is a product, a
    complement or a determinized projection over marked letters, built with
    the dictionary routes above.  Raises
    CapError where `fologic.compile_formula` does: on the subset count while
    determinizing and on the minimal size after each connective."""
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
        nfa = Nfa()
        index = {q: nfa.new_state() for q in d.states}
        for (q, (a, marks)), t in d.delta.items():
            erased = tuple(v for v in marks if v != var)
            nfa.add(index[q], (a, erased), index[t])
        nfa.starts = {index[d.initial]}
        nfa.finals = {index[q] for q in d.finals}
        return determinize_by_dicts(nfa, self.marked(frame), self.cap)

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


def stable_j_preorder(info):
    """leq[x][y] iff x in S y S for the stable submonoid S: the union of
    the z S over z in S y, one float product of the two ideal scatters."""
    mult = info.monoid.mult
    right = _product_mask(mult, info.stable).astype(np.float32)
    left = _product_mask(mult, info.stable, left=True).astype(np.float32)
    return ((left @ right) > 0.5).T.copy()  # counts stay exact below 2^24 elements
