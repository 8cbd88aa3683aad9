"""Stability data of a morphism: the smallest s with h(A^s) = h(A^2s),
the stable submonoid, residue-constrained context sets, and the
context-constrained local submonoids used by the modular fragment checks.

Every set here is a sorted read-only int64 id array, the form the monoid's
store of generated submonoids uses.  Only `admissible_images` and `me_s`
hand out frozensets.  The monoid's table holds narrow ids above 128
elements (`monoid.id_dtype`); the stack of right letter columns below,
its rows and the letter rows of the left steps are intp copies, made
once per morphism, as every step and walk indexes by them.

What a stability index shares with its multiples is built once per
morphism, by `_PowerImages`: the power images X_k, each step one `take`
of the ids X_k along the stacked right columns of the letter images X_1
and one `put` into a fresh mask, stored up to their first repeat (found
by the bytes of the ids), which fixes their preperiod J and period p; the
residue slots; the stable submonoid S = h(A^s) plus the identity, checked
closed under the table once (`_check_closed`, below); the power steps
below; and S's regular J-classes.  The residue set residues[r], the image
of the words of length congruent to r mod s, is the slot of slot(r) = r
below J and J + (r - J) mod p from J on: slot 0 is S, slot v < J is X_v
| X_(v+s) (by one mask) and slot v >= J is X_v.  Every stability index s
is a multiple of p and at least J, so these are the same arrays at every
multiple of the least index.  A `StabilityInfo` holds only what s
changes: the pair index, the admissibility tables and the Mes walks.
Both live in the morphism's memo (`Morphism._memo`), beside the verdicts.

A letter a is admissible at residue r for an element x when x lies in
residues[r] . h(a) . residues[s-1-r].  The local checks only ask
admissibility of idempotents, so one boolean table adm[a, k, i] (|A| x
pairs x |E|) per `StabilityInfo` answers it for every letter, idempotent
E[i] and distinct slot pair k = (slot(r), slot(s-1-r)); a pair index of s
entries maps each residue to its pair.  Away from the ends (J <= r < s -
J) the pair of r is that of J + (r - J) mod p, so there are at most 2J + p
pairs, and exactly s at the least index, where no pair repeats.

The table is built from the right-reach columns reach_j[z, i] (E[i] in
z . residues[j]), which a step only gathers along z.  With X_0 = {1} and
X_(k+1) the union over the letters b of h(b) . X_k, the power steps z .
X_k follow from the seed z . X_0 = {z} by

    (z . X_(k+1))[i] = OR_b (z . h(b) . X_k)[i],

one right step each, over the distinct letter images b, for k up to J +
p - 1: the least index lies in [J, J + p), and every slot below J needs
one power of that window.  Their columns are packed 64 to a uint64 word
and laid out [word, element], so a step gathers whole words along each
image's right column mult[:, b], a row of one contiguous stack of the
distinct images' columns, built once.  Each slot's
reach reach_v is then one step, or below J the OR of two, X_v |
X_(slot(v+s)), taken in place once every step is built.  None of this
depends on s, as slot(v + s) is the same at every multiple of the least
index, so the slot reaches are built once per morphism, at the
idempotent columns, and shared, read-only, by every multiplier and the
J-classes of S.  Then

    adm[b, (u, v)] = OR_{x in residues[u]} reach_v[x . b],

one gather of packed words per pair, for every distinct letter image b
at once, unpacked once into the boolean table, which each letter reads at
its image.  That is O((J + p + pairs) |A| |M| |E| / 64) word work and J +
p packed steps of |M| |E| / 8 bytes.  `admissible_images` runs the same
recurrence over every column, with steps of its own, and gathers each
slot in blocks of members, so that no gather holds much more than
`monoid._GATHER_IDS` words.

The regular J-classes of S come from the same steps, by a lemma: for an
idempotent e != 1 and any a in S, e lies in S a S iff it lies in X_s a
X_s.  Indeed e = e^s lies in X_s, and if e = u a v with u, v in S, then e
= (e u) a (v e), where e u and v e lie in X_s, as X_s . S = S . X_s = X_s.
When 1 lies in X_s the same holds for e = 1; otherwise 1 = u a v in S
forces u = a = v = 1, as a product with a factor in X_s lies in X_s, so
the class and the upset of 1 are {1}.  So, when S is short of M, the
upset in S of every idempotent is read off one table: the reach z . X_s
at z = a (slot(s) right steps from the seed, at or above J), then
slot(s) left steps along the rows mult[b] of the letter images,

    (X_(k+1) . a . X_s)[i] = OR_b (X_k . (b . a) . X_s)[i],

which end at X_slot(s) . a . X_s = X_s a X_s, unpacked once, ANDed with
S's mask, and the identity set in the upset of 1.  `monoid.JClasses`
reads S's classes off this table as it reads M's: the idempotents with
equal rows form a class, so S needs no downsets.

The local submonoid Mes of an idempotent e depends only on its pattern of
usable letters adm[:, :, e]: it is the submonoid generated by the images
B of the usable blocks of exactly s letters, once per pattern.  The
blocks come from a walk of s frontier steps whose step r depends only on
the pair of r: one `take` of the frontier along the rows of the stack
that hold the letters usable at r, and one `put`.  In the middle that
repeats with p, so the walk samples its frontier every p steps there,
and once a sample repeats it jumps over every whole cycle left in the
middle: past that repeat its length no longer depends on s.  B is walked
once, from the identity.  Mes, the union of the powers B^k, is then the
submonoid B generates, closed over the table like every generated
submonoid (`OrderedMonoid.generated`) and kept in the monoid's store
under the mask of B, which the analyses at other multipliers, and Me,
share.  Where the pattern is full, every letter usable at every residue,
nothing is walked, as Mes = S: every word of s letters is then a usable
block, so B = h(A^s) = X_s, and as X_s X_s = X_2s = X_s, the submonoid B
generates is {1} | X_s = S.  The Me of a stable submonoid S short of M
closes the upset in S of its J-class, from the J-classes of S above,
which every multiplier shares; the upset lies in S, which is checked
closed, so the closure is bounded by |S| and stops within the block of
products that fills S.  `is_stable_trivial` reads stable R- and
L-classes off the same upsets.

The closure check reads every cell of S x S once, in blocks of rows.
When S holds more than half of an M of more than 64 elements, the blocks
are whole rows of the table, looked up in S's mask in place, with the
rows and columns outside S ORed in as passing: no row is copied or cut.
Otherwise only S's rows are taken and cut to S's columns, which reads
|S|^2 cells, not |M|^2, in fewer numpy calls.

Often S is M itself: every element is then the image of a word of length
a multiple of s, or 1.  Then S's structures are M's, and none of them is
built again.  S . S lies in M by the range check on every entry that the
`OrderedMonoid` constructor makes, so the closure check is skipped
without losing strength; S's J-classes are M's (`monoid.JClasses`), so
no upset table of S is built and no left steps are taken; and the stable
Me is M's Me.  The verdicts over S then equal those over M, from the
same sweeps over the same ids with the same witnesses: fo_mod is fo_lt,
and fo2_mod_qda is fo2_lt (see `fragments.LanguageAnalysis`).

The checks over Mes (`fragments`) visit one idempotent per regular
J-class of S, its least (`StabilityInfo.stable_j_classes`), which decides
e Mes e = e, <= e and >= e for every idempotent:

- Every idempotent of M lies in S: e = h(w) gives e = e^s = h(w^s).
- Take e and f in one regular J-class of S, with a, a' in S as in the
  `monoid.JClasses` docstring (a a' = e, a' a = f, a a' a = a, a' a a' =
  a').  If e = x h(b) y with x in residues[r] and y in residues[s-1-r],
  then f = a' e a = (a' x) h(b) (y a), where a' x lies in residues[r] and
  y a in residues[s-1-r], as S = residues[0]; and back.  So e and f have
  one usable pattern, and therefore one Mes array.
- For x in Mes(f), a x a' lies in Mes(e).  Take words alpha for a and
  alpha' for a' with |alpha| and |alpha'| multiples of s, and a word v of
  x made of usable blocks.  Every letter of alpha and of alpha' sits
  inside alpha alpha', whose image is e, at the residue it has in alpha v
  alpha'; so every letter of alpha v alpha' is usable for e.
- Then f x f = a' e (a x a') e a, so e x e = e (or <= e, or >= e, the
  order being compatible with the product) over Mes(e) carries over to
  f, and back.  The least failing idempotent is therefore the least
  idempotent of the first failing class, and its least x is taken from
  the same sorted array, so the witnesses are those of a visit to every
  idempotent.

`stability_info` keeps the per-morphism entry and one `StabilityInfo` per
multiplier in a memo on the morphism.  Both hold the monoid, and neither
holds the morphism, so the memo forms no reference cycle and goes with the
morphism.

A multiplied index is capped: s = T * (least index) with T above
FREE_MULTIPLIER and s |M| above MAX_INDEX_CELLS raises CapError before the
pair index exists, which is all that still grows with s.  The least index
itself is never refused, and T up to FREE_MULTIPLIER costs at most that
many times its analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, cycle, islice

import numpy as np

from .errors import CapError, ConsistencyError, InputError
from .monoid import (
    _GATHER_IDS, JClasses, Morphism, OrderedMonoid, _all,
    _packed_seed, _step, _unpackbits, _unpacked,
)

_ITERATION_CAP = 100_000

# Largest s |M| for a multiplied stability index s on |M| elements: the
# pair index grows with s.
MAX_INDEX_CELLS = 2_000_000
# Multipliers up to this one are never capped: they cost at most that many
# times the least index, which is never capped either.
FREE_MULTIPLIER = 3


class _PowerImages:
    """What every stability index of a morphism shares, built once: the
    monoid, the letter images (in `alphabet` order), the `stack` of the
    right columns of the distinct ones and its rows `right`, the
    `idempotents`, the power images X_k = image of the words of length
    exactly k, stored as seq[k] up to their first repetition, their
    `preperiod` J and `period` p, the residue `slots`, the stable
    submonoid (`stable`, its `mask` over the monoid, whether it is the
    `whole` monoid, and its `j_classes`) and the slot reaches `steps`.
    It is the memo entry "powers" of the morphism, whose verdicts that
    read S are keyed (fragment, 0, None) beside it, as they read neither s
    nor an order (`fragments.LanguageAnalysis`).  Building it checks that a
    stable set short of the monoid is closed under the table and raises
    ConsistencyError otherwise."""

    def __init__(self, m: Morphism):
        mon = self.monoid = m.monoid
        self.alphabet = m.alphabet
        self.images = np.array([m.letter_map[a] for a in m.alphabet], dtype=np.int64)
        mult = mon.mult
        x1 = np.array(sorted(set(self.images.tolist())), dtype=np.int64)
        # the letters' distinct images X_1, in increasing order, each
        # letter's place among them, the stack of their right columns
        # mult[:, b], one contiguous intp row each, as the steps and walks
        # index by them, and its rows
        self.letter_index = x1.searchsorted(self.images)
        stack = self.stack = mult.take(x1, axis=1).T.astype(np.intp, order="C")
        self.right = list(stack)
        self._letter_rows = {}  # usable mask bytes -> rows of the stack
        seq, seen = [np.array([mon.identity]), x1], {x1.tobytes(): 1}
        while True:
            k = len(seq)
            hit = np.zeros(mon.size, dtype=bool)
            hit.put(stack.take(seq[-1], axis=1), True)
            nxt = hit.nonzero()[0]
            key = nxt.tobytes()
            if key in seen:
                self.preperiod, self.period = seen[key], k - seen[key]
                break
            if k > _ITERATION_CAP:
                raise CapError("power-image iteration cap exceeded")
            seen[key] = k
            seq.append(nxt)
        for x in seq:
            x.flags.writeable = False
        self.seq = seq  # seq[k] = X_k, k < J + p
        slots = []
        for v in range(self.preperiod):  # X_v | X_(v+s), by one mask
            mask = np.zeros(mon.size, dtype=bool)
            mask[self.at(v)] = mask[self.at(v + self.smallest_index)] = True
            ids = mask.nonzero()[0]
            ids.flags.writeable = mask.flags.writeable = False
            slots.append(ids)
            if v == 0:
                self.stable, self.mask = ids, mask
        self.slots = tuple(slots + seq[self.preperiod:])
        # S = M: S . S lies in M by the constructor's range check on the table
        self.whole = self.stable.size == mon.size
        if not self.whole:
            _check_closed(mult, self.stable, self.mask)
        # the idempotents, increasing, and each one's column in `steps`
        idempotents = mon.idempotents()
        self.idempotents = np.array(idempotents, dtype=np.int64)
        self.column = {f: i for i, f in enumerate(idempotents)}

    def letter_rows(self, usable: np.ndarray) -> np.ndarray:
        """The rows of `stack` at the distinct letter images marked in
        `usable`, copied once per distinct mask."""
        key = usable.tobytes()
        got = self._letter_rows.get(key)
        if got is None:
            got = self._letter_rows[key] = self.stack.compress(usable, axis=0)
        return got

    def slot(self, k: int) -> int:
        """The slot of k: k below the preperiod J, J + (k - J) mod p from
        there; X_k is seq[slot(k)] and residues[k] is slots[slot(k)]."""
        j = self.preperiod
        return k if k < j else j + (k - j) % self.period

    def at(self, k: int) -> np.ndarray:
        return self.seq[self.slot(k)]

    @cached_property
    def steps(self) -> list:
        """The slot reaches at the idempotent columns (`steps_at`), built
        once and shared by every multiplier and by `j_classes`."""
        return self.steps_at(self.idempotents)

    def steps_at(self, cols: np.ndarray) -> list:
        """The slot reaches reach[v][w, z], v < J + p: bit i of word w is set
        iff cols[64 w + i] lies in z . slots[v].  The seed z . X_0 = {z}
        takes one right step per power, along the `right` columns, to z .
        X_k; then each slot v below J ORs in its X_slot(v+s), in place,
        before the arrays are handed out.  They are read-only, as they are
        shared."""
        right = self.right
        reach = [_packed_seed(cols, self.monoid.size)]  # z . X_0 = {z}
        for _ in range(self.preperiod + self.period - 1):
            reach.append(_step(right, reach[-1]))
        for v in range(self.preperiod):  # z . (X_v | X_(v+s))
            reach[v] |= reach[self.slot(v + self.smallest_index)]
        for step in reach:
            step.flags.writeable = False
        return reach

    @cached_property
    def j_classes(self) -> JClasses:
        """The regular J-classes of S, read like M's (`monoid.JClasses`)
        off one table of the upsets in S of every idempotent
        (`_upset_table`); when S = M, M's own."""
        if self.whole:
            return self.monoid.j_classes()
        return JClasses(self.idempotents, self._upset_table())

    def _upset_table(self) -> np.ndarray:
        """Row i is {a in S : E[i] in S a S}, from the steps (see the module
        docstring)."""
        mon, ids = self.monoid, self.idempotents
        n = self.slot(self.smallest_index)
        reach = self.steps[n]  # E[i] in a . X_s
        rows = list(mon.mult.take(self.seq[1], axis=0).astype(np.intp, copy=False))
        for _ in range(n):  # X_(k+1) . a . X_s from X_k . a . X_s
            reach = _step(rows, reach)
        bits = _unpacked(reach, ids.size)
        table = np.logical_and(bits.T, self.mask, out=np.empty(bits.shape[::-1], bool))
        table[ids.searchsorted(mon.identity), mon.identity] = True  # 1 in S 1 S
        table.flags.writeable = False
        return table

    @property
    def smallest_index(self) -> int:
        j, p = self.preperiod, self.period
        return p * -(-j // p)  # least multiple of the period that is >= j


@dataclass(eq=False)
class StabilityInfo:
    """What a choice of stability index s adds to the per-morphism entry
    `powers`.  The residue set residues[r], the image of all words whose
    length is congruent to r mod s (the empty word contributing only to
    residue 0), is exactly h(A^r) united with h(A^(r+s)), the array
    powers.slots[powers.slot(r)]; residues[0] is `stable`.

    It reads the morphism's `monoid` and `stable` submonoid, and the
    letter images, through `powers`.
    """

    powers: _PowerImages
    index: int
    _pairs: tuple | None = field(init=False, default=None)  # see `_residue_pairs`
    _adm: np.ndarray | None = field(init=False, default=None)  # [image, pair, i] at idempotent i
    _adm_all: np.ndarray | None = field(init=False, default=None)  # [image, pair, x] at every x
    _mes_by_pattern: dict = field(init=False, default_factory=dict)  # usable pattern -> Mes

    @property
    def monoid(self) -> OrderedMonoid:
        return self.powers.monoid

    @property
    def stable(self) -> np.ndarray:
        return self.powers.stable

    def _residue_pairs(self) -> tuple:
        """(by_right, pair) for the distinct slot pairs (slot(r),
        slot(s-1-r)): by_right[v] lists (k, u) for the k-th pair (u, v),
        and pair[r] is the k of r.  A middle r (J <= r < s - J) has the
        pair of J + (r - J) mod p, so only the ends and one period of the
        middle are looked at."""
        if self._pairs is None:
            s, slot = self.index, self.powers.slot
            j, p = self.powers.preperiod, self.powers.period
            middle = max(0, s - 2 * j)
            loop = j + min(p, middle)  # the ends and one period: [0, loop) and [j + middle, s)
            index, ks = {}, []
            by_right = [[] for _ in range(min(s, j + p))]
            for r in chain(range(loop), range(j + middle, s)):
                u, v = slot(r), slot(s - 1 - r)
                k = index.get((u, v))
                if k is None:
                    k = index[(u, v)] = len(index)
                    by_right[v].append((k, u))
                ks.append(k)
            pair = tuple(chain(ks[:j], islice(cycle(ks[j:loop]), middle), ks[loop:]))
            self._pairs = (by_right, pair)
        return self._pairs

    def _admissible_at(self, steps: list, count: int) -> np.ndarray:
        """The table adm[d, k, i]: column i of the slot reaches `steps` (of
        `count` columns, see `_PowerImages.steps_at`) lies in residues[r] .
        b . residues[s-1-r], for the d-th distinct letter image b and the r
        of the k-th distinct slot pair, by one gather of packed words per
        pair for every image at once, [word, image, x] at the products x b
        of the slot's members x, OR-reduced over x and unpacked once.  A
        slot goes in blocks of members, so that a gather holds about
        `_GATHER_IDS` words."""
        by_right, _ = self._residue_pairs()
        powers = self.powers
        stack = powers.stack  # [image, x] = x b
        words = steps[0].shape[0]
        packed = np.empty((stack.shape[0], sum(map(len, by_right)), words), dtype=np.uint64)
        block = max(1, _GATHER_IDS // max(1, words * stack.shape[0]))
        for v, group in enumerate(by_right):
            here = steps[v]
            for k, u in group:
                ids = powers.slots[u]  # never empty: the alphabet is not
                for lo in range(0, ids.size, block):
                    part = np.bitwise_or.reduce(  # [word, image]
                        here.take(stack.take(ids[lo:lo + block], axis=1), axis=1), axis=2)
                    out = part if lo == 0 else out | part
                packed[:, k] = out.T
        adm = _unpackbits(packed.astype("<u8", copy=False).view(np.uint8), axis=2,
                          count=count, bitorder="little").view(bool)
        adm.flags.writeable = False
        return adm

    def _usable_by_pair(self, e: int) -> np.ndarray:
        """u[d, k]: the d-th distinct letter image is usable at the residues
        of the k-th slot pair for the idempotent e.  The table behind it
        covers every idempotent and is built on first use, from the shared
        slot reaches."""
        powers = self.powers
        if self._adm is None:
            self._adm = self._admissible_at(powers.steps, powers.idempotents.size)
        return self._adm[:, :, powers.column[e]]

    def admissible_images(self, letter, r: int) -> frozenset[int]:
        """All values x . h(letter) . y with x in residues[r] and y in
        residues[-(r+1) mod s]: the possible images of a full context
        around an occurrence of the letter at position residue r+1.
        One row of the admissibility table over every element, built once
        per object by the recurrence of the module docstring, in
        O(n |A| |M|^2) boolean work for n residue slots."""
        powers = self.powers
        if self._adm_all is None:
            every = np.arange(self.monoid.size)
            self._adm_all = self._admissible_at(powers.steps_at(every), every.size)
        d = powers.letter_index[powers.alphabet.index(letter)]
        row = self._adm_all[d, self._residue_pairs()[1][r]]
        return frozenset(row.nonzero()[0].tolist())

    def mes_members(self, e: int) -> np.ndarray:
        """The sorted members of Mes for the idempotent e (see `me_s`),
        built once per usable-letter pattern and kept for the life of
        this object (read-only).

        The images B of the usable blocks come from one frontier walk from
        the identity, step r through the letters usable at residue r
        (`_walk`).  Mes is the submonoid B generates, closed over the
        table in the monoid's store under the mask of B
        (`OrderedMonoid.generated`), so a block set met again, at another
        multiplier or as a letter set of Me, is closed once.  Where every
        letter is usable at every residue, Mes is the stable submonoid S
        (see the module docstring), and nothing is walked.
        """
        usable = self._usable_by_pair(e)
        key = usable.tobytes()
        got = self._mes_by_pattern.get(key)
        if got is None:
            if _all(usable):
                got = self.stable
            else:
                got = self.monoid.generated(
                    self._walk([self.powers.letter_rows(u) for u in usable.T]))
            self._mes_by_pattern[key] = got
        return got

    def _walk(self, letters: list) -> np.ndarray:
        """The mask of the images B of the blocks of s letters whose letter
        at residue r lies in letters[pair of r], walked from the identity.
        Step r depends only on the slot pair of r, and in the middle (J <=
        r < s - J) that repeats with the period p, so the walk samples its
        frontier every p steps there and jumps ahead over whole cycles
        once a sample repeats."""
        pair = self._residue_pairs()[1]
        s, p = self.index, self.powers.period
        lo, hi = self.powers.preperiod, s - self.powers.preperiod  # the middle
        blocks = np.zeros(self.monoid.size, dtype=bool)
        blocks[self.monoid.identity] = True
        seen = {}  # sampled frontier -> its r
        r = 0
        while r < s:
            if seen is not None and lo <= r <= hi - p and (r - lo) % p == 0:
                at = seen.setdefault(blocks.tobytes(), r)
                if at < r:  # the steps from r on repeat those from `at`
                    r += (hi - r) // (r - at) * (r - at)
                    seen = None
            blocks = _block_step(letters[pair[r]], blocks)
            r += 1
        return blocks

    @property
    def stable_j_classes(self) -> JClasses:
        """The regular J-classes of the stable submonoid S, in S's own
        J-order, from the per-morphism entry: every multiplier shares
        them."""
        return self.powers.j_classes

    def stable_me_members(self, e: int) -> np.ndarray:
        """The sorted members of Me taken inside the stable submonoid S, for
        an idempotent e of S: the closure of its J-class's upset {a in S :
        e in S a S} in the monoid's store (read-only).  The upset lies in S,
        which is closed, so the closure is bounded by |S|
        (`OrderedMonoid.generated`).  When S = M, it is M's Me
        (`me_members`)."""
        mon = self.monoid
        if self.powers.whole:
            return mon.me_members(e)
        return mon.generated(self.stable_j_classes.upset(e), limit=self.stable.size)


def _block_step(right: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The mask of x . b over the x marked in `blocks` and the letter
    images b whose right columns are the rows of `right`."""
    out = np.zeros(blocks.size, dtype=bool)
    out.put(right.take(blocks.nonzero()[0], axis=1), True)
    return out


def _check_closed(mult: np.ndarray, ids: np.ndarray, inside: np.ndarray):
    """Raise ConsistencyError unless the set `ids`, marked in `inside`, is
    closed under the table.  Every cell of ids x ids is read once, in
    blocks of rows of about `_GATHER_IDS` products.  When the set holds
    most rows of a table of more than 64, the blocks are whole rows of the
    table, read in place and looked up in `inside`, with the rows and
    columns outside the set ORed in as passing; otherwise only the set's
    rows are taken, cut to its columns and looked up, which takes fewer
    numpy calls on a small table and reads fewer cells for a sparse set."""
    m = mult.shape[0]
    if m > 64 and 2 * ids.size > m:
        outside = ~inside
        block = max(1, _GATHER_IDS // m)
        for lo in range(0, m, block):
            hit = inside.take(mult[lo:lo + block])
            hit |= outside
            hit |= outside[lo:lo + block, None]
            if not _all(hit):
                raise ConsistencyError("the stable set is not closed under multiplication")
    else:
        block = max(1, _GATHER_IDS // ids.size)
        for lo in range(0, ids.size, block):
            if not _all(inside.take(mult.take(ids[lo:lo + block], 0).take(ids, 1))):
                raise ConsistencyError("the stable set is not closed under multiplication")


def _power_images(m: Morphism) -> _PowerImages:
    """The per-morphism entry of m, built on first use and kept in its
    memo."""
    got = m._memo.get("powers")
    if got is None:
        got = m._memo["powers"] = _PowerImages(m)
    return got


def stability_info(m: Morphism, multiplier: int = 1) -> StabilityInfo:
    """Stability data for s = multiplier * (smallest index).

    Any multiple of the smallest index is again a stability index; the
    fragment checks must be invariant under the choice.  Its residue sets
    are the per-morphism slots: the slots below the preperiod, then one
    period of power images, which the residues past it repeat as the same
    arrays.  A multiplier above FREE_MULTIPLIER that gives s |M| above
    MAX_INDEX_CELLS raises CapError, on every call.

    The result is memoised on the morphism, one object per multiplier, so
    repeated calls return the same object with its tables built once; the
    memo lives and dies with the morphism.  A new morphism, even of the
    same language, starts with an empty memo.
    """
    if multiplier < 1:
        raise InputError("index multiplier must be at least 1")
    info = m._memo.get(multiplier)
    if info is not None:
        return info
    powers = _power_images(m)
    s = powers.smallest_index * multiplier
    if multiplier > FREE_MULTIPLIER and s * m.monoid.size > MAX_INDEX_CELLS:
        raise CapError(
            f"stability index {s} (multiplier {multiplier}) on {m.monoid.size} "
            f"elements exceeds the index cap (s * |M| at most {MAX_INDEX_CELLS} "
            f"for a multiplier above {FREE_MULTIPLIER})"
        )
    info = m._memo[multiplier] = StabilityInfo(powers=powers, index=s)
    return info


def is_stable_trivial(
    info: StabilityInfo, relation: str
) -> tuple[bool, tuple[int, int] | None]:
    """Whether every class of the stable relation is a singleton: x and y
    of M are Rs-related when x = y t' and y = x t for some t, t' in the
    stable submonoid S (Ls: x = t' y, y = t x).  Returns (False, (e, y))
    otherwise, for the least idempotent e of the first regular J-class of
    S (`stable_j_classes`) whose R-class in S, the members of e S in the
    upset of e, has another member, and the least such y (Ls: S e).

    One idempotent per regular J-class of S is enough.  If x = y t' and
    y = x t are distinct, f = (t t')^w is an idempotent of S with x = x f;
    f t lies in f S and f = (f t) t' (t t')^(w-1), so f t is R-related to
    f inside S, and f t != f, since otherwise y = x f t = x f = x.
    Conversely, two R-related elements of S are related in M.  All
    R-classes of one regular D-class have the same size, and J = D in
    the finite S, so the class of f is non-trivial exactly when the
    R-class of its least idempotent is.  Ls is the mirror image.
    """
    if relation not in ("Rs", "Ls"):
        raise InputError(f"unknown stable relation {relation!r}")
    mult, stable, classes = info.monoid.mult, info.stable, info.stable_j_classes
    for e in classes.representatives():
        ideal = mult[e, stable] if relation == "Rs" else mult[stable, e]
        others = ideal[classes.upset(e)[ideal] & (ideal != e)]
        if others.size:
            return False, (e, int(others.min()))
    return True, None


def me_s(m: Morphism, info: StabilityInfo, e: int) -> frozenset[int]:
    """The context-constrained local submonoid at the idempotent e.

    Its members are the images of words a_1 ... a_k with k a multiple of s
    such that every letter a_i admits a context p_i a_i q_i mapping to e
    with |p_i| congruent to i-1 and |q_i| congruent to -i mod s.  A letter
    extending a partial word of length residue r is usable iff e lies in
    residues[r] . h(a) . residues[-(r+1) mod s]; the submonoid is
    generated by the images of the words of exactly s letters that meet
    that constraint.  It is built once per usable-letter pattern by
    `StabilityInfo.mes_members`, which walks those blocks once and closes
    their images over the table, and kept on `info` and, under the mask of
    the block images, in the monoid's store.
    """
    if info.powers is not m._memo.get("powers"):
        raise InputError("stability data belongs to a different morphism")
    if not m.monoid.is_idempotent(e):
        raise InputError(f"element {e} is not idempotent")
    return frozenset(info.mes_members(e).tolist())
