"""Stability data of a morphism: the smallest s with h(A^s) = h(A^2s),
the stable submonoid, residue-constrained context sets, and the
context-constrained local submonoids used by the modular fragment checks.

Every set here is a sorted read-only int64 id array, the form the monoid's
store of generated submonoids uses: the power images X_k (each step one
boolean scatter X_k . X_1 through the table, repeats found by the bytes of
the ids), the stable submonoid h(A^s) plus the identity, the residue sets,
Me, Mes and the Me of the stable submonoid.  Only `admissible_images` and
`me_s` hand out frozensets.

A letter a is admissible at residue r for an element x when x lies in
residues[r] . h(a) . residues[s-1-r].  The local checks only ask this of
idempotents, so one boolean table adm[a, r, i] (|A| x s x |E|) per
`StabilityInfo` answers it for every letter, residue and idempotent
E[i].  It is built from the right-reach columns reach_j[z, i] (E[i] in
z . residues[j]), which only ever permute rows.  With X_0 = {1} and
X_(k+1) the union over the letters b of h(b) . X_k, the seed z . X_0 = {z}
takes s right steps to z . X_s, and reach_0 is their union, as
residues[0] = X_0 | X_s.  Since residues[j] = X_j | X_(j+s), residues[j+1]
is the union of h(b) . residues[j] for j+1 < s, so

    reach_{j+1}[z] = OR_b reach_j[z . h(b)],
    adm[a, s-1-j]  = OR_{x in residues[s-1-j]} reach_j[x . h(a)],

the second for every letter in one gather.  That is O(s |A| |M| |E|)
boolean work and O(|M| |E|) extra memory.  `admissible_images` runs the
same recurrence over every column.

The local submonoid Mes of an idempotent e depends only on its pattern of
usable letters adm[:, :, e]: it is the submonoid generated by the images
of the usable blocks of exactly s letters, closed once per pattern in
the monoid's store of generated submonoids.  The Me of the stable
submonoid S closes the upset in S of its J-class, from the monoid's
`JClasses` of S, which every multiplier shares.

`stability_info` keeps one `StabilityInfo` per (morphism, multiplier) in
a memo on the morphism, beside the power images that all multipliers
share.  An info holds its morphism only weakly, so the memo forms no
reference cycle and goes with the morphism.

A multiplied index is capped: s = T * (least index) with T above
FREE_MULTIPLIER and s |M| above MAX_INDEX_CELLS raises CapError before any
per-residue set or table exists.  The least index itself is never refused,
and T up to FREE_MULTIPLIER costs at most that many times its analysis.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import CapError, ConsistencyError, InputError
from .monoid import _GATHER_IDS, JClasses, Morphism, OrderedMonoid

_ITERATION_CAP = 100_000

# Largest s |M| for a multiplied stability index s on |M| elements: the
# residue sets, the admissibility table and its recurrence all grow with it.
MAX_INDEX_CELLS = 2_000_000
# Multipliers up to this one are never capped: they cost at most that many
# times the least index, which is never capped either.
FREE_MULTIPLIER = 3


class _PowerImages:
    """The sequence X_k = image of words of length exactly k, k >= 1, as
    sorted read-only id arrays, stored up to its first repetition.  Each
    step is one boolean scatter of X_k . X_1 through the table."""

    def __init__(self, m: Morphism):
        mult = m.monoid.mult
        x1 = np.unique(np.array(list(m.letter_map.values()), dtype=np.int64))
        x1.flags.writeable = False
        seen = {x1.tobytes(): 1}
        seq = [x1]
        k = 1
        while True:
            k += 1
            hit = np.zeros(m.monoid.size, dtype=bool)
            hit[mult[seq[-1][:, None], x1]] = True
            nxt = np.flatnonzero(hit)
            key = nxt.tobytes()
            if key in seen:
                self.preperiod = seen[key]
                self.period = k - seen[key]
                break
            seen[key] = k
            nxt.flags.writeable = False
            seq.append(nxt)
            if k > _ITERATION_CAP:
                raise CapError("power-image iteration cap exceeded")
        self.seq = seq  # seq[i] = X_{i+1}

    def at(self, k: int) -> np.ndarray:
        if k < 1:
            raise InputError("power index must be at least 1")
        if k <= len(self.seq):
            return self.seq[k - 1]
        j, p = self.preperiod, self.period
        return self.seq[j - 1 + (k - j) % p]

    @property
    def smallest_index(self) -> int:
        j, p = self.preperiod, self.period
        return p * -(-j // p)  # least multiple of the period that is >= j


@dataclass(eq=False)
class StabilityInfo:
    """Everything derived from a choice of stability index s.

    `stable` holds the ids of the stable submonoid and residues[r] the
    image of all words whose length is congruent to r mod s (with the empty
    word contributing only to residue 0), which is exactly h(A^r) united
    with h(A^(r+s)); each is a sorted read-only id array, and residues[0]
    is `stable`.  Building the object checks that `stable` is closed under
    the table, in blocks of rows, and raises ConsistencyError otherwise.

    It reads the morphism's `monoid` and letter `images` (in `alphabet`
    order); `morphism` is held weakly, and is None once it is gone.
    """

    monoid: OrderedMonoid
    alphabet: tuple
    images: np.ndarray
    index: int
    smallest_index: int
    stable: np.ndarray
    residues: tuple
    _owner: weakref.ref = field(repr=False)
    _stable_mask: np.ndarray = field(init=False)  # [x]: x lies in `stable`
    _adm: np.ndarray | None = field(init=False, default=None)  # [letter, r, i] at idempotent i
    _column: dict = field(init=False, default_factory=dict)  # idempotent -> its i in _adm
    _adm_all: np.ndarray | None = field(init=False, default=None)  # [letter, r, x] at every x
    _mes: dict = field(init=False, default_factory=dict)  # idempotent -> members of Mes
    _mes_by_pattern: dict = field(init=False, default_factory=dict)  # usable pattern -> same
    _stable_j: JClasses | None = field(init=False, default=None)

    def __post_init__(self):
        mult = self.monoid.mult
        ids = self.stable
        inside = np.zeros(mult.shape[0], dtype=bool)
        inside[ids] = True
        block = max(1, _GATHER_IDS // max(1, ids.size))
        for lo in range(0, ids.size, block):
            if not inside[mult[ids[lo:lo + block, None], ids]].all():
                raise ConsistencyError("the stable set is not closed under multiplication")
        inside.flags.writeable = False
        self._stable_mask = inside

    @property
    def morphism(self) -> Morphism | None:
        return self._owner()

    def _admissible_at(self, cols: np.ndarray) -> np.ndarray:
        """The table adm[a, r, i]: cols[i] in residues[r] . h(a) .
        residues[s-1-r], letters in alphabet order, by the right-reach
        recurrence of the module docstring on the columns `cols`."""
        s = self.index
        mult, size = self.monoid.mult, self.monoid.size
        images = self.images
        steps = np.unique(images)

        def right_step(reach):  # z . X_(k+1) from z . X_k
            out = reach[mult[:, steps[0]]]
            for b in steps[1:]:
                out |= reach[mult[:, b]]
            return out

        seed = np.arange(size)[:, None] == cols  # z . X_0 = {z}
        reach = seed
        for _ in range(s):
            reach = right_step(reach)
        reach |= seed  # z . residues[0]
        adm = np.empty((images.size, s, cols.size), dtype=bool)
        for j in range(s):
            r = s - 1 - j
            adm[:, r] = reach[mult[self.residues[r], images[:, None]]].any(axis=1)
            if j + 1 < s:
                reach = right_step(reach)
        adm.flags.writeable = False
        return adm

    def usable(self, e: int) -> np.ndarray:
        """The usable-letter pattern of the idempotent e: u[a, r] iff e lies
        in residues[r] . h(a) . residues[s-1-r], letters in alphabet order
        (read-only).  The table behind it covers every idempotent and is
        built on first use."""
        if self._adm is None:
            idempotents = self.monoid.idempotents()
            self._adm = self._admissible_at(np.array(idempotents, dtype=np.int64))
            self._column = {f: i for i, f in enumerate(idempotents)}
        return self._adm[:, :, self._column[e]]

    def admissible_images(self, letter, r: int) -> frozenset[int]:
        """All values x . h(letter) . y with x in residues[r] and y in
        residues[-(r+1) mod s]: the possible images of a full context
        around an occurrence of the letter at position residue r+1.
        One row of the admissibility table over every element, built once
        per object by the recurrence of the module docstring, in
        O(s |A| |M|^2) boolean work."""
        if self._adm_all is None:
            self._adm_all = self._admissible_at(np.arange(self.monoid.size))
        row = self._adm_all[self.alphabet.index(letter), r]
        return frozenset(np.flatnonzero(row).tolist())

    def mes_members(self, e: int) -> np.ndarray:
        """The sorted members of Mes for the idempotent e (see `me_s`),
        built once per usable-letter pattern and kept for the life of
        this object (read-only).

        The images of the usable blocks are s frontier steps from the
        identity, step r through the letters usable at residue r; their
        closure is the monoid's `generated`.  O(s |A| |M|) for the blocks.
        """
        got = self._mes.get(e)
        if got is None:
            usable = self.usable(e)
            key = usable.tobytes()
            got = self._mes_by_pattern.get(key)
            if got is None:
                mon, images = self.monoid, self.images
                blocks = np.zeros(mon.size, dtype=bool)
                blocks[mon.identity] = True
                for r in range(self.index):
                    ends = np.flatnonzero(blocks)
                    blocks = np.zeros(mon.size, dtype=bool)
                    blocks[mon.mult[ends[:, None], images[usable[:, r]]]] = True
                got = self._mes_by_pattern[key] = mon.generated(blocks)
            self._mes[e] = got
        return got

    @property
    def stable_j_classes(self) -> JClasses:
        """The regular J-classes of the stable submonoid S, in S's own
        J-order, from the monoid's store: every multiplier shares them."""
        if self._stable_j is None:
            self._stable_j = self.monoid.j_classes(self._stable_mask)
        return self._stable_j

    def stable_me_members(self, e: int) -> np.ndarray:
        """The sorted members of Me taken inside the stable submonoid S, for
        an idempotent e of S: the closure of its J-class's upset {a in S :
        e in S a S} in the monoid's store (read-only)."""
        return self.monoid.generated(self.stable_j_classes.upset(e))


def _power_images(m: Morphism) -> _PowerImages:
    """The power images of m, built on first use and kept in its memo."""
    got = m._stability.get("powers")
    if got is None:
        got = m._stability["powers"] = _PowerImages(m)
    return got


def stability_index(m: Morphism) -> int:
    """The smallest s >= 1 with h(A^s) = h(A^2s)."""
    return _power_images(m).smallest_index


def stability_info(m: Morphism, multiplier: int = 1) -> StabilityInfo:
    """Stability data for s = multiplier * (smallest index).

    Any multiple of the smallest index is again a stability index; the
    fragment checks must be invariant under the choice.  The stable set and
    the residue sets are sorted read-only id arrays; residue sets equal as
    pairs (X_r, X_(r+s)) share one array.  A multiplier
    above FREE_MULTIPLIER that gives s |M| above MAX_INDEX_CELLS raises
    CapError, on every call.

    The result is memoised on the morphism, one object per multiplier, so
    repeated calls return the same object with its tables built once; the
    memo lives and dies with the morphism.  A new morphism, even of the
    same language, starts with an empty memo.
    """
    if multiplier < 1:
        raise InputError("index multiplier must be at least 1")
    info = m._stability.get(multiplier)
    if info is not None:
        return info
    powers = _power_images(m)
    smallest = powers.smallest_index
    s = smallest * multiplier
    if multiplier > FREE_MULTIPLIER and s * m.monoid.size > MAX_INDEX_CELLS:
        raise CapError(
            f"stability index {s} (multiplier {multiplier}) on {m.monoid.size} "
            f"elements exceeds the index cap (s * |M| at most {MAX_INDEX_CELLS} "
            f"for a multiplier above {FREE_MULTIPLIER})"
        )
    stable = np.union1d(powers.at(s), [m.monoid.identity])
    stable.flags.writeable = False
    residues = [stable]
    unions = {}  # the power sets repeat with their period, so the unions do
    for r in range(1, s):
        low, high = powers.at(r), powers.at(r + s)
        got = low if low is high else unions.get((id(low), id(high)))
        if got is None:
            got = unions[(id(low), id(high))] = np.union1d(low, high)
            got.flags.writeable = False
        residues.append(got)
    images = np.array([m.letter_map[a] for a in m.alphabet], dtype=np.int64)
    info = m._stability[multiplier] = StabilityInfo(
        monoid=m.monoid,
        alphabet=m.alphabet,
        images=images,
        index=s,
        smallest_index=smallest,
        stable=stable,
        residues=tuple(residues),
        _owner=weakref.ref(m),
    )
    return info


_RELATIONS = ("Rs", "Ls")


_SCATTER_IDS = 1 << 16  # products gathered per scatter (512 KiB of int64 ids)


def _product_mask(mult: np.ndarray, elems, left: bool = False) -> np.ndarray:
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


def stable_green_preorder(info: StabilityInfo, relation: str) -> np.ndarray:
    """leq[x][y] iff x is below-or-equal y in the stable Green preorder:
    x in yS (Rs) or x in Sy (Ls).

    The ideal mask has[y, x] (x in the ideal of y) is a scatter of the
    table's stable columns (yS) or rows (Sy)."""
    if relation not in _RELATIONS:
        raise InputError(f"unknown stable relation {relation!r}")
    has = _product_mask(info.monoid.mult, info.stable, left=relation == "Ls")
    return has.T.copy()


def is_stable_trivial(
    info: StabilityInfo, relation: str
) -> tuple[bool, tuple[int, int] | None]:
    """Whether every class of the stable relation is a singleton; returns
    the least offending pair otherwise."""
    leq = stable_green_preorder(info, relation)
    mutual = leq & leq.T & ~np.eye(leq.shape[0], dtype=bool)
    pairs = np.argwhere(mutual)
    if len(pairs):
        x, y = map(int, pairs[0])
        return False, (x, y)
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
    `StabilityInfo.mes_members` and kept on `info`.
    """
    if info.morphism is not m:
        raise InputError("stability data belongs to a different morphism")
    if not m.monoid.is_idempotent(e):
        raise InputError(f"element {e} is not idempotent")
    return frozenset(info.mes_members(e).tolist())
