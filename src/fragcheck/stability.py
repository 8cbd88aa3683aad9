"""Stability data of a morphism: the smallest s with h(A^s) = h(A^2s),
the stable submonoid, residue-constrained context sets, and the
context-constrained local submonoids used by the modular fragment checks.

A letter a is admissible at residue r for an element x when x lies in
residues[r] . h(a) . residues[s-1-r].  One boolean table adm[a, r, x]
(|A| x s x |M|) per `StabilityInfo` answers that for every letter,
residue and element.  It is built from the right-reach matrices
reach_j[z] = z . residues[j] (|M| x |M| bool): reach_0 is a scatter of
the table's stable columns, and since residues[j] = X_j | X_(j+s) with
X_0 = {1} and X_(k+1) the union over the letters b of h(b) . X_k,
residues[j+1] is the union of h(b) . residues[j] for j+1 < s, so

    reach_{j+1}[z] = OR_b reach_j[z . h(b)],
    adm[a, s-1-j]  = OR_{x in residues[s-1-j]} reach_j[x . h(a)].

That is O(s |A| |M|^2) boolean work and O(|M|^2) extra memory, with no
per-(letter, residue) set product.

Each local submonoid Mes is built once per idempotent, as a sorted numpy
member array, and kept on its `StabilityInfo` next to the admissibility
table it reads, so both live as long as that object does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapError, InputError
from .monoid import Morphism, OrderedMonoid, set_product

_ITERATION_CAP = 100_000


def _letter_images(m: Morphism) -> frozenset[int]:
    return frozenset(m.letter_map[a] for a in m.alphabet)


class _PowerImages:
    """The sequence X_k = image of words of length exactly k, k >= 1,
    stored up to its first repetition."""

    def __init__(self, m: Morphism):
        x1 = _letter_images(m)
        seen = {x1: 1}
        seq = [x1]
        k = 1
        while True:
            k += 1
            nxt = set_product(m.monoid, seq[-1], x1)
            if nxt in seen:
                self.preperiod = seen[nxt]
                self.period = k - seen[nxt]
                break
            seen[nxt] = k
            seq.append(nxt)
            if k > _ITERATION_CAP:
                raise CapError("power-image iteration cap exceeded")
        self.seq = seq  # seq[i] = X_{i+1}

    def at(self, k: int) -> frozenset[int]:
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

    residues[r] is the image of all words whose length is congruent to r
    mod s (with the empty word contributing only to residue 0), which is
    exactly h(A^r) united with h(A^(r+s)).
    """

    morphism: Morphism
    index: int
    smallest_index: int
    stable: frozenset[int]
    residues: tuple
    _powers: _PowerImages
    _adm: np.ndarray | None = None  # [letter index, r, x], see module docstring
    _mes: dict = field(default_factory=dict)  # idempotent -> members of Mes

    def _admissible(self) -> np.ndarray:
        """The table adm[a, r, x]: x in residues[r] . h(a) . residues[s-1-r],
        letters in alphabet order.  Built on first use from the right-reach
        recurrence of the module docstring, one reach matrix at a time and
        one letter at a time, and kept (read-only)."""
        if self._adm is not None:
            return self._adm
        m, s = self.morphism, self.index
        mult, size = m.monoid.mult, m.monoid.size
        images = np.array([m.letter_map[a] for a in m.alphabet])
        adm = np.zeros((len(images), s, size), dtype=bool)
        reach = _product_mask(mult, sorted(self.stable))
        for j in range(s):
            r = s - 1 - j
            left = np.array(sorted(self.residues[r]))
            for i, b in enumerate(images):
                hit = np.zeros(size, dtype=bool)  # residues[r] . h(a)
                hit[mult[left, b]] = True
                adm[i, r] = reach[hit].any(axis=0)
            if j + 1 < s:
                step = np.zeros_like(reach)
                for b in np.unique(images):
                    step |= reach[mult[:, b]]
                reach = step
        adm.flags.writeable = False
        self._adm = adm
        return adm

    def admissible_images(self, letter, r: int) -> frozenset[int]:
        """All values x . h(letter) . y with x in residues[r] and y in
        residues[-(r+1) mod s]: the possible images of a full context
        around an occurrence of the letter at position residue r+1.
        One row of the admissibility table, which the right-reach
        recurrence of the module docstring builds once per object in
        O(s |A| |M|^2) boolean work and O(|M|^2) extra memory."""
        row = self._admissible()[self.morphism.alphabet.index(letter), r]
        return frozenset(np.flatnonzero(row).tolist())

    def mes_members(self, e: int) -> np.ndarray:
        """The sorted members of Mes for the idempotent e (see `me_s`),
        built on first use and kept for the life of this object
        (read-only).

        The letters usable at residue r are those with adm[a, r, e], read
        from the admissibility table.  Every breadth-first level of the
        residue-tagged search sits at one residue r, so a level is one
        frontier pushed through the columns of the letters usable at r,
        and reached[r] marks what residue r has seen.  O(s |M|) memory,
        O(|frontier| |A|) per level.
        """
        got = self._mes.get(e)
        if got is not None:
            return got
        m, s = self.morphism, self.index
        mult, identity = m.monoid.mult, m.monoid.identity
        images = np.array([m.letter_map[a] for a in m.alphabet])
        usable = self._admissible()[:, :, e]
        cols = [mult[:, images[usable[:, r]]] for r in range(s)]
        reached = np.zeros((s, m.monoid.size), dtype=bool)
        reached[0, identity] = True
        frontier, r = np.array([identity]), 0
        while frontier.size:
            hit = np.zeros_like(reached[0])
            hit[cols[r][frontier]] = True
            r = (r + 1) % s
            hit &= ~reached[r]
            reached[r] |= hit
            frontier = np.flatnonzero(hit)
        got = self._mes[e] = np.flatnonzero(reached[0])
        got.flags.writeable = False
        return got


def stability_index(m: Morphism) -> int:
    """The smallest s >= 1 with h(A^s) = h(A^2s)."""
    return _PowerImages(m).smallest_index


def stability_info(m: Morphism, multiplier: int = 1) -> StabilityInfo:
    """Stability data for s = multiplier * (smallest index).

    Any multiple of the smallest index is again a stability index; the
    fragment checks must be invariant under the choice.
    """
    if multiplier < 1:
        raise InputError("index multiplier must be at least 1")
    powers = _PowerImages(m)
    smallest = powers.smallest_index
    s = smallest * multiplier
    identity = m.monoid.identity
    stable = frozenset(powers.at(s)) | {identity}
    residues = [stable]
    for r in range(1, s):
        residues.append(frozenset(powers.at(r)) | frozenset(powers.at(r + s)))
    return StabilityInfo(
        morphism=m,
        index=s,
        smallest_index=smallest,
        stable=stable,
        residues=tuple(residues),
        _powers=powers,
    )


_RELATIONS = ("Rs", "Ls", "Js")


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
    x in yS (Rs), x in Sy (Ls), or x in SyS (Js).

    Each ideal mask has[y, x] (x in the ideal of y) is a scatter of the
    table's stable columns (yS) or rows (Sy); SyS is the union of zS over
    z in Sy, one boolean product of the two."""
    if relation not in _RELATIONS:
        raise InputError(f"unknown stable relation {relation!r}")
    mult = info.morphism.monoid.mult
    s_elems = sorted(info.stable)
    if relation == "Rs":
        has = _product_mask(mult, s_elems)
    elif relation == "Ls":
        has = _product_mask(mult, s_elems, left=True)
    else:
        right = _product_mask(mult, s_elems).astype(np.float32)
        left = _product_mask(mult, s_elems, left=True).astype(np.float32)
        has = (left @ right) > 0.5  # counts stay exact below 2^24 elements
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
    residues[r] . h(a) . residues[-(r+1) mod s]; the submonoid is the set
    of elements reachable at residue 0 under that constraint.  It is built
    once per idempotent by `StabilityInfo.mes_members` and kept on `info`.
    """
    if info.morphism is not m:
        raise InputError("stability data belongs to a different morphism")
    if not m.monoid.is_idempotent(e):
        raise InputError(f"element {e} is not idempotent")
    return frozenset(info.mes_members(e).tolist())
