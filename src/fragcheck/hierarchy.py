"""Alternation levels over the stable monoid.

Two congruences drive the analysis.  Writing E(M) for the idempotents, two
elements x, y are equivalent on the K side when ex = ey for every idempotent
e whose right ideal survives multiplication (e in exM), and both products
fall strictly below e otherwise; the D side is the mirror image with xe and
left ideals.  Quotienting by one side and then re-checking stable Green
triviality on the other yields the level of a language in the two
alternation hierarchies: level 2 is stable R-triviality (or L-triviality on
the opposite side), level k+1 allows one more quotient step.

Both steps read Green's relations off `monoid.JClasses`.  A quotient
carries a spanning tree read off its source's (`monoid.quotient_morphism`),
so its words are shortlex-least and, above `monoid._BFS_MIN_SIZE`
elements, the upset table of its J-classes is built by letter steps, as
that of every morphism's monoid is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .monoid import _GATHER_IDS, Morphism, id_dtype, quotient_morphism
from .stability import is_stable_trivial, stability_info

_SIDES = ("K", "D")


@dataclass(frozen=True, eq=False)
class CongruenceQuotient:
    source: Morphism
    side: str
    classes: tuple  # tuple of tuples of source element ids
    class_of: tuple  # source element id -> class id
    quotient: Morphism


def sim_quotient(m: Morphism, side: str) -> CongruenceQuotient:
    """Quotient by the idempotent-signature congruence of the given side."""
    if side not in _SIDES:
        raise InputError(f"unknown side {side!r}, expected K or D")
    mon = m.monoid
    size, mult = mon.size, mon.mult
    upset, idems = mon.j_classes().upset, mon.idempotents()

    # signature entry j of x is y = e_j x (or x e_j), or `size`, no id,
    # when e_j falls out of y's ideal: y lies below e_j, so e_j is in yM
    # (or My) exactly when y lies in the J-upset of e_j
    sigs = np.empty((size, len(idems)), dtype=id_dtype(size + 1))
    for j, e in enumerate(idems):
        ys = mult[e] if side == "K" else mult[:, e]
        sigs[:, j] = np.where(upset(e)[ys], ys, size)

    # classes are numbered by their least elements, as `quotient_morphism` reads them
    index: dict = {}
    class_of = [index.setdefault(row.tobytes(), len(index)) for row in sigs]
    k = len(index)
    classes: list[list[int]] = [[] for _ in range(k)]
    for x, c in enumerate(class_of):
        classes[c].append(x)

    # the class of x y must be the class of (rep of x)(rep of y), checked
    # in blocks of rows so that no |M| x |M| array of ids is built; the
    # quotient table is mapped to class ids in place, in blocks of rows too,
    # as numpy widens each block of ids that it gathers by, and every id
    # is in range; class ids are held as the table holds ids, so the bytes
    # compared are of one type
    cls = np.asarray(class_of, dtype=mult.dtype)
    least = [members[0] for members in classes]
    reps = np.asarray(least, dtype=np.int64)
    qmult = mult[np.ix_(reps, reps)]
    block = max(1, _GATHER_IDS // size)
    for lo in range(0, k, block):
        part = qmult[lo:lo + block]
        np.take(cls, part, out=part, mode="clip")
    for lo in range(0, size, block):
        rows = cls[lo:lo + block]
        if cls[mult[lo:lo + block]].tobytes() != qmult[rows[:, None], cls].tobytes():
            raise ConsistencyError(
                f"the {side}-side signature relation failed to be a congruence"
            )

    return CongruenceQuotient(
        source=m,
        side=side,
        classes=tuple(tuple(c) for c in classes),
        class_of=tuple(class_of),
        quotient=quotient_morphism(m, class_of, least, qmult),
    )


@dataclass(frozen=True)
class WvLevels:
    """Levels in the two alternation hierarchies (None when the cap was
    reached), with the monoid sizes along each quotient chain."""

    w: int | None
    v: int | None
    w_sizes: tuple
    v_sizes: tuple


def _side_level(m: Morphism, first: str, max_level: int):
    cur = m
    sizes = [cur.monoid.size]
    rel = first
    stalls = 0
    for t in range(max(0, max_level - 1)):
        info = stability_info(cur)
        ok, _ = is_stable_trivial(info, rel)
        if ok:
            return t + 2, tuple(sizes)
        side = "K" if rel == "Rs" else "D"
        nxt = sim_quotient(cur, side).quotient
        stalls = stalls + 1 if nxt.monoid.size == cur.monoid.size else 0
        if stalls >= 2:
            # a full two-sided round without collapse cannot make progress
            return None, tuple(sizes)
        cur = nxt
        sizes.append(cur.monoid.size)
        rel = "Ls" if rel == "Rs" else "Rs"
    return None, tuple(sizes)


def wv_level(m: Morphism, max_level: int = 16) -> WvLevels:
    """The least levels at which the stable monoid of the iterated quotients
    becomes R-trivial (W side, starting from R) or L-trivial (V side)."""
    w, w_sizes = _side_level(m, "Rs", max_level)
    v, v_sizes = _side_level(m, "Ls", max_level)
    return WvLevels(w=w, v=v, w_sizes=w_sizes, v_sizes=v_sizes)
