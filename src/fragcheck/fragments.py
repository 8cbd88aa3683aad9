"""Definability checks for the supported fragment lattice.

Eleven fragment ids are recognized.  The _lt family uses order and plain
local submonoids of the syntactic monoid; the _mod family uses the stable
submonoid and the context-constrained local submonoids.  Every check
returns a counterexample pair (idempotent word, element word) when it
fails.

This module also builds the ordered-monoid witness that explains a
positive sigma2_mod verdict: a morphism g over residue-decorated letters
whose order pulls back to the syntactic order on words of equal length
residue, together with an exhaustive bounded verifier for that
implication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import Dfa, DecoratedLetter, decorated_letters, mod1
from .errors import ConsistencyError, InputError
from .monoid import (
    _GATHER_IDS,
    DEFAULT_MAX_MONOID,
    Morphism,
    _any,
    format_word,
    generated_morphism,
    is_aperiodic,
    local_condition,
    syntactic_order,
    transition_monoid,
)
from .stability import StabilityInfo, stability_info

FRAGMENTS = (
    "fo_lt",
    "fo2_lt",
    "sigma2_lt",
    "pi2_lt",
    "delta2_lt",
    "fo_mod",
    "fo2_mod_qda",
    "sigma2_mod",
    "pi2_mod",
    "delta2_mod",
    "fo2_mod_new",
)

Witness = tuple[str, str] | None


@dataclass(eq=False)
class FragmentReport:
    language_id: str
    monoid_size: int
    stability_index: int
    stable_size: int
    verdicts: dict
    witnesses: dict

    def to_doc(self) -> dict:
        frags = {}
        for fid in FRAGMENTS:
            w = self.witnesses[fid]
            frags[fid] = {
                "definable": self.verdicts[fid],
                "witness": None if w is None else {"idempotent": w[0], "element": w[1]},
            }
        return {
            "language": self.language_id,
            "monoid_size": self.monoid_size,
            "stability_index": self.stability_index,
            "stable_size": self.stable_size,
            "fragments": frags,
        }

    def to_text(self) -> str:
        lines = [
            f"language {self.language_id}",
            f"monoid size {self.monoid_size}, stability index {self.stability_index}, "
            f"stable size {self.stable_size}",
            f"{'fragment':<14} verdict  witness",
        ]
        for fid in FRAGMENTS:
            w = self.witnesses[fid]
            tail = "-" if w is None else f"e={w[0]} x={w[1]}"
            lines.append(f"{fid:<14} {'yes' if self.verdicts[fid] else 'no':<8} {tail}")
        return "\n".join(lines) + "\n"


# The local fragments decided by one sweep over a member source, as
# (e x e = e, e x e <= e, e x e >= e): over Me, and over Mes
_ME_FRAGMENTS = ("fo2_lt", "sigma2_lt", "pi2_lt")
_MES_FRAGMENTS = ("fo2_mod_new", "sigma2_mod", "pi2_mod")
# The verdicts that read the stability index s, and those that read the
# order, which their keys in the morphism's memo name (see `LanguageAnalysis`)
_NEEDS_INDEX = frozenset({"fo2_mod_new", "sigma2_mod", "pi2_mod", "delta2_mod"})
_NEEDS_ORDER = frozenset({"sigma2_lt", "pi2_lt", "delta2_lt",
                          "sigma2_mod", "pi2_mod", "delta2_mod"})


class LanguageAnalysis:
    """Lazy pipeline from a DFA to fragment verdicts.

    The syntactic order and the stability data are computed only when a
    requested fragment needs them, which keeps the equality-only checks
    cheap on large corpora.  A caller that already holds the syntactic
    morphism of L(d), from `transition_monoid`, may pass it as `morphism`;
    it is then used as it is, so that several analyses of one language
    (at several index multipliers, say) share one monoid, and through the
    morphism's memo one `StabilityInfo` per multiplier.  The
    stable-submonoid checks run on the parent table through the ids of
    the stable submonoid.

    Each verdict is computed once and kept in the morphism's memo
    (`Morphism._memo`), which its `complement_morphism` shares, under the
    key (fragment, the multiplier if the verdict reads s else 0, the
    monoid that carries the order if it reads the order else None), built
    once per analysis.  So the conjunctions read their halves, and the
    analyses of one language at other multipliers, and of its complement,
    read what does not depend on their own s or order: fo_lt and fo2_lt
    read the table, and fo_mod and fo2_mod_qda the stable submonoid S,
    which no multiple of the index changes; fo2_mod_new reads s;
    sigma2_lt, pi2_lt and delta2_lt read the order, which a complement's
    monoid carries reversed; the _mod halves and delta2_mod read both.
    When S = M, fo_mod and fo2_mod_qda are fo_lt's and fo2_lt's verdicts,
    which the same sweeps decide (see `stability`).

    The local fragments over one member source are decided together by
    one `local_condition` sweep: fo2_lt, sigma2_lt and pi2_lt over Me, at
    one idempotent per regular J-class (see `monoid.JClasses`), and
    fo2_mod_new, sigma2_mod and pi2_mod over Mes, at one idempotent per
    regular J-class of the stable submonoid (see `stability`).
    The order relations join a sweep when one of them is asked for or the
    order is already bound on the monoid, so a lone equality check
    (fo2_lt, fo2_mod_new) builds no order; a later order check sweeps
    again for the relations still open.
    """

    def __init__(
        self,
        d: Dfa,
        language_id: str = "L",
        max_monoid: int = DEFAULT_MAX_MONOID,
        index_multiplier: int = 1,
        morphism: Morphism | None = None,
    ):
        self.language_id = language_id
        self.dfa = d
        self.max_monoid = max_monoid
        self.index_multiplier = index_multiplier
        self._morphism = morphism
        self._info = None  # the StabilityInfo of the multiplier, once read
        self._keys = None  # fragment -> its key in the morphism's memo, on the first check
        self._memo = None  # the morphism's memo, read with the keys

    @property
    def morphism(self) -> Morphism:
        if self._morphism is None:
            self._morphism = transition_monoid(self.dfa, self.max_monoid)
        return self._morphism

    @property
    def ordered(self) -> Morphism:
        return syntactic_order(self.morphism)

    @property
    def stability(self) -> StabilityInfo:
        if self._info is None:
            self._info = stability_info(self.morphism, self.index_multiplier)
        return self._info

    # -- individual fragments ------------------------------------------------

    def _words(self, e: int, x: int) -> Witness:
        word = self.morphism.word_of
        return (format_word(word(e)), format_word(word(x)))

    def _aperiodicity(self, elements=None) -> tuple[bool, Witness]:
        monoid = self.morphism.monoid
        ok, x = is_aperiodic(monoid, elements)
        if ok:
            return True, None
        return False, self._words(monoid.omega(x), x)

    def _local(self, members, idempotents, relations: dict) -> dict:
        """The verdict of each fragment of `relations` (fragment -> order,
        None for equality), from one sweep of e x e against e over
        `members` at `idempotents` (see `local_condition`)."""
        offenders = local_condition(self.morphism.monoid, idempotents, members,
                                    tuple(relations.values()))
        return {fid: (True, None) if pair is None else (False, self._words(*pair))
                for fid, pair in zip(relations, offenders)}

    def _relations(self, fragments: tuple, asked: str) -> dict:
        """The fragments of one member source, (=, <=, >=), still to decide
        with `asked`, each with its order (None for equality); the order
        relations only when one is asked or the order is bound."""
        eq, le, ge = fragments
        relations = {eq: None}
        if asked != eq or self.morphism.monoid.leq is not None:
            leq = self.ordered.monoid.leq
            relations.update({le: leq, ge: leq.T})
        memo, keys = self._memo, self._keys
        return {fid: order for fid, order in relations.items() if keys[fid] not in memo}

    def _conjunction(self, first: str, second: str) -> tuple[bool, Witness]:
        ok, witness = self.check(first)
        if not ok:
            return False, witness
        return self.check(second)

    def check(self, fragment: str) -> tuple[bool, Witness]:
        keys = self._keys
        if keys is None and fragment in FRAGMENTS:  # a bad name builds no monoid
            # the monoid even before its order is bound: `syntactic_order`
            # binds it in place
            m, mult = self.morphism, self.index_multiplier
            self._memo = m._memo
            keys = self._keys = {
                fid: (fid, mult if fid in _NEEDS_INDEX else 0,
                      m.monoid if fid in _NEEDS_ORDER else None)
                for fid in FRAGMENTS}
        key = None if keys is None else keys.get(fragment)
        if key is None:
            raise InputError(f"unknown fragment {fragment!r}")
        memo = self._memo
        got = memo.get(key)
        if got is None:
            decided = self._check(fragment)
            for fid, verdict in decided.items():
                memo[keys[fid]] = verdict
            got = decided[fragment]
        return got

    def _check(self, fragment: str) -> dict:
        """The verdict of `fragment`, with those its sweep decides too."""
        if fragment in _ME_FRAGMENTS:
            monoid = self.morphism.monoid
            relations = self._relations(_ME_FRAGMENTS, fragment)
            return self._local(monoid.me_members, monoid.j_classes().representatives(),
                               relations)
        if fragment in _MES_FRAGMENTS:
            info = self.stability
            relations = self._relations(_MES_FRAGMENTS, fragment)
            return self._local(info.mes_members, info.stable_j_classes.representatives(),
                               relations)
        if fragment in ("fo_mod", "fo2_mod_qda") and self.stability.powers.whole:
            # S = M: the same sweep as the fragment's over M
            got = self.check("fo_lt" if fragment == "fo_mod" else "fo2_lt")
        elif fragment == "fo2_mod_qda":
            info = self.stability
            return self._local(info.stable_me_members, info.stable_j_classes.representatives(),
                               {fragment: None})
        elif fragment == "fo_lt":
            got = self._aperiodicity()
        elif fragment == "fo_mod":
            got = self._aperiodicity(self.stability.stable)
        elif fragment == "delta2_lt":
            got = self._conjunction("sigma2_lt", "pi2_lt")
        else:  # delta2_mod, as `check` knows every fragment
            got = self._conjunction("sigma2_mod", "pi2_mod")
        return {fragment: got}


def analyze(
    d: Dfa,
    language_id: str = "L",
    max_monoid: int = DEFAULT_MAX_MONOID,
    index_multiplier: int = 1,
    morphism: Morphism | None = None,
) -> FragmentReport:
    """Run every fragment check and assemble a report.  `morphism`, when
    given, is the syntactic morphism of L(d), as `LanguageAnalysis` takes it.
    The syntactic order is bound before the local checks, so that one
    sweep per member source (Me, Mes, the stable Me) decides them all.

    Two equalities hold for every language and are asserted here: the
    two-variable modular criterion agrees with DA on the stable monoid,
    and with the conjunction of the one-alternation criteria.  A
    violation raises ConsistencyError.
    """
    pipeline = LanguageAnalysis(
        d, language_id=language_id, max_monoid=max_monoid,
        index_multiplier=index_multiplier, morphism=morphism,
    )
    syntactic_order(pipeline.morphism)  # bound first: one sweep decides =, <= and >=
    verdicts = {}
    witnesses = {}
    for fid in FRAGMENTS:
        ok, witness = pipeline.check(fid)
        verdicts[fid] = ok
        witnesses[fid] = witness
    if verdicts["delta2_lt"] != (verdicts["sigma2_lt"] and verdicts["pi2_lt"]):
        raise ConsistencyError("delta2_lt must be the conjunction of its halves")
    if verdicts["delta2_mod"] != (verdicts["sigma2_mod"] and verdicts["pi2_mod"]):
        raise ConsistencyError("delta2_mod must be the conjunction of its halves")
    if verdicts["fo2_mod_new"] != verdicts["delta2_mod"]:
        raise ConsistencyError(
            "equality criterion must agree with the two ordered criteria"
        )
    if verdicts["fo2_mod_qda"] != verdicts["fo2_mod_new"]:
        raise ConsistencyError(
            "stable-DA criterion and local equality criterion disagree; "
            f"language {language_id}"
        )
    return FragmentReport(
        language_id=language_id,
        monoid_size=pipeline.morphism.monoid.size,
        stability_index=pipeline.stability.index,
        stable_size=len(pipeline.stability.stable),
        verdicts=verdicts,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# The ordered witness behind a positive sigma2_mod verdict

_EPS, _SINK = -1, -2  # the labels of the empty-word class and of the sink


def build_mod_witness(
    m: Morphism, info: StabilityInfo, max_monoid: int | None = None
) -> Morphism:
    """Build the quotient of decorated words explaining sigma2_mod.

    Decorated words over residues 1..s collapse to: the empty-word class,
    a sink class for words whose residues do not chain consecutively, and
    one class per reachable triple (start residue i, end residue j, image
    x under the base morphism).  The order puts the sink below everything
    and compares equal-profile classes by the base order; the resulting
    morphism g satisfies g(decorate(u)) <= g(decorate(v)) only if
    h(u) <= h(v) for words of equal length residue.

    A class is labelled by an int: (i, j, x) by ((i - 1) s + (j - 1)) |M|
    + x, the empty word by -1 and the sink by -2.  A product decodes its
    left label once and reads x1 x2 from the column of x2 in the base
    table, taken as a list once per x2 (the letter images, in practice);
    the order decodes every label by one `np.divmod`.  Labels are equal
    exactly when the classes are, so the closure numbers the classes as
    it would any other faithful labels.

    Requires the base morphism to carry the syntactic order and to
    satisfy the sigma2_mod hypothesis, which is checked at one idempotent
    per regular J-class of the stable submonoid, as `analyze` checks it
    (see `stability`).  A witness with more than
    `max_monoid` elements, when that cap is given, raises CapError.
    """
    mon = m.monoid
    if mon.leq is None:
        raise InputError("witness construction needs the syntactic order")
    if info.powers is not m._memo.get("powers"):
        raise InputError("stability data belongs to a different morphism")
    (pair,) = local_condition(mon, info.stable_j_classes.representatives(), info.mes_members,
                              (mon.leq,))
    if pair is not None:
        e, x = pair
        raise InputError(
            "hypothesis violated: e x e <= e fails at "
            f"e={format_word(m.word_of(e))} x={format_word(m.word_of(x))}"
        )
    s, size, mult = info.index, mon.size, mon.mult

    letter_labels = {DecoratedLetter(str(a), i + 1).text: (i * s + i) * size + m.letter_map[a]
                     for a in m.alphabet for i in range(s)}  # the class (i + 1, i + 1, h(a))

    columns = {}  # x2 -> the column x2 of the base table, as a list

    def right_mult(l1):
        if l1 < 0:
            return (lambda l2: l2) if l1 == _EPS else (lambda l2: _SINK)
        profile, x1 = divmod(l1, size)
        start = profile - profile % s  # (i1 - 1) s
        follow = (profile + 1) % s  # i2 - 1 for a well-formed product

        def times(l2):
            if l2 < 0:
                return l1 if l2 == _EPS else _SINK
            profile2, x2 = divmod(l2, size)
            if profile2 // s != follow:
                return _SINK
            column = columns.get(x2)
            if column is None:
                column = columns[x2] = mult[:, x2].tolist()
            return (start + profile2 % s) * size + column[x1]

        return times

    def label_order(labels):
        # the sink lies below everything, the empty word only below itself,
        # and well-formed classes compare by the base order when their
        # start and end residues agree
        labels = np.array(labels, dtype=np.int64)
        eps, wf = labels == _EPS, labels >= 0
        profile, base = np.divmod(labels, size)  # base is in range for -1 and -2 too
        return (
            (labels == _SINK)[:, None]
            | (eps[:, None] & eps)
            | (wf[:, None] & (profile[:, None] == profile) & mon.leq[base[:, None], base])
        )

    bound = s * s * size + 2
    cap = bound + 1 if max_monoid is None else min(max_monoid, bound + 1)
    g = generated_morphism(
        letter_labels,
        right_mult,
        _EPS,
        cap=cap,
        label_order=label_order,
    )
    if g.monoid.size > bound:
        raise ConsistencyError(
            f"witness monoid has {g.monoid.size} elements, above the bound {bound}"
        )
    return g


def verify_vmod_implication(
    m: Morphism,
    g: Morphism,
    n: int,
    max_len: int,
) -> tuple[bool, tuple[tuple, tuple] | None]:
    """Exhaustively check, over all word pairs u, v of length at most
    max_len with equal length residue mod n, that g(decorate(u)) <=
    g(decorate(v)) implies h(u) <= h(v).

    The implication only depends on a word through the triple (image
    under g of its decoration, image under h, length mod n), so the pairs
    are checked on the finitely many reachable triples.  The triples are
    found breadth first, by length and then by letter, each with the
    first word that reaches it; a step reads its letter's right columns
    of both tables, taken as lists once (g's once per residue).  The walk
    stops at the first length that reaches no new triple.  The pairs are
    then tested in blocks of rows of about `_GATHER_IDS` cells, one
    boolean matrix per block, and the failure reported is the first pair
    (t1, t2) in row-major order of discovery.
    """
    if m.monoid.leq is None or g.monoid.leq is None:
        raise InputError("both morphisms must carry orders")
    expected = set(decorated_letters(m.alphabet, n))
    if set(g.letter_map) != expected:
        raise InputError("decorated alphabet does not match the base alphabet")
    letters = sorted(m.alphabet)
    h_columns = m.monoid.mult[:, [m.letter_map[a] for a in letters]].T.tolist()
    steps = []  # steps[r]: per letter, (it, its g column at residue r + 1, its h column)
    for r in range(n):
        g_ids = [g.letter_map[DecoratedLetter(str(a), mod1(r + 1, n)).text] for a in letters]
        steps.append(list(zip(letters, g.monoid.mult[:, g_ids].T.tolist(), h_columns)))
    start = (g.monoid.identity, m.monoid.identity, 0)
    triples = [start]
    words = {start: ()}
    frontier = [start]
    for _ in range(max_len):
        if not frontier:
            break
        nxt_frontier = []
        for triple in frontier:
            gx, hx, r = triple
            w = words[triple]
            r1 = (r + 1) % n
            for a, g_column, h_column in steps[r]:
                got = (g_column[gx], h_column[hx], r1)
                if got not in words:
                    words[got] = w + (a,)
                    triples.append(got)
                    nxt_frontier.append(got)
        frontier = nxt_frontier
    gs, hs, rs = np.array(triples, dtype=np.int64).T
    g_leq, h_leq = g.monoid.leq, m.monoid.leq
    block = max(1, _GATHER_IDS // len(triples))
    for lo in range(0, len(triples), block):
        rows = slice(lo, lo + block)
        bad = ((rs[rows, None] == rs) & g_leq[gs[rows, None], gs]
               & ~h_leq[hs[rows, None], hs])
        if _any(bad):
            t1, t2 = divmod(int(bad.argmax()), len(triples))
            return False, (words[triples[lo + t1]], words[triples[t2]])
    return True, None
