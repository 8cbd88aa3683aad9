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
    DEFAULT_MAX_MONOID,
    Morphism,
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

    def verdict(self, fragment: str) -> bool:
        return self.verdicts[fragment]

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


class LanguageAnalysis:
    """Lazy pipeline from a DFA to fragment verdicts.

    The syntactic order and the stability data are computed only when a
    requested fragment needs them, which keeps the equality-only checks
    cheap on large corpora.  A caller that already holds the syntactic
    morphism of L(d), from `transition_monoid`, may pass it as `morphism`;
    it is then used as it is, so that several analyses of one language
    (at several index multipliers, say) share one monoid, and through the
    morphism's memo one `StabilityInfo` per multiplier.  Each verdict is
    computed once and kept, so the conjunctions read their halves; the
    stable-submonoid checks run on the parent table through the ids of
    the stable submonoid.
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
        self._verdicts = {}  # fragment -> (verdict, witness)

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
        return stability_info(self.morphism, self.index_multiplier)

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

    def _local(self, members, order=None, idempotents=None) -> tuple[bool, Witness]:
        """e x e against e over `members`, at every idempotent of the
        monoid unless `idempotents` are given (see `local_condition`)."""
        monoid = self.morphism.monoid
        if idempotents is None:
            idempotents = monoid.idempotents()
        ok, pair = local_condition(monoid, idempotents, members, order)
        if ok:
            return True, None
        return False, self._words(*pair)

    def _local_me(self, order=None) -> tuple[bool, Witness]:
        """e x e against e over Me, once per regular J-class (see
        `monoid.JClasses`)."""
        monoid = self.morphism.monoid
        return self._local(monoid.me_members, order, monoid.j_classes().representatives())

    def _conjunction(self, first: str, second: str) -> tuple[bool, Witness]:
        ok, witness = self.check(first)
        if not ok:
            return False, witness
        return self.check(second)

    def check(self, fragment: str) -> tuple[bool, Witness]:
        got = self._verdicts.get(fragment)
        if got is None:
            got = self._verdicts[fragment] = self._check(fragment)
        return got

    def _check(self, fragment: str) -> tuple[bool, Witness]:
        if fragment == "fo_lt":
            return self._aperiodicity()
        if fragment == "fo2_lt":
            return self._local_me()
        if fragment == "sigma2_lt":
            return self._local_me(self.ordered.monoid.leq)
        if fragment == "pi2_lt":
            return self._local_me(self.ordered.monoid.leq.T)
        if fragment == "delta2_lt":
            return self._conjunction("sigma2_lt", "pi2_lt")
        if fragment == "fo_mod":
            return self._aperiodicity(self.stability.stable)
        if fragment == "fo2_mod_qda":
            info = self.stability
            return self._local(info.stable_me_members,
                               idempotents=info.stable_j_classes.representatives())
        if fragment == "sigma2_mod":
            return self._local(self.stability.mes_members, self.ordered.monoid.leq)
        if fragment == "pi2_mod":
            return self._local(self.stability.mes_members, self.ordered.monoid.leq.T)
        if fragment == "delta2_mod":
            return self._conjunction("sigma2_mod", "pi2_mod")
        if fragment == "fo2_mod_new":
            return self._local(self.stability.mes_members)
        raise InputError(f"unknown fragment {fragment!r}")


def analyze(
    d: Dfa,
    language_id: str = "L",
    max_monoid: int = DEFAULT_MAX_MONOID,
    index_multiplier: int = 1,
    morphism: Morphism | None = None,
) -> FragmentReport:
    """Run every fragment check and assemble a report.  `morphism`, when
    given, is the syntactic morphism of L(d), as `LanguageAnalysis` takes it.

    Two equalities hold for every language and are asserted here: the
    two-variable modular criterion agrees with DA on the stable monoid,
    and with the conjunction of the one-alternation criteria.  A
    violation raises ConsistencyError.
    """
    pipeline = LanguageAnalysis(
        d, language_id=language_id, max_monoid=max_monoid,
        index_multiplier=index_multiplier, morphism=morphism,
    )
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

_SINK = ("sink",)
_EPS = ("eps",)


def build_mod_witness(
    m: Morphism, info: StabilityInfo, max_monoid: int | None = None
) -> Morphism:
    """Build the quotient of decorated words explaining sigma2_mod.

    Decorated words over residues 1..s collapse to: the empty-word class,
    a sink class for words whose residues do not chain consecutively, and
    one class per reachable triple (start residue, end residue, image
    under the base morphism).  The order puts the sink below everything
    and compares equal-profile classes by the base order; the resulting
    morphism g satisfies g(decorate(u)) <= g(decorate(v)) only if
    h(u) <= h(v) for words of equal length residue.

    Requires the base morphism to carry the syntactic order and to
    satisfy the sigma2_mod hypothesis.  A witness with more than
    `max_monoid` elements, when that cap is given, raises CapError.
    """
    mon = m.monoid
    if mon.leq is None:
        raise InputError("witness construction needs the syntactic order")
    if info.morphism is not m:
        raise InputError("stability data belongs to a different morphism")
    ok, pair = local_condition(mon, mon.idempotents(), info.mes_members, mon.leq)
    if not ok:
        e, x = pair
        raise InputError(
            "hypothesis violated: e x e <= e fails at "
            f"e={format_word(m.word_of(e))} x={format_word(m.word_of(x))}"
        )
    s = info.index

    letter_labels = {}
    for a in m.alphabet:
        for i in range(1, s + 1):
            letter_labels[DecoratedLetter(str(a), i).text] = (
                "wf",
                i,
                i,
                m.letter_map[a],
            )

    def mult_label(l1, l2):
        if l1 == _EPS:
            return l2
        if l2 == _EPS:
            return l1
        if l1 == _SINK or l2 == _SINK:
            return _SINK
        _, i1, j1, x1 = l1
        _, i2, j2, x2 = l2
        if i2 != mod1(j1 + 1, s):
            return _SINK
        return ("wf", i1, j2, mon.mul(x1, x2))

    def label_order(labels):
        # the sink lies below everything, the empty word only below itself,
        # and well-formed classes compare by the base order when their
        # start and end residues agree
        kind = np.array([lab[0] for lab in labels])
        eps, wf = kind == "eps", kind == "wf"
        start, end, base = np.array(
            [lab[1:] if lab[0] == "wf" else (0, 0, 0) for lab in labels], dtype=np.int64
        ).reshape(len(labels), 3).T
        return (
            (kind == "sink")[:, None]
            | (eps[:, None] & eps)
            | (wf[:, None] & wf
               & (start[:, None] == start) & (end[:, None] == end)
               & mon.leq[base[:, None], base])
        )

    bound = s * s * mon.size + 2
    cap = bound + 1 if max_monoid is None else min(max_monoid, bound + 1)
    g = generated_morphism(
        sorted(letter_labels),
        letter_labels,
        mult_label,
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
    are checked on the finitely many reachable triples; the failure
    reported is the first one in shortlex discovery order.
    """
    if m.monoid.leq is None or g.monoid.leq is None:
        raise InputError("both morphisms must carry orders")
    expected = set(decorated_letters(m.alphabet, n))
    if set(g.letter_map) != expected:
        raise InputError("decorated alphabet does not match the base alphabet")
    letters = sorted(m.alphabet)
    start = (g.monoid.identity, m.monoid.identity, 0)
    triples = [start]
    words = {start: ()}
    frontier = [start]
    for _ in range(max_len):
        nxt_frontier = []
        for gx, hx, r in frontier:
            w = words[(gx, hx, r)]
            for a in letters:
                dl = DecoratedLetter(str(a), mod1(r + 1, n)).text
                triple = (
                    g.monoid.mul(gx, g.letter_map[dl]),
                    m.monoid.mul(hx, m.letter_map[a]),
                    (r + 1) % n,
                )
                if triple not in words:
                    words[triple] = w + (a,)
                    triples.append(triple)
                    nxt_frontier.append(triple)
        frontier = nxt_frontier
    for g1, h1, r1 in triples:
        for g2, h2, r2 in triples:
            if r1 != r2:
                continue
            if g.monoid.leq[g1, g2] and not m.monoid.leq[h1, h2]:
                return False, (words[(g1, h1, r1)], words[(g2, h2, r2)])
    return True, None
