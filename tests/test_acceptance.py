"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
`criterion N: PASS/FAIL` line (run with `pytest -s` to see the lines as
they appear).  All expected values are exact; a single mismatch fails.
"""

import time

import numpy as np

import exprsuite
import oracles
from oracles import decorate_word, table_monoid
from fragcheck.automata import (
    complement,
    decorated_letters,
    equivalent,
    minimize,
    regex_to_dfa,
)
from fragcheck.cli import generate_corpus
from fragcheck.fologic import compile_formula, parse_formula
from fragcheck.fragments import (
    FRAGMENTS,
    LanguageAnalysis,
    analyze,
    build_mod_witness,
    verify_vmod_implication,
)
from fragcheck.hierarchy import sim_quotient, wv_level
from fragcheck.modprod import Base, DetProd, eval_expr, expr_to_formula, validate
from fragcheck.monoid import (
    Morphism,
    local_condition,
    transition_monoid,
)
from fragcheck.stability import stability_info
from fragcheck.wreath import lift_decorated_hom, project_hom

CORPUS_SIZE = 200
CORPUS_SEED = 2026
CORPUS_CAP = 2000

_corpus_cache: list | None = None
_corpus_seconds = 0.0


def corpus():
    global _corpus_cache, _corpus_seconds
    if _corpus_cache is None:
        t0 = time.monotonic()
        _corpus_cache = generate_corpus(CORPUS_SIZE, 5, 3, CORPUS_SEED, CORPUS_CAP)
        _corpus_seconds = time.monotonic() - t0
    return _corpus_cache


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def dfa(pattern, **kw):
    return minimize(regex_to_dfa(pattern, **kw))


# --------------------------------------------------------------------------
# criterion 1: the eight example languages land in exactly the right cells

T, F = True, False

EXAMPLES = [
    # verdict order mirrors FRAGMENTS:
    # fo_lt fo2_lt s2_lt p2_lt d2_lt fo_mod fo2_qda s2_mod p2_mod d2_mod fo2_new
    ("odd-double", "((a|b)(a|b))*(aa|bb)(a|b)*", None,
     (T, F, F, F, F, T, F, T, F, F, F)),
    ("factor-aa", "(a|b)*aa(a|b)*", None,
     (T, F, T, F, F, T, F, T, F, F, F)),
    ("any-double", "(a|b)*(aa|bb)(a|b)*", None,
     (T, F, T, F, F, T, T, T, T, T, T)),
    ("letter-change", "(a|b)*(ab|ba)(a|b)*", None,
     (T, T, T, T, T, T, T, T, T, T, T)),
    ("bc-blocks", "(bc)*", None,
     (T, F, F, T, F, T, T, T, T, T, T)),
    ("double-or-bc", "(a|b)*(aa|bb)(a|b)*|(bc)*", ["a", "b", "c"],
     (T, F, F, F, F, T, T, T, T, T, T)),
    ("co-odd-double", "((a|b)(a|b))*(aa|bb)(a|b)*", "complement",
     (T, F, F, F, F, T, F, F, T, F, F)),
    ("co-factor-aa", "(a|b)*aa(a|b)*", "complement",
     (T, F, F, T, F, T, F, F, T, F, F)),
]


def test_criterion_1_example_matrix():
    t0 = time.monotonic()
    failures = []
    verdicts = {}
    for name, pattern, extra, expected in EXAMPLES:
        if extra == "complement":
            d = minimize(complement(dfa(pattern)))
        else:
            d = dfa(pattern, alphabet=extra) if extra else dfa(pattern)
        got = tuple(analyze(d, language_id=name).verdicts[f] for f in FRAGMENTS)
        verdicts[name] = dict(zip(FRAGMENTS, got))
        if got != expected:
            failures.append((name, got, expected))

    # membership claims, spelled out against the table
    v = verdicts
    claims = [
        ("odd-double in sigma2 with counting, outside plain sigma2 and its dual",
         v["odd-double"]["sigma2_mod"] and not v["odd-double"]["sigma2_lt"]
         and not v["odd-double"]["pi2_mod"]),
        ("factor-aa in plain sigma2, outside the counting dual",
         v["factor-aa"]["sigma2_lt"] and not v["factor-aa"]["pi2_mod"]),
        ("any-double in plain sigma2 and two-variable with counting, outside plain pi2",
         v["any-double"]["sigma2_lt"] and v["any-double"]["fo2_mod_new"]
         and not v["any-double"]["pi2_lt"]),
        ("letter-change two-variable definable without counting",
         v["letter-change"]["fo2_lt"]),
        ("bc-blocks in plain pi2 and counting sigma2, outside plain sigma2",
         v["bc-blocks"]["pi2_lt"] and v["bc-blocks"]["sigma2_mod"]
         and not v["bc-blocks"]["sigma2_lt"]),
        ("double-or-bc two-variable with counting, outside both plain half levels",
         v["double-or-bc"]["fo2_mod_new"] and not v["double-or-bc"]["sigma2_lt"]
         and not v["double-or-bc"]["pi2_lt"]),
        ("complement of odd-double lands in the mirror cell",
         v["co-odd-double"]["pi2_mod"] and not v["co-odd-double"]["pi2_lt"]
         and not v["co-odd-double"]["sigma2_mod"]),
        ("complement of factor-aa lands in the mirror cell",
         v["co-factor-aa"]["pi2_lt"] and not v["co-factor-aa"]["sigma2_mod"]),
    ]
    failures.extend(text for text, ok in claims if not ok)

    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    report(1, f"example language matrix, 8 languages in {elapsed:.2f}s", failures)


# --------------------------------------------------------------------------
# criterion 2: defining sentences compile to the same minimal DFAs

def adjacent_pair(p, q):
    return f"(and (suc x y) (and (lab x {p}) (lab y {q})))"


B_FIRST = "(forall z (or (lab z b) (exists x (< x z))))"
C_LAST = "(forall z (or (lab z c) (exists x (< z x))))"
BC_PAIR = "(and (< x y) (and (lab x b) (lab y c)))"
CB_PAIR = "(and (< x y) (and (lab x c) (lab y b)))"

SENTENCES = [
    ("odd-double direct", "odd-double",
     f"(exists x (exists y (and (mod x 2 1) (or {adjacent_pair('a', 'a')} {adjacent_pair('b', 'b')}))))",
     ["a", "b"]),
    ("factor-aa direct", "factor-aa",
     f"(exists x (exists y {adjacent_pair('a', 'a')}))", ["a", "b"]),
    ("any-double direct", "any-double",
     f"(exists x (exists y (or {adjacent_pair('a', 'a')} {adjacent_pair('b', 'b')})))", ["a", "b"]),
    ("any-double via position parity", "any-double",
     "(exists x (exists y (and (mod x 2 1) (and (mod y 2 2)"
     " (or (and (lab x a) (lab y a)) (and (lab x b) (lab y b)))))))",
     ["a", "b"]),
    ("letter-change via both letters", "letter-change",
     "(exists x (exists y (and (lab x a) (lab y b))))", ["a", "b"]),
    ("bc-blocks by neighbours", "bc-blocks",
     f"(and {B_FIRST} (and {C_LAST}"
     f" (forall x (forall y (-> (suc x y) (or {BC_PAIR} {CB_PAIR}))))))",
     ["b", "c"]),
    ("bc-blocks by position parity", "bc-blocks",
     "(and (len 2 2) (forall x (and (lab x (b c)) (<-> (mod x 2 1) (lab x b)))))",
     ["b", "c"]),
]

TARGETS = {
    "odd-double": "((a|b)(a|b))*(aa|bb)(a|b)*",
    "factor-aa": "(a|b)*aa(a|b)*",
    "any-double": "(a|b)*(aa|bb)(a|b)*",
    "letter-change": "(a|b)*(ab|ba)(a|b)*",
    "bc-blocks": "(bc)*",
}


def test_criterion_2_formulas_compile_to_the_examples():
    t0 = time.monotonic()
    failures = []
    for name, target, text, alphabet in SENTENCES:
        compiled = minimize(compile_formula(parse_formula(text), alphabet))
        ok, sep = equivalent(compiled, dfa(TARGETS[target], alphabet=alphabet))
        if not ok:
            failures.append((name, target, sep))
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, budget 30s")
    report(2, f"7 defining sentences compiled and matched in {elapsed:.2f}s", failures)


# --------------------------------------------------------------------------
# criterion 3: position counting versus letter counting

def test_criterion_3_stable_monoid_separates_the_two_parities():
    failures = []

    even_length = dfa("((a|b)(a|b))*")
    ok, _ = LanguageAnalysis(even_length).check("fo_mod")
    if not ok:
        failures.append("even length should be definable with counting")
    pipeline = LanguageAnalysis(even_length)
    if pipeline.stability.index != 2 or len(pipeline.stability.stable) != 1:
        failures.append("even length stable monoid should be trivial")

    even_a = dfa("(b*ab*a)*b*")
    ok, _ = LanguageAnalysis(even_a).check("fo_mod")
    if ok:
        failures.append("letter parity should stay undefinable with counting")
    parity = LanguageAnalysis(even_a)
    sub, ids = oracles.submonoid_view(parity.morphism.monoid, parity.stability.stable)
    if sub.size != 2:
        failures.append(f"letter parity stable monoid has size {sub.size}, want 2")
    else:
        other = 1 - sub.identity
        if sub.mul(other, other) != sub.identity:
            failures.append("stable monoid is not the two-element group")

    report(3, "stable monoids for the two parity languages", failures)


# --------------------------------------------------------------------------
# criterion 4: the two routes to the two-variable modular verdict agree

def test_criterion_4_two_variable_routes_agree_on_corpus():
    t0 = time.monotonic()
    failures = []
    instances = corpus()
    if len(instances) < 200:
        failures.append(f"corpus has {len(instances)} instances, want >= 200")
    for idx, d in enumerate(instances):
        via_stable_da, _ = LanguageAnalysis(d, max_monoid=CORPUS_CAP).check("fo2_mod_qda")
        via_context, _ = LanguageAnalysis(d, max_monoid=CORPUS_CAP).check("fo2_mod_new")
        if via_stable_da != via_context:
            failures.append((idx, via_stable_da, via_context))
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget 60s")
    report(4, f"{len(instances)} random languages, both routes agree, "
              f"{elapsed:.2f}s including generation", failures)


# --------------------------------------------------------------------------
# criterion 5: verdicts do not depend on which stability index is used

def test_criterion_5_index_multiplier_invariance():
    failures = []
    for idx, d in enumerate(corpus()):
        base = analyze(d, max_monoid=CORPUS_CAP).verdicts
        for mult in (2, 3):
            again = analyze(d, max_monoid=CORPUS_CAP, index_multiplier=mult).verdicts
            if again != base:
                failures.append((idx, mult))
    report(5, "verdicts unchanged at 2x and 3x the stability index", failures)


# --------------------------------------------------------------------------
# criterion 6: the ordered witness exists, is small, and is verified

def test_criterion_6_ordered_witness_on_every_positive_instance():
    failures = []
    hits = 0
    for idx, d in enumerate(corpus()):
        pipeline = LanguageAnalysis(d, max_monoid=CORPUS_CAP)
        ok, _ = pipeline.check("sigma2_mod")
        if not ok:
            continue
        hits += 1
        s = pipeline.stability.index
        size = pipeline.morphism.monoid.size
        g = build_mod_witness(pipeline.ordered, pipeline.stability)
        if g.monoid.size > s * s * size + 2:
            failures.append((idx, "size", g.monoid.size))
        (offender,) = local_condition(g.monoid, g.monoid.idempotents(), g.monoid.me_members,
                                      (g.monoid.leq,))
        if offender is not None:
            failures.append((idx, "local order condition"))
        verified, pair = verify_vmod_implication(pipeline.ordered, g, s, 2 * s + 2)
        if not verified:
            failures.append((idx, "implication", pair))
    if hits == 0:
        failures.append("no positive instances in the corpus")
    report(6, f"witness bounds and implication verified on {hits} instances",
           failures)


# --------------------------------------------------------------------------
# criterion 7: hand-built expressions satisfy the context identity and
# translate to equivalent sentences

def test_criterion_7_expression_suite():
    t0 = time.monotonic()
    failures = []
    names = [name for name, _, _, _ in exprsuite.VALID]
    if len(names) < 10:
        failures.append(f"only {len(names)} expressions")
    if "blocks_bc" not in names or "two_level" not in names:
        failures.append("required shapes missing from the suite")
    two_level = dict((n, e) for n, e, _, _ in exprsuite.VALID)["two_level"]
    if not (isinstance(two_level, DetProd) and isinstance(two_level.left, DetProd)):
        failures.append("two_level is not a nested guarded product")
    blocks = dict((n, e) for n, e, _, _ in exprsuite.VALID)["blocks_bc"]
    if not (isinstance(blocks, Base)
            and blocks.sets == (frozenset({"b"}), frozenset({"c"}))):
        failures.append("blocks_bc is not the two-letter block base")

    for name, expr, alphabet, _ in exprsuite.VALID:
        if validate(expr, alphabet):
            failures.append((name, "validator"))
            continue
        d = minimize(eval_expr(expr, alphabet))
        ok, _ = LanguageAnalysis(d).check("fo2_mod_new")
        if not ok:
            failures.append((name, "context identity"))
        translated = minimize(compile_formula(
            expr_to_formula(expr, alphabet), alphabet))
        same, sep = equivalent(d, translated)
        if not same:
            failures.append((name, "round trip", sep))
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget 60s")
    report(7, f"{len(names)} expressions checked in {elapsed:.2f}s", failures)


# --------------------------------------------------------------------------
# criterion 8: lifting a morphism on decorated letters into the counter
# product and projecting back preserves images

TRIVIAL = table_monoid([[0]])
Z2 = table_monoid([[0, 1], [1, 0]])
Z3 = table_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
U1 = table_monoid([[0, 1], [1, 1]])
U1_ORD = table_monoid([[0, 1], [1, 1]], leq=[[True, False], [True, True]])
FLIP = table_monoid([[0, 1, 2], [1, 1, 2], [2, 1, 2]])
Z4 = table_monoid([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
CATALOG = (TRIVIAL, Z2, Z3, U1, U1_ORD, FLIP, Z4)


def small_triples():
    for base in CATALOG:
        for n in (1, 2, 3):
            for letters, stride in ((("a",), 1), (("a", "b"), 1), (("a", "b"), 2)):
                dls = decorated_letters(letters, n)
                letter_map = {
                    dl: (i * stride + 1) % base.size for i, dl in enumerate(dls)}
                g = Morphism(monoid=base, alphabet=tuple(dls), letter_map=letter_map)
                yield base, n, letters, g


def test_criterion_8_lift_and_project_identities():
    failures = []
    count = 0
    for base, n, letters, g in small_triples():
        count += 1
        tag = (base.size, n, letters)
        lifted = lift_decorated_hom(g, n)
        for u in oracles.words(letters, 2 * n + 2):
            f, k = lifted.pairs[lifted.morphism.image(u)]
            if k != len(u) % n:
                failures.append((tag, u, "counter"))
                break
            if f[0] != g.image(decorate_word(u, n)):
                failures.append((tag, u, "first component"))
                break
        else:
            proj = project_hom(lifted)
            labels = {}
            coherent = True
            for a in letters:
                fa, _ = lifted.pairs[lifted.morphism.letter_map[a]]
                for i in range(1, n + 1):
                    dl = f"{a}@{i}"
                    labels[dl] = tuple(fa[(k + i - 1) % n] for k in range(n))
                    # first label component is the original decorated image
                    if labels[dl][0] != g.letter_map[dl]:
                        failures.append((tag, dl, "label"))
                        coherent = False
            if not coherent:
                continue
            seen = {}
            for u in oracles.words(letters, 2 * n + 2):
                du = decorate_word(u, n)
                folded = tuple(base.identity for _ in range(n))
                for dl in du:
                    folded = tuple(
                        base.mul(folded[j], labels[dl][j]) for j in range(n))
                f, _ = lifted.pairs[lifted.morphism.image(u)]
                if folded != f or folded[0] != g.image(du):
                    failures.append((tag, u, "projection"))
                    break
                x = proj.image(du)
                if x in seen and seen[x] != folded:
                    failures.append((tag, u, "projection collapse"))
                    break
                seen[x] = folded
    if count < 20:
        failures.append(f"only {count} triples")
    report(8, f"translation identities exhaustive to 2n+2 on {count} triples",
           failures)


# --------------------------------------------------------------------------
# criterion 9: structural invariants behind the criteria, on the corpus

def equivalence(leq):
    return leq & leq.T


def nontrivial_count(eq):
    seen: set = set()
    count = 0
    for x in range(eq.shape[0]):
        if x in seen:
            continue
        members = [int(y) for y in np.flatnonzero(eq[x])]
        seen.update(members)
        if len(members) > 1:
            count += 1
    return count


def test_criterion_9_structural_invariants_on_corpus():
    failures = []
    counts = {"green": 0, "idem": 0, "quotient": 0, "single": 0, "level": 0}
    for idx, d in enumerate(corpus()):
        h = transition_monoid(d, max_monoid=CORPUS_CAP)
        mon = h.monoid
        info = stability_info(h)
        green = oracles.green_classes(mon)
        r_eq = equivalence(green.r_leq)
        l_eq = equivalence(green.l_leq)
        rs_leq = oracles.stable_green_preorder(info, "Rs")
        ls_leq = oracles.stable_green_preorder(info, "Ls")
        rs_eq = equivalence(rs_leq)
        ls_eq = equivalence(ls_leq)
        context_eq = local_condition(mon, mon.idempotents(), info.mes_members) == (None,)

        # products with stable elements refine plain Green equivalence to
        # the stable one, on both sides
        counts["green"] += 1
        for x in mon.elements():
            for z in info.stable:
                xz = mon.mul(x, z)
                if r_eq[xz, x] and not rs_eq[xz, x]:
                    failures.append((idx, "stable-right", x, z))
                zx = mon.mul(z, x)
                if l_eq[zx, x] and not ls_eq[zx, x]:
                    failures.append((idx, "stable-left", x, z))

        # under the context identity, stable-J neighbours of idempotents
        # are idempotent
        if context_eq:
            counts["idem"] += 1
            js_eq = equivalence(oracles.stable_j_preorder(info))
            for e in mon.idempotents():
                for x in mon.elements():
                    if js_eq[x, e] and mon.mul(x, x) != x:
                        failures.append((idx, "stable-j-idempotent", e, x))

        # the stability index and the context identity survive both
        # signature quotients
        counts["quotient"] += 1
        for side in ("K", "D"):
            q = sim_quotient(h, side).quotient
            powers = oracles.power_images(q, 2 * info.index)
            if powers[info.index] != powers[2 * info.index]:
                failures.append((idx, side, "index lost"))
            if context_eq:
                q_info = stability_info(q)
                lost = local_condition(q.monoid, q.monoid.idempotents(), q_info.mes_members)
                if lost != (None,):
                    failures.append((idx, side, "context identity lost"))

        # if classes holding idempotents are singletons, all classes are
        counts["single"] += 1
        for eq, name in ((rs_eq, "Rs"), (ls_eq, "Ls")):
            idem_trivial = all(
                int(eq[e].sum()) == 1 for e in mon.idempotents())
            all_trivial = all(
                int(eq[x].sum()) == 1 for x in mon.elements())
            if idem_trivial and not all_trivial:
                failures.append((idx, name, "singleton propagation"))

        # under the context identity the level search terminates within
        # the class-counting bound on both sides
        if context_eq:
            counts["level"] += 1
            bound = nontrivial_count(rs_eq) + nontrivial_count(ls_eq) + 2
            levels = wv_level(h, max_level=bound)
            if levels.w is None or levels.v is None:
                failures.append((idx, "level", bound))

    report(9, "structural invariants on {} languages "
              "({idem} with the context identity)".format(
                  counts["green"], idem=counts["idem"]), failures)
