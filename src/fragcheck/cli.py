"""Command line interface.

Exit codes: 0 success (and "definable" / "true" for verdict commands),
1 negative verdict or detected inconsistency, 2 malformed input,
3 a size cap was exceeded.  All reports are deterministic byte for byte
for a fixed command line, including the randomized cross-check battery,
which is driven entirely by its seed.

The formula compiler (`fologic`), the modular products (`modprod`) and the
hierarchy levels (`hierarchy`) are imported by the handlers that use them,
so `analyze`, `check` and `witness` start without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .automata import (
    DEFAULT_STATE_CAP,
    DecoratedLetter,
    Dfa,
    complement,
    decorate,
    dfa_to_doc,
    dfa_to_json,
    equivalent,
    minimize,
    mod1,
    parse_dfa,
    regex_to_dfa,
    table_dfa,
)
from .errors import CapError, ConsistencyError, InputError
from .fragments import (
    FRAGMENTS,
    LanguageAnalysis,
    analyze,
    build_mod_witness,
    verify_vmod_implication,
)
from .monoid import (
    DEFAULT_MAX_MONOID,
    Morphism,
    _GATHER_IDS,
    _all,
    _any,
    complement_morphism,
    local_condition,
    syntactic_order,
    transition_monoid,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragcheck",
        description="Decide definability of regular languages in first-order "
        "fragments with and without modular predicates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def language_opts(p):
        p.add_argument("--dfa", metavar="FILE", help="JSON DFA document")
        p.add_argument("--regex", metavar="PATTERN", help="inline pattern")
        p.add_argument("--alphabet", metavar="LETTERS", help="comma separated")
        p.add_argument("--max-monoid", type=int, default=None, metavar="K")
        p.add_argument("--index-multiplier", type=int, default=1, metavar="T")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="full fragment report for a language")
    language_opts(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("check", help="one fragment; exit 0 iff definable")
    p.add_argument("--fragment", required=True, choices=FRAGMENTS)
    language_opts(p)
    p.set_defaults(handler=_cmd_check)

    fo = sub.add_parser("fo", help="first-order formulas")
    fo_sub = fo.add_subparsers(dest="subcommand", required=True)
    p = fo_sub.add_parser("compile", help="sentence to minimal DFA")
    p.add_argument("--formula", metavar="FILE")
    p.add_argument("--sexp", metavar="TEXT")
    p.add_argument("--alphabet", metavar="LETTERS")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_fo_compile)
    p = fo_sub.add_parser("eval", help="truth on one word; exit 0 iff true")
    p.add_argument("--formula", metavar="FILE")
    p.add_argument("--sexp", metavar="TEXT")
    p.add_argument("--word", required=True, metavar="WORD")
    p.set_defaults(handler=_cmd_fo_eval)

    ex = sub.add_parser("expr", help="modular product expressions")
    ex_sub = ex.add_subparsers(dest="subcommand", required=True)
    p = ex_sub.add_parser("check", help="side conditions; exit 0 iff all hold")
    p.add_argument("--expr", metavar="FILE")
    p.add_argument("--sexp", metavar="TEXT")
    p.add_argument("--alphabet", required=True, metavar="LETTERS")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_expr_check)
    p = ex_sub.add_parser("to-fo", help="translate to a two-variable sentence")
    p.add_argument("--expr", metavar="FILE")
    p.add_argument("--sexp", metavar="TEXT")
    p.add_argument("--alphabet", required=True, metavar="LETTERS")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_expr_to_fo)

    p = sub.add_parser("witness", help="ordered witness for sigma2_mod")
    language_opts(p)
    p.add_argument("--max-len", type=int, default=None, metavar="L",
                   help="verify word pairs up to this length (default 2s+2)")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("xcheck", help="randomized cross-validation battery")
    p.add_argument("--count", type=int, default=50, metavar="N")
    p.add_argument("--max-states", type=int, default=5, metavar="S",
                   help=f"states per draw, 2 to {MAX_DRAW_STATES} (default 5)")
    p.add_argument("--max-letters", type=int, default=3, metavar="L",
                   help=f"letters per draw, 1 to {MAX_DRAW_LETTERS} (default 3)")
    p.add_argument("--seed", type=int, default=0, metavar="SEED")
    p.add_argument("--max-monoid", type=int, default=None, metavar="K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_xcheck)

    return parser


# Largest --max-monoid / FRAGCHECK_MAX_MONOID: a monoid of K elements is
# held as a K x K int64 table, 8 K^2 bytes, 2 GiB at this ceiling.
MAX_MONOID_CEILING = 16_384


def _resolve_cap(value: int | None) -> int:
    """The monoid cap: the flag, else FRAGCHECK_MAX_MONOID, else the
    default; one that is not in 1..MAX_MONOID_CEILING raises InputError."""
    name = "--max-monoid"
    if value is None:
        env = os.environ.get("FRAGCHECK_MAX_MONOID")
        if env is None:
            return DEFAULT_MAX_MONOID
        name = "FRAGCHECK_MAX_MONOID"
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"{name} is not an integer: {env!r}") from None
    if value < 1:
        raise InputError(f"{name} must be positive")
    if value > MAX_MONOID_CEILING:
        raise InputError(f"{name} must be at most {MAX_MONOID_CEILING}")
    return value


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _split_alphabet(text: str) -> list[str]:
    letters = [a for a in text.split(",") if a]
    if not letters:
        raise InputError("empty alphabet")
    if len(set(letters)) != len(letters):
        raise InputError("duplicate letters in alphabet")
    return letters


def _load_dfa(args) -> tuple[Dfa, str]:
    if (args.dfa is None) == (args.regex is None):
        raise InputError("exactly one of --dfa and --regex is required")
    if args.dfa is not None:
        if args.alphabet is not None:
            raise InputError("the DFA document fixes its own alphabet")
        return parse_dfa(_read_file(args.dfa)), os.path.basename(args.dfa)
    alphabet = _split_alphabet(args.alphabet) if args.alphabet else None
    return regex_to_dfa(args.regex, alphabet), args.regex


def _load_formula(args):
    from .fologic import parse_formula_document
    if (args.formula is None) == (args.sexp is None):
        raise InputError("exactly one of --formula and --sexp is required")
    text = _read_file(args.formula) if args.formula else args.sexp
    return parse_formula_document(text)


def _formula_alphabet(args, doc_alphabet, formula) -> list[str]:
    from .fologic import formula_letters
    if getattr(args, "alphabet", None):
        return _split_alphabet(args.alphabet)
    if doc_alphabet:
        return doc_alphabet
    letters = sorted(formula_letters(formula))
    if not letters:
        raise InputError("no alphabet: pass --alphabet or mention letters")
    return letters


def _load_expr(args):
    from .modprod import parse_expr
    if (args.expr is None) == (args.sexp is None):
        raise InputError("exactly one of --expr and --sexp is required")
    text = _read_file(args.expr) if args.expr else args.sexp
    return parse_expr(text)


def _parse_word(text: str) -> tuple:
    if not text:
        return ()
    if "," in text:
        return tuple(a for a in text.split(",") if a)
    return tuple(text)


def _multiplier(args) -> int:
    mult = getattr(args, "index_multiplier", 1)
    if mult < 1:
        raise InputError("--index-multiplier must be positive")
    return mult


def _emit(out, doc: dict):
    out.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands

def _cmd_analyze(args, out) -> int:
    cap = _resolve_cap(args.max_monoid)
    d, lid = _load_dfa(args)
    report = analyze(
        d,
        language_id=lid,
        max_monoid=cap,
        index_multiplier=_multiplier(args),
    )
    if args.json:
        _emit(out, report.to_doc())
    else:
        out.write(report.to_text())
    return 0


def _cmd_check(args, out) -> int:
    cap = _resolve_cap(args.max_monoid)
    d, _ = _load_dfa(args)
    pipeline = LanguageAnalysis(
        d,
        max_monoid=cap,
        index_multiplier=_multiplier(args),
    )
    ok, witness = pipeline.check(args.fragment)
    if args.json:
        _emit(out, {
            "fragment": args.fragment,
            "definable": ok,
            "witness": None if witness is None else {
                "idempotent": witness[0], "element": witness[1],
            },
        })
    elif ok:
        out.write(f"{args.fragment}: definable\n")
    else:
        out.write(
            f"{args.fragment}: not definable (e={witness[0]} x={witness[1]})\n"
        )
    return 0 if ok else 1


def _cmd_fo_compile(args, out) -> int:
    from .fologic import compile_formula, formula_stats
    doc_alphabet, formula = _load_formula(args)
    alphabet = _formula_alphabet(args, doc_alphabet, formula)
    d = compile_formula(formula, alphabet)
    if args.json:
        _emit(out, {"stats": formula_stats(formula), "dfa": dfa_to_doc(d)})
    else:
        out.write(dfa_to_json(d) + "\n")
    return 0


def _cmd_fo_eval(args, out) -> int:
    from .fologic import eval_formula
    _, formula = _load_formula(args)
    value = eval_formula(formula, _parse_word(args.word))
    out.write("true\n" if value else "false\n")
    return 0 if value else 1


def _cmd_expr_check(args, out) -> int:
    from .modprod import validate
    expr = _load_expr(args)
    alphabet = _split_alphabet(args.alphabet)
    violations = validate(expr, alphabet)
    if args.json:
        _emit(out, {
            "valid": not violations,
            "violations": [
                {
                    "path": v.path,
                    "rule": v.rule,
                    "message": v.message,
                    "witness": v.witness,
                }
                for v in violations
            ],
        })
    elif not violations:
        out.write("ok\n")
    else:
        for v in violations:
            tail = "" if v.witness is None else f" [{v.witness}]"
            out.write(f"{v.path} {v.rule}: {v.message}{tail}\n")
    return 0 if not violations else 1


def _cmd_expr_to_fo(args, out) -> int:
    from .fologic import formula_stats, to_sexp
    from .modprod import expr_to_formula
    expr = _load_expr(args)
    alphabet = _split_alphabet(args.alphabet)
    formula = expr_to_formula(expr, alphabet)
    if args.json:
        _emit(out, {"formula": to_sexp(formula), "stats": formula_stats(formula)})
    else:
        out.write(to_sexp(formula) + "\n")
    return 0


def _cmd_witness(args, out) -> int:
    if args.max_len is not None and args.max_len < 0:
        raise InputError("--max-len must not be negative")
    cap = _resolve_cap(args.max_monoid)
    d, _ = _load_dfa(args)
    pipeline = LanguageAnalysis(
        d,
        max_monoid=cap,
        index_multiplier=_multiplier(args),
    )
    ok, witness = pipeline.check("sigma2_mod")
    if not ok:
        if args.json:
            _emit(out, {
                "sigma2_mod": False,
                "witness": {"idempotent": witness[0], "element": witness[1]},
            })
        else:
            out.write(
                f"sigma2_mod: not definable (e={witness[0]} x={witness[1]})\n"
            )
        return 1
    g = build_mod_witness(pipeline.ordered, pipeline.stability, cap)
    s = pipeline.stability.index
    size = pipeline.morphism.monoid.size
    bound = s * s * size + 2
    max_len = args.max_len if args.max_len is not None else 2 * s + 2
    holds, pair = verify_vmod_implication(pipeline.ordered, g, s, max_len)
    if args.json:
        doc = {
            "sigma2_mod": True,
            "stability_index": s,
            "monoid_size": size,
            "witness_size": g.monoid.size,
            "witness_bound": bound,
            "verified_to_length": max_len,
            "implication_holds": holds,
        }
        if pair is not None:
            doc["counterexample"] = ["".join(pair[0]), "".join(pair[1])]
        _emit(out, doc)
    else:
        out.write(f"stability index {s}\n")
        out.write(f"syntactic monoid size {size}\n")
        out.write(f"witness monoid size {g.monoid.size} (bound {bound})\n")
        if holds:
            out.write(
                f"order implication verified for word pairs up to length {max_len}\n"
            )
        else:
            out.write(
                "order implication FAILED on "
                f"u={''.join(pair[0])} v={''.join(pair[1])}\n"
            )
    return 0 if holds else 1


# ---------------------------------------------------------------------------
# Randomized cross-validation

# Upper bounds of `xcheck --max-states` and `--max-letters`: the letters are
# named a to z, and a draw at both bounds takes about 10 ms to make, minimise
# and refuse under a tiny monoid cap, and 45 ms under the default cap
# (2-core x86-64, CPython 3.11).
MAX_DRAW_STATES = 64
MAX_DRAW_LETTERS = 26


def random_dfa(rng: np.random.Generator, max_states: int, max_letters: int) -> Dfa:
    """One random machine: uniform transition table over a uniform state
    count (2..max) and letter count (1..max), final sets uniform among the
    proper nonempty subsets, initial state fixed at 0; the Dfa keeps the
    states reachable from it."""
    n = int(rng.integers(2, max_states + 1))
    k = int(rng.integers(1, max_letters + 1))
    letters = [chr(ord("a") + i) for i in range(k)]
    rows = [[int(rng.integers(0, n)) for _ in letters] for _ in range(n)]
    while True:
        mask = rng.integers(0, 2, size=n).astype(bool)
        if _any(mask) and not _all(mask):
            break
    return table_dfa(letters, (rows, mask.tolist()))


def _draws(count: int, max_states: int, max_letters: int, seed: int, max_monoid: int):
    """Yield `count` pairs (minimized random DFA, its syntactic morphism)
    whose monoids fit under the cap, drawing lazily; oversized draws are
    discarded.  A state count outside 2..MAX_DRAW_STATES, a letter count
    outside 1..MAX_DRAW_LETTERS or a negative seed raises InputError
    before anything is drawn."""
    if max_states < 2:
        raise InputError("--max-states must be at least 2")
    if max_states > MAX_DRAW_STATES:
        raise InputError(f"--max-states must be at most {MAX_DRAW_STATES}")
    if max_letters < 1:
        raise InputError("--max-letters must be at least 1")
    if max_letters > MAX_DRAW_LETTERS:
        raise InputError(f"--max-letters must be at most {MAX_DRAW_LETTERS}")
    if seed < 0:
        raise InputError("--seed must not be negative")
    rng = np.random.default_rng(seed)
    made = attempts = 0
    while made < count:
        attempts += 1
        if attempts > 100 * count + 1000:
            raise CapError("could not generate the corpus under the monoid cap")
        d = minimize(random_dfa(rng, max_states, max_letters))
        try:
            morphism = transition_monoid(d, max_monoid)
        except CapError:
            continue
        made += 1
        yield d, morphism


def generate_corpus(
    count: int,
    max_states: int,
    max_letters: int,
    seed: int,
    max_monoid: int,
) -> list[Dfa]:
    """Deterministic corpus of minimized random DFAs whose syntactic
    monoids fit under the cap; oversized draws are discarded."""
    return [d for d, _ in _draws(count, max_states, max_letters, seed, max_monoid)]


_DUAL = {
    "fo_lt": "fo_lt",
    "fo2_lt": "fo2_lt",
    "sigma2_lt": "pi2_lt",
    "pi2_lt": "sigma2_lt",
    "delta2_lt": "delta2_lt",
    "fo_mod": "fo_mod",
    "fo2_mod_qda": "fo2_mod_qda",
    "sigma2_mod": "pi2_mod",
    "pi2_mod": "sigma2_mod",
    "delta2_mod": "delta2_mod",
    "fo2_mod_new": "fo2_mod_new",
}

_IMPLICATIONS = (
    ("sigma2_lt", "sigma2_mod"),
    ("pi2_lt", "pi2_mod"),
    ("fo_lt", "fo_mod"),
    ("fo2_lt", "fo2_mod_qda"),
    ("sigma2_lt", "fo_lt"),
    ("pi2_lt", "fo_lt"),
    ("fo2_mod_new", "fo_mod"),
)


def xcheck_battery(minimal: Dfa, max_monoid: int, morphism: Morphism | None = None) -> list[str]:
    """Cross-validation invariants for one language, given by its minimal
    DFA `minimal`, as `_draws` and `generate_corpus` yield them.  Returns
    the names of the failed checks (empty when everything agrees); a DFA
    that is not minimal fails `minimize-idempotent`.  `morphism`, when
    given, is the syntactic morphism of L(minimal), as `LanguageAnalysis`
    takes it.

    One monoid serves the whole battery: the complement's syntactic
    morphism is `complement_morphism` of the language's, one table with
    two orders.  The sharing is exact, also for an input that is not
    minimal: element ids come from words, and the table depends only on
    the rows of the minimal automaton, which the complement shares with
    its final states flipped.  What the duality checks compare is still
    derived on its own from the complement's accepting set: its order,
    built by `syntactic_order` and never taken as a transpose, and the
    verdicts that read it.

    The four analyses (x1, the complement, x2, x3) share each verdict
    that reads neither their own s nor their own order, through the memo
    that the two morphisms share, where `LanguageAnalysis` keys a verdict
    by its fragment, by the multiplier only if it reads s, and by the
    monoid that carries the order only if it reads the order: fo_lt,
    fo2_lt, fo_mod and fo2_mod_qda are decided once per language,
    fo2_mod_new once per multiplier, and the order verdicts of M once per
    order.  No check loses power by this:
    for those verdicts the index-invariance and duality checks compared
    the outputs of one deterministic computation on one table, which
    could not differ; what reads s or the order is still computed by
    every analysis it belongs to, and `analyze`'s consistency assertions,
    fo2_mod_qda against fo2_mod_new included, run at every multiplier."""
    failures: list[str] = []

    again = minimize(minimal)
    if len(again.rows) != len(minimal.rows) or not equivalent(again, minimal)[0]:
        failures.append("minimize-idempotent")

    co_minimal = complement(minimal)
    if not equivalent(complement(co_minimal), minimal)[0]:
        failures.append("complement-involution")

    # one syntactic morphism per language, shared by the analyses at every
    # index multiplier and, with the complementary accepting set and an
    # order of its own, by the complement's analysis
    pipeline = LanguageAnalysis(minimal, max_monoid=max_monoid, morphism=morphism)
    morphism = pipeline.morphism
    mon = morphism.monoid
    try:
        report = analyze(minimal, max_monoid=max_monoid, morphism=morphism)
    except ConsistencyError:
        failures.append("analyze-consistency")
        return failures

    # the monoid acting on itself: row x holds x times each letter's image,
    # and the identity is id 0 (`generated_morphism`)
    rows = mon.mult[:, [morphism.letter_map[a] for a in morphism.alphabet]].tolist()
    rebuilt = table_dfa(morphism.alphabet,
                        (rows, [x in morphism.accepting for x in range(mon.size)]))
    if not equivalent(rebuilt, minimal)[0]:
        failures.append("recognition-rebuild")

    co_morphism = complement_morphism(morphism)
    co_report = analyze(co_minimal, max_monoid=max_monoid, morphism=co_morphism)
    for fid in FRAGMENTS:
        if report.verdicts[fid] != co_report.verdicts[_DUAL[fid]]:
            failures.append("complement-duality")
            break

    for mult in (2, 3):
        stretched = analyze(
            minimal, max_monoid=max_monoid, index_multiplier=mult, morphism=morphism)
        if stretched.verdicts != report.verdicts:
            failures.append("index-invariance")
            break

    for weaker, stronger in _IMPLICATIONS:
        if report.verdicts[weaker] and not report.verdicts[stronger]:
            failures.append("fragment-implications")
            break
    if report.verdicts["fo2_lt"] != report.verdicts["delta2_lt"]:
        failures.append("two-var-alternation-collapse")

    # Mes inside Me, once per distinct pair of member arrays (each Me is
    # shared by its J-class, each Mes by its usable-letter pattern)
    info = pipeline.stability
    s = info.index
    pairs = {}
    for e in mon.idempotents():
        me, mes = mon.me_members(e), info.mes_members(e)
        pairs[id(me), id(mes)] = (me, mes)
    for me, mes in pairs.values():
        inside = np.zeros(mon.size, dtype=bool)
        inside[me] = True
        if not _all(inside[mes]):
            failures.append("stable-subset")
            break

    # the stable set at 2s, {1} | X_2s = {1} | X_s X_s, read from the table
    # in blocks of rows of about _GATHER_IDS products
    x_s = info.powers.at(s)
    doubled = np.zeros(mon.size, dtype=bool)
    block = max(1, _GATHER_IDS // max(1, x_s.size))
    for lo in range(0, x_s.size, block):
        doubled[mon.mult[x_s[lo:lo + block, None], x_s]] = True
    doubled[mon.identity] = True
    if doubled.nonzero()[0].tobytes() != info.stable.tobytes():
        failures.append("stable-invariance")

    # Every word w up to length 4: its decoration must be accepted iff w
    # is, and its decoration at offset 1 never (for n > 1).  Both tests
    # read only |w| and the triple of states reached by w in `minimal`, by
    # its decoration and by its decoration at offset 1; the triple of w a
    # follows from that of w and the letter a.  So the words are walked
    # breadth first by length, one per distinct triple, which covers the
    # same words and verdicts as enumerating them all.
    for n in (2, 3):
        decorated = decorate(minimal, n)
        rows, accepting = decorated.rows, decorated.accepting
        # texts[i][c]: the c-th letter decorated with the residue of i + 1
        texts = [[DecoratedLetter(a, mod1(i + 1, n)).text for a in minimal.alphabet]
                 for i in range(n + 1)]
        missing = [text for row in texts for text in row if text not in decorated.columns]
        if missing:  # as `Dfa.run` refuses them
            raise InputError(f"letter {missing[0]!r} outside alphabet")
        column = [list(map(decorated.columns.get, row)) for row in texts]
        ok = accepting[0] == minimal.accepting[0]
        triples = {(0, 0, 0)}
        for length in range(1, 5):
            # the letter at position `length`, decorated at offsets 0 and 1
            at, after = column[(length - 1) % n], column[(length - 1) % n + 1]
            triples = {
                (minimal.rows[q][c], rows[p][at[c]], rows[p1][after[c]])
                for q, p, p1 in triples
                for c in range(len(at))
            }
            for q, p, p1 in triples:
                if accepting[p] != minimal.accepting[q] or (n > 1 and accepting[p1]):
                    ok = False
        if not ok:
            failures.append("decoration-membership")
            break

    co_ordered = syntactic_order(co_morphism)
    ordered = pipeline.ordered
    if co_ordered.monoid.size != mon.size or not (
        _all(co_ordered.monoid.leq == ordered.monoid.leq.T)
    ):
        failures.append("order-duality")

    if report.verdicts["sigma2_mod"] and s * s * mon.size <= 400:
        g = build_mod_witness(ordered, info)
        # one idempotent per regular J-class decides e Me e <= e (`JClasses`)
        (offender,) = local_condition(g.monoid, g.monoid.j_classes().representatives(),
                                      g.monoid.me_members, (g.monoid.leq,))
        if offender is not None:
            failures.append("witness-local-condition")
        holds, _ = verify_vmod_implication(ordered, g, s, 2 * s + 2)
        if not holds:
            failures.append("witness-implication")

    if report.verdicts["fo2_mod_new"]:
        from .hierarchy import wv_level
        levels = wv_level(morphism, max_level=mon.size + 2)
        if levels.w is None or levels.v is None:
            failures.append("hierarchy-bound")

    return failures


def _cmd_xcheck(args, out) -> int:
    cap = _resolve_cap(args.max_monoid)
    if args.count < 1:
        raise InputError("--count must be positive")
    draws = _draws(args.count, args.max_states, args.max_letters, args.seed, cap)
    entries = []
    failed = 0
    for idx, (d, morphism) in enumerate(draws):
        monoid_size = morphism.monoid.size
        failures = xcheck_battery(d, cap, morphism)
        if failures:
            failed += 1
        entries.append((idx, d, monoid_size, failures))
    if args.json:
        _emit(out, {
            "seed": args.seed,
            "count": args.count,
            "failed": failed,
            "instances": [
                {
                    "index": idx,
                    "states": len(d.rows),
                    "letters": len(d.alphabet),
                    "monoid": monoid_size,
                    "failures": failures,
                    **({"dfa": dfa_to_doc(d)} if failures else {}),
                }
                for idx, d, monoid_size, failures in entries
            ],
        })
    else:
        for idx, d, monoid_size, failures in entries:
            status = "ok" if not failures else "FAIL " + ",".join(failures)
            out.write(
                f"instance {idx:03d} states={len(d.rows)} "
                f"letters={len(d.alphabet)} monoid={monoid_size} {status}\n"
            )
            if failures:
                out.write(dfa_to_json(d) + "\n")
        out.write(f"{args.count} instances, {failed} with failures\n")
    return 1 if failed else 0


def run(args, out) -> int:
    """Run the command that `build_parser` parsed into `args`, writing its
    report to `out`; returns the exit code."""
    return args.handler(args, out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args, sys.stdout)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
