"""The benchmark's four workloads: seeded inputs, timed items, output checks.

A workload turns a seed and a run length into a fixed list of items.  One
item is one call a user of the library would make; its result is checked
afterwards against references that do not come from the code under test.
Every call goes through a module attribute (``fragments.analyze``, not a
local name) so that the tracer's wrappers see it.

Random languages have heavy-tailed costs: in the acceptance corpus shape
at seed 1, one language (|M| = 1292) takes 19 of the corpus's 48 s.  So
that a run measures the program and not the luck of its seed, `corpus`
and `xcheck` draw languages until every |M| stratum holds a fixed quota,
with quotas in the shape's natural mix below a monoid cap, and `ladder`
draws its few large languages once from a fixed seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from fragcheck import automata, cli, fologic, fragments, modprod, monoid, stability
from fragcheck.errors import CapError

import data

# |M| strata: [1,2) [2,3) [3,4) [4,5) [5,7) [7,9) [9,13) ... [97,129).
STRATA = (1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129)

# Languages per block of about 200, by |M| stratum (rows) and letter count
# (columns 1, 2, 3): the natural mix of the CLI's random shape below
# |M| = 128, measured over 3000 draws, with cells rarer than 0.5% left out.
NATURAL_MIX = (
    (31, 14, 6), (27, 12, 6), (11, 4, 4), (2, 8, 12), (0, 4, 2), (0, 3, 2),
    (0, 5, 5), (0, 3, 3), (0, 6, 7), (0, 1, 2), (0, 3, 3), (0, 1, 3),
    (0, 2, 5), (0, 2, 2),
)


@dataclass
class Inputs:
    languages: list  # (language id, minimal Dfa)
    items: list  # (label, zero-argument call)


def _draw_seed(seed: int, chunk: int) -> int:
    return int(np.random.SeedSequence([seed, chunk]).generate_state(1)[0])


def stratified_corpus(seed: int, blocks: int, cap: int) -> list:
    """`blocks` times NATURAL_MIX of languages with |M| <= cap, in the
    CLI's default random shape (at most 5 states and 3 letters).  Draws
    come from `cli.generate_corpus` in seeded chunks; a draw whose cell is
    full is skipped, and the result keeps the draw order."""
    strata = int(np.searchsorted(STRATA, cap + 1, side="right")) - 1  # rows within the cap
    want = {(row, k + 1): blocks * n
            for row, counts in enumerate(NATURAL_MIX[:strata])
            for k, n in enumerate(counts)}
    have = dict.fromkeys(want, 0)
    out = []
    chunk = 0
    while have != want:
        for d in cli.generate_corpus(200, 5, 3, _draw_seed(seed, chunk), cap):
            size = monoid.transition_monoid(d, cap).monoid.size
            cell = (int(np.searchsorted(STRATA, size, side="right")) - 1, len(d.alphabet))
            if have.get(cell, 0) < want.get(cell, 0):
                have[cell] += 1
                out.append(d)
        chunk += 1
    return out


def transformation(d, word) -> tuple:
    """The action of a word on the states of `d`, read from `d.delta` alone."""
    out = []
    for q in d.states:
        for a in word:
            q = d.delta[(q, a)]
        out.append(q)
    return tuple(out)


def parse_witness_word(text: str) -> tuple:
    if text == "ε":
        return ()
    return tuple(text.split(" ")) if " " in text else tuple(text)


def witness_failures(d, doc: dict) -> list[str]:
    """Replay every negative verdict's witness (e, x) on the DFA: t(e) must
    be idempotent, and t(e x e) must differ from t(e) -- or t(e x) for the
    aperiodicity fragments fo_lt and fo_mod."""
    bad = []
    for fid, entry in doc["fragments"].items():
        if entry["definable"]:
            continue
        witness = entry["witness"]
        if witness is None:
            bad.append(f"{fid}: negative verdict without a witness")
            continue
        e = parse_witness_word(witness["idempotent"])
        x = parse_witness_word(witness["element"])
        te = transformation(d, e)
        if transformation(d, e + e) != te:
            bad.append(f"{fid}: witness e={witness['idempotent']} is not idempotent")
        elif fid in ("fo_lt", "fo_mod"):
            if transformation(d, e + x) == te:
                bad.append(f"{fid}: e x = e for witness {witness}")
        elif transformation(d, e + x + e) == te:
            bad.append(f"{fid}: e x e = e for witness {witness}")
    return bad


def verdicts(doc: dict) -> tuple:
    return tuple(doc["fragments"][fid]["definable"] for fid in fragments.FRAGMENTS)


def bfs_monoid_size(d) -> int:
    """The number of distinct state transformations of `d`, by a plain
    breadth-first search from the identity over the letters."""
    index = {q: i for i, q in enumerate(d.states)}
    letters = [tuple(index[d.delta[(q, a)]] for q in d.states) for a in d.alphabet]
    start = tuple(range(len(d.states)))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for g in letters:
                u = tuple(g[s] for s in t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


SIZE_NAMES = (
    "sizes.dfa_states", "sizes.monoid_elements", "sizes.idempotents",
    "sizes.stable_elements", "sizes.stability_index", "sizes.me_elements",
    "sizes.mes_elements",
)


def _local_sizes(m, info) -> tuple[int, int]:
    """Sum over the idempotents e of |Me| and |Mes|, by vectorised closures
    of the benchmark's own (the library's scalar ones take a minute on the
    ladder).  Me is generated by {a : e in MaM}; Mes is what words of
    length divisible by s reach when each letter must admit a context at
    its position residue that maps to e."""
    mon = m.monoid
    mult, identity, s = mon.mult, mon.identity, info.index
    right = [mult[:, m.letter_map[a]] for a in m.alphabet]
    me_total = mes_total = 0
    for e in mon.idempotents():
        generators = np.flatnonzero((mult == e).any(axis=1)[mult].any(axis=0))
        seen = np.zeros(mon.size, dtype=bool)
        seen[identity] = True
        frontier = np.array([identity])
        while frontier.size:
            reached = np.unique(mult[np.ix_(frontier, generators)])
            frontier = reached[~seen[reached]]
            seen[frontier] = True
        me_total += int(seen.sum())

        usable = [[e in info.admissible_images(a, r) for r in range(s)] for a in m.alphabet]
        reach = np.zeros((s, mon.size), dtype=bool)
        reach[0, identity] = True
        fronts = {0: np.array([identity])}
        while fronts:
            grown = {}
            for r, xs in fronts.items():
                r2 = (r + 1) % s
                for k, col in enumerate(right):
                    if usable[k][r]:
                        ys = np.unique(col[xs])
                        ys = ys[~reach[r2, ys]]
                        reach[r2, ys] = True
                        if ys.size:
                            grown[r2] = np.concatenate([grown.get(r2, ys[:0]), ys])
            fronts = grown
        mes_total += int(reach[0].sum())
    return me_total, mes_total


def size_counts(dfas, cap: int = monoid.DEFAULT_MAX_MONOID) -> dict:
    """Exact sizes of the objects behind a workload, summed over its
    languages: states, |M|, idempotents, |stable|, s, and the sizes of Me
    and Mes over every idempotent e."""
    totals = dict.fromkeys(SIZE_NAMES, 0)
    for d in dfas:
        m = monoid.transition_monoid(d, cap)
        info = stability.stability_info(m)
        me, mes = _local_sizes(m, info)
        totals["sizes.dfa_states"] += len(automata.minimize(d).states)
        totals["sizes.monoid_elements"] += m.monoid.size
        totals["sizes.idempotents"] += len(m.monoid.idempotents())
        totals["sizes.stable_elements"] += len(info.stable)
        totals["sizes.stability_index"] += info.index
        totals["sizes.me_elements"] += me
        totals["sizes.mes_elements"] += mes
    return totals


def _analyze_call(d, lid: str, cap: int, mult: int):
    def call():
        report = fragments.analyze(d, language_id=lid, max_monoid=cap, index_multiplier=mult)
        return json.dumps(report.to_doc())
    return call


# ---------------------------------------------------------------------------


class Workload:
    # item_tail_ms is this percentile of the item times: the highest of
    # p99/p95/p90/p50 that has at least ten items beyond it and whose value
    # held within a few percent across seeds (p99 of the random workloads
    # moved by 15-25% between seeds, being set by a handful of items)
    tail_percentile = 95.0

    def summary(self, result):
        """A comparable form of one item's result."""
        return result

    def dfas(self, inputs: Inputs, results: dict) -> list:
        """The minimal DFAs the items are about, for the size fingerprint."""
        return [d for _, d in inputs.languages]


class Corpus(Workload):
    name = "corpus"
    why = ("many tiny monoids (|M| <= 128), each at index multiplier 1 and 3, so per-call "
           "overhead dominates; monoid and stability changes should move items_per_s and "
           "item_p50_ms here second")
    cap = 128
    blocks_per_second = 0.5

    def generate(self, seed: int, seconds: int) -> Inputs:
        blocks = max(1, round(seconds * self.blocks_per_second))
        drawn = stratified_corpus(seed, blocks, self.cap)
        languages = [(f"r{i:04d}", d) for i, d in enumerate(drawn)]
        for name, pattern, extra, _ in data.EXAMPLES:
            if extra == "complement":
                d = automata.minimize(automata.complement(automata.regex_to_dfa(pattern)))
            else:
                d = automata.minimize(automata.regex_to_dfa(pattern, extra))
            languages.append((name, d))
        items = [
            (f"{lid}@x{mult}", _analyze_call(d, lid, self.cap, mult))
            for lid, d in languages
            for mult in (1, 3)
        ]
        return Inputs(languages, items)

    def check(self, inputs: Inputs, results: dict) -> dict:
        expected = {name: row for name, _, _, row in data.EXAMPLES}
        bad = {}
        for lid, d in inputs.languages:
            docs = {m: results.get(f"{lid}@x{m}") for m in (1, 3)}
            for mult, text in docs.items():
                if text is None:
                    continue
                doc = json.loads(text)
                problems = witness_failures(d, doc)
                want = expected.get(lid)
                if want is not None and verdicts(doc) != want:
                    problems.append(f"verdicts {verdicts(doc)} differ from the matrix {want}")
                if problems:
                    bad[f"{lid}@x{mult}"] = problems
            if None not in docs.values():
                one, three = (verdicts(json.loads(docs[m])) for m in (1, 3))
                if one != three:
                    bad.setdefault(f"{lid}@x3", []).append("x1 and x3 verdicts differ")
        return bad


class Ladder(Workload):
    """Minimal 7-state 2-letter DFAs in |M| bands, each analysed once.

    At equal |M| the cost of one language still varies threefold, and a
    run holds only about twenty of them, so a fresh draw per seed would
    measure the draw.  The languages are therefore drawn once, from a
    fixed seed; --seed renames their states and orders them.  Letters keep
    their names: renaming them renumbers the monoid, which moves the first
    counterexample each verdict check stops at, and with it the cost.
    """

    name = "ladder"
    why = ("fixed 7-state 2-letter languages at |M| 200-800, each analysed once; "
           "monoid.syntactic_order and transition_monoid should move items_per_s, "
           "item_p50_ms and peak_rss_mb here most")
    states = 7
    letters = ("a", "b")
    tolerance = 0.03
    draw_seed = 2026
    # |M| band -> languages per minute of run.  There is no 1000 band: one
    # such language takes 10-25 s, longer than a run.
    bands = {200: 65, 400: 20, 600: 10, 800: 5}
    cap = 2000
    tail_percentile = 50.0

    def quotas(self, seconds: int) -> dict:
        return {band: max(1, round(per * seconds / 60)) for band, per in self.bands.items()}

    def draw(self, seconds: int) -> list:
        quotas = self.quotas(seconds)
        chosen = {band: [] for band in quotas}
        limit = int(max(quotas) * (1 + self.tolerance))
        rng = np.random.default_rng(self.draw_seed)
        names = [f"q{i}" for i in range(self.states)]
        while any(len(chosen[b]) < q for b, q in quotas.items()):
            targets = rng.integers(0, self.states, size=(self.states, len(self.letters)))
            finals = rng.integers(0, 2, size=self.states).astype(bool)
            if finals.all() or not finals.any():
                continue
            delta = {
                (q, a): names[targets[i, j]]
                for i, q in enumerate(names)
                for j, a in enumerate(self.letters)
            }
            d = automata.minimize(automata.make_dfa(
                self.letters, names, names[0],
                [q for q, f in zip(names, finals) if f], delta,
            ))
            if len(d.states) != self.states:
                continue
            try:
                size = monoid.transition_monoid(d, limit).monoid.size
            except CapError:
                continue
            for band, quota in quotas.items():
                if abs(size - band) <= band * self.tolerance and len(chosen[band]) < quota:
                    chosen[band].append(d)
        return [d for group in chosen.values() for d in group]

    def generate(self, seed: int, seconds: int) -> Inputs:
        rng = np.random.default_rng(seed)
        drawn = self.draw(seconds)
        languages = []
        for i, k in enumerate(rng.permutation(len(drawn))):
            d = drawn[k]
            state = dict(zip(d.states, (f"s{j}" for j in rng.permutation(len(d.states)))))
            renamed = automata.make_dfa(
                d.alphabet, sorted(state.values()), state[d.initial],
                [state[q] for q in d.finals],
                {(state[q], a): state[t] for (q, a), t in d.delta.items()},
            )
            languages.append((f"m{i:03d}", renamed))
        items = [(lid, _analyze_call(d, lid, self.cap, 1)) for lid, d in languages]
        return Inputs(languages, items)

    def check(self, inputs: Inputs, results: dict) -> dict:
        bad = {}
        for lid, d in inputs.languages:
            text = results.get(lid)
            if text is None:
                continue
            doc = json.loads(text)
            problems = witness_failures(d, doc)
            size = bfs_monoid_size(d)
            if doc["monoid_size"] != size:
                problems.append(f"|M| = {doc['monoid_size']}, BFS count {size}")
            if problems:
                bad[lid] = problems
        return bad


class Xcheck(Workload):
    """The battery on stratified random languages with |M| <= 32.  With a
    cap of 64 the tail percentile sat where the battery's cost jumps
    (instances that build the sigma2_mod witness), and its quartile spread
    over ten seeds was 0.24."""

    name = "xcheck"
    why = ("the cross-check battery re-analyses each language four ways and rebuilds Me/Mes; "
           "stability.me_s, submonoid_closure and the local tables should move items_per_s "
           "here most")
    cap = 32
    blocks_per_second = 0.4

    def generate(self, seed: int, seconds: int) -> Inputs:
        blocks = max(1, round(seconds * self.blocks_per_second))
        drawn = stratified_corpus(seed, blocks, self.cap)
        languages = [(f"x{i:04d}", d) for i, d in enumerate(drawn)]
        items = [
            (lid, (lambda d=d: cli.xcheck_battery(d, self.cap))) for lid, d in languages
        ]
        return Inputs(languages, items)

    def check(self, inputs: Inputs, results: dict) -> dict:
        return {lid: failures for lid, failures in results.items() if failures}


class Formulas(Workload):
    name = "formulas"
    why = ("hand-built sentences and expressions through validation, translation and "
           "compilation; automata/fologic/modprod should move items_per_s here; the control "
           "monoid changes leave unmoved")
    passes_per_second = 0.5
    tail_percentile = 90.0
    word_length = {2: 6, 3: 4}  # alphabet size -> longest word compared

    def generate(self, seed: int, seconds: int) -> Inputs:
        calls = []
        for name, expr, alphabet, _ in data.VALID:
            calls.append((f"valid:{name}", self._valid(expr, alphabet)))
        for name, expr, alphabet, _ in data.INVALID:
            calls.append((f"invalid:{name}",
                          lambda e=expr, a=alphabet: [v.rule for v in modprod.validate(e, a)]))
        for name, text, _ in data.SENTENCES:
            calls.append((f"sentence:{name}", self._sentence(text)))
        rng = np.random.default_rng(seed)
        passes = max(1, round(seconds * self.passes_per_second))
        items = [calls[i] for _ in range(passes) for i in rng.permutation(len(calls))]
        return Inputs([], items)

    @staticmethod
    def _valid(expr, alphabet):
        def call():
            rules = [v.rule for v in modprod.validate(expr, alphabet)]
            direct = automata.minimize(modprod.eval_expr(expr, alphabet))
            formula = modprod.expr_to_formula(expr, alphabet)
            compiled = automata.minimize(fologic.compile_formula(formula, alphabet))
            return rules, direct, formula, compiled
        return call

    @staticmethod
    def _sentence(text):
        def call():
            alphabet, formula = fologic.parse_formula_document(text)
            compiled = automata.minimize(fologic.compile_formula(formula, alphabet))
            return alphabet, formula, compiled
        return call

    def dfas(self, inputs: Inputs, results: dict) -> list:
        out = []
        for label, result in results.items():
            if label.startswith("valid:"):
                out.append(result[1])
            elif label.startswith("sentence:"):
                out.append(result[2])
        return out

    def summary(self, result):
        return [automata.dfa_to_doc(x) if isinstance(x, automata.Dfa)
                else fologic.to_sexp(x) if isinstance(x, fologic.Formula) else x
                for x in (result if isinstance(result, tuple) else (result,))]

    def _agrees(self, formula, d, alphabet) -> bool:
        for n in range(self.word_length[len(alphabet)] + 1):
            for w in itertools.product(alphabet, repeat=n):
                if d.accepts(w) != fologic.eval_formula(formula, w):
                    return False
        return True

    def check(self, inputs: Inputs, results: dict) -> dict:
        bad = {}
        for name, expr, alphabet, regex in data.VALID:
            got = results.get(f"valid:{name}")
            if got is None:
                continue
            rules, direct, formula, compiled = got
            reference = automata.regex_to_dfa(regex, alphabet)
            problems = [f"violations {rules}"] if rules else []
            if not automata.equivalent(direct, reference)[0]:
                problems.append("evaluated expression differs from its regex")
            if not automata.equivalent(compiled, reference)[0]:
                problems.append("compiled translation differs from the regex")
            if not self._agrees(formula, compiled, alphabet):
                problems.append("compiled DFA disagrees with eval_formula")
            if problems:
                bad[f"valid:{name}"] = problems
        for name, _, _, rule in data.INVALID:
            rules = results.get(f"invalid:{name}")
            if rules is not None and rule not in rules:
                bad[f"invalid:{name}"] = [f"expected rule {rule!r}, got {rules}"]
        for name, _, regex in data.SENTENCES:
            got = results.get(f"sentence:{name}")
            if got is None:
                continue
            alphabet, formula, compiled = got
            problems = []
            if not automata.equivalent(compiled, automata.regex_to_dfa(regex, alphabet))[0]:
                problems.append("compiled sentence differs from the regex")
            if not self._agrees(formula, compiled, alphabet):
                problems.append("compiled DFA disagrees with eval_formula")
            if problems:
                bad[f"sentence:{name}"] = problems
        return bad


WORKLOADS = {w.name: w for w in (Corpus(), Ladder(), Xcheck(), Formulas())}
