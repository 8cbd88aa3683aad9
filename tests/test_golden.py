"""Golden digests of the reports and documents the CLI prints.

A change that keeps the verdicts but moves a byte of `analyze` output on
the acceptance corpus, or of a compiled example formula, fails here.  The
digests are sha256 of the concatenated outputs, in corpus order; when an
output change is intended, recompute them and say why in the change log.
"""

import hashlib
import json

import exprsuite
from fragcheck.automata import decorate, dfa_to_json
from fragcheck.fologic import compile_formula, parse_formula
from fragcheck.fragments import (
    LanguageAnalysis, analyze, build_mod_witness, verify_vmod_implication)
from fragcheck.hierarchy import sim_quotient, wv_level
from fragcheck.modprod import expr_to_formula
from fragcheck.monoid import export_monoid, transition_monoid
from test_acceptance import CORPUS_CAP, SENTENCES, corpus

GOLDEN = {
    # `analyze` of every corpus language at index multipliers 1 then 3, as
    # `fragcheck analyze` prints it without and with --json (less the
    # final newline of the JSON)
    "analyze text": "4643c34694d527611fea61e2bcab3392378c4423c04d7488c868c5df53b85f68",
    "analyze json": "c35db1d41ebc51b1a74d544bbefa9020d445ff784f923560a84584e15ab7ab81",
    # `dfa_to_json(compile_formula(...))` of the criterion 2 sentences, then
    # of the criterion 7 expressions translated to formulas
    "fo compile": "7ff6abcb61cb7b2607a6a7579764f4da5a03157d0bd2f0aeeff67dcfc963ec28",
}

# `wv_level(h, max_level=|M| + 2)` as (w, v, w_sizes, v_sizes), then the
# `class_of` of the K and D signature quotients, of every corpus language
HIERARCHY = "bf6885bfdecbb726e8dc398c7379e0313ca8ad0cbe74ee751a81782c185707f9"

# per corpus language, `dfa_to_json(decorate(d, n))` for n = 1..4; then,
# where sigma2_mod holds at index multiplier 1, the JSON of `export_monoid`
# of its `build_mod_witness` and the repr of `verify_vmod_implication` at
# length 2s + 2
DECORATION_WITNESS = "ae5e5385573b1c7356d3cff1e3673bb5a8f38813098bb9e3378ca5e6a919ad2c"


def test_outputs_match_golden_digests():
    digests = {name: hashlib.sha256() for name in GOLDEN}
    for d in corpus():
        morphism = transition_monoid(d, CORPUS_CAP)
        for multiplier in (1, 3):
            report = analyze(d, max_monoid=CORPUS_CAP, index_multiplier=multiplier,
                             morphism=morphism)
            digests["analyze text"].update(report.to_text().encode())
            digests["analyze json"].update(json.dumps(report.to_doc(), indent=2).encode())
    formulas = [(parse_formula(text), alphabet) for _, _, text, alphabet in SENTENCES]
    formulas += [(expr_to_formula(expr, alphabet), alphabet)
                 for _, expr, alphabet, _ in exprsuite.VALID]
    for formula, alphabet in formulas:
        digests["fo compile"].update(dfa_to_json(compile_formula(formula, alphabet)).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == GOLDEN


def test_hierarchy_matches_golden_digest():
    digest = hashlib.sha256()
    for d in corpus():
        h = transition_monoid(d, CORPUS_CAP)
        lv = wv_level(h, max_level=h.monoid.size + 2)
        digest.update(repr((lv.w, lv.v, lv.w_sizes, lv.v_sizes)).encode())
        for side in ("K", "D"):
            digest.update(repr(sim_quotient(h, side).class_of).encode())
    assert digest.hexdigest() == HIERARCHY


def test_decorations_and_witnesses_match_golden_digest():
    digest = hashlib.sha256()
    for d in corpus():
        for n in range(1, 5):
            digest.update(dfa_to_json(decorate(d, n)).encode())
        pipeline = LanguageAnalysis(d, max_monoid=CORPUS_CAP)
        if pipeline.check("sigma2_mod")[0]:
            s = pipeline.stability.index
            g = build_mod_witness(pipeline.ordered, pipeline.stability)
            digest.update(json.dumps(export_monoid(g)).encode())
            verdict = verify_vmod_implication(pipeline.ordered, g, s, 2 * s + 2)
            digest.update(repr(verdict).encode())
    assert digest.hexdigest() == DECORATION_WITNESS
