"""Command line entry points, exit codes, and output stability."""

import contextlib
import io
import json
import pathlib
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fragcheck import cli
from fragcheck._sexp import MAX_DEPTH
from fragcheck.automata import (
    MAX_PATTERN_DEPTH, DecoratedLetter, complement, decorate, decorated_letters, dfa_to_json,
    make_dfa, minimize, regex_to_dfa,
)
from fragcheck.errors import InputError
from fragcheck.fologic import MAX_FORMULA_DEPTH, MAX_MARKED_LETTERS


def run_cli(argv):
    out = io.StringIO()
    args = cli.build_parser().parse_args(argv)
    code = cli.run(args, out)
    return code, out.getvalue()


def test_analyze_text_report():
    code, text = run_cli(["analyze", "--regex", "(bc)*"])
    assert code == 0
    assert "monoid size 6, stability index 2, stable size 4" in text
    assert "sigma2_mod" in text and "pi2_lt" in text


def test_analyze_json_report():
    code, text = run_cli(["analyze", "--regex", "(a|b)*aa(a|b)*", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["monoid_size"] == 6
    assert doc["fragments"]["sigma2_lt"]["definable"] is True
    assert doc["fragments"]["pi2_lt"]["definable"] is False
    assert doc["fragments"]["pi2_lt"]["witness"] is not None


def test_analyze_output_is_deterministic():
    first = run_cli(["analyze", "--regex", "((a|b)(a|b))*(aa|bb)(a|b)*", "--json"])
    second = run_cli(["analyze", "--regex", "((a|b)(a|b))*(aa|bb)(a|b)*", "--json"])
    assert first == second


def test_analyze_reads_dfa_document(tmp_path):
    doc = tmp_path / "lang.json"
    doc.write_text(dfa_to_json(minimize(regex_to_dfa("(bc)*"))))
    code, text = run_cli(["analyze", "--dfa", str(doc)])
    assert code == 0
    assert "monoid size 6" in text


def test_language_source_is_exclusive(tmp_path):
    doc = tmp_path / "lang.json"
    doc.write_text(dfa_to_json(minimize(regex_to_dfa("a*"))))
    with pytest.raises(Exception) as info:
        run_cli(["analyze", "--dfa", str(doc), "--regex", "a*"])
    assert "exactly one" in str(info.value) or "one of" in str(info.value)


def test_check_exit_codes():
    code, text = run_cli(["check", "--fragment", "sigma2_lt",
                          "--regex", "(a|b)*aa(a|b)*"])
    assert code == 0
    assert text == "sigma2_lt: definable\n"
    code, text = run_cli(["check", "--fragment", "pi2_lt",
                          "--regex", "(a|b)*aa(a|b)*"])
    assert code == 1
    assert text.startswith("pi2_lt: not definable (e=")


def test_fo_compile_and_eval():
    code, text = run_cli([
        "fo", "compile",
        "--sexp", "(exists x (exists y (and (suc x y) (and (lab x a) (lab y a)))))",
        "--alphabet", "a,b"])
    assert code == 0
    d = minimize(regex_to_dfa("(a|b)*aa(a|b)*"))
    from fragcheck.automata import equivalent, parse_dfa
    ok, _ = equivalent(parse_dfa(text), d)
    assert ok
    code, text = run_cli(["fo", "eval", "--sexp", "(len 2 2)", "--word", "ab"])
    assert code == 0 and text == "true\n"
    code, text = run_cli(["fo", "eval", "--sexp", "(len 2 2)", "--word", "a"])
    assert code == 1 and text == "false\n"


def test_fo_eval_comma_separated_word():
    code, text = run_cli(["fo", "eval", "--sexp", "(exists x (lab x a))",
                          "--word", "a,b,a"])
    assert code == 0 and text == "true\n"
    code, _ = run_cli(["fo", "eval", "--sexp", "(exists x (lab x a))", "--word", ""])
    assert code == 1


def test_fo_compile_document_header(tmp_path):
    f = tmp_path / "sentence.fo"
    f.write_text("(alphabet a b)\n(exists x (lab x a))\n")
    code, text = run_cli(["fo", "compile", "--formula", str(f)])
    assert code == 0
    from fragcheck.automata import equivalent, parse_dfa
    ok, _ = equivalent(parse_dfa(text), minimize(regex_to_dfa("(a|b)*a(a|b)*")))
    assert ok


def test_expr_check_ok_and_violations():
    code, text = run_cli(["expr", "check",
                          "--sexp", "(base ((b) (c)))", "--alphabet", "b,c"])
    assert code == 0 and text == "ok\n"
    code, text = run_cli(["expr", "check",
                          "--sexp", "(union (base ((a))) (base ((a))))",
                          "--alphabet", "a"])
    assert code == 1
    assert "disjoint" in text


def test_expr_to_fo_round_trip():
    code, text = run_cli(["expr", "to-fo",
                          "--sexp", "(base ((b) (c)))", "--alphabet", "b,c"])
    assert code == 0
    from fragcheck.automata import equivalent
    from fragcheck.fologic import compile_formula, parse_formula
    d = compile_formula(parse_formula(text), ["b", "c"])
    ok, _ = equivalent(minimize(d), minimize(regex_to_dfa("(bc)*")))
    assert ok


def test_witness_report():
    code, text = run_cli(["witness", "--regex", "((a|b)(a|b))*"])
    assert code == 0
    assert "stability index 2" in text
    assert "order implication verified" in text


def test_witness_refuses_undefinable_language():
    code, text = run_cli(["witness", "--regex", "(b*ab*a)*b*"])
    assert code == 1
    assert text.startswith("sigma2_mod: not definable (e=")


def test_xcheck_runs_clean():
    code, text = run_cli(["xcheck", "--count", "5", "--seed", "1"])
    assert code == 0
    assert "5 instances, 0 with failures" in text


def test_xcheck_json_is_deterministic():
    first = run_cli(["xcheck", "--count", "4", "--seed", "9", "--json"])
    second = run_cli(["xcheck", "--count", "4", "--seed", "9", "--json"])
    assert first == second
    doc = json.loads(first[1])
    assert doc["failed"] == 0 and len(doc["instances"]) == 4


def test_main_maps_errors_to_exit_codes(tmp_path, capsys):
    assert cli.main(["analyze", "--regex", "((("]) == 2
    capsys.readouterr()
    assert cli.main(["analyze", "--regex", "(a|b)*aa(a|b)*",
                     "--max-monoid", "2"]) == 3
    capsys.readouterr()
    assert cli.main(["analyze", "--regex", "(bc)*"]) == 0
    capsys.readouterr()


def test_witness_respects_max_monoid(capsys):
    # the syntactic monoid of (bc)* has 6 elements, its witness has 14
    assert cli.main(["witness", "--regex", "(bc)*", "--max-monoid", "10"]) == 3
    assert "cap" in capsys.readouterr().err
    assert cli.main(["witness", "--regex", "(bc)*", "--max-monoid", "14"]) == 0
    capsys.readouterr()


def test_max_monoid_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FRAGCHECK_MAX_MONOID", "2")
    assert cli.main(["analyze", "--regex", "(a|b)*aa(a|b)*"]) == 3
    capsys.readouterr()
    # an explicit flag wins over the environment
    assert cli.main(["analyze", "--regex", "(a|b)*aa(a|b)*",
                     "--max-monoid", "100"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("FRAGCHECK_MAX_MONOID", "bogus")
    assert cli.main(["analyze", "--regex", "(bc)*"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["analyze"], ["check", "--fragment", "fo_mod"], ["witness"],
], ids=["analyze", "check", "witness"])
def test_index_multiplier_cap(capsys, argv):
    # s * |M| is capped before any per-residue set is built, so a huge
    # multiplier ends at once with exit 3 instead of exhausting memory
    start = time.process_time()
    code = cli.main(argv + ["--regex", "(bc)*", "--index-multiplier", "1000000000"])
    assert code == 3
    assert "index cap" in capsys.readouterr().err
    assert time.process_time() - start < 2.0
    assert cli.main(argv + ["--regex", "(bc)*", "--index-multiplier", "5"]) in (0, 1)
    capsys.readouterr()


def test_xcheck_builds_two_monoids_per_instance(monkeypatch):
    # the draw's morphism serves the monoid= column and the battery; the
    # battery adds only the complement's
    from fragcheck import fragments, monoid
    builds = []
    real = monoid.transition_monoid

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    for module in (cli, fragments, monoid):
        monkeypatch.setattr(module, "transition_monoid", counted)
    code, text = run_cli(["xcheck", "--count", "6", "--seed", "1"])
    assert code == 0 and "6 instances, 0 with failures" in text
    assert len(builds) == 2 * 6


def test_xcheck_battery_runs_moore_refinement_seven_times(monkeypatch):
    # minimize (the input, then its idempotence), complement (the minimal
    # DFA, then the complement back for the involution), the complement's
    # transition monoid, and decorate at n = 2 and 3; the recognition
    # rebuild is compared unminimized
    from fragcheck import automata, monoid
    draws = list(cli._draws(6, 5, 3, 1, 32))
    runs = []
    real = automata.minimal_table

    def counted(t):
        runs.append(1)
        return real(t)

    for module in (automata, monoid):
        monkeypatch.setattr(module, "minimal_table", counted)
    for d, morphism in draws:
        assert cli.xcheck_battery(d, 32, morphism) == []
    assert len(runs) == 7 * len(draws)


def test_xcheck_derives_stability_data_once_per_morphism(monkeypatch):
    # every analysis of one morphism, at any multiplier, shares its power
    # images and one StabilityInfo per multiplier; the hierarchy quotients
    # are morphisms of their own
    from fragcheck import stability
    powers, infos = [], []
    real_powers, real_info = stability._PowerImages, stability.StabilityInfo

    def counted_powers(m):
        powers.append(m)
        return real_powers(m)

    def counted_info(**fields):
        infos.append((fields["_owner"](), fields["index"]))  # the morphism, held weakly
        return real_info(**fields)

    monkeypatch.setattr(stability, "_PowerImages", counted_powers)
    monkeypatch.setattr(stability, "StabilityInfo", counted_info)
    code, text = run_cli(["xcheck", "--count", "6", "--seed", "1"])
    assert code == 0 and "6 instances, 0 with failures" in text
    # the lists keep every morphism alive, so no two share an id
    assert len({id(m) for m in powers}) == len(powers)
    assert len({(id(m), s) for m, s in infos}) == len(infos)
    # at least the draw's three multipliers and the complement's one
    assert len(infos) >= 4 * 6


@pytest.fixture(scope="module")
def decoration_corpus():
    return cli.generate_corpus(60, 5, 3, 7, 32)


def residue_blind(d, n):
    """Accepts a decorated word iff its base word lies in L(d), whatever
    its residues, so only decorations at offset 1 tell it apart."""
    letters = decorated_letters(d.alphabet, n)
    delta = {(q, x): d.delta[(q, DecoratedLetter.parse(x).base)]
             for q in d.states for x in letters}
    return make_dfa(letters, d.states, d.initial, d.finals, delta)


_DECORATIONS = {
    "unchanged": decorate,
    "complement": lambda d, n: decorate(complement(d), n),
    "modulus n+1": lambda d, n: decorate(d, n + 1),
    "residue-blind": residue_blind,
}


@pytest.mark.parametrize("variant, flagged", [
    ("unchanged", 0), ("complement", 60), ("modulus n+1", 44), ("residue-blind", 45),
])
def test_decoration_check_matches_enumeration(monkeypatch, decoration_corpus, variant, flagged):
    # the battery walks reachable state triples; the oracle enumerates
    # every word, and a wrong decorated language must be flagged alike
    variant_decorate = _DECORATIONS[variant]
    monkeypatch.setattr(cli, "decorate", variant_decorate)
    got = ["decoration-membership" in cli.xcheck_battery(d, 32) for d in decoration_corpus]
    want = [oracles.decoration_membership_fails(minimize(d), variant_decorate)
            for d in decoration_corpus]
    assert got == want
    assert sum(got) == flagged


def test_decoration_check_refuses_letters_outside_the_decorated_alphabet(monkeypatch):
    # decorated over n - 1 residues, the letters of residue n are missing
    monkeypatch.setattr(cli, "decorate", lambda d, n: decorate(d, n - 1))
    with pytest.raises(InputError):
        cli.xcheck_battery(regex_to_dfa("(a|b)*aa(a|b)*"), 32)


def test_xcheck_json_matches_golden():
    code, text = run_cli(["xcheck", "--count", "20", "--json"])
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "xcheck_count20.json"
    assert text == golden.read_text(encoding="utf-8")


def test_word_longer_alphabet_check():
    code, _ = run_cli(["fo", "eval", "--sexp", "(exists x (lab x a))",
                       "--word", "ab,cd"])
    assert code in (0, 1)


@pytest.mark.parametrize("depth, code", [(MAX_PATTERN_DEPTH, 0), (MAX_PATTERN_DEPTH + 1, 2)])
def test_regex_group_nesting_limit(capsys, depth, code):
    pattern = "(" * depth + "a" + ")" * depth
    assert cli.main(["analyze", "--regex", pattern]) == code
    assert ("nested deeper" in capsys.readouterr().err) == (code == 2)


def nested_exists(count):
    """`count` nested quantifiers over distinct variables around one atom."""
    text = "(lab x0 a)"
    for i in reversed(range(count)):
        text = f"(exists x{i} {text})"
    return text


@pytest.mark.parametrize("depth, code", [(MAX_DEPTH, 0), (MAX_DEPTH + 1, 2)])
def test_formula_nesting_limit(tmp_path, capsys, depth, code):
    # depth - 1 nested quantifiers around one atom: s-expression depth `depth`
    doc = tmp_path / "deep.sexp"
    doc.write_text(nested_exists(depth - 1))
    assert cli.main(["fo", "eval", "--formula", str(doc), "--word", "ab"]) == code
    assert ("nested deeper" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("command", [["eval", "--word", "a"], ["compile"]])
@pytest.mark.parametrize("depth, code", [(MAX_FORMULA_DEPTH, 0), (MAX_FORMULA_DEPTH + 1, 2)])
def test_formula_tree_depth_limit(tmp_path, capsys, command, depth, code):
    # one quantifier over a conjunction of depth - 1 operands: the fold puts
    # the last operand at level depth, while the s-expression is 3 deep
    text = "(exists x (and " + " ".join(["(lab x a)"] * (depth - 1)) + "))"
    doc = tmp_path / "wide.sexp"
    doc.write_text(text)
    assert cli.main(["fo", command[0], "--formula", str(doc), *command[1:]]) == code
    assert ("deeper than" in capsys.readouterr().err) == (code == 2)


def test_marked_alphabet_cap(tmp_path, capsys):
    # one letter under q quantifiers is 2**q marked letters
    at_cap = MAX_MARKED_LETTERS.bit_length() - 1
    assert 1 << at_cap == MAX_MARKED_LETTERS
    doc = tmp_path / "nested.sexp"
    doc.write_text(nested_exists(at_cap))
    assert cli.main(["fo", "compile", "--formula", str(doc)]) == 0
    capsys.readouterr()
    doc.write_text(nested_exists(MAX_DEPTH - 1))
    start = time.process_time()
    assert cli.main(["fo", "compile", "--formula", str(doc)]) == 3
    assert time.process_time() - start < 1.0
    assert "marked-alphabet cap" in capsys.readouterr().err


def nested_iff(core, count):
    """`core` wrapped in `count` levels of (<-> ... core): the expansion of
    each level names both operands twice."""
    text = core
    for _ in range(count):
        text = f"(<-> {text} {core})"
    return text


@pytest.mark.parametrize("argv", [
    ["compile", "--alphabet", "a,b", "--json", "--sexp", nested_iff("(exists x (lab x a))", 20)],
    ["eval", "--word", "abab", "--sexp", nested_iff("(exists x (lab x a))", 20)],
    ["eval", "--word", "ab", "--sexp", nested_iff("true", 20)],
])
def test_nested_biconditionals_stay_linear(argv):
    start = time.process_time()
    code, _ = run_cli(["fo", *argv])
    assert code == 0
    assert time.process_time() - start < 2.0


def _group(parts):
    return "(" + " ".join(parts) + ")"


def sexp_texts():
    """Formula-shaped texts over the formula keywords, variables, letters
    and integers.  Each slot mostly holds the right kind of token and now
    and then a wrong one; an alphabet header and a stray trailing form are
    added now and then."""
    var = st.sampled_from(3 * ["x", "y", "z"] + ["a", "0", "exists"])
    letter = st.sampled_from(3 * ["a", "b"] + ["c", "x", "1"]) | st.lists(
        st.sampled_from(["a", "b", "c", "and"]), max_size=3).map(_group)
    integer = st.sampled_from(3 * ["0", "1", "2", "3"] + ["-1", "1000000000000", "x"])

    def grow(sub):
        operands = st.lists(sub, max_size=3)
        return st.one_of(
            st.tuples(st.just("lab"), var, letter),
            st.tuples(st.sampled_from(["=", "<", "<=", "suc"]), var, var),
            st.tuples(st.just("mod"), var, integer, integer),
            st.tuples(st.just("len"), integer, integer),
            st.tuples(st.sampled_from(["and", "or"]), operands.map(" ".join)),
            st.tuples(st.just("not"), sub),
            st.tuples(st.sampled_from(["->", "<->"]), sub, sub),
            st.tuples(st.sampled_from(["exists", "forall"]), var, sub),
            operands,
        ).map(_group)

    leaf = st.sampled_from(3 * ["true", "false"] + ["x", "lab", "alphabet"])
    formula = st.recursive(leaf, grow, max_leaves=10)
    # binding x, y and z in front makes most atoms part of a sentence
    prefix = st.lists(st.sampled_from(["exists", "forall"]), min_size=3, max_size=3).map(
        lambda qs: [f"({q} {v} " for q, v in zip(qs, "xyz")])
    sentence = st.one_of(formula, st.tuples(prefix, formula).map(
        lambda t: "".join(t[0]) + t[1] + ")" * len(t[0])))
    header = st.sampled_from(4 * [""] + ["(alphabet a b) ", "(alphabet) ", "(alphabet a a) "])
    tail = st.sampled_from(6 * [""] + [" (", " )", " true"])
    return st.tuples(header, sentence, tail).map("".join)


@given(text=sexp_texts())
@settings(deadline=None, max_examples=150)
def test_formula_input_fuzz(text):
    # an answer, malformed input (2) or a cap (3), never a traceback
    for argv in (["fo", "eval", f"--sexp={text}", "--word", "ab"],
                 ["fo", "compile", f"--sexp={text}", "--alphabet", "a,b"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1, 2, 3)


@pytest.mark.parametrize("doc", [
    {"initial": []},
    {"transitions": [[["q"], "a", "q"]]},
    {"transitions": [["q", {"x": 1}, "q"]]},
], ids=["list-initial", "list-source", "object-letter"])
def test_unhashable_dfa_fields_exit_2(tmp_path, capsys, doc):
    base = {"alphabet": ["a"], "states": ["q"], "initial": "q", "finals": [],
            "transitions": [["q", "a", "q"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**base, **doc}))
    assert cli.main(["analyze", "--dfa", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@st.composite
def dfa_documents(draw):
    """A valid DFA document over at most three states and two letters,
    then up to two edits: a field dropped, a field replaced by a JSON value
    of any type, or one entry of a list field (or one slot of a
    transition) replaced by such a value."""
    states = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=3, unique=True))
    alphabet = draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True))
    target = st.sampled_from(states)
    doc = {
        "alphabet": alphabet,
        "states": states,
        "initial": draw(target),
        "finals": draw(st.lists(target, max_size=2)),
        "transitions": [[q, a, draw(target)] for q in states for a in alphabet],
    }
    junk = st.one_of(
        st.none(), st.booleans(), st.integers(-1, 2), st.sampled_from(["", "p", "a", "z"]),
        st.lists(st.sampled_from(["p", "a", ""]), max_size=3),
        st.dictionaries(st.sampled_from(["p", "x"]), st.integers(0, 1), max_size=1),
    )
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        edit = draw(st.sampled_from(["drop", "replace", "entry"]))
        items = doc.get(key)
        if edit == "drop":
            doc.pop(key, None)
        elif edit == "entry" and isinstance(items, list) and items:
            i = draw(st.integers(0, len(items) - 1))
            if isinstance(items[i], list) and items[i]:
                items[i] = list(items[i])
                items[i][draw(st.integers(0, len(items[i]) - 1))] = draw(junk)
            else:
                items[i] = draw(junk)
        else:
            doc[key] = draw(junk)
    return json.dumps(doc)


@given(text=dfa_documents())
@settings(deadline=None, max_examples=150)
def test_dfa_input_fuzz(tmp_path_factory, text):
    # an answer, malformed input (2) or a cap (3), never a traceback
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["analyze", "--dfa", str(path)]) in (0, 2, 3)
