"""Command line entry points, exit codes, and output stability."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fragcheck import automata, cli, monoid, stability
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


def test_expr_to_fo_prints_sentences_deeper_than_the_recursion_limit():
    # a base of n position sets translates to n rules in one right-nested
    # conjunction, n levels deep: the printer walks it without recursing
    src = str(pathlib.Path(cli.__file__).parents[1])
    for n in (1000, 3000):
        sets = " ".join(["(a)"] * n)
        done = subprocess.run(
            [sys.executable, "-m", "fragcheck.cli", "expr", "to-fo",
             "--sexp", f"(base ({sets}))", "--alphabet", "a"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        rules = [f"(or (not (mod x {n} {i})) (lab x a))" for i in range(1, n + 1)]
        body = "".join(f"(and {rule} " for rule in rules[:-1]) + rules[-1] + ")" * (n - 1)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"(and (len {n} {n}) (forall x {body}))\n"


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


# A 6-state DFA whose syntactic monoid is the full transformation monoid T6,
# with 6^6 = 46656 elements: a cycles the states, b swaps q0 and q1, c
# sends q1 to q0
T6_DFA = str(pathlib.Path(__file__).parent / "data" / "t6.json")


def _cli_under_memory_limit(args, env=()):
    """(exit code, stderr, wall s) of the command in a child process whose
    address space is limited to 3 GiB."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(pathlib.Path(cli.__file__).parents[1])
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "fragcheck.cli", *args],
                          capture_output=True, text=True, timeout=60, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": src, **dict(env)})
    return done.returncode, done.stderr, time.monotonic() - start


def test_a_monoid_cap_above_the_ceiling_is_refused_before_anything_is_built():
    # T6 under a cap of 100000 would need a 46656^2 int64 table (16.2 GiB):
    # the cap is refused with exit 2 before the DFA is read; at the default
    # cap the closure stops at 10000 elements with exit 3
    ceiling = f"must be at most {cli.MAX_MONOID_CEILING}\n"
    code, err, wall = _cli_under_memory_limit(["analyze", "--dfa", T6_DFA, "--max-monoid", "100000"])
    assert (code, err) == (2, "error: --max-monoid " + ceiling) and wall < 20
    code, err, wall = _cli_under_memory_limit(["analyze", "--dfa", T6_DFA],
                                              env={"FRAGCHECK_MAX_MONOID": "100000"})
    assert (code, err) == (2, "error: FRAGCHECK_MAX_MONOID " + ceiling) and wall < 20
    code, err, wall = _cli_under_memory_limit(["analyze", "--dfa", T6_DFA])
    assert (code, err) == (3, "error: monoid size cap exceeded (10000)\n") and wall < 20


def test_regex_state_cap_exits_3():
    # (a|b)*a(a|b)^17 remembers the last 18 letters: 2^18 subsets of
    # positions, past the 200000 state cap
    code, err, wall = _cli_under_memory_limit(["analyze", "--regex", "(a|b)*a" + "(a|b)" * 17])
    assert (code, err) == (3, "error: state cap exceeded (200000) during determinization\n")
    assert wall < 20


def test_regex_follow_cap_exits_3_within_seconds():
    # (ab|b)*a repeated 2000 times has 8001 positions, and its subsets OR
    # some 144 follow masks each: it reached the state cap only after some
    # 11 CPU s, and now stops at the follow cap under a 5 s CPU limit
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (5, 5))

    src = str(pathlib.Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "fragcheck.cli", "analyze", "--regex",
                           "(ab|b)*a" * 2000],
                          capture_output=True, text=True, timeout=60, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": src})
    cells = automata.MAX_FOLLOW_CELLS
    assert (done.returncode, done.stderr) == (
        3, f"error: pattern follow cap exceeded (more than {cells // 8001} follow masks of "
           f"8001 cells, at most {cells} cells)\n")


def test_analyze_does_not_import_the_compiler_modules():
    # the formula compiler, the modular products and the hierarchy levels
    # are imported by the commands that use them
    src = str(pathlib.Path(cli.__file__).parents[1])
    child = ("import sys\n"
             "from fragcheck import cli\n"
             "code = cli.main(['analyze', '--regex', '(ab)*'])\n"
             "names = ('fologic', 'modprod', 'hierarchy')\n"
             "print(code, [n for n in names if 'fragcheck.' + n in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[-1] == "0 []"


def test_monoid_label_cap_exits_3_before_the_closure():
    # (a|b)*a(a|b)^15 has 65536 states, so at least 65536 elements of 65537
    # label cells each: past MAX_LABEL_CELLS, refused before any label is
    # made (the closure ended in a MemoryError under 3 GiB at 2.96 GB)
    cells = monoid.MAX_LABEL_CELLS
    code, err, wall = _cli_under_memory_limit(["analyze", "--regex", "(a|b)*a" + "(a|b)" * 15])
    assert (code, err) == (3, f"error: monoid label cap exceeded (more than {cells // 65537} "
                              f"elements of 65537 cells, at most {cells} cells)\n")
    assert wall < 20


def test_nested_products_exit_3_at_the_sentence_node_cap():
    # eight nested (dprod 1 (base ((a))) b ...) would translate to a
    # sentence of some 24 million nodes, six times more per level; the
    # translation stops at the node cap
    chain = "(base ((b)))"
    for _ in range(8):
        chain = f"(dprod 1 (base ((a))) b {chain})"
    code, err, wall = _cli_under_memory_limit(["expr", "to-fo", "--sexp", chain,
                                               "--alphabet", "a,b"])
    assert (code, err) == (3, "error: formula node cap exceeded (100000) "
                              "while translating the expression\n")
    assert wall < 20


def test_monoid_cap_ceiling_is_inclusive(monkeypatch):
    assert cli._resolve_cap(cli.MAX_MONOID_CEILING) == cli.MAX_MONOID_CEILING
    monkeypatch.setenv("FRAGCHECK_MAX_MONOID", str(cli.MAX_MONOID_CEILING))
    assert cli._resolve_cap(None) == cli.MAX_MONOID_CEILING
    monkeypatch.setenv("FRAGCHECK_MAX_MONOID", str(cli.MAX_MONOID_CEILING + 1))
    with pytest.raises(InputError, match="FRAGCHECK_MAX_MONOID must be at most"):
        cli._resolve_cap(None)


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


def test_xcheck_builds_one_monoid_per_instance(monkeypatch):
    # the draw's morphism serves the monoid= column and the battery, and
    # the complement's shares its table (`complement_morphism`)
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
    assert len(builds) == 6


def test_xcheck_battery_runs_moore_refinement_five_times(monkeypatch):
    # minimize (the idempotence check on the minimal input), complement
    # (the minimal DFA, then the complement back for the involution), and
    # decorate at n = 2 and 3; the complement's morphism shares the
    # language's table, and the recognition rebuild is compared unminimized
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
    assert len(runs) == 5 * len(draws)


def test_xcheck_battery_flags_a_dfa_that_is_not_minimal():
    # a* over {a, b} with the accepting state split in two: the battery
    # takes its input as minimal, and the idempotence check is what says
    # it is not
    d = make_dfa(["a", "b"], ["p", "q", "r"], "p", ["p", "q"],
                 {("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "r", ("q", "b"): "r",
                  ("r", "a"): "r", ("r", "b"): "r"})
    assert cli.xcheck_battery(d, 32) == ["minimize-idempotent"]
    assert cli.xcheck_battery(minimize(d), 32) == []


def test_stable_invariance_reads_the_stable_set_from_the_table(monkeypatch):
    # a stable set other than {1} | X_s X_s is flagged, here all of M for
    # an aperiodic language whose stable submonoid is smaller; the stable
    # set at 2s is the array of s, so comparing those two could not flag it
    d = minimize(regex_to_dfa("(a|b)*ab"))
    assert cli.xcheck_battery(d, 32) == []
    monkeypatch.setattr(stability.StabilityInfo, "stable",
                        property(lambda info: np.arange(info.monoid.size)))
    assert cli.xcheck_battery(d, 32) == ["stable-invariance"]


@pytest.mark.parametrize("flag, value, draw", [
    ("--max-states", "1", (1, 3, 0)), ("--max-letters", "0", (5, 0, 0)),
    ("--seed", "-1", (5, 3, -1)),
    ("--max-states", str(cli.MAX_DRAW_STATES + 1), (cli.MAX_DRAW_STATES + 1, 3, 0)),
    ("--max-letters", str(cli.MAX_DRAW_LETTERS + 1), (5, cli.MAX_DRAW_LETTERS + 1, 0)),
])
def test_xcheck_refuses_draw_flags_out_of_range(capsys, flag, value, draw):
    # exit 2 from the command, InputError from the library: (max_states,
    # max_letters, seed) of `generate_corpus`; refused before any draw
    start = time.process_time()
    assert cli.main(["xcheck", "--count", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err
    with pytest.raises(InputError):
        cli.generate_corpus(2, *draw, 32)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("states, letters, cap", [
    ("2", "2000000", "2"), ("2", "60000", "2"), ("200000", "1", "10"),
])
def test_xcheck_refuses_huge_draws_at_once(capsys, states, letters, cap):
    # a draw of two million letters ran out of letter names, one of 60000
    # letters or 200000 states did not end within a minute
    start = time.process_time()
    argv = ["xcheck", "--count", "1", "--seed", "0", "--max-states", states,
            "--max-letters", letters, "--max-monoid", cap]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --max-") and "at most" in err and "Traceback" not in err
    assert time.process_time() - start < 1.0


@given(max_states=st.integers(-2, 6), max_letters=st.integers(-2, 4),
       seed=st.integers(-3, 2**64))
@settings(deadline=None, max_examples=40)
def test_xcheck_draw_flags_fuzz(max_states, max_letters, seed):
    # an answer, malformed input (2) or a cap (3), never a traceback
    argv = ["xcheck", "--count", "1", "--max-states", str(max_states),
            "--max-letters", str(max_letters), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2, 3)


def test_witness_refuses_a_negative_length_bound(capsys):
    assert cli.main(["witness", "--regex", "(bc)*", "--max-len", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max-len must not be negative\n"


def test_witness_length_bound_stops_once_no_triple_is_new():
    # the walk leaves its loop at the first length that adds no triple, so
    # a huge bound costs what a small one does and reports the same; run
    # in a child with a time limit, as a walk over every length would not
    # end for hours
    src = str(pathlib.Path(cli.__file__).parents[1])

    def witness(bound):
        done = subprocess.run(
            [sys.executable, "-m", "fragcheck.cli", "witness", "--regex", "(bc)*",
             "--max-len", bound], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": src})
        return done.returncode, done.stdout

    code, small = witness("1000")
    code_huge, huge = witness("1000000000000")
    assert code == code_huge == 0
    assert huge == small.replace("length 1000\n", "length 1000000000000\n")


def test_xcheck_derives_stability_data_once_per_morphism(monkeypatch):
    # every analysis of one morphism, at any multiplier, shares its
    # per-morphism entry, whose stable set is checked for closure once
    # when it is short of the monoid (S = M needs no check) and whose power
    # steps are built once, and one StabilityInfo per multiplier; the
    # hierarchy quotients are morphisms of their own
    powers, infos, checks, steps = [], [], [], []
    real_powers, real_info = stability._PowerImages, stability.StabilityInfo
    real_check, real_steps = stability._check_closed, real_powers.steps_at

    def counted_powers(m):
        powers.append(m)
        return real_powers(m)

    def counted_info(**fields):
        infos.append((fields["powers"], fields["index"]))
        return real_info(**fields)

    def counted_check(*args):
        checks.append(args)
        return real_check(*args)

    def counted_steps(self, cols):
        steps.append((self, cols.size))
        return real_steps(self, cols)

    monkeypatch.setattr(stability, "_PowerImages", counted_powers)
    monkeypatch.setattr(real_powers, "steps_at", counted_steps)
    monkeypatch.setattr(stability, "StabilityInfo", counted_info)
    monkeypatch.setattr(stability, "_check_closed", counted_check)
    code, text = run_cli(["xcheck", "--count", "6", "--seed", "1"])
    assert code == 0 and "6 instances, 0 with failures" in text
    # the lists keep every morphism alive, so no two share an id
    assert len({id(m) for m in powers}) == len(powers)
    short = [p for p, _ in steps if p.stable.size < p.monoid.size]
    assert 0 < len(short) < len(powers)
    assert sorted(id(ids) for _, ids, _ in checks) == sorted(id(p.stable) for p in short)
    # one set of power steps, at the idempotent columns, per morphism
    assert len({id(p) for p, _ in steps}) == len(steps) == len(powers)
    assert all(size == len(p.monoid.idempotents()) for p, size in steps)
    assert len({(id(p), s) for p, s in infos}) == len(infos)
    assert len({id(p) for p, _ in infos}) == len(powers)
    # at least the draw's three multipliers; the complement's morphism
    # shares the memo, so its analysis reads the draw's x1 StabilityInfo
    assert len(infos) >= 3 * 6


def test_xcheck_decides_each_verdict_once_per_what_it_reads(monkeypatch):
    # the battery analyses each language at x1, x2 and x3 and its
    # complement at x1: the verdicts that read the table, or S, are decided
    # once per language, fo2_mod_new once per multiplier, the order
    # verdicts of M once per order, and those that read s and the order in
    # every analysis
    from fragcheck.fragments import FRAGMENTS, LanguageAnalysis
    decided = []  # (fragment, what it read), every object kept alive
    real = LanguageAnalysis._check

    def counted(self, fragment):
        got = real(self, fragment)
        for fid in got:
            if fid in ("fo_lt", "fo2_lt"):
                read = self.morphism.monoid.mult
            elif fid in ("fo_mod", "fo2_mod_qda"):
                read = self.stability.powers
            elif fid == "fo2_mod_new":
                read = self.stability
            elif fid.endswith("_lt"):
                read = self.morphism.monoid.leq
            else:
                read = self
            decided.append((fid, read))
        return got

    monkeypatch.setattr(LanguageAnalysis, "_check", counted)
    code, text = run_cli(["xcheck", "--count", "6", "--seed", "1"])
    assert code == 0 and "6 instances, 0 with failures" in text
    assert len({(fid, id(read)) for fid, read in decided}) == len(decided)
    per = {"fo_lt": 1, "fo2_lt": 1, "fo_mod": 1, "fo2_mod_qda": 1, "fo2_mod_new": 3,
           "sigma2_lt": 2, "pi2_lt": 2, "delta2_lt": 2,
           "sigma2_mod": 4, "pi2_mod": 4, "delta2_mod": 4}
    assert sorted(per) == sorted(FRAGMENTS)
    for fid, count in per.items():
        assert sum(got == fid for got, _ in decided) == 6 * count, fid


def test_xcheck_battery_finds_no_failure_on_many_draws():
    # the verdicts one analysis reads from another's are checked by the
    # battery's duality and invariance checks on every draw
    assert all(cli.xcheck_battery(d, 32, h) == [] for d, h in cli._draws(300, 5, 3, 7, 32))


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
def test_decoration_check_matches_enumeration(monkeypatch, xcheck_corpus, variant, flagged):
    # the battery walks reachable state triples; the oracle enumerates
    # every word, and a wrong decorated language must be flagged alike
    variant_decorate = _DECORATIONS[variant]
    monkeypatch.setattr(cli, "decorate", variant_decorate)
    got = ["decoration-membership" in cli.xcheck_battery(d, 32) for d in xcheck_corpus]
    want = [oracles.decoration_membership_fails(minimize(d), variant_decorate)
            for d in xcheck_corpus]
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


def test_reachable_pair_cap(capsys):
    # the `and` of the two counters reaches about 1000 * 1001 pairs; the
    # product stops at the state cap, before any Moore round on the pairs
    text = "(exists x (exists y (and (mod x 1000 1) (mod y 1001 1))))"
    start = time.process_time()
    assert cli.main(["fo", "compile", "--sexp", text, "--alphabet", "a"]) == 3
    assert time.process_time() - start < 6.0
    assert "reachable pairs" in capsys.readouterr().err


def test_atom_over_the_state_cap(capsys):
    # `(mod x n r)` has n waiting states and two absorbing ones: at n + 2
    # above the cap the atom is refused as built, before any Moore round
    text = "(exists x (mod x 199999 1))"
    start = time.process_time()
    assert cli.main(["fo", "compile", "--sexp", text, "--alphabet", "a"]) == 3
    assert time.process_time() - start < 6.0
    assert capsys.readouterr().err == "error: state cap exceeded (200000) while compiling\n"


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


def regex_texts():
    """Pattern-shaped texts: groups, alternations and stars over a few
    letters, now and then with a stray metacharacter, an empty group or
    whitespace, or simply a short run of pattern characters."""
    letter = st.sampled_from(3 * ["a", "b"] + ["c", " ", ".", "()"])

    def grow(sub):
        return st.one_of(
            st.lists(sub, min_size=1, max_size=3).map("".join),
            st.lists(sub, min_size=2, max_size=3).map("|".join),
            sub.map(lambda p: f"({p})"),
            sub.map(lambda p: p + "*"),
        )

    pattern = st.recursive(letter, grow, max_leaves=8)
    stray = st.sampled_from(12 * [""] + ["(", ")", "|", "*", "**", "()"])
    noise = st.text(alphabet="ab()|* ", max_size=8)
    return st.one_of(*4 * [st.tuples(stray, pattern, stray).map("".join)], noise)


@given(text=regex_texts(), multiplier=st.sampled_from(["1", "1", "2", "5", "0"]))
@settings(deadline=None, max_examples=150)
def test_regex_input_fuzz(text, multiplier):
    # an answer, malformed input (2) or a cap (3), never a traceback
    argv = ["analyze", "--regex", text, "--index-multiplier", multiplier]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2, 3)


def expr_texts():
    """Expression-shaped texts over base, union, dprod and cprod.  Each
    slot mostly holds the right kind of token and now and then a wrong
    one: a bad modulus, a group for a letter, a wrong arity, an unknown
    operator; a stray trailing form is added now and then."""
    letter = st.sampled_from(8 * ["a", "b"] + ["c", "d", "()", "1"])
    position = st.lists(letter, min_size=1, max_size=2).map(_group) | st.just("()")
    base = st.lists(position, min_size=1, max_size=3).map(lambda sets: f"(base {_group(sets)})")
    modulus = st.sampled_from(6 * ["1", "2", "3"] + ["0", "-1", "x", "1000000000000"])

    def grow(sub):
        union = st.tuples(st.just("union"), sub, sub).map(_group)
        product = st.tuples(
            st.sampled_from(["dprod", "cprod"]), modulus, sub, letter, sub).map(_group)
        wrong = st.tuples(st.sampled_from(["union", "dprod", "base", "star"]),
                          st.lists(sub, max_size=2).map(" ".join)).map(_group)
        return st.one_of(*3 * [union], *6 * [product], wrong)

    leaf = st.one_of(*8 * [base], st.sampled_from(["a", "(base ())", "(base)"]))
    expr = st.recursive(leaf, grow, max_leaves=5)
    tail = st.sampled_from(12 * [""] + [" (", " )", " (base ((a)))"])
    return st.tuples(expr, tail).map("".join)


@given(text=expr_texts(), alphabet=st.sampled_from(["a,b", "a,b,c", "b,c", "a", "a,a", ","]))
@settings(deadline=None, max_examples=150)
def test_expr_input_fuzz(text, alphabet):
    # an answer, malformed input (2) or a cap (3), never a traceback
    argv = ["expr", "check", f"--sexp={text}", "--alphabet", alphabet]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2, 3)
