"""The summary rules of tools/bench_pairs.py, on synthetic pairs, and the
copy of the working tree its change side runs from."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "setup_s", "better": "lower", "bound": 0.25}]


def run(setup_s=None, exit=0, correct=True, failed=0):
    metrics = {} if setup_s is None else {"setup_s": setup_s}
    return {"exit": exit, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": metrics}


def pairs(change_runs):
    return [{"seed": n, "parent": run(2.0 + 0.01 * n), "change": c}
            for n, c in enumerate(change_runs)]


def test_a_clean_faster_change_meets_the_gain_rule():
    got = bench_pairs.summarize(pairs([run(1.0)] * 10), METRICS)["setup_s"]
    assert (got["won"], got["pairs"], got["gain_rule_met"]) == (10, 10, True)
    assert not got["beyond_bound"]


def test_a_crashed_change_run_counts_as_a_pair_and_is_not_won():
    crashed = run(exit=1, correct=None, failed=None)
    ps = pairs([run(1.0)] * 9 + [crashed])
    got = bench_pairs.summarize(ps, METRICS)["setup_s"]
    assert (got["won"], got["pairs"]) == (9, 10)
    assert not got["gain_rule_met"]  # nine tenths won, but one more unclean run
    assert bench_pairs.failures(ps)["change"] == {"failed_items": 0, "unclean_runs": 1}


def test_wrong_or_failed_items_lose_the_pair_and_the_gain():
    for bad in (run(1.0, correct=False), run(1.0, failed=2)):
        got = bench_pairs.summarize(pairs([run(1.0)] * 9 + [bad]), METRICS)["setup_s"]
        assert got["won"] == 9 and got["pairs"] == 10
        assert not got["gain_rule_met"]


def test_a_metric_missing_on_the_change_side_is_beyond_its_bound():
    got = bench_pairs.summarize(pairs([run()] * 3), METRICS)["setup_s"]
    assert got == {"won": 0, "pairs": 3, "beyond_bound": True, "gain_rule_met": False}


def test_the_working_tree_copy_carries_edits_and_untracked_files_but_not_ignored_ones(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("out/\n*.log\n")
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("ignored\n")
    (repo / "run.log").write_text("ignored\n")

    copy = bench_pairs.copy_working_tree(tmp_path / "copy", root=repo)
    files = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (copy / "pkg" / "kept.py").read_text() == "edited\n"
    assert (copy / "pkg" / "new.py").read_text() == "untracked\n"


def test_a_misspelled_workload_exits_2_before_any_export(tmp_path, monkeypatch, capsys):
    def export(*args):
        raise AssertionError("exported a tree for an unknown workload")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", export)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(["--parent", "HEAD", "--workloads", "corpus,formula",
                          "--seeds", "1-2", "--out", str(out)])
    assert stopped.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload 'formula'" in err
    assert "choose from corpus, ladder, xcheck, formulas" in err
    assert not out.exists()
