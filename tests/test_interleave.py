"""tools/interleave.py: a committed revision's package imported beside this
checkout's under a second name."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

from fragcheck import fologic, fragments
from fragcheck.automata import dfa_to_json, minimize, regex_to_dfa

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(spec)
spec.loader.exec_module(interleave)


def exported_head(tmp_path):
    """This checkout's `src/fragcheck`, committed once to a repository of
    its own under tmp_path and exported from there as `fragcheck_head`:
    the tests need no git history around the checkout."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src" / "fragcheck", repo / "src" / "fragcheck",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=fragcheck", "-c",
           "user.email=fragcheck@localhost", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "src"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "export"], check=True)
    into = tmp_path / "export"
    into.mkdir()
    return interleave.load_export("HEAD", "fragcheck_head", into, repo), into


def test_head_export_imports_beside_the_checkout_and_analyzes_alike(tmp_path):
    head, into = exported_head(tmp_path)
    try:
        other = interleave.submodules(head)["fragments"]
        assert Path(other.__file__).parent == into / "fragcheck_head"
        assert other is not fragments
        assert other.analyze.__module__ == "fragcheck_head.fragments"
        for pattern in ("(a|b)*", "(aa)*", "a(a|b)*", "(ab)*", "((a|b)(a|b))*(aa|bb)(a|b)*"):
            d = minimize(regex_to_dfa(pattern))
            for multiplier in (1, 3):
                docs = [json.dumps(module.analyze(d, index_multiplier=multiplier).to_doc())
                        for module in (fragments, other)]
                assert docs[0] == docs[1], (pattern, multiplier)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "fragcheck_head"]:
            del sys.modules[name]


def test_the_change_side_is_a_copy_of_the_checkout_under_its_own_name(tmp_path):
    """The change side is not the `fragcheck` the inputs are built with:
    it is imported from a copy of this checkout's sources, so neither
    timed side is the first import."""
    change = interleave.load_copy("fragcheck_copy", tmp_path)
    try:
        copied = interleave.submodules(change)
        assert Path(copied["fologic"].__file__).parent == tmp_path / "fragcheck_copy"
        assert copied["fologic"] is not fologic
        for text in ("(exists x (lab x a))", "(forall x (exists y (and (< x y) (mod y 2 1))))"):
            docs = [dfa_to_json(module.compile_formula(module.parse_formula(text), ["a", "b"]))
                    for module in (fologic, copied["fologic"])]
            assert docs[0] == docs[1], text
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "fragcheck_copy"]:
            del sys.modules[name]


def test_formulas_items_run_on_the_parent_classes_and_summarise_alike(tmp_path):
    """The parent side's `formulas` items, rebuilt on the parent's own
    `modprod` classes, come in the change side's order and summarise alike
    on both sides, and the change side's expressions are left as they
    were."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    head, _ = exported_head(tmp_path)
    change = {attr: getattr(workloads, attr) for attr in interleave.ITEM_MODULES}
    try:
        sides = {"change": change, "parent": interleave.submodules(head)}
        items = interleave.side_items("formulas", 3, 1, sides, workloads)
        assert [label for label, _ in items["parent"]] == [label for label, _ in items["change"]]
        assert workloads.data.VALID[0][1].__class__.__module__ == "fragcheck.modprod"
        summary = workloads.WORKLOADS["formulas"].summary
        for i, (label, _) in enumerate(items["change"]):
            got = {side: summary(interleave.timed(items[side][i][1], modules, workloads)[0])
                   for side, modules in sides.items()}
            assert got["change"] == got["parent"], label
    finally:
        for attr, module in change.items():
            setattr(workloads, attr, module)
        for name in [n for n in sys.modules if n.split(".")[0] == "fragcheck_head"]:
            del sys.modules[name]


def test_each_side_runs_first_on_half_of_each_kind():
    # corpus items alternate x1 and x3 of one language; counting places
    # per multiplier, not per item, gives each side half of each kind in
    # every rep, where the item's own parity gave every x1 item one side
    labels = [f"r{i:04d}@x{m}" for i in range(6) for m in (1, 3)] + ["ex@x1", "ex@x3"]
    place = interleave.places(labels)
    assert place == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    for rep in (0, 1):
        for kind in ("@x1", "@x3"):
            firsts = [(rep + k) % 2 == 0 for label, k in zip(labels, place)
                      if label.endswith(kind)]
            assert abs(2 * sum(firsts) - len(firsts)) <= 1
    assert interleave.places(["m000", "m001", "m002"]) == [0, 1, 2]
