"""Run the benchmark in alternating parent/change pairs and record the runs.

    python3 tools/bench_pairs.py --parent REV \\
        --workloads ladder,corpus --seeds 901-910 --seconds 12 --out BENCH_<n>.json

Each side runs ``bench/run.py`` exactly as its own tree has it, from a
copy in one temporary directory: the parent's committed files exported with
``git archive``, and this checkout's working tree (its tracked files as
they are on disk, with the untracked files git does not ignore), so both
sides run from the same kind of directory.
For every workload and seed the two sides run back to back, the parent
first for even pair numbers and the change first for odd ones, so that a
drift of the host's speed falls on both sides alike.

The output file holds the seeds, both revisions, every run's metrics, and
per workload and end-to-end metric (the ``end_to_end`` list of
``BENCHMARK.json``) each side's median and quartiles, the change of the
medians, the pairs the change won (ties count for neither side), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether it meets the gain rule: at least nine tenths of all
pairs run won, the medians apart by more than the parent's quartile
distance, and no more failures on the change side than on the parent's.
A pair counts as won only when its change run exited 0, read
``correct: true`` and failed no more items than its parent run; the
failures per side (failed items, and runs that did not end cleanly) are
recorded per workload.  The file is rewritten after every pair, so a
stopped run keeps what it measured.
"""

import argparse
import hashlib
import json
import statistics
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, known):
    """The arguments; a workload outside `known` (the names BENCHMARK.json
    lists) exits 2 before anything is exported or run."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="seeds as a range 901-910 or a list 1,5,9")
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    unknown = [w for w in args.workloads.split(",") if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(map(repr, unknown))}; "
                     f"choose from {', '.join(known)}")
    return args


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, written under `into`."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def copy_working_tree(into: Path, root: Path = ROOT) -> Path:
    """The working tree of the checkout at `root`, written under `into`:
    its tracked files as they are on disk (uncommitted edits included,
    deleted ones left out) and its untracked files that git does not
    ignore."""
    into.mkdir(parents=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        if name and (root / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)
    return into


def describe_working_tree() -> dict:
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    return {"revision": "working tree", "commit": git("rev-parse", "HEAD"),
            "uncommitted_diff_sha256": hashlib.sha256(diff).hexdigest(),
            "untracked": git("ls-files", "--others", "--exclude-standard").split()}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:  # a run that died before its summary line
        doc = {}
    return {
        "exit": proc.returncode,
        "correct": doc.get("correct"),
        "attempted": doc.get("attempted"),
        "failed": doc.get("failed"),
        "metrics": {k: v["value"] for k, v in doc.get("metrics", {}).items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def clean(run: dict) -> bool:
    """Whether a run exited 0 and got every item right."""
    return run["exit"] == 0 and run["correct"] is True


def failures(pairs: list[dict]) -> dict:
    """Per side, the failed items and the runs that did not end cleanly."""
    return {side: {"failed_items": sum(p[side]["failed"] or 0 for p in pairs),
                   "unclean_runs": sum(not clean(p[side]) for p in pairs)}
            for side in ("parent", "change")}


def change_won(pair: dict, name: str, higher: bool) -> bool:
    """Whether the change side won the pair on metric `name`: its run ended
    cleanly, failed no more items than the parent's, and measured better."""
    parent, change = pair["parent"], pair["change"]
    a, b = parent["metrics"].get(name), change["metrics"].get(name)
    if a is None or b is None or not clean(change):
        return False
    if (change["failed"] or 0) > (parent["failed"] or 0):
        return False
    return b > a if higher else b < a


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    fails = failures(pairs)
    no_more_failures = all(fails["change"][k] <= fails["parent"][k] for k in fails["change"])
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        parent_values = [v for p in pairs if (v := p["parent"]["metrics"].get(name)) is not None]
        change_values = [v for p in pairs if (v := p["change"]["metrics"].get(name)) is not None]
        if not parent_values or not change_values:
            out[name] = {"won": 0, "pairs": len(pairs), "beyond_bound": not change_values,
                         "gain_rule_met": False}
            continue
        parent, change = quartiles(parent_values), quartiles(change_values)
        won = sum(change_won(p, name, higher) for p in pairs)
        worse = (parent["median"] - change["median"]) if higher else (
            change["median"] - parent["median"])
        out[name] = {
            "parent": parent,
            "change": change,
            "delta_pct": 100 * (change["median"] / parent["median"] - 1) if parent["median"] else None,
            "won": won,
            "pairs": len(pairs),
            "beyond_bound": worse > spec["bound"] * abs(parent["median"]),
            "gain_rule_met": 10 * won >= 9 * len(pairs)
            and -worse > parent["q3"] - parent["q1"] and no_more_failures,
        }
    return out


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    metrics = benchmark["end_to_end"]
    doc = {
        "command": "python3 bench/run.py --workload W --seed N --seconds "
                   f"{args.seconds}",
        "seeds": seeds,
        "parent": {"revision": args.parent, "commit": git("rev-parse", args.parent)},
        "change": describe_working_tree(),
        "order": "parent first for even pair numbers, change first for odd ones",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": copy_working_tree(Path(tmp) / "change")}
        for workload in workloads:
            pairs = []
            for n, seed in enumerate(seeds):
                sides = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                doc["workloads"][workload] = {"pairs": pairs, "failures": failures(pairs),
                                              "summary": summarize(pairs, metrics)}
                Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
                print(workload, seed, {side: pair[side]["metrics"] for side in sides}, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
