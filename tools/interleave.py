"""Time one workload's items on a parent revision and on this checkout, in one
process, item by item.

    python3 tools/interleave.py --parent REV --workload corpus|ladder|xcheck \\
        --seed N [--reps 7]

The parent's ``src/fragcheck``, exported with ``git archive``, is imported
under a second package name; its relative imports keep that copy
self-contained beside this checkout's ``fragcheck``.  The inputs are built
once, by this checkout's ``bench/workloads.py``, sized for the run length
``BENCHMARK.json`` sets.  Each item is then run on either package by
swapping the module globals the items call through (``workloads.fragments``
and ``workloads.cli``).

It first runs every item on both packages and exits 1 unless the outputs
are identical.  Then, for each of ``--reps`` reps, it runs every item on
both sides, the parent first for even (rep + item) and the change first
for odd, and sums each side's CPU time (``time.process_time``).  It prints
each rep's change/parent ratio of those sums and their median.  Both sides
share one process, one heap and one host state, so the ratio moves far
less between reps than the separate runs of ``tools/bench_pairs.py`` move
between pairs; it sizes a change, and does not replace that benchmark.
"""

import argparse
import gc
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "ladder", "xcheck")


def load_export(rev: str, name: str, into: Path):
    """Import `rev`'s committed `src/fragcheck` as the package `name`, from a
    copy written under `into`."""
    archive = subprocess.run(["git", "archive", rev, "src/fragcheck"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    path = into / name
    (into / "src" / "fragcheck").rename(path)
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def submodules(package) -> dict:
    """The modules the workload items call through, from `package`."""
    return {attr: importlib.import_module(f"{package.__name__}.{attr}")
            for attr in ("fragments", "cli")}


def timed(call, sides: dict, workloads, side: str):
    """One run of `call` with the item globals of `side`: (result, CPU s)."""
    for attr, module in sides[side].items():
        setattr(workloads, attr, module)
    start = time.process_time()
    result = call()
    return result, time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import fragcheck
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        parent = load_export(args.parent, "fragcheck_parent", Path(tmp))
        sides = {"change": submodules(fragcheck), "parent": submodules(parent)}
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        items = workloads.WORKLOADS[args.workload].generate(args.seed, seconds).items
        print(f"{args.workload} seed {args.seed}: {len(items)} items, parent {args.parent}",
              flush=True)

        for label, call in items:
            got = {side: timed(call, sides, workloads, side)[0] for side in sides}
            if got["change"] != got["parent"]:
                print(f"outputs differ at {label}", file=sys.stderr)
                return 1
        print("outputs identical", flush=True)

        ratios = []
        for rep in range(args.reps):
            gc.collect()
            total = dict.fromkeys(sides, 0.0)
            for i, (_, call) in enumerate(items):
                order = ("parent", "change") if (rep + i) % 2 == 0 else ("change", "parent")
                for side in order:
                    total[side] += timed(call, sides, workloads, side)[1]
            ratios.append(total["change"] / total["parent"])
            print(f"rep {rep}: parent {total['parent']:.3f} s, change {total['change']:.3f} s,"
                  f" change/parent {ratios[-1]:.4f}", flush=True)
        print(f"median change/parent {statistics.median(ratios):.4f} "
              f"(range {min(ratios):.4f}-{max(ratios):.4f} over {args.reps} reps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
