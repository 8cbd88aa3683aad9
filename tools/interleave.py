"""Time one workload's items on a parent revision and on this checkout, in one
process, item by item.

    python3 tools/interleave.py --parent REV --workload corpus|ladder|xcheck|formulas \\
        --seed N [--reps 7]

The parent's ``src/fragcheck``, exported with ``git archive``, is imported
as ``fragcheck_parent``, and a copy of this checkout's ``src/fragcheck`` (as
it is on disk) as ``fragcheck_change``; their relative imports keep each
copy self-contained.  The inputs are built by this checkout's
``bench/workloads.py``, sized for the run length ``BENCHMARK.json`` sets,
which imports this checkout's package as ``fragcheck``: that first import
builds the inputs and times nothing, so neither timed side is the package
imported first.  Each item is then run on either side by swapping the
module globals the items call through (``workloads.fragments``, ``cli``,
``automata``, ``fologic`` and ``modprod``).  The ``formulas`` items carry
expressions that ``bench/data.py`` builds from ``fragcheck.modprod``
classes, which another package's ``validate`` and ``eval_expr`` do not
accept; so each side's items are generated again from the same seed, with
each expression printed as an s-expression and read back by the side's
``modprod.parse_expr``.

It first runs every item on both packages and exits 1 unless the outputs
(each item's result in the workload's ``summary`` form) are identical.
Then, for each of ``--reps`` reps, it runs every item on both sides and
sums each side's CPU time (``time.process_time``).  Items are of one kind
when their labels end alike after an ``@`` (the index multiplier of a
``corpus`` item; every item of the other workloads is of one kind), and
the k-th item of a kind runs the parent first for even (rep + k) and the
change first for odd: so in every rep each side runs first on half of each
kind, and the side that runs second, on warm caches, is not the same for
every item of a kind.  It prints each rep's
change/parent ratio of those sums and their median, then each item's
median CPU over the reps on both sides, with their ratio, which shows
where in the workload a change gains or loses.  Both sides share one
process, one heap and one host state, so the ratio moves far less between
reps than the separate runs of ``tools/bench_pairs.py`` move between
pairs; it sizes a change, and does not replace that benchmark.
"""

import argparse
import gc
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "ladder", "xcheck", "formulas")
ITEM_MODULES = ("fragments", "cli", "automata", "fologic", "modprod")


def load_export(rev: str, name: str, into: Path, root: Path = ROOT):
    """Import `rev`'s committed `src/fragcheck` of the repository at `root`
    as the package `name`, from a copy written under `into`."""
    archive = subprocess.run(["git", "archive", rev, "src/fragcheck"], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    (into / "src" / "fragcheck").rename(into / name)
    return load_package(name, into / name)


def load_copy(name: str, into: Path, root: Path = ROOT):
    """Import the `src/fragcheck` of the checkout at `root`, as it is on
    disk, as the package `name`, from a copy written under `into`."""
    shutil.copytree(root / "src" / "fragcheck", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return load_package(name, into / name)


def load_package(name: str, path: Path):
    """Import the package directory `path` as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def submodules(package) -> dict:
    """The modules the workload items call through, from `package`."""
    return {attr: importlib.import_module(f"{package.__name__}.{attr}")
            for attr in ITEM_MODULES}


def side_items(name: str, seed: int, seconds: int, sides: dict, workloads) -> dict:
    """Each side's items of the workload, in one order, as `workloads`
    generates them, except that each side's `formulas` expressions are
    rebuilt by that side's `modprod` from the ones `bench/data.py` built."""
    workload = workloads.WORKLOADS[name]
    if name != "formulas":
        return dict.fromkeys(sides, workload.generate(seed, seconds).items)
    data = workloads.data
    print_expr = importlib.import_module("fragcheck.modprod").expr_to_sexp
    items = {}
    for side, modules in sides.items():
        read_expr = modules["modprod"].parse_expr

        def rebuilt(rows):
            return [(label, read_expr(print_expr(expr)), *rest) for label, expr, *rest in rows]

        workloads.data = types.SimpleNamespace(
            VALID=rebuilt(data.VALID), INVALID=rebuilt(data.INVALID), SENTENCES=data.SENTENCES)
        try:
            items[side] = workload.generate(seed, seconds).items
        finally:
            workloads.data = data
    return items


def places(labels) -> list:
    """Each item's place among the items of its kind, the part of its
    label after an ``@``, in the order given."""
    seen = {}
    out = []
    for label in labels:
        kind = label.partition("@")[2]
        out.append(seen.get(kind, 0))
        seen[kind] = out[-1] + 1
    return out


def timed(call, modules: dict, workloads):
    """One run of `call` with the item globals set to `modules`: (result,
    CPU s)."""
    for attr, module in modules.items():
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
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        change = load_copy("fragcheck_change", Path(tmp))
        parent = load_export(args.parent, "fragcheck_parent", Path(tmp))
        sides = {"change": submodules(change), "parent": submodules(parent)}
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        items = side_items(args.workload, args.seed, seconds, sides, workloads)
        summary = workloads.WORKLOADS[args.workload].summary
        print(f"{args.workload} seed {args.seed}: {len(items['change'])} items, "
              f"parent {args.parent}", flush=True)

        for i, (label, _) in enumerate(items["change"]):
            got = {}
            for side, modules in sides.items():
                # the summary reads the side's own classes, still in place
                got[side] = summary(timed(items[side][i][1], modules, workloads)[0])
            if got["change"] != got["parent"]:
                print(f"outputs differ at {label}", file=sys.stderr)
                return 1
        print("outputs identical", flush=True)

        place = places(label for label, _ in items["change"])
        ratios = []
        per_item = {side: [[] for _ in items["change"]] for side in sides}  # CPU s per rep
        for rep in range(args.reps):
            gc.collect()
            total = dict.fromkeys(sides, 0.0)
            for i in range(len(items["change"])):
                order = (("parent", "change") if (rep + place[i]) % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    cpu = timed(items[side][i][1], sides[side], workloads)[1]
                    per_item[side][i].append(cpu)
                    total[side] += cpu
            ratios.append(total["change"] / total["parent"])
            print(f"rep {rep}: parent {total['parent']:.3f} s, change {total['change']:.3f} s,"
                  f" change/parent {ratios[-1]:.4f}", flush=True)
        print(f"median change/parent {statistics.median(ratios):.4f} "
              f"(range {min(ratios):.4f}-{max(ratios):.4f} over {args.reps} reps)")
        print("item: median CPU ms, parent / change")
        for i, (label, _) in enumerate(items["change"]):
            parent_ms, change_ms = (1000 * statistics.median(per_item[side][i])
                                    for side in ("parent", "change"))
            ratio = change_ms / parent_ms if parent_ms else float("nan")
            print(f"  {label}: {parent_ms:.3f} / {change_ms:.3f} ({ratio:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
