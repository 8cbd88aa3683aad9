"""Time `analyze` on the large monoids the repository can rebuild, and the
`xcheck` battery on its largest draw, each run in a child process.

    python3 tools/analyze_stress.py [--runs 3] [--only NAME]

The inputs are seeded recipes:

- the Sigma_2[<,MOD] sentence of `tests/test_fragments.py`
  (SIGMA2_SENTENCE), compiled over {a, b}: |M| = 5216;
- the mid-size draw of `tests/test_monoid.py`, the 170th draw of
  `cli.random_dfa(np.random.default_rng(2), 8, 2)`: |M| = 1580;
- the 8571 draw, the 1213th draw of
  `cli.random_dfa(np.random.default_rng(4), 8, 2)`: |M| = 8571;
- the regex union, a 503-character pattern: the union, over the first 14
  words xyz of {a,b,c}^3 in `itertools.product` order, of
  `(a|b|c)*x(a|b|c)*y(a|b|c)*z(a|b|c)*`, with 6 states and |M| = 10;
- the start-up case, `(ab)*`, with |M| = 6, whose command is nearly all
  interpreter start and imports: its child CPU is the cost of starting one
  `analyze` command;
- the 9310 draw, `xcheck --json --count 1 --seed 1 --max-states 16
  --max-letters 16` at the default monoid cap: its one instance is a
  7-state, 2-letter DFA with |M| = 9310, drawn and run through the whole
  cross-check battery inside the command's time.

The piecewise-testable union of the earlier large-input measurements is
left out: its pattern is not recorded in the repository; the regex union
stands in for it.

Each DFA recipe is built once, in this process, and written as a DFA
document to a temporary directory; each child then runs `analyze --json`
on it at index multiplier 1 and 3.  The children of the regex union and
of the start-up case run `analyze --json --regex PATTERN`, so compiling
the pattern is inside the command's time.  The `xcheck` case takes no
multiplier and runs once per round; its rows show `-` in the `x` column.
The child imports `fragcheck`
from the `src` directory of the checkout this file sits in, so a copy of
this file in another checkout times that checkout.

For every run it prints the input's name and multiplier, the child's exit
code, its CPU seconds (user plus system, interpreter start included, from
`wait4`), the CPU seconds of the command itself (`time.process_time`
around `cli.main`, measured in the child), the child's peak RSS, and the
sha256 of the JSON report; then, per input and multiplier, the medians.
Runs go round the inputs in turn, `--runs` times.
"""

import argparse
import itertools
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from compile_stress import run_child  # noqa: E402

SIGMA2_SENTENCE = """
(exists x1 (forall y1 (or (and (not (lab x1 a)) (or (< y1 x1) (mod y1 2 2)))
  (or (and (or (lab x1 a) (len 3 3)) (and (lab y1 b) (< x1 y1)))
      (and (mod x1 3 2) (not (lab y1 b)))))))
"""

MULTIPLIERS = (1, 3)


def sigma2_sentence():
    from fragcheck.fologic import compile_formula, parse_formula
    return compile_formula(parse_formula(SIGMA2_SENTENCE), ["a", "b"])


def draw(seed: int, count: int):
    """The count-th draw of `cli.random_dfa(default_rng(seed), 8, 2)`."""
    import numpy as np
    from fragcheck.cli import random_dfa
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = random_dfa(rng, 8, 2)
    return d


RECIPES = {
    "sigma2-sentence": sigma2_sentence,
    "mid-size-1580": lambda: draw(2, 170),
    "draw-8571": lambda: draw(4, 1213),
}

XCHECKS = {
    "xcheck-9310": ["xcheck", "--json", "--count", "1", "--seed", "1",
                    "--max-states", "16", "--max-letters", "16"],
}

PATTERNS = {
    "regex-union": "|".join("(a|b|c)*" + "(a|b|c)*".join(w) + "(a|b|c)*"
                            for w in list(itertools.product("abc", repeat=3))[:14]),
    "start-up": "(ab)*",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per input and multiplier")
    parser.add_argument("--only", choices=sorted(RECIPES.keys() | PATTERNS.keys() | XCHECKS.keys()),
                        action="append", help="time only this input (repeatable)")
    args = parser.parse_args(argv)
    from fragcheck.automata import dfa_to_json
    names = args.only or [*RECIPES, *PATTERNS, *XCHECKS]
    with tempfile.TemporaryDirectory() as tmp:
        commands = {}  # (name, multiplier or "-") -> the command line
        for name in names:
            if name in XCHECKS:
                commands[(name, "-")] = XCHECKS[name]
                continue
            if name in PATTERNS:
                source = ["--regex", PATTERNS[name]]
            else:
                path = os.path.join(tmp, f"{name}.json")
                Path(path).write_text(dfa_to_json(RECIPES[name]()))
                source = ["--dfa", path]
            for t in MULTIPLIERS:
                commands[(name, t)] = ["analyze", "--json", *source, "--index-multiplier", str(t)]
        runs = {case: [] for case in commands}
        print(f"{'input':18} {'x':>2} exit  child_cpu_s  command_s  peak_rss_mb  report_sha256")
        for _ in range(args.runs):
            for (name, t), command in commands.items():
                r = run_child(command)
                runs[(name, t)].append(r)
                print(f"{name:18} {t:>2} {r['exit']:4}  {r['child_cpu_s']:11.3f}"
                      f"  {r['command_s']:9.3f}  {r['peak_rss_mb']:11.1f}"
                      f"  {r['stdout_sha256'][:16]}", flush=True)
    print("medians:")
    for (name, t), rs in runs.items():
        exits = sorted({r["exit"] for r in rs})
        digests = sorted({r["stdout_sha256"][:16] for r in rs})
        print(f"{name:18} {t:>2} exit {exits}  child_cpu_s "
              f"{statistics.median(r['child_cpu_s'] for r in rs):.3f}  command_s "
              f"{statistics.median(r['command_s'] for r in rs):.3f}  peak_rss_mb "
              f"{statistics.median(r['peak_rss_mb'] for r in rs):.1f}  sha256 {' '.join(digests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
