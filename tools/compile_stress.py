"""Time the formula compiler's stress commands, each run in a child process.

    python3 tools/compile_stress.py [--runs 3]

The cases are `fo compile --json` on the two-modulus sentence at 100/101
over {a}, the three-counter sentence at 30/31/29 over {a, b}, the
two-modulus sentence at 1000/1001 over {a}, which reaches more pairs than
the state cap and exits 3, and seven nested quantifiers over {a, b}, whose
innermost scope has 256 marked letters; and `expr to-fo --json` on eight
nested `(dprod 1 (base ((a))) b ...)` over {a, b}, whose sentence would
grow about sixfold per level and which exits 3 at the sentence node cap.
Each case carries its command line.  The child imports `fragcheck` from
the `src` directory of the checkout this file sits in, so a copy of this
file in another checkout times that checkout.

For every run it prints the case's name, the child's exit code, its CPU
seconds (user plus system, interpreter start included, from `wait4`), the
CPU seconds of the command itself (`time.process_time` around
`cli.main`, measured in the child), the child's peak RSS, and the sha256
of the command's stdout; then, per case, the medians.  Runs go round the
cases in turn, `--runs` times.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEVEN = "(and (mod x0 5 1) (and (mod x3 4 2) (or (lab x6 a) (and (mod x5 3 1) (< x1 x2)))))"
for _i in reversed(range(7)):
    SEVEN = f"(exists x{_i} {SEVEN})"

CHAIN = "(base ((b)))"
for _i in range(8):
    CHAIN = f"(dprod 1 (base ((a))) b {CHAIN})"


def compile_case(sentence: str, alphabet: str) -> list:
    return ["fo", "compile", "--json", "--sexp", sentence, "--alphabet", alphabet]


CASES = {
    "two-modulus 100/101": compile_case(
        "(exists x (exists y (and (mod x 100 1) (mod y 101 1))))", "a"),
    "three-counter 30/31/29": compile_case(
        "(exists x (exists y (exists z (and (mod x 30 1) (and (mod y 31 1) (mod z 29 1))))))",
        "a,b"),
    "two-modulus 1000/1001": compile_case(
        "(exists x (exists y (and (mod x 1000 1) (mod y 1001 1))))", "a"),
    "256 columns": compile_case(SEVEN, "a,b"),
    "dprod chain depth 8": ["expr", "to-fo", "--json", "--sexp", CHAIN, "--alphabet", "a,b"],
}

# the child: run the command with its stdout captured, then print the exit
# code, the command's CPU seconds and the sha256 of what it printed
CHILD = """
import contextlib, hashlib, io, json, sys, time
from fragcheck import cli
out = io.StringIO()
start = time.process_time()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
spent = time.process_time() - start
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"code": code, "command_s": spent, "sha256": digest}))
sys.exit(code)
"""

CPU_LIMIT_S = 600   # a child past this much CPU is killed by SIGXCPU


def limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def run_child(command: list) -> dict:
    """One child process running the command line `command` of
    `fragcheck.cli`, with what `wait4` says of it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", CHILD, *command]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, preexec_fn=limit_cpu)
    with child.stdout:
        out = child.stdout.read()
    # reap the child here, not through Popen, to read its resource usage
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    report = json.loads(lines[-1]) if lines else {"command_s": float("nan"), "sha256": ""}
    return {
        "exit": code,
        "child_cpu_s": usage.ru_utime + usage.ru_stime,
        "command_s": report["command_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stdout_sha256": report["sha256"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per case")
    args = parser.parse_args(argv)
    runs = {name: [] for name in CASES}
    print(f"{'case':24} exit  child_cpu_s  command_s  peak_rss_mb  stdout_sha256")
    for _ in range(args.runs):
        for name, command in CASES.items():
            r = run_child(command)
            runs[name].append(r)
            print(f"{name:24} {r['exit']:4}  {r['child_cpu_s']:11.3f}  {r['command_s']:9.3f}"
                  f"  {r['peak_rss_mb']:11.1f}  {r['stdout_sha256'][:16]}", flush=True)
    print("medians:")
    for name, rs in runs.items():
        exits = sorted({r["exit"] for r in rs})
        print(f"{name:24} exit {exits}  child_cpu_s "
              f"{statistics.median(r['child_cpu_s'] for r in rs):.3f}  command_s "
              f"{statistics.median(r['command_s'] for r in rs):.3f}  peak_rss_mb "
              f"{statistics.median(r['peak_rss_mb'] for r in rs):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
