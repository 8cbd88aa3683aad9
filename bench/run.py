"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One
process, one thread (BLAS threads pinned to 1).  ``--seconds`` sets the
amount of work: each workload sizes a fixed item list, from the seed, to
take about that long at the reference speed.  Times are CPU seconds
scaled to the reference speed by an interleaved calibration loop.

With ``--trace 0`` the run sets its inputs up several times (reporting the
median), times every item with tracing off, checks every output, and
reports the end-to-end metrics.  With ``--trace 1`` it runs the same items
once untraced and once traced, checks that both give identical results,
and reports per-layer calls and self times, size counts and the tracing
overhead; the spans are written to ``.bench_out/``.  The last line of
standard output is one JSON object; any failed item or check makes the
exit code nonzero.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# numpy is imported later, in main(); its BLAS reads these at import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

# Every time is CPU time of this single-threaded process.  The machines the
# benchmark runs on share their cores, so wall time also counts the waits
# other tenants impose; the program does no I/O while it is timed.
CLOCK = time.process_time
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CALIBRATION_LOOP = 100_000
CALIBRATION_EVERY = 0.25
CALIBRATION_WINDOW = 6
# the calibration loop's CPU seconds at the reference speed: its fast phase
# on the shared 2-core x86-64 machine where the benchmark was defined
REFERENCE_S = 0.0058


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import fragcheck from this checkout's src/; exit nonzero without it."""
    if not (SRC / "fragcheck" / "__init__.py").is_file():
        sys.exit(f"error: no fragcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fragcheck

    if Path(fragcheck.__file__).resolve().parent != (SRC / "fragcheck").resolve():
        sys.exit(f"error: fragcheck imported from {fragcheck.__file__}, not {SRC}")


def calibration_sample() -> float:
    """CPU seconds of a fixed pure-Python loop."""
    start = CLOCK()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return CLOCK() - start


def run_items(items, tracer=None):
    """Run every item once, in order.  Returns the first result per label,
    the errors per label, and each item's CPU seconds, raw and scaled.

    The host's speed drifts by half over seconds, CPU time included, so
    the calibration loop runs between segments of about CALIBRATION_EVERY
    seconds of work.  Each segment's times are scaled by REFERENCE_S over
    the median of the CALIBRATION_WINDOW samples around it: a scaled time
    is the time at the reference speed."""
    results, errors, raw = {}, {}, []
    samples, segments = [calibration_sample()], [0]
    clock = CLOCK
    for number, (label, call) in enumerate(items):
        t = clock()
        try:
            if tracer is None:
                result = call()
            else:
                with tracer.item_scope(number):
                    result = call()
        except Exception as exc:  # any failure of the program counts against the item
            errors.setdefault(label, []).append(f"{type(exc).__name__}: {exc}")
            result = None
        raw.append(clock() - t)
        if result is not None:
            results.setdefault(label, result)
        if sum(raw[segments[-1]:]) >= CALIBRATION_EVERY or number == len(items) - 1:
            samples.append(calibration_sample())
            segments.append(len(raw))
    scaled = []
    half = CALIBRATION_WINDOW // 2
    for j in range(1, len(segments)):
        around = samples[max(0, j - half):j + half]
        factor = REFERENCE_S / statistics.median(around)
        scaled.extend(x * factor for x in raw[segments[j - 1]:segments[j]])
    return results, errors, raw, scaled


def input_digest(inputs) -> str:
    from fragcheck.automata import dfa_to_doc

    doc = {
        "languages": [[lid, dfa_to_doc(d)] for lid, d in inputs.languages],
        "items": [label for label, _ in inputs.items],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def count_failed(items, errors, bad) -> int:
    failing = set(errors) | set(bad)
    return sum(1 for label, _ in items if label in failing)


def report_problems(errors, bad, limit=10):
    shown = 0
    for label, problems in list(errors.items()) + list(bad.items()):
        for problem in problems:
            if shown < limit:
                print(f"FAIL {label}: {problem}")
            shown += 1
    if shown > limit:
        print(f"... {shown - limit} more failures")


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order, and with it the work an item does, follows
        # the string hash seed; fix it so that every run repeats the same
        # work.  exec replaces this process, so no child is left behind.
        os.environ["PYTHONHASHSEED"] = "0"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    import_package()
    import numpy
    import predictions
    import spans
    import workloads

    import_cpu = CLOCK()  # since process start: interpreter, numpy and fragcheck
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        sys.exit("error: --seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]

    import_s = import_cpu * REFERENCE_S / calibration_sample()
    setups, digests = [], []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        t = CLOCK()
        inputs = workload.generate(args.seed, args.seconds)
        spent = CLOCK() - t
        setups.append(spent * REFERENCE_S / calibration_sample())
        digests.append(input_digest(inputs))
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"the same seed gave different inputs: {digests}")

    fingerprint = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "items": len(inputs.items),
        "languages": len(inputs.languages),
        "input_digest": digests[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
    }

    # The inputs stay alive for the whole run; keep the cyclic collector from
    # rescanning them, as it would not in a process handling one language.
    gc.collect()
    gc.freeze()
    untraced, errors, raw, times = run_items(inputs.items)
    if args.trace == 0:
        bad = workload.check(inputs, untraced)
        failed = count_failed(inputs.items, errors, bad)
        percentile = workload.tail_percentile
        tail_s = float(numpy.percentile(times, percentile))
        beyond = sum(1 for x in times if x > tail_s)
        fingerprint["tail_percentile"] = percentile
        metrics = {
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_p50_ms": (1000 * statistics.median(times), "ms"),
            "item_tail_ms": (1000 * tail_s, "ms"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{workload.name}: {len(times)} items in {sum(raw):.2f} CPU s, "
              f"{sum(times):.2f} s at the reference speed, "
              f"tail = p{percentile:g} of {len(times)} items ({beyond} beyond), "
              f"fail_ratio = {failed}/{len(times)}")
    else:
        tracer = spans.Tracer()
        with tracer.installed():
            traced, traced_errors, traced_raw, traced_times = run_items(inputs.items, tracer)
        bad = workload.check(inputs, untraced)
        failed = count_failed(inputs.items, errors, bad)
        for label in sorted(set(untraced) | set(traced)):
            if label in untraced and label in traced and (
                    workload.summary(untraced[label]) != workload.summary(traced[label])):
                problems.append(f"traced and untraced results differ on {label}")
        if set(errors) != set(traced_errors):
            problems.append("traced and untraced runs failed on different items")
        own = sum(tracer.self_times())
        if abs(own - tracer.root_time()) > 1e-6 * max(1.0, own):
            problems.append("span self times do not add up to the root spans")
        metrics = tracer.layer_metrics()
        metrics["bench.unattributed_s"] = (sum(traced_raw) - own, "s")
        metrics["bench.tracing_overhead"] = (sum(traced_times) - sum(times), "s")
        metrics["bench.items"] = (len(inputs.items), "count")
        sizes = workloads.size_counts(workload.dfas(inputs, untraced))
        for name, value in sizes.items():
            metrics[name] = (value, "count")
        fingerprint.update(sizes)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
        print(f"{workload.name}: {len(inputs.items)} items, untraced {sum(raw):.2f} CPU s, "
              f"traced {sum(traced_raw):.2f} CPU s, {len(tracer.spans)} spans, "
              f"unattributed {sum(traced_raw) - own:.3f} s")
        for line in predictions.verdict_lines(workload.name, metrics):
            print(line)

    report_problems(errors, bad)
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({"fingerprint": fingerprint}))
    failed = min(len(inputs.items), failed + len(problems))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(inputs.items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
