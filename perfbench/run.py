"""stabctx benchmark: drive CLI workloads in-process, check every artifact,
report end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Run from anywhere; the program is the checkout's src/stabctx.  Load model:
a closed loop, one client in this process, each item one `stabctx.cli.main`
call sent after the previous one returns, with --jobs 1 and BLAS pinned to
one thread.  Warm-up items run first and are not timed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Full records (per-item times, mix, environment, spans) go to .perfbench/.

End-to-end metrics (--trace 0), every time in seconds scaled to the
yardstick, a frozen copy of the program run beside the items (see
speed.py; the unscaled wall times are printed beside them):
  setup_s       median over SETUP_REPEATS fresh interpreters of the time to
                import stabctx and generate the workload's inputs
  item_p50_s    median time of one timed item
  item_tail_s   the workload's TAIL_PERCENTILE of the item times: the highest
                percentile with at least ten items beyond it in the shortest
                runs (never below the median); the percentile and the
                sample count are printed beside it
  items_per_s   timed items over the seconds spent inside them
  peak_rss_mib  peak resident memory of this process
  failed_ratio  failed over attempted items; printed, and carried by the
                result's "failed" and "attempted" fields (it is 0 on a
                correct program, so it is not a gated metric)

Per-layer metrics (--trace 1) come from a fixed number of items, each run
once untraced and once traced, so every count repeats exactly for a seed;
see tracing.py.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import program  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
END_TO_END = (
    ("setup_s", "s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
# Items in a traced run: whole periods of each workload's item pattern.
TRACE_ITEMS = {
    "analyze-strong-d11": 8,
    "analyze-cubic-d7": 4 * len(workloads.CUBIC_D7_PATTERN),
    "model-cf-d5": len(workloads.MODEL_CF_PATTERN),
}
CHILD_TIMEOUT_S = 170
# The yardstick runs after an item when it last ran at least this many times
# its reference time ago, so it takes at most about a third of a run.
YARDSTICK_GAP = 2.0


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# The item_tail_s percentile: the highest whole percentile with at least
# ten timed items beyond it in the shortest runs measured (25 seconds on a
# slow core), floored at the median.  It is fixed, so that a run which
# completes more items does not move it.
TAIL_PERCENTILE = {
    "analyze-strong-d11": 50,
    "analyze-cubic-d7": 75,
    "model-cf-d5": 50,
}


def environment() -> dict:
    import numpy
    import scipy
    try:
        from stabctx import kernel
        backend = kernel.BACKEND
    except (ImportError, AttributeError):
        backend = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend,
    }


def load_inputs(workload: str, seed: int):
    """Import the program and generate the workload's inputs (set-up)."""
    import stabctx.cli
    from check import Reference
    reference = Reference.load(workload)
    timed = workloads.generate(workload, seed, reference)
    warmup = workloads.generate(workload, seed, reference,
                                count=workloads.WARMUP_ITEMS, stream="warmup")
    return stabctx.cli, reference, timed, warmup


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up time in SETUP_REPEATS fresh interpreters, one after another,
    each between two yardstick set-ups that scale it (see speed.py)."""
    yardstick = speed.Samples(workloads.WORKLOADS[workload].yardstick_setup_s)

    def yardstick_setup():
        start = time.perf_counter()
        seconds = speed.setup_probe(workload, seed)
        yardstick.add(start, time.perf_counter(), seconds)

    yardstick_setup()
    runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=program.ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        end = time.perf_counter()
        wall = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        runs.append({"seconds": wall, "span": (start, end)})
        yardstick_setup()
    for entry in runs:
        entry["scaled_s"] = yardstick.scaled(entry["seconds"], *entry["span"])
    return runs


class Runner:
    """Runs items, checks artifacts and keeps the per-item records."""

    def __init__(self, cli, reference, out_path):
        self.cli = cli  # main is looked up per call, so tracing sees it
        self.reference = reference
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def run(self, index: int, item, tracer=None) -> dict:
        """One item; returns its record.  Failures are counted, not raised."""
        self.attempted += 1
        code, seconds, artifact, reason = None, None, b"", None
        if tracer is not None:
            tracer.begin_item(index)
        try:
            code, seconds, artifact = program.invoke(
                self.cli.main, item.argv(), self.out_path)
            reason = self.reference.check(item, code, artifact)
        except Exception:  # one failed item must not stop the run
            reason = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.end_item(len(artifact))
        if reason is not None:
            self.failed += 1
            self.failures.append({"index": index, "phi": item.phi,
                                  "argv": item.argv(), "reason": reason})
        return {"index": index, "command": item.command,
                "strategy": item.strategy, "class": item.state_class,
                "seconds": seconds, "exit": code, "bytes": len(artifact),
                "ok": reason is None}


def mix(records) -> dict:
    """Shares of the item properties that per-workload claims rely on."""
    analyze = [r for r in records if r["command"] == "analyze"]
    models = [r for r in records if r["command"] in ("model", "cf")]

    def share(part, whole):
        return round(len(part) / len(whole), 4) if whole else None

    return {
        "strongly_contextual_share":
            share([r for r in analyze if r["exit"] == 0], analyze),
        "full_scan_share":
            share([r for r in analyze if r["strategy"] == "full_scan"], analyze),
        "cf_share": share([r for r in models if r["command"] == "cf"], models),
        "state_classes": {c: sum(1 for r in records if r["class"] == c)
                          for c in sorted({r["class"] for r in records})},
    }


def timed_loop(runner, items, seconds: float,
               yardstick: speed.Yardstick) -> list[dict]:
    """Closed loop: the next item starts when the previous one is checked,
    until `seconds` of wall time have passed.  The yardstick runs before
    the first item, after the last, and after any item that ends at least
    YARDSTICK_GAP times its reference time after the yardstick last ran."""
    records = []
    start = time.perf_counter()
    yardstick.sample()
    i = 0
    while time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        record = runner.run(i, items[i % len(items)])
        end = time.perf_counter()
        record["span"] = (begin, end)
        records.append(record)
        i += 1
        if (end - yardstick.last_end >= YARDSTICK_GAP * yardstick.reference_s
                or end - start >= seconds):
            yardstick.sample()
    for record in records:
        if record["seconds"] is not None:
            record["scaled_s"] = yardstick.scaled(record["seconds"],
                                                  *record["span"])
    return records


def summary(setup_s: list[float], times: list[float], tail: int) -> dict:
    """The end-to-end metrics but peak_rss_mib, from set-up and item times."""
    return {
        "setup_s": statistics.median(setup_s),
        "item_p50_s": statistics.median(times),
        "item_tail_s": percentile(times, tail),
        "items_per_s": len(times) / sum(times),
    }


def end_to_end(runner, timed, warmup, args) -> tuple[dict, dict]:
    core = speed.pin_to_one_core()
    setup = measure_setup(args.workload, args.seed)
    out_path = program.OUT_DIR / f"yardstick-{os.getpid()}.out"
    with speed.Yardstick(args.workload,
                         workloads.WORKLOADS[args.workload].yardstick_s,
                         out_path) as yardstick:
        yardstick.warm_up()
        for i, item in enumerate(warmup):
            runner.run(-1 - i, item)
        records = timed_loop(runner, timed, args.seconds, yardstick)
    timed_records = [r for r in records if r["seconds"] is not None]
    tail = TAIL_PERCENTILE[args.workload]
    metrics = summary([s["scaled_s"] for s in setup],
                      [r["scaled_s"] for r in timed_records], tail)
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    wall = summary([s["seconds"] for s in setup],
                   [r["seconds"] for r in timed_records], tail)
    times = [r["scaled_s"] for r in timed_records]
    beyond = sum(1 for t in times if t > metrics["item_tail_s"])
    detail = {"setup_runs": setup, "wall": wall, "core": core,
              "yardstick_reference_s": yardstick.reference_s,
              "yardstick_p50_s": yardstick.median(),
              "yardstick_samples": yardstick.samples,
              "tail_percentile": tail,
              "timed_items": len(times), "items_beyond_tail": beyond,
              "failed_ratio": runner.failed / runner.attempted,
              "mix": mix(records), "items": records}
    return metrics, detail


def per_layer(runner, timed, warmup, args) -> tuple[dict, dict]:
    for i, item in enumerate(warmup):
        runner.run(-1 - i, item)
    items = timed[:TRACE_ITEMS[args.workload]]
    tracer = tracing.Tracer()
    plain, traced = [], []
    # Each item runs untraced and traced back to back, in alternating order,
    # so drift in machine speed falls on both sides of the overhead ratio.
    for i, item in enumerate(items):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(runner.run(i, item))
                continue
            tracer.install()
            try:
                traced.append(runner.run(i, item, tracer))
            finally:
                tracer.uninstall()
    p50 = statistics.median
    overhead = (p50([r["seconds"] for r in traced if r["seconds"]])
                / p50([r["seconds"] for r in plain if r["seconds"]]))
    values = tracer.per_layer(overhead)
    metrics = {name: values[name] for name, _unit, _better in tracing.PER_LAYER}
    trace_path = program.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    detail = {"traced_items": len(items), "trace_file": str(trace_path),
              "failed_ratio": runner.failed / runner.attempted,
              "mix": mix(traced), "items": plain + traced}
    return metrics, detail


def run_workload(args) -> int:
    try:
        program.prepare_environment()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cli, reference, timed, warmup = load_inputs(args.workload, args.seed)
    program.OUT_DIR.mkdir(exist_ok=True)
    out_path = program.OUT_DIR / f"artifact-{os.getpid()}.out"
    runner = Runner(cli, reference, out_path)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, timed, warmup, args)
    finally:
        out_path.unlink(missing_ok=True)
    unit = ({name: u for name, u, _better in tracing.PER_LAYER} if args.trace
            else dict(END_TO_END))
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "why": workloads.WORKLOADS[args.workload].why,
            "environment": environment()}
    record = {**info, "metrics": metrics, "attempted": runner.attempted,
              "failed": runner.failed, "failures": runner.failures, **detail}
    record_path = (program.OUT_DIR /
                   f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {info['why']}")
    print("# " + " ".join(f"{k}={v}" for k, v in info["environment"].items()))
    print(f"# mix {json.dumps(detail['mix'])}")
    if not args.trace:
        print(f"# item_tail_s is p{detail['tail_percentile']} of "
              f"{detail['timed_items']} timed items "
              f"({detail['items_beyond_tail']} beyond it)")
        print(f"# times are scaled to the yardstick (median "
              f"{detail['yardstick_p50_s']:.4g} s, reference "
              f"{detail['yardstick_reference_s']} s); unscaled wall times: "
              + " ".join(f"{k}={v:.6g}" for k, v in detail["wall"].items()))
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit[name]}")
    print(f"{'failed_ratio':48s} {detail['failed_ratio']:14.6g} "
          f"({runner.failed}/{runner.attempted})")
    for failure in runner.failures[:5]:
        print(f"# FAILED item {failure['index']} {failure['phi']!r}: "
              f"{failure['reason'].strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table row per workload."""
    rows, ok = {}, True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 3)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {workload}: exit code {proc.returncode}")
            return proc.returncode
        sys.stdout.write("".join(line + "\n" for line in
                                 proc.stdout.splitlines()[:-1]))
        rows[workload] = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and rows[workload]["correct"]
    names = list(rows[next(iter(rows))]["metrics"])
    print()
    print(f"{'workload':20s} " + " ".join(f"{n:>14s}" for n in
                                          names + ["failed_ratio"]))
    for workload, row in rows.items():
        cells = [f"{row['metrics'][n]['value']:14.6g}" for n in names]
        cells.append(f"{row['failed'] / row['attempted']:14.6g}")
        print(f"{workload:20s} " + " ".join(cells))
    print(f"{'unit':20s} " + " ".join(
        f"{rows[workload]['metrics'][n]['unit']:>14s}" for n in names)
        + f" {'ratio':>14s}")
    print(json.dumps({"correct": ok, "workloads": rows}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        program.prepare_environment()
        load_inputs(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
