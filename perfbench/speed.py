"""Machine-speed calibration against a frozen copy of the program.

The shared hosts this benchmark runs on change speed while a run is going.
On a 2-core VM each core flipped, every few seconds and independently of
the other, between two speeds 1.5 to 2 times apart, and a slow spell could
last minutes: the same analyze-strong-d11 item took 0.85 s or 1.4 s
depending on when it ran, and medians of 30-second runs spread by a fifth
or more.  CPU time slows with wall time there, so it does not help, and a
small synthetic probe slows by another factor than the program does.

So the timed loop interleaves the program's items with runs of the
yardstick: `yardstick/` is a copy of the program's modules as they were
when the benchmark was written, run on a fixed input of the workload's
own kind (`workloads.yardstick_items`) in a worker process.  The worker
keeps the yardstick's memory out of the benchmark process's peak resident
memory.  The benchmark process and the worker are pinned to one core, so
the yardstick meets the speed of the core the items run on, and the two
never run at the same time.  `Samples.scaled()` turns a wall time into
seconds at the reference speed:

    scaled = wall * reference / mean(yardstick samples near it)

where `reference` is the sample's time on that VM with its core at the
faster speed, and "near" means within WINDOW_S, plus the nearest sample
on each side.  A change to the program moves the wall time and not the
yardstick, so it moves the scaled time by the same factor; a change in
machine speed moves both and cancels.  Set-up time is scaled the same
way, against fresh interpreters that import the yardstick instead of the
program.  The raw wall times are kept in the records and printed beside
the scaled ones.

    python3 perfbench/speed.py --worker WORKLOAD OUT_FILE   # worker loop
    python3 perfbench/speed.py --setup-probe WORKLOAD SEED  # one set-up
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
# Yardstick samples this close to a measurement set its scale: the core
# changes speed within seconds, so the two that bracket an item are few.
WINDOW_S = 3.0
WORKER_TIMEOUT_S = 60


def pin_to_one_core() -> int:
    """Pin this process, and so the children it starts from now on, to one
    of the cores it may use; returns that core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Samples:
    """Yardstick times taken through a run, each with when it was taken."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    def add(self, start: float, end: float, seconds: float) -> None:
        self.samples.append(((start + end) / 2, seconds))

    def scaled(self, wall_s: float, start: float, end: float) -> float:
        """`wall_s`, measured between perf_counter() times `start` and `end`,
        in seconds at the reference speed."""
        before = [s for s in self.samples if s[0] <= start]
        after = [s for s in self.samples if s[0] >= end]
        near = set(before[-1:] + after[:1])
        near.update(s for s in self.samples
                    if start - WINDOW_S <= s[0] <= end + WINDOW_S)
        if not near:
            raise ValueError("no yardstick sample near the measurement")
        return wall_s * self.reference_s / statistics.fmean(
            s for _t, s in near)

    def median(self) -> float:
        return statistics.median(s for _t, s in self.samples)


class Yardstick(Samples):
    """The worker process that runs the yardstick's fixed input on request.
    Use it as a context manager: on exit the worker is stopped and waited
    for."""

    def __init__(self, workload: str, reference_s: float, out_path: Path):
        super().__init__(reference_s)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), "--worker", workload,
             str(out_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last_end = time.perf_counter()

    def _request(self, word: str) -> str:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(
                f"yardstick worker ended (exit {self.proc.poll()})")
        return reply.strip()

    def warm_up(self) -> None:
        self._request("warmup")

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = float(self._request("run"))
        self.last_end = time.perf_counter()
        self.add(start, self.last_end, seconds)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_probe(workload: str, seed: int) -> float:
    """One yardstick set-up in a fresh interpreter: seconds from its start
    to having imported the yardstick and generated the workload's inputs."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "speed.py"), "--setup-probe", workload,
         str(seed)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _load(workload: str, seed: int):
    """The yardstick's counterpart of run.load_inputs: import it, generate
    the workload's inputs; returns (yardstick cli, its fixed input)."""
    import yardstick.cli
    import workloads
    from check import Reference
    reference = Reference.load(workload)
    workloads.generate(workload, seed, reference)
    workloads.generate(workload, seed, reference,
                       count=workloads.WARMUP_ITEMS, stream="warmup")
    return yardstick.cli, workloads.yardstick_items(workload, reference)


def _worker(workload: str, out_path: str) -> None:
    import program
    cli, items = _load(workload, 0)
    out = Path(out_path)
    for line in sys.stdin:
        start = time.perf_counter()
        for item in items:
            program.invoke(cli.main, item.argv(), out)
        elapsed = time.perf_counter() - start
        print(repr(elapsed) if line.strip() == "run" else "ready", flush=True)
    out.unlink(missing_ok=True)


def main() -> int:
    if len(sys.argv) != 4 or sys.argv[1] not in ("--worker", "--setup-probe"):
        print(__doc__, file=sys.stderr)
        return 2
    import program
    os.environ.update(program.PINNED_ENV)  # before numpy is imported
    if sys.argv[1] == "--worker":
        _worker(sys.argv[2], sys.argv[3])
    else:
        _load(sys.argv[2], int(sys.argv[3]))
        print(repr(time.perf_counter() - _STARTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
