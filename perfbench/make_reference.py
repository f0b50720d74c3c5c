"""Record the reference artifacts that the correctness gate compares against.

Run at the commit whose behaviour is the reference (this benchmark's
references come from the commit that introduced it):

    python3 perfbench/make_reference.py [--workload NAME] [--jobs 2]

Writes perfbench/reference/<workload>.json.gz.  analyze-cubic-d7 covers
2 x 7^4 certificates and takes about ten minutes on two cores.  Run it on an
otherwise idle machine: the recorded CPU costs decide how inputs are
stratified.
"""

from __future__ import annotations

import argparse
import gzip
import json
import multiprocessing
import os
import sys
import time

import check
import program
import workloads
from workloads import CUBIC_EXPS, STRATEGIES, Item, format_phi

_MAIN = None


def _init_worker():
    global _MAIN
    program.prepare_environment()
    from stabctx.cli import main
    _MAIN = main


def _record(item: Item):
    """(item, entry) for one reference invocation.

    An analyze entry is "exit code:digest:cost", where cost is the CPU
    milliseconds the invocation took here; the generator uses it only to
    sort inputs into strata of similar cost."""
    out = program.OUT_DIR / f"reference-{os.getpid()}.out"
    cpu = time.process_time()
    code, _elapsed, artifact = program.invoke(_MAIN, item.argv(), out)
    cost_ms = round(1000 * (time.process_time() - cpu))
    if item.command == "analyze":
        if code not in (0, 2):
            raise RuntimeError(f"{item}: exit code {code}")
        got, phi = check.split_certificate(artifact)
        if phi != item.phi:
            raise RuntimeError(f"{item}: certificate phi {phi!r}")
        return item, f"{code}:{got}:{cost_ms}"
    if code != 0:
        raise RuntimeError(f"{item}: exit code {code}")
    if item.command == "model":
        flags, probs = check.split_model_csv(artifact.decode("utf-8"))
        return item, {"flags_sha256": flags, "probabilities": probs}
    return item, {"cf": json.loads(artifact)["cf"]}


def _tasks(workload: str) -> list[Item]:
    if workload == "analyze-strong-d11":
        d = 11
        return [Item("analyze", d, format_phi({(2, 1): p1, (1, 2): p2}, d),
                     f"{p1},{p2}", strategy="table1_first")
                for p1 in range(d) for p2 in range(d) if (p1, p2) != (0, 0)]
    if workload == "analyze-cubic-d7":
        d = 7
        items = []
        for strategy in STRATEGIES:
            for idx in range(d ** 4):
                digits = [(idx // d ** (3 - i)) % d for i in range(4)]
                coeffs = dict(zip(CUBIC_EXPS, digits))
                items.append(Item("analyze", d, format_phi(coeffs, d),
                                  f"{strategy}:{idx}", strategy=strategy))
        return items
    return [Item(cmd, 5, format_phi(coeffs, 5), str(idx))
            for idx, (_cls, coeffs) in enumerate(workloads.model_cf_pool())
            for cmd in ("model", "cf")]


def _document(workload: str, results) -> dict:
    if workload == "analyze-strong-d11":
        return {"entries": {item.ref_key: entry for item, entry in results}}
    if workload == "analyze-cubic-d7":
        entries = {s: [None] * 7 ** 4 for s in STRATEGIES}
        for item, entry in results:
            strategy, idx = item.ref_key.split(":")
            entries[strategy][int(idx)] = entry
        return {"entries": entries}
    pool = [{"class": cls, "phi": format_phi(coeffs, 5)}
            for cls, coeffs in workloads.model_cf_pool()]
    for item, entry in results:
        pool[int(item.ref_key)].update(entry)
    return {"pool": pool}


def record(workload: str, jobs: int) -> None:
    tasks = _tasks(workload)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(jobs, initializer=_init_worker) as pool:
        results = pool.map(_record, tasks, chunksize=4)
    for scratch in program.OUT_DIR.glob("reference-*.out"):
        scratch.unlink()
    doc = {"workload": workload, **_document(workload, results)}
    path = check.reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
    print(f"{workload}: {len(tasks)} artifacts -> {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        action="append")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    program.prepare_environment()
    program.OUT_DIR.mkdir(exist_ok=True)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        record(workload, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
