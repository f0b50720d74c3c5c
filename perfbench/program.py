"""How the benchmark reaches the program under test.

The program is the `stabctx` package in `src/` of the checkout this file
sits in; it is pure Python, so "building" it means putting `src` on the
import path.  Every invocation goes in-process through `stabctx.cli.main`
with `--jobs 1` and an `--output` file under OUT_DIR.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# One client on one core: BLAS gets one thread, and a stray STABCTX_JOBS
# cannot start a process pool (every call also passes --jobs 1).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no stabctx sources."""


def prepare_environment() -> None:
    """Pin threads and make `import stabctx` load the checkout's sources.
    Must run before numpy is imported."""
    if not (SRC / "stabctx" / "__init__.py").is_file():
        raise ProgramMissing(f"no stabctx package under {SRC}")
    os.environ.update(PINNED_ENV)
    os.environ.pop("STABCTX_JOBS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def invoke(main, argv: list[str], out_path: Path) -> tuple[int, float, bytes]:
    """Run one CLI invocation; (exit code, wall seconds, artifact bytes).

    Only the call to `main` is timed.  A missing artifact reads as empty."""
    try:
        out_path.unlink()
    except FileNotFoundError:
        pass
    args = argv + ["--jobs", "1", "--output", str(out_path)]
    start = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - start
    try:
        artifact = out_path.read_bytes()
    except FileNotFoundError:
        artifact = b""
    return code, elapsed, artifact
