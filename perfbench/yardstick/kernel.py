"""Possibility-kernel backend selection.

Imports the compiled kernel when present, otherwise the numpy fallback.
Set STABCTX_PURE_PYTHON=1 to force the fallback (used by the benchmark and
the backend-equivalence tests).
"""

from __future__ import annotations

import os

import numpy as np

from . import _kernel_py

if os.environ.get("STABCTX_PURE_PYTHON"):
    _impl = _kernel_py
    BACKEND = "python"
else:
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
        BACKEND = "compiled"
    except ImportError:
        _impl = _kernel_py
        BACKEND = "python"


def coerce_point(coords) -> np.ndarray:
    return np.ascontiguousarray(coords, dtype=np.intc)


def coerce_table(table) -> np.ndarray:
    return np.ascontiguousarray(table, dtype=np.intc)


def first_possible_ket(d: int, phi_table, u, v, a: int, b: int) -> int:
    """Backend-dispatched possibility check; see `_kernel_py` for semantics.

    Accepts any integer array-likes; coerce with `coerce_table`/`coerce_point`
    ahead of a hot loop to skip per-call conversion.
    """
    if not (isinstance(phi_table, np.ndarray) and phi_table.dtype == np.intc
            and phi_table.flags.c_contiguous):
        phi_table = coerce_table(phi_table)
    if not (isinstance(u, np.ndarray) and u.dtype == np.intc):
        u = coerce_point(u)
    if not (isinstance(v, np.ndarray) and v.dtype == np.intc):
        v = coerce_point(v)
    return int(_impl.first_possible_ket(d, phi_table, u, v, int(a) % d,
                                        int(b) % d))
