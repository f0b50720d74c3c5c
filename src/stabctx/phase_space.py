"""Symplectic phase space Z_d^(2n) and its measurement contexts.

Points carry coordinates (p1,q1,...,pn,qn); the Weyl operator W(v) of a
point v is `dense.weyl_matrix`, and W(u), W(v) commute iff the symplectic
product [u, v] is 0.  A context is a maximal isotropic subspace: the
phase-space shadow of a maximal set of pairwise commuting measurements.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .zmod import MalformedInput, Modulus, StabctxError, _expect, _integers, \
    inv


class DimensionMismatch(StabctxError):
    """Raised when operands live in different phase spaces."""


class UnsupportedScale(StabctxError):
    """Raised when an operation is requested beyond desk scale."""


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """A point of Z_d^(2n), coordinates ordered (p1,q1,...,pn,qn)."""

    modulus: Modulus
    n: int
    coords: tuple[int, ...]

    def __post_init__(self):
        n = _integers((self.n,), "qudit counts")[0]
        coords = _integers(self.coords, "phase-space coordinates")
        if n < 1 or len(coords) != 2 * n:
            raise DimensionMismatch(f"{len(coords)} coordinates for n={n}")
        object.__setattr__(self, "n", n)
        d = _expect(self.modulus, Modulus).d
        object.__setattr__(self, "coords", tuple(c % d for c in coords))


def _check_same_space(v: PhasePoint, w: PhasePoint):
    if v.modulus != w.modulus or v.n != w.n:
        raise DimensionMismatch("points live in different phase spaces")


def symplectic_product(v: PhasePoint, w: PhasePoint) -> int:
    """The form [v,w] = sum_i p_i q'_i - p'_i q_i, antisymmetric and bilinear."""
    _check_same_space(_expect(v, PhasePoint), _expect(w, PhasePoint))
    d = v.modulus.d
    total = 0
    for i in range(v.n):
        p, q = v.coords[2 * i], v.coords[2 * i + 1]
        pp, qq = w.coords[2 * i], w.coords[2 * i + 1]
        total += p * qq - pp * q
    return total % d


def _rref(rows: Sequence[Sequence[int]], m: Modulus) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over Z_d; zero rows dropped."""
    d = m.d
    mat = [list(int(c) % d for c in row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        scale = inv(mat[pivot_row][col], m)
        mat[pivot_row] = [v * scale % d for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % d for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row] if any(row))


class Context:
    """A maximal isotropic subspace of Z_d^(2n) with a chosen basis.

    Identity is the subspace: equality and hashing use the reduced-echelon
    canonical form, so the same subspace presented with different generators
    compares equal.  The display basis is kept as given (labelled context
    families keep their defining generators).  Read-only, since the cached
    catalogues share their contexts.
    """

    def __init__(self, basis: Sequence[PhasePoint], label: Optional[str] = None):
        if not (isinstance(basis, Sequence)
                and all(isinstance(b, PhasePoint) for b in basis)):
            raise MalformedInput("a context basis is a sequence of PhasePoints")
        if not basis:
            raise DimensionMismatch("empty basis")
        if not (label is None or isinstance(label, str) and label):
            raise MalformedInput(f"context label {label!r} is not a non-empty str")
        m = basis[0].modulus
        n = basis[0].n
        for b in basis:
            _check_same_space(basis[0], b)
        if len(basis) != n:
            raise DimensionMismatch(
                f"maximal isotropic subspace of n={n} needs {n} basis points")
        for v, w in itertools.combinations(basis, 2):
            if symplectic_product(v, w) != 0:
                raise DimensionMismatch("basis is not isotropic")
        canonical = _rref([b.coords for b in basis], m)
        if len(canonical) != n:
            raise DimensionMismatch("basis points are linearly dependent")
        self.__dict__.update(modulus=m, n=n, basis=tuple(basis), label=label,
                             canonical_key=canonical)

    def __setattr__(self, name, value):
        raise AttributeError(f"Context is read-only: cannot set {name!r}")

    @property
    def canonical_basis(self) -> tuple[PhasePoint, ...]:
        return tuple(PhasePoint(self.modulus, self.n, row)
                     for row in self.canonical_key)

    @functools.cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All d^n points of the subspace, as coordinate tuples.  Element i
        is the combination element_coeffs[i] of the canonical basis."""
        d = self.modulus.d
        return tuple(
            tuple(sum(c * entry for c, entry in zip(cs, column)) % d
                  for column in zip(*self.canonical_key))
            for cs in self.element_coeffs)

    @functools.cached_property
    def element_coeffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(range(self.modulus.d), repeat=self.n))

    def __eq__(self, other):
        return (isinstance(other, Context)
                and self.modulus == other.modulus
                and self.canonical_key == other.canonical_key)

    def __hash__(self):
        return hash((self.modulus.d, self.canonical_key))

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Context(d={self.modulus.d},{tag} basis={self.canonical_key})"

    def record(self) -> dict:
        """Serializable record form: modulus, basis rows, label."""
        return {
            "modulus": self.modulus.d,
            "basis": [list(b.coords) for b in self.basis],
            "label": self.label,
        }

    @functools.cached_property
    def display_label(self) -> str:
        """The family label when set, else the canonical basis rows."""
        return self.label or span_label(self.canonical_key)


def span_label(rows: Sequence[Sequence[int]]) -> str:
    """The label of a subspace without a family name: its canonical
    generator rows, e.g. "span:1,0,0,0|0,1,0,0"."""
    return "span:" + "|".join(",".join(map(str, _integers(
        row, "span label entries"))) for row in _expect(rows, Iterable))


@functools.lru_cache(maxsize=None, typed=True)
def context_rows(m: Modulus, n: int) -> np.ndarray:
    """Canonical generator rows of every maximal isotropic subspace of
    Z_d^(2n): an int32 array of shape (count, n, 2n), one reduced-echelon
    matrix per subspace, each subspace exactly once.

    Candidates are built per pivot-column pattern (patterns in
    `itertools.combinations` order, the free entries of each pattern
    lexicographically) and the non-isotropic ones dropped.  A subspace's
    row index is a stable name for it.  Supported for n in {1, 2}; counts
    are d+1 and (d^2+1)(d+1).  Cached per (m, n), so read-only; the key
    holds n's type, so that n = 2.0 is rejected, not served as 2.
    """
    n = _integers((n,), "qudit counts")[0]
    if n not in (1, 2):
        raise UnsupportedScale(f"context enumeration supports n in {{1,2}}, got {n}")
    d, ncols = _expect(m, Modulus).d, 2 * n
    # candidates in the least type holding any form sum (|sum| < 2d^2)
    dtype = np.min_scalar_type(-2 * d * d)
    blocks = []
    for pivots in itertools.combinations(range(ncols), n):
        free = [(r, c) for r in range(n) for c in range(pivots[r] + 1, ncols)
                if c not in pivots]
        values = np.indices((d,) * len(free), dtype=dtype).reshape(
            len(free), d ** len(free))
        rows = np.zeros((d ** len(free), n, ncols), dtype=dtype)
        rows[:, range(n), pivots] = 1
        for (r, c), v in zip(free, values):
            rows[:, r, c] = v
        # with n <= 2 the first and last rows are the only pair to test
        # (for n = 1 they coincide, and [v, v] = 0)
        u, w = rows[:, 0], rows[:, -1]
        form = u[:, 0::2] * w[:, 1::2] - u[:, 1::2] * w[:, 0::2]
        blocks.append(rows[form.sum(axis=1, dtype=dtype) % d == 0])
    out = np.concatenate(blocks).astype(np.int32)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None, typed=True)
def span_labels(m: Modulus, n: int) -> tuple[str, ...]:
    """`span_label` of each `context_rows(m, n)` row, cached likewise."""
    return tuple(map(span_label, context_rows(m, n).tolist()))


@functools.lru_cache(maxsize=None, typed=True)
def enumerate_contexts(m: Modulus, n: int) -> tuple[Context, ...]:
    """All maximal isotropic subspaces of Z_d^(2n), each exactly once, as
    validated `Context`s over the rows of `context_rows` (same order), in
    one tuple cached per (m, n), keyed as `context_rows` is."""
    return tuple(Context([PhasePoint(m, n, tuple(row)) for row in basis])
                 for basis in context_rows(m, n).tolist())


@functools.lru_cache(maxsize=None)
def table1_contexts(m: Modulus) -> tuple[Context, ...]:
    """The d(d+1) two-qudit context families I, II and III, as `Context`s
    whose `label` names the family and parameters (e.g. "I:alpha=0") and
    whose display basis is the defining generators.

    Generators (alpha in Z_d; beta in Z_d, beta != 0):
        I_alpha:        (1,0,0,0) and (0,0,alpha,1)
        II_alpha:       (0,0,1,0) and (alpha,1,0,0)
        III_alpha,beta: (1,0,beta,0) and (0,1,alpha,-beta^{-1})
    Listed I by alpha, II by alpha, then III by alpha with beta innermost.
    Operator phases are taken to be zero throughout: relabelling outcomes by
    a phase does not change which outcomes are possible.  One tuple, cached
    per m."""
    d = _expect(m, Modulus).d
    rows = ([(f"I:alpha={a}", (1, 0, 0, 0), (0, 0, a, 1)) for a in range(d)]
            + [(f"II:alpha={a}", (0, 0, 1, 0), (a, 1, 0, 0)) for a in range(d)]
            + [(f"III:alpha={a},beta={b}", (1, 0, b, 0), (0, 1, a, -inv(b, m)))
               for a in range(d) for b in range(1, d)])
    return tuple(Context([PhasePoint(m, 2, u), PhasePoint(m, 2, v)],
                         label=label) for label, u, v in rows)


@functools.lru_cache(maxsize=None)
def table1_rows(m: Modulus) -> tuple[np.ndarray, tuple[str, ...]]:
    """The int32 row in `context_rows(m, 2)` of each `table1_contexts(m)`
    family, in catalogue order, and the family labels in the same order:
    what the scan names families by.  Cached per m, so read-only."""
    keys = context_rows(m, 2).reshape(-1, 8).tolist()
    index = {tuple(key): sid for sid, key in enumerate(keys)}
    families = table1_contexts(m)
    ids = np.array([index[sum(ctx.canonical_key, ())] for ctx in families],
                   dtype=np.int32)
    ids.flags.writeable = False
    return ids, tuple(ctx.label for ctx in families)
