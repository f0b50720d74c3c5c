"""Exact possibility engine: batched residue counting.

A query is a maximal isotropic subspace of Z_d^(2n), given by n generator
rows g_1..g_n in (p1,q1,...,pn,qn) order, and the outcomes a_1..a_n
prescribed to the Weyl measurements W(g_i).  Expanding that joint outcome's
projector against the phase-function state with value table Phi gives, for
every output ket J and every subspace element w = sum_i c_i g_i with
coordinates (P, Q), one root of unity omega^e with

    e = -sum_i c_i a_i - inv2 * sum_i P_i Q_i + sum_i J_i P_i + Phi(J - Q).

Since d is prime, the d^n roots of one ket sum to zero iff every residue
appears equally often, i.e. d^(n-1) times; the outcome is impossible iff
that holds at every ket.  This module is the only place the exponent is
written out.

There are two entries.  `residue_counts` (and `impossible`, which reduces
its counts to one flag per query) takes one outcome per query;
`outcome_counts` counts all d^n outcomes of each subspace.  Only the term
-sum_i c_i a_i depends on the outcome, so it makes a subspace's gathers
once and adds that term for every outcome.

Every input must be integer and is reduced mod d on entry, so any integers
that mean the same thing mod d give the same answer.  Exponents are counted
in chunks of at most CHUNK (queries, outcomes and then kets are split as
needed), so working memory stays bounded at any d.
"""

from __future__ import annotations

import itertools

import numpy as np

from .zmod import StabctxError

# Exponents evaluated per np.bincount.  Working memory is about 24 bytes per
# exponent (int32 terms, the intp copy bincount makes, the bins): 1.2 MiB
# per engine call at d = 11.  2**18 took 4.3 MiB there at the same speed.
CHUNK = 1 << 16


class MalformedQuery(StabctxError):
    """Table, generators or outcomes are not integer arrays that fit d."""


def _reduce(array, d):
    array = np.asarray(array)
    if not np.issubdtype(array.dtype, np.integer):
        raise MalformedQuery(f"expected integers, got {array.dtype} entries")
    return (array % d).astype(np.int64)


def _prepare(d, phi_table, gens, values):
    phi = _reduce(phi_table, d).astype(np.int32)
    gens, values = _reduce(gens, d), _reduce(values, d)
    n = phi.ndim
    if (n not in (1, 2) or phi.shape != (d,) * n
            or gens.shape[1:] != (n, 2 * n) or values.shape != gens.shape[:2]):
        raise MalformedQuery(f"phi table {phi.shape}, generators {gens.shape} "
                             f"and outcomes {values.shape} do not fit d={d}")
    return phi.ravel(), n, gens, values


def _grid(d, n):
    """Z_d^n row-major (element coefficients, kets, points and outcomes) and
    the place values that give a point's row-major index."""
    grid = np.array(list(itertools.product(range(d), repeat=n)),
                    dtype=np.int32)
    return grid, d ** np.arange(n - 1, -1, -1, dtype=np.int32)


def _ket_tables(d, phi, grid, place, kets):
    """The (point, ket) tables of one ket chunk: J.P mod d plus 3d times the
    ket's column, and Phi(J - Q)."""
    shift = np.zeros((len(grid), len(kets)), dtype=np.int32)
    for i in range(grid.shape[1]):
        shift += (kets[:, i] - grid[:, i, None]) % d * place[i]
    return (grid @ kets.T % d + 3 * d * np.arange(len(kets), dtype=np.int32),
            phi[shift])


def _subspace_terms(d, grid, place, gens, dot, phase):
    """e[q, element, ket], the J.P and Phi(J - Q) terms gathered at each
    element's (P, Q), and -inv2 * sum P_i Q_i per (q, element), which the
    caller reduces mod d with the outcome term."""
    points = grid @ gens % d  # (subspace, element, coordinate)
    P, Q = points[..., 0::2], points[..., 1::2]
    e = dot[P @ place]
    e += phase[Q @ place]
    inv2 = (d + 1) // 2
    return e, -inv2 * (P * Q).sum(axis=-1)


def _chunks(d, phi, n, gens, values):
    """Yield (query slice, ket slice, counts[query, ket, residue]).

    The exponent is the sum of three terms, each reduced mod d: per element
    -sum c_i a_i - inv2 * sum P_i Q_i, and the (point, ket) tables J.P and
    Phi(J - Q) gathered at P and at Q.  The sum lies in [0, 3d), so each
    (query, ket) row counts over 3d bins, folded mod d afterwards; the row
    offsets ride on the element term and the J.P table.
    """
    grid, place = _grid(d, n)
    size = len(grid)
    if size * size <= CHUNK:
        q_step, k_step = CHUNK // (size * size), size
    else:
        q_step, k_step = 1, max(1, CHUNK // size)
    span = 3 * d
    for k0 in range(0, size, k_step):
        kets = grid[k0:k0 + k_step]
        nk = len(kets)
        tables = _ket_tables(d, phi, grid, place, kets)
        for q0 in range(0, len(gens), q_step):
            qs = slice(q0, q0 + q_step)
            e, quad = _subspace_terms(d, grid, place, gens[qs], *tables)
            base = (quad - values[qs] @ grid.T) % d
            nq = len(base)
            base += span * nk * np.arange(nq)[:, None]
            e += base.astype(np.int32)[:, :, None]
            counts = np.bincount(e.ravel(), minlength=nq * nk * span)
            yield (qs, slice(k0, k0 + nk),
                   counts.reshape(nq, nk, 3, d).sum(axis=2))


def residue_counts(d: int, phi_table, gens, values) -> np.ndarray:
    """counts[q, ket, t]: how many of query q's roots at output ket `ket`
    (row-major over Z_d^n) equal omega^t.

    phi_table has shape (d,)*n with n in {1, 2}; gens has shape (Q, n, 2n)
    and values shape (Q, n), all of integer dtype.
    """
    phi, n, gens, values = _prepare(d, phi_table, gens, values)
    out = np.empty((len(gens), d ** n, d), dtype=np.int64)
    for qs, ks, counts in _chunks(d, phi, n, gens, values):
        out[qs, ks] = counts
    return out


def impossible(d: int, phi_table, gens, values) -> np.ndarray:
    """Boolean per query: whether its joint outcome is impossible, i.e. every
    ket's root multiset is uniform.  Arguments as for `residue_counts`."""
    phi, n, gens, values = _prepare(d, phi_table, gens, values)
    out = np.ones(len(gens), dtype=bool)
    for qs, _ks, counts in _chunks(d, phi, n, gens, values):
        out[qs] &= (counts == d ** (n - 1)).all(axis=(1, 2))
    return out


def outcome_counts(d: int, phi_table, gens) -> np.ndarray:
    """counts[q, o, ket, t]: `residue_counts` of subspace q with outcome o,
    for all d^n outcomes o row-major over Z_d^n.

    The gathers of a block of subspaces are made once per ket chunk; the
    outcome term -sum c_i a_i, tabulated over (outcome, element), is added
    in blocks of outcomes, so one bincount never exceeds CHUNK exponents.
    Arguments as for `residue_counts`, without the outcomes.
    """
    phi, n, gens, _ = _prepare(d, phi_table, gens,
                               np.zeros(np.shape(gens)[:2], dtype=np.int64))
    grid, place = _grid(d, n)
    size = len(grid)
    k_step = min(size, max(1, CHUNK // size))
    o_step = min(size, max(1, CHUNK // (size * k_step)))
    q_step = max(1, CHUNK // (size * k_step * size))  # 1 unless o_step == size
    span = 3 * d
    term = -(grid @ grid.T) % d  # (outcome, element)
    out = np.empty((len(gens), size, size, d), dtype=np.int64)
    for k0 in range(0, size, k_step):
        kets = grid[k0:k0 + k_step]
        nk = len(kets)
        tables = _ket_tables(d, phi, grid, place, kets)
        for q0 in range(0, len(gens), q_step):
            e, quad = _subspace_terms(d, grid, place, gens[q0:q0 + q_step],
                                      *tables)
            nq = len(e)
            for o0 in range(0, size, o_step):
                base = (quad[:, None] + term[o0:o0 + o_step]) % d
                no = base.shape[1]
                base += span * nk * np.arange(nq * no).reshape(nq, no, 1)
                counts = np.bincount(
                    (e[:, None] + base.astype(np.int32)[..., None]).ravel(),
                    minlength=nq * no * nk * span).reshape(nq, no, nk, 3, d)
                # two adds fold the bins 3-4x faster than .sum(axis=3)
                out[q0:q0 + nq, o0:o0 + no, k0:k0 + nk] = \
                    counts[..., 0, :] + counts[..., 1, :] + counts[..., 2, :]
    return out
