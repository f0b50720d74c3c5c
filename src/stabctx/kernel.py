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

Every input is reduced mod d on entry, so any integers that mean the same
thing mod d give the same answer.  Queries are evaluated in chunks of at
most CHUNK exponents (one query is split over its kets when it alone is
larger), so working memory stays bounded at any d.
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
    """Table, generators or outcomes have inconsistent shapes."""


def _prepare(d, phi_table, gens, values):
    phi = (np.asarray(phi_table, dtype=np.int64) % d).astype(np.int32)
    gens = np.asarray(gens, dtype=np.int64) % d
    values = np.asarray(values, dtype=np.int64) % d
    n = phi.ndim
    if (n not in (1, 2) or phi.shape != (d,) * n
            or gens.shape[1:] != (n, 2 * n) or values.shape != gens.shape[:2]):
        raise MalformedQuery(f"phi table {phi.shape}, generators {gens.shape} "
                             f"and outcomes {values.shape} do not fit d={d}")
    return phi.ravel(), n, gens, values


def _chunks(d, phi, n, gens, values):
    """Yield (query slice, ket slice, counts[query, ket, residue]).

    The exponent is the sum of three terms, each reduced mod d: per element
    -sum c_i a_i - inv2 * sum P_i Q_i, and the (point, ket) tables J.P and
    Phi(J - Q) gathered at P and at Q.  The sum lies in [0, 3d), so each
    (query, ket) row counts over 3d bins, folded mod d afterwards; the row
    offsets ride on the element term and the J.P table.
    """
    inv2 = (d + 1) // 2
    grid = np.array(list(itertools.product(range(d), repeat=n)),
                    dtype=np.int32)  # element coefficients, kets and points
    size = len(grid)
    place = d ** np.arange(n - 1, -1, -1, dtype=np.int32)  # row-major index
    if size * size <= CHUNK:
        q_step, k_step = CHUNK // (size * size), size
    else:
        q_step, k_step = 1, max(1, CHUNK // size)
    span = 3 * d
    for k0 in range(0, size, k_step):
        kets = grid[k0:k0 + k_step]
        nk = len(kets)
        dot = grid @ kets.T % d + span * np.arange(nk, dtype=np.int32)
        shift = np.zeros((size, nk), dtype=np.int32)
        for i in range(n):
            shift += (kets[:, i] - grid[:, i, None]) % d * place[i]
        phase = phi[shift]
        for q0 in range(0, len(gens), q_step):
            qs = slice(q0, q0 + q_step)
            points = grid @ gens[qs] % d  # (query, element, coordinate)
            P, Q = points[..., 0::2], points[..., 1::2]
            base = (-(values[qs] @ grid.T) - inv2 * (P * Q).sum(axis=-1)) % d
            nq = len(base)
            base += span * nk * np.arange(nq)[:, None]
            e = dot[P @ place]  # (query, element, ket)
            e += phase[Q @ place]
            e += base.astype(np.int32)[:, :, None]
            counts = np.bincount(e.ravel(), minlength=nq * nk * span)
            yield (qs, slice(k0, k0 + nk),
                   counts.reshape(nq, nk, 3, d).sum(axis=2))


def residue_counts(d: int, phi_table, gens, values) -> np.ndarray:
    """counts[q, ket, t]: how many of query q's roots at output ket `ket`
    (row-major over Z_d^n) equal omega^t.

    phi_table has shape (d,)*n with n in {1, 2}; gens has shape (Q, n, 2n)
    and values shape (Q, n).
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
