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
that holds at every ket (`residue_counts` counts, `impossible` decides).
This module is the only place the exponent is written out.

`weyl_counts` counts d^(2n) <psi|Pi|psi> for each outcome's projector Pi:
pairing with the state adds -Phi(J) to e, and with E_w(J) = e - Phi(J) +
sum_i c_i a_i, sum_J omega^E_w(J) = d^n <psi|W(w)|psi> is the state's
characteristic function at w = (P, Q).  Counted once per point as C_w, it
gives each cell's counts R[s] = sum_c C_(c.g)[s + c.a], and the outcome is
possible iff R is not uniform.

Every input must be integer and is reduced mod d on entry, so any integers
that mean the same thing mod d give the same answer.  Exponents and gathers
come in chunks of at most CHUNK, so working memory stays bounded at any d.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .zmod import StabctxError

# Exponents evaluated per np.bincount.  Working memory is about 24 bytes per
# exponent (int32 terms, the intp copy bincount makes, the bins): 1.2 MiB
# per engine call at d = 11.  2**18 took 4.3 MiB there at the same speed.
CHUNK = 1 << 16


class MalformedQuery(StabctxError):
    """Table, generators or outcomes are not integer arrays that fit d."""


def _reduce(array, d):
    try:
        array = np.asarray(array)
    except ValueError:  # ragged rows
        raise MalformedQuery("expected rectangular integer arrays") from None
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise MalformedQuery(f"expected integers, got {array.dtype} entries")
    return (array % d).astype(np.int64)


def _prepare(d, phi_table, gens, values=None):
    """Inputs reduced mod d; without `values`, only table and generators."""
    phi, gens = _reduce(phi_table, d).astype(np.int32), _reduce(gens, d)
    values = (np.zeros(gens.shape[:2], dtype=np.int64) if values is None
              else _reduce(values, d))
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
    """The (point, ket) tables of one ket chunk: J.P mod d and Phi(J - Q)."""
    shift = np.zeros((len(grid), len(kets)), dtype=np.int32)
    for i in range(grid.shape[1]):
        shift += (kets[:, i] - grid[:, i, None]) % d * place[i]
    return grid @ kets.T % d, phi[shift]


def _fold(bins, d):
    """Counts over exponents in [0, 3d), last axis, folded mod d.  Two slice
    adds run 3-4x faster than a sum over a size-3 axis on these shapes."""
    return bins[..., :d] + bins[..., d:2 * d] + bins[..., 2 * d:]


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
    k_step = min(size, max(1, CHUNK // size))
    q_step = max(1, CHUNK // (size * size))  # 1 unless k_step == size
    span, inv2 = 3 * d, (d + 1) // 2
    for k0 in range(0, size, k_step):
        kets = grid[k0:k0 + k_step]
        nk = len(kets)
        dot, phase = _ket_tables(d, phi, grid, place, kets)
        dot += span * np.arange(nk, dtype=np.int32)
        for q0 in range(0, len(gens), q_step):
            qs = slice(q0, q0 + q_step)
            points = grid @ gens[qs] % d  # (query, element, coordinate)
            P, Q = points[..., 0::2], points[..., 1::2]
            e = dot[P @ place]
            e += phase[Q @ place]
            base = (-inv2 * (P * Q).sum(axis=-1) - values[qs] @ grid.T) % d
            del points, P, Q  # not held through the bincount peak
            nq = len(base)
            base += span * nk * np.arange(nq)[:, None]
            e += base.astype(np.int32)[:, :, None]
            counts = np.bincount(e.ravel(), minlength=nq * nk * span)
            yield (qs, slice(k0, k0 + nk),
                   _fold(counts.reshape(nq, nk, span), d))


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


def _point_counts(d, phi, grid, place):
    """C[w, t]: how many kets J give E_w(J) = t, points w = (P, Q) row-major
    with P major.  As in `_chunks`, the (point, ket) tables J.P - Phi(J) at P
    and Phi(J - Q) at Q and -inv2 * sum P_i Q_i are counted over 3d bins."""
    size, span = len(grid), 3 * d
    dot, phase = _ket_tables(d, phi, grid, place, grid)
    dot = (dot - phi) % d
    quad = -((d + 1) // 2) * (grid @ grid.T).ravel() % d
    step = max(1, CHUNK // size)
    out = np.empty((size * size, d), dtype=np.min_scalar_type(size))
    for w0 in range(0, size * size, step):
        ws = np.arange(w0, min(w0 + step, size * size), dtype=np.int32)
        e = dot[ws // size]
        e += phase[ws % size] + (quad[ws] + span * (ws - w0))[:, None]
        bins = np.bincount(e.ravel(), minlength=len(ws) * span)
        out[ws] = _fold(bins.reshape(-1, span), d)
    return out


def weyl_counts(d: int, phi_table,
                gens) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (subspace slice, R[q, o, s]) blocks, R counting the d^(2n)
    roots of d^(2n) <psi|Pi|psi> equal to omega^s, Pi the projector of
    subspace q's outcome o (row-major over Z_d^n): R[q, o, s] =
    sum_c C_(c.g)[(s + c.o) mod d], gathered CHUNK counts at a time.
    Arguments as for `residue_counts` without outcomes, checked lazily."""
    phi, n, gens, _ = _prepare(d, phi_table, gens)
    grid, place = _grid(d, n)
    size = len(grid)
    # C_w[t mod d] at t * size^2 + w for t < 2d, so that no index wraps
    flat = np.tile(_point_counts(d, phi, grid, place).T, (2, 1)).ravel()
    shifts = grid @ grid.T % d * size ** 2  # (outcome, element): c.o rows
    residues = size ** 2 * np.arange(d).reshape(d, 1, 1, 1)
    o_step = min(size, max(1, CHUNK // (size * d)))
    q_step = max(1, CHUNK // (size * size * d))  # 1 unless o_step == size
    for q0 in range(0, len(gens), q_step):
        coords = grid @ gens[q0:q0 + q_step] % d  # (subspace, element, coord)
        w = coords[..., 0::2] @ place * size + coords[..., 1::2] @ place
        out = np.empty((len(w), size, d), dtype=np.int64)
        for o0 in range(0, size, o_step):
            idx = residues + (shifts[o0:o0 + o_step] + w[:, None])
            out[:, o0:o0 + o_step] = flat[idx].sum(axis=-1).transpose(1, 2, 0)
        yield slice(q0, q0 + len(w)), out
