"""Exact possibility engine: counting roots of unity.

A query is a maximal isotropic subspace of Z_d^(2n), given by n generator
rows g_1..g_n in (p1,q1,...,pn,qn) order, and the outcomes a_1..a_n
prescribed to the Weyl measurements W(g_i).  Expanding that joint outcome's
projector against the phase-function state with value table Phi gives, for
every output ket J and every subspace element w = sum_i c_i g_i with
coordinates (P, Q), one root of unity omega^e with

    e = -sum_i c_i a_i - inv2 * sum_i P_i Q_i + sum_i J_i P_i + Phi(J - Q).

The production engine is `PointCounts`.  Pairing with the state adds
-Phi(J) to e, and with E_w(J) = e - Phi(J) + sum_i c_i a_i, sum_J
omega^E_w(J) = d^n <psi|W(w)|psi> is the state's characteristic function
at w = (P, Q).  Counted once per state as C_w, it gives the counts R[s] =
sum_c C_(c.g)[s + c.a] of the roots of d^(2n) <psi|Pi|psi>, and since d is
prime the outcome is impossible iff R is uniform.  Its readers serve
empirical models (`weyl_counts`) and the hidden-variable scan (`uniform`) at
a subspace's element points, cached per `context_rows` row (`row_points`).
For two qudits and deg Phi <= 3, E_w is a quadratic in J, and
`_closed_form` builds C from six values of each difference Phi(J - Q) -
Phi(J) and the classical count of a quadratic's values; for any other
table `_point_counts` enumerates the exponents.  The same enumeration, run
only at the distinct points of the asked subspaces and read by `uniform`,
is `impossible`, the oracle that `born.outcome_possibility`, `selftest` and
the tests ask; being enumerated for every table, it also checks the closed
form.  This module is the only place the exponent is written out: by
`_point_counts`, and in closed form by `_closed_form`.

Every input must be integer and is reduced mod d on entry, so any integers
that mean the same thing mod d give the same answer (`uniform` takes them
reduced, from `impossible` and the scan).  Exponents and gathers come in
chunks of at most CHUNK, and the enumeration's (coordinate, ket) tables
hold no more entries than CHUNK or the counts they build, so working memory
stays bounded at any d.  Every per-d cache here is a `functools.lru_cache`
of read-only arrays, so threads share them as they are.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator

import numpy as np

from .phase_space import context_rows
from .zmod import MalformedInput, Modulus

# Exponents evaluated per np.bincount.  Working memory is about 24 bytes per
# exponent (int32 terms, the intp copy bincount makes, the bins): 1.2 MiB
# per engine call at d = 11.  2**18 took 4.3 MiB there at the same speed.
CHUNK = 1 << 16


class MalformedQuery(MalformedInput):
    """Table, generators or outcomes are not integer arrays that fit d."""


def _residue(x, d):
    """One entry of an object array mod d.  A bool is rejected, as a bool
    array is, though Python reads True as the integer 1."""
    if isinstance(x, (bool, np.bool_)):
        raise MalformedQuery("expected integers, got bool entries")
    return operator.index(x) % d


def _reduce(array, d):
    """`array` as int64 residues mod d; integers beyond int64, which numpy
    holds as objects, are reduced one by one."""
    try:
        array = np.asarray(array)
        if array.dtype == object:
            array = np.vectorize(lambda x: _residue(x, d),
                                 otypes=[np.int64])(array)
    except MalformedQuery:
        raise
    except (ValueError, TypeError):  # ragged rows, or objects not integers
        raise MalformedQuery("expected rectangular integer arrays") from None
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise MalformedQuery(f"expected integers, got {array.dtype} entries")
    return (array % d).astype(np.int64, copy=False)


def _queries(d, n, gens, values=None):
    """Generators and outcomes (zero without `values`) reduced mod d."""
    gens = _reduce(gens, d)
    values = (np.zeros(gens.shape[:2], dtype=np.int64) if values is None
              else _reduce(values, d))
    if gens.shape[1:] != (n, 2 * n) or values.shape != gens.shape[:2]:
        raise MalformedQuery(f"generators {gens.shape} and outcomes "
                             f"{values.shape} do not fit n={n}")
    return gens, values


def _table(d, phi_table):
    """d read as a `Modulus` (counting decides possibility only for prime
    d), the phi table reduced mod d and flattened, and its qudit count n."""
    d = Modulus(d).d
    phi = _reduce(phi_table, d).astype(np.int32)
    if phi.ndim not in (1, 2) or phi.shape != (d,) * phi.ndim:
        raise MalformedQuery(f"phi table {phi.shape} does not fit d={d}")
    return d, phi.ravel(), phi.ndim


@functools.lru_cache
def _grid(d, n):
    """Z_d^n row-major (element coefficients, kets, points and outcomes) and
    the place values that give a point's row-major index, read-only."""
    grid = np.array(list(itertools.product(range(d), repeat=n)),
                    dtype=np.int32)
    place = d ** np.arange(n - 1, -1, -1, dtype=np.int32)
    grid.flags.writeable = place.flags.writeable = False
    return grid, place


def _points(d, n, gens):
    """(Q, d^n) int32: the row-major index w of each element c.g of each
    subspace, gens reduced mod d.  The one place the formula is written.
    Blocks are int32: coordinate sums stay below 2d^2, and w below d^(2n)."""
    grid, place = _grid(d, n)
    weights = np.ravel([place * len(grid), place], order="F")  # P major
    out = np.empty((len(gens), len(grid)), dtype=np.int32)
    step = max(1, CHUNK // len(grid))
    for q0 in range(0, len(gens), step):  # coordinates mod d, then w
        block = gens[q0:q0 + step].astype(np.int32, copy=False)
        out[q0:q0 + step] = grid @ block % d @ weights
    return out


@functools.lru_cache(maxsize=None)
def _row_points(d, sid):
    """`_points` of one row of the two-qudit `context_rows`, read-only."""
    points = _points(d, 2, context_rows(Modulus(d), 2)[sid:sid + 1])[0]
    points.flags.writeable = False
    return points


def row_points(d: int, sids: np.ndarray) -> np.ndarray:
    """`_points` of rows `sids` of `context_rows(Modulus(d), 2)`, each computed
    once per d, when first asked; kept one by one, as rows scattered over one
    array would each pull in a whole huge page.  Each is a read-only value
    of `_row_points`' cache, which threads share as is."""
    return np.array([_row_points(d, s) for s in sids.tolist()], np.int32)


def _point_counts(d, phi, grid, place, points):
    """C[t, i], residue-major: how many kets J give E_w(J) = t at the i-th
    of `points`, w = (P, Q) row-major with P major.  Per chunk of kets, the
    (coordinate, ket) tables J.P - Phi(J) and Phi(J - Q) are gathered at
    each point's P and Q and, with -inv2 * P.Q, counted over 3d bins, as
    many points per bincount as the chunk's width allows, then folded mod d
    (two slice adds run 3-4x faster than a sum over a size-3 axis on these
    shapes)."""
    size, span, inv2 = len(grid), 3 * d, (d + 1) // 2
    P, Q = np.divmod(points, size)
    quad = np.zeros(len(points), dtype=np.int32)  # P.Q from the digits
    for b in place:
        quad += P // b % d * (Q // b % d)
    quad %= d
    quad *= d - inv2  # -inv2 * P.Q mod d, no product leaving int32
    quad %= d
    out = np.empty((d, len(points)), dtype=np.min_scalar_type(size))
    # the two tables take no more entries than CHUNK or the counts built
    k_step = min(size, max(1, max(CHUNK, out.size) // size))
    for k0 in range(0, size, k_step):
        kets = grid[k0:k0 + k_step]
        shift = np.zeros((size, len(kets)), dtype=np.int32)
        for i in range(grid.shape[1]):
            shift += (kets[:, i] - grid[:, i, None]) % d * place[i]
        dot = (grid @ kets.T - phi[kets @ place]) % d
        phase = phi[shift]
        del shift
        step = max(1, CHUNK // max(len(kets), span))
        offsets = span * np.arange(step, dtype=np.int32)
        for w0 in range(0, len(points), step):
            ws = slice(w0, w0 + step)
            e, more = dot[P[ws]], phase[Q[ws]]
            more += (quad[ws] + offsets[:len(e)])[:, None]
            e += more
            bins = np.bincount(e.ravel(), minlength=len(e) * span)
            bins = bins.reshape(-1, span)
            counts = (bins[:, :d] + bins[:, d:2 * d] + bins[:, 2 * d:]).T
            if k0:  # later ket chunks add to the first one's counts
                out[:, ws] += counts.astype(out.dtype)
            else:
                out[:, ws] = counts
    return out


# The closed form's point classes (n = 2, deg Phi <= 3), by the count
# pattern of C_w over u = (t - shift) mod d: rank 2 with eta(-det) = +1 and
# -1, rank 1 with eta(lambda) = +1 and -1, uniform, constant.
RANK2, RANK1, UNIFORM, CONSTANT = 0, 2, 4, 5
# Six kets (j, k) at which a quadratic's values fix its six coefficients
SIX = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))


@functools.lru_cache
def _quadratics(d):
    """Per-d constants of the closed form: Z_d^2 row-major as columns j and
    k; the monomials j^2, jk, k^2, j, k, 1 at each point (d^2, 6); the basis
    (6, d^2) of the quadratics through SIX; the weights (6, 6) that take
    values at SIX to coefficients in monomial order; the Legendre symbol
    and the inverses (both 0 at 0); and the class table (d, 6d), column
    k*d + h holding class k's counts at t, shifted by h.

    The monomials and the basis are floats, for BLAS products that stay
    exact: every sum below is of six products of a monomial (< d^2) and a
    residue, and float32 holds every integer below 2^24."""
    h = (d + 1) // 2
    j, k = _grid(d, 2)[0].T
    exact = np.float32 if 6 * d ** 3 < 1 << 24 else np.float64
    mono = np.array([j * j, j * k, k * k, j, k, np.ones_like(j)])
    # rows: the values at SIX; columns: A, B, C, l1, l2, g00
    weights = np.array([[h, 1, h, -1 - h, -1 - h, 1],
                        [-1, -1, 0, 2, 0, 0],
                        [0, -1, -1, 0, 2, 0],
                        [h, 0, 0, -h, 0, 0],
                        [0, 0, h, 0, -h, 0],
                        [0, 1, 0, 0, 0, 0]]) % d
    basis = (weights @ mono % d).astype(exact)
    eta = np.array([0] + [1 if pow(x, (d - 1) // 2, d) == 1 else -1
                          for x in range(1, d)])
    inverse = np.array([pow(x, d - 2, d) for x in range(d)])
    zero = np.arange(d) == 0
    classes = np.array([d - 1 + d * zero, d + 1 - d * zero,
                        d * (1 + eta), d * (1 - eta),
                        np.full(d, d), d * d * zero])  # (class, u)
    u = np.subtract.outer(range(d), range(d)) % d  # (t, h)
    table = classes[:, u].transpose(1, 0, 2).reshape(d, 6 * d)
    table = table.astype(np.min_scalar_type(d * d))
    constants = (j, k, mono.T.astype(exact), basis, weights, eta, inverse,
                 table)
    for array in constants:
        array.flags.writeable = False
    return constants


def _closed_form(d, phi):
    """(class table, key) for a two-qudit phi whose differences G_Q(J) =
    Phi(J - Q) - Phi(J) are all quadratic in J, else None.

    Each G_Q is interpolated from its values at SIX, and the interpolant
    checked against G_Q at every J.  E_w(J) = G_Q(J) + J.P - inv2 * P.Q is
    then J^T M J + b.J + F with M = [[A, B/2], [B/2, C]], b = P + l(Q) and
    F = g00(Q) - inv2 * P.Q, and its value counts C_w depend on w only
    through a class and a shift (Lidl & Niederreiter, Finite Fields, 6.2):
    with D = 4 det M, rank 2 (D != 0) counts d - eta(-D), plus d * eta(-D)
    at u = 0, shift F - b^T adj(M) b / D; rank 1 with b in M's column space
    counts d * (1 + eta(lam) * eta(u)), shift F - beta^2 / (4 lam), lam
    and beta being A and b1 if A != 0, else C and b2; M = 0 and b = 0 is
    constant, d^2 at u = 0, shift F; anything else is uniform.  key[w] =
    class * d + shift, w = (P, Q) row-major with P major."""
    j, k, mono, basis, weights, eta, inverse, table = _quadratics(d)
    phi = phi.reshape(d, d)
    # g[Q, J] = Phi(J - Q) - Phi(J), Phi(J - Q) read from the doubled table
    # as a view whose Q strides run backwards from (d, d)
    ext = np.tile(phi, (2, 2))
    row, col = ext.strides
    g = np.ndarray((d,) * 4, ext.dtype, ext, d * (row + col),
                   (-row, -col, row, col)) - phi
    g = g.reshape(d * d, d * d)
    g %= d
    six = g[:, [a * d + b for a, b in SIX]]
    fit = (six.astype(basis.dtype) @ basis).astype(np.int32)
    fit %= d
    if (fit != g).any():
        return None
    del g, fit
    A, B, C, l1, l2, g00 = (six @ weights % d).T
    h = (d + 1) // 2
    D = (4 * A * C - B * B) % d
    rank2, a = D != 0, A != 0
    lam = np.where(a, A, C)  # rank 1 (D = 0, lam != 0) or M = 0 (lam = 0)
    # the shift is a quadratic in P, F - (P + l)^T N (P + l): N = adj(M) / D
    # at rank 2, b1^2 or b2^2 over 4 lam at rank 1, and 0 for M = 0
    x, y = inverse[D], inverse[4 * lam % d] * ~rank2
    c11, c12, c22 = C * x + a * y, -B * x, A * x + ~a * y
    lin1, lin2 = 2 * c11 * l1 + c12 * l2, c12 * l1 + 2 * c22 * l2
    coef = np.array([-c11, -c12, -c22, -lin1 - h * j, -lin2 - h * k,
                     g00 - h * (lin1 * l1 + lin2 * l2)]) % d
    key = (mono @ coef.astype(mono.dtype)).astype(np.int32)
    key %= d
    cls = np.where(rank2, RANK2, np.where(lam != 0, RANK1, UNIFORM)) + (
        np.where(rank2, eta[-D % d], eta[lam]) < 0)
    key += (cls * d).astype(np.int32)
    # rank 1 is uniform where b = P + l leaves M's column space, i.e. where
    # b.v != 0, v = (B, -2A) if A != 0, else (1, 0)
    r1 = np.flatnonzero(~rank2 & (lam != 0))
    if len(r1):
        v1, v2 = np.where(a[r1], B[r1], 1), -2 * A[r1]
        off = (j[:, None] * v1 + k[:, None] * v2
               + l1[r1] * v1 + l2[r1] * v2) % d != 0
        key[:, r1] += off * ((UNIFORM - cls[r1]) * d).astype(np.int32)
    # M = 0 is constant at the one P with b = 0, uniform elsewhere
    r0 = np.flatnonzero(~rank2 & (lam == 0))
    key[(-l1[r0] % d) * d + (-l2[r0] % d), r0] += (CONSTANT - UNIFORM) * d
    return table, key.ravel()


class PointCounts:
    """One state's point counts, built once for two readers that gather a
    cell's R[s] = sum_c C_(c.g)[(s + c.a) mod d], CHUNK counts at a time.

    The counts live in `table` (d, K), and C_w[t] = table[t, key[w]], one
    int32 key per phase point.  For n = 2 and deg Phi <= 3 `_closed_form`
    builds them: K = 6d columns shared by every state of that d, and d^4
    keys (59 KB at d = 11).  Otherwise `_point_counts` enumerates C itself,
    K = d^(2n) and key = arange: d^(2n+1) counts of one or two bytes
    (161 KB at d = 11); `_enumerated` holds it at given points alone."""

    def __init__(self, d: int, phi_table):
        d, phi, n = _table(d, phi_table)
        built = _closed_form(d, phi) if n == 2 else None
        if built is None:
            points = np.arange(d ** (2 * n), dtype=np.int32)
            built = _point_counts(d, phi, *_grid(d, n), points), points
        self._hold(d, n, *built)

    @classmethod
    def _enumerated(cls, d, phi, n, points):
        """Counts enumerated at `points` alone, points[i] under key i: what
        the module's `impossible` reads, for a phi already reduced."""
        self = cls.__new__(cls)
        self._hold(d, n, _point_counts(d, phi, *_grid(d, n), points),
                   np.arange(len(points), dtype=np.int32))
        return self

    def _hold(self, d, n, table, key):
        self.d, self.n, self.table, self.key = d, n, table, key
        self.grid, self.place = _grid(d, n)
        # [s, shift]: the offset in the table of row (s + shift) mod d
        self.rot = np.add.outer(range(d), range(d)) % d * table.shape[1]

    def _gather(self, rows, w):
        """R[s, ...] = sum_c table[(s + shift) mod d, w[..., c]]: `rows`
        are rot.take(shifts, axis=1), broadcast against the keys w."""
        return self.table.ravel()[rows + w].sum(axis=-1)

    def weyl_counts(self, gens) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (subspace slice, R[q, o, s]) blocks, R counting the d^(2n)
        roots of d^(2n) <psi|Pi|psi> equal to omega^s, Pi the projector of
        subspace q's outcome o (row-major over Z_d^n).  Generators as for
        `impossible`, checked lazily."""
        gens, _ = _queries(self.d, self.n, gens)
        d, size = self.d, len(self.grid)
        shifts = self.grid @ self.grid.T % d  # c.o: (outcome, element)
        o_step = min(size, max(1, CHUNK // (size * d)))
        q_step = max(1, CHUNK // (size * size * d))  # 1 unless o_step == size
        block = max(1, CHUNK // (size * d))  # subspaces per yielded block
        for b0 in range(0, len(gens), block):
            w = self.key[_points(d, self.n, gens[b0:b0 + block])]
            out = np.empty((len(w), size, d), dtype=np.int64)
            for o0 in range(0, size, o_step):
                rows = self.rot.take(shifts[o0:o0 + o_step, None], axis=1)
                for q0 in range(0, len(w), q_step):
                    out[q0:q0 + q_step, o0:o0 + o_step] = self._gather(
                        rows, w[q0:q0 + q_step]).transpose(2, 1, 0)
            yield slice(b0, b0 + len(w)), out

    def uniform(self, points, values) -> np.ndarray:
        """Boolean per cell: whether R is uniform, i.e. <psi|Pi|psi> = 0, at
        the subspace with element points points[q] and outcome values[q]."""
        step = max(1, CHUNK // (len(self.grid) * self.d))
        out = np.empty(len(points), dtype=bool)
        for q0 in range(0, len(points), step):
            qs = slice(q0, q0 + step)
            rows = self.rot.take(values[qs] @ self.grid.T % self.d, axis=1)
            counts = self._gather(rows, self.key[points[qs]])
            out[qs] = (counts == counts[:1]).all(axis=0)
        return out

    def impossible(self, gens, values) -> np.ndarray:
        """`uniform`, from the module `impossible`'s arguments."""
        gens, values = _queries(self.d, self.n, gens, values)
        return self.uniform(_points(self.d, self.n, gens), values)


def impossible(d: int, phi_table, gens, values) -> np.ndarray:
    """Boolean per query: whether its joint outcome is impossible, i.e. R is
    uniform, read by `PointCounts.uniform` from counts enumerated only at
    the asked subspaces' distinct points, whatever the degree of Phi: per
    block of queries whose points number CHUNK or fewer.

    phi_table has shape (d,)*n with n in {1, 2}; gens has shape (Q, n, 2n)
    and values shape (Q, n), all of integer dtype.
    """
    d, phi, n = _table(d, phi_table)
    gens, values = _queries(d, n, gens, values)
    out = np.empty(len(gens), dtype=bool)
    step = max(1, CHUNK // d ** n)  # queries per enumeration
    for q0 in range(0, len(gens), step):
        qs = slice(q0, q0 + step)
        points = _points(d, n, gens[qs])
        asked = np.sort(points, axis=None)  # then only its distinct points
        asked = asked[np.r_[True, asked[1:] != asked[:-1]]]
        out[qs] = PointCounts._enumerated(d, phi, n, asked).uniform(
            np.searchsorted(asked, points), values[qs])
    return out
