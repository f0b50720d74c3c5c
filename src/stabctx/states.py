"""Phase-function states and diagonal-gate hierarchy bookkeeping.

A phase-function state on n qudits is |Phi> with amplitudes proportional to
omega^{Phi(j)} for a polynomial Phi over Z_d.  This module classifies the
diagonal gate U_Phi by hierarchy level (degree), verifies levels against a
dense conjugation oracle, decomposes two-qudit cubics into the strong normal
form phi1*j^2*k + phi2*j*k^2, and applies the two verdict-preserving
reductions: dropping the quadratic part and swapping the qudits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dense
from .phase_space import PhasePoint
from .zmod import ArityMismatch, MalformedInput, Modulus, StabctxError, \
    ZdPoly, _expect, _integers


class OutsideCharacterization(StabctxError):
    """Degree/dimension combination not covered by the diagonal-gate
    level-from-degree rule (degree > 3, or degree 3 at d = 3)."""


class OracleScaleExceeded(StabctxError):
    """Dense conjugation oracle requested beyond d in {3,5}, n <= 2."""


@dataclass(frozen=True, slots=True)
class PhaseFunctionState:
    """State |Phi> = (normalization) * sum_j omega^{Phi(j)} |j> on n qudits."""

    modulus: Modulus
    n: int
    phi: ZdPoly

    def __post_init__(self):
        object.__setattr__(self, "n", _integers((self.n,), "qudit counts")[0])
        if not isinstance(self.phi, ZdPoly):
            raise MalformedInput(f"phi must be a ZdPoly, not {self.phi!r}")
        if self.phi.modulus != self.modulus:
            raise ArityMismatch("phi modulus differs from state modulus")
        if self.phi.num_vars != self.n:
            raise ArityMismatch(
                f"phi has {self.phi.num_vars} variables for n={self.n}")

    def phi_table(self) -> np.ndarray:
        """Value table of Phi on Z_d^n (n <= 2), used by `stabctx.kernel`."""
        if self.n not in (1, 2):
            raise OracleScaleExceeded("phi tables support n <= 2")
        d = self.modulus.d
        table = np.zeros((d,) * self.n, dtype=np.int64)
        for exps, c in self.phi.coeffs.items():
            # per variable x, a table of v^e mod d: any exponent e works
            for x, e in zip(np.indices(table.shape, sparse=True), exps):
                c = c * np.array([pow(v, e, d) for v in range(d)])[x] % d
            table += c
        return (table % d).astype(np.intc)


@dataclass(frozen=True, slots=True)
class StrongnessReport:
    """Decomposition Phi = phi1*j^2*k + phi2*j*k^2 + local cubics + quadratic.

    is_strong holds iff the local cubic terms vanish and (phi1, phi2) != (0, 0).
    """

    is_strong: bool
    phi1: int
    phi2: int
    quadratic_part: ZdPoly
    local_cubic_terms: ZdPoly


def diagonal_gate_level(phi: ZdPoly) -> int:
    """Clifford-hierarchy level of the diagonal gate U_phi, from deg(phi).

    Degree 0/1 -> 1 (Pauli), degree 2 -> 2 (Clifford), degree 3 -> 3.
    The degree-3 rule holds for d > 3 only; degree 3 at d = 3 and any
    degree > 3 raise OutsideCharacterization.
    """
    deg = _expect(phi, ZdPoly).degree()
    if deg > 3:
        raise OutsideCharacterization(f"degree {deg} gates are not classified")
    if deg == 3 and phi.modulus.d == 3:
        raise OutsideCharacterization(
            "degree-3 rule requires d > 3; use verify_level_by_conjugation")
    return max(deg, 1)


def _weyl_points(m: Modulus, n: int):
    for coords in itertools.product(range(m.d), repeat=2 * n):
        yield PhasePoint(m, n, coords)


@lru_cache(maxsize=None)
def _unit_points(m: Modulus, n: int) -> tuple[PhasePoint, ...]:
    """The 2n unit vectors of Z_d^(2n): the generators Z_i and X_i."""
    return tuple(PhasePoint(m, n, tuple(int(i == k) for k in range(2 * n)))
                 for i in range(2 * n))


@lru_cache(maxsize=None)
def _overlap_tables(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ket indices j+q for every shift q (rows) and ket j (columns), and the
    character table omega^(-p.j) over kets p (rows) and j (columns); cached,
    so read-only."""
    kets = np.indices((d,) * n).reshape(n, -1).T
    shifted = (kets[:, None, :] + kets[None, :, :]) % d
    shift = np.ravel_multi_index(tuple(shifted.transpose(2, 0, 1)), (d,) * n)
    chars = dense.omega(d) ** (-(kets @ kets.T) % d)
    shift.flags.writeable = chars.flags.writeable = False
    return shift, chars


def _is_pauli(mat: np.ndarray, m: Modulus, n: int) -> bool:
    """Whether mat equals omega^t W(p,q) for some point and t in Z_d.

    The Weyl operators are orthogonal under the trace inner product, and up
    to a phase <W(p,q), mat> = sum_j omega^(-p.j) mat[j+q, j].  So the one
    candidate is the (p,q) of largest overlap, read from the product of the
    matrix's shifted diagonals with the character table; mat is accepted iff
    it equals W(p,q) times the d-th root of unity nearest their overlap.
    """
    d = m.d
    shift, chars = _overlap_tables(d, n)
    overlaps = np.abs(mat[shift, np.arange(d ** n)] @ chars)
    q, p = np.unravel_index(overlaps.argmax(), overlaps.shape)
    pairs = zip(np.unravel_index(p, (d,) * n), np.unravel_index(q, (d,) * n))
    weyl = dense.weyl_matrix(PhasePoint(m, n, sum(pairs, ())))  # (p1,q1,...)
    t = round(np.angle(np.vdot(weyl, mat)) * d / (2 * np.pi))
    return bool(np.allclose(mat, dense.omega(d) ** t * weyl, atol=dense.ATOL))


def _in_level(mat: np.ndarray, level: int, m: Modulus, n: int) -> bool:
    """Membership in hierarchy level `level`, by recursive conjugation.

    Level 1 is the Weyl operators times d-th roots of unity (`_is_pauli`);
    U is in level k > 1 iff U W U^dagger is in level k-1 for every Weyl
    operator W.  Conjugation by U is multiplicative and every Weyl operator
    is a product of the 2n unit ones up to a phase, so when level k-1 is a
    group the unit operators suffice.  Levels 1 and 2 (Paulis with phases,
    Cliffords) are groups; from level 3 up the levels are not closed under
    products (Gottesman & Chuang 1999), so levels k > 3 conjugate all
    d^(2n) Weyl operators.
    """
    if level == 1:
        return _is_pauli(mat, m, n)
    points = _unit_points(m, n) if level <= 3 else _weyl_points(m, n)
    return all(_in_level(mat @ dense.weyl_matrix(point) @ mat.conj().T,
                         level - 1, m, n)
               for point in points)


def verify_level_by_conjugation(phi: ZdPoly, claimed_level: int) -> bool:
    """Dense oracle: does U_phi lie in the claimed hierarchy level?

    Builds the d^n x d^n diagonal matrix and decides membership with
    `_in_level`.  Membership is non-strict: any gate confirmed at level k is
    confirmed at every higher level.  Scale-limited to d in {3,5}, n <= 2.
    """
    m = _expect(phi, ZdPoly).modulus
    n = phi.num_vars
    if m.d not in (3, 5) or n > 2:
        raise OracleScaleExceeded("oracle supports d in {3,5}, n <= 2")
    claimed_level = _integers((claimed_level,), "hierarchy levels")[0]
    if claimed_level < 1:
        raise MalformedInput("hierarchy levels start at 1")
    return _in_level(dense.diagonal_gate(m, phi), claimed_level, m, n)


def strongness(state: PhaseFunctionState) -> StrongnessReport:
    """Decompose a two-qudit Phi of degree <= 3 and test strongness."""
    if _expect(state, PhaseFunctionState).n != 2:
        raise ArityMismatch("strongness is defined for two-qudit states")
    phi = state.phi
    if phi.degree() > 3:
        raise ArityMismatch(f"degree {phi.degree()} exceeds 3")
    m = state.modulus
    phi1, phi2 = phi.coeff((2, 1)), phi.coeff((1, 2))
    local = {e: c for e, c in phi.coeffs.items() if e in ((3, 0), (0, 3))}
    quad = {e: c for e, c in phi.coeffs.items() if sum(e) <= 2}
    return StrongnessReport(
        is_strong=(not local) and (phi1 != 0 or phi2 != 0),
        phi1=phi1,
        phi2=phi2,
        quadratic_part=ZdPoly(m, 2, quad),
        local_cubic_terms=ZdPoly(m, 2, local),
    )


def strip_quadratic(state: PhaseFunctionState) -> PhaseFunctionState:
    """Drop every term of total degree <= 2, keeping the cubic part.

    The discarded part defines a diagonal Clifford gate, so the returned
    state has the same contextuality verdict as the input.  Idempotent.
    """
    if _expect(state, PhaseFunctionState).n != 2:
        raise ArityMismatch("strip_quadratic is defined for two-qudit states")
    cubic = {e: c for e, c in state.phi.coeffs.items() if sum(e) >= 3}
    return PhaseFunctionState(state.modulus, 2,
                              ZdPoly(state.modulus, 2, cubic))


def swap_qudits(state: PhaseFunctionState) -> PhaseFunctionState:
    """Exchange the two qudits: Phi(j,k) -> Phi(k,j).  An involution."""
    if _expect(state, PhaseFunctionState).n != 2:
        raise ArityMismatch("swap_qudits is defined for two-qudit states")
    swapped = {(e[1], e[0]): c for e, c in state.phi.coeffs.items()}
    return PhaseFunctionState(state.modulus, 2,
                              ZdPoly(state.modulus, 2, swapped))
