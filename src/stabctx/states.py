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

import numpy as np

from . import dense
from .phase_space import PhasePoint
from .zmod import ArityMismatch, MalformedInput, Modulus, StabctxError, ZdPoly


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
        points = itertools.product(range(d), repeat=self.n)
        return np.array([self.phi.evaluate(point) for point in points],
                        dtype=np.intc).reshape((d,) * self.n)


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
    deg = phi.degree()
    if deg > 3:
        raise OutsideCharacterization(f"degree {deg} gates are not classified")
    if deg == 3 and phi.modulus.d == 3:
        raise OutsideCharacterization(
            "degree-3 rule requires d > 3; use verify_level_by_conjugation")
    if deg <= 1:
        return 1
    return deg


def _weyl_points(m: Modulus, n: int):
    for coords in itertools.product(range(m.d), repeat=2 * n):
        yield PhasePoint(m, n, coords)


def _digits(idx: int, d: int, n: int) -> tuple[int, ...]:
    return tuple((idx // d ** (n - 1 - i)) % d for i in range(n))


def _is_pauli(mat: np.ndarray, m: Modulus, n: int) -> bool:
    """Whether mat equals omega^t W(p,q) for some point and t in Z_d.

    Weyl operators are monomial matrices whose permutation part is a
    per-qudit shift and whose phases step by omega^{p_i} along each qudit;
    the candidate point is read off the matrix and then verified exactly.
    """
    d = m.d
    size = d ** n
    cols = np.arange(size)
    rows = np.abs(mat).argmax(axis=0)
    if not np.allclose(np.abs(mat[rows, cols]), 1.0, atol=1e-7):
        return False  # not monomial with unit entries
    # shift part: column (j1,..,jn) must map to row (j1+q1,..,jn+qn)
    q = _digits(int(rows[0]), d, n)
    strides = [d ** (n - 1 - i) for i in range(n)]
    expected = cols.copy()
    for i in range(n):
        col_digit = (cols // strides[i]) % d
        expected += ((col_digit + q[i]) % d - col_digit) * strides[i]
    if not np.array_equal(rows, expected):
        return False
    # phase steps along each qudit give the p coordinates
    w = dense.omega(d)
    coords = []
    for i in range(n):
        step = strides[i]
        ratio = mat[rows[step], step] / mat[rows[0], 0]
        p = int(np.round(np.angle(ratio) / (2 * np.pi / d))) % d
        if abs(ratio - w ** p) > 1e-6:
            return False
        coords.append(p)
        coords.append(q[i])
    ref = dense.weyl_matrix(PhasePoint(m, n, tuple(coords)))
    phase = mat[rows[0], 0] / ref[rows[0], 0]
    if abs(phase ** d - 1.0) > 1e-6:
        return False  # global phase must be a d-th root of unity
    return bool(np.allclose(mat, phase * ref, atol=dense.ATOL))


def _generator_points(m: Modulus, n: int):
    pts = []
    for i in range(n):
        z = [0] * (2 * n)
        z[2 * i] = 1
        x = [0] * (2 * n)
        x[2 * i + 1] = 1
        pts.append(PhasePoint(m, n, tuple(z)))
        pts.append(PhasePoint(m, n, tuple(x)))
    return pts


def _in_level(mat: np.ndarray, level: int, m: Modulus, n: int) -> bool:
    """Membership in hierarchy level `level`, by recursive conjugation.

    Level 1 is `_is_pauli`: the candidate Weyl point is read off the matrix
    and then verified.  For level k > 1 it suffices to conjugate the 2n
    multiplicative generators: conjugation is a homomorphism and every level
    is closed under products.
    """
    if level <= 1:
        return _is_pauli(mat, m, n)
    for g in _generator_points(m, n):
        w = dense.weyl_matrix(g)
        conj = mat @ w @ mat.conj().T
        if not _in_level(conj, level - 1, m, n):
            return False
    return True


def verify_level_by_conjugation(phi: ZdPoly, claimed_level: int) -> bool:
    """Dense oracle: does U_phi lie in the claimed hierarchy level?

    Builds the d^n x d^n diagonal matrix, conjugates each of the d^(2n) Weyl
    operators, and checks the conjugates against the next level down
    recursively.  Membership is non-strict: any gate confirmed at level k is
    confirmed at every higher level.  Scale-limited to d in {3,5}, n <= 2.
    """
    m = phi.modulus
    n = phi.num_vars
    if m.d not in (3, 5) or n > 2:
        raise OracleScaleExceeded("oracle supports d in {3,5}, n <= 2")
    if claimed_level < 1:
        raise MalformedInput("hierarchy levels start at 1")
    mat = dense.diagonal_gate(m, phi)
    if claimed_level == 1:
        return _is_pauli(mat, m, n)
    for point in _weyl_points(m, n):
        w = dense.weyl_matrix(point)
        conj = mat @ w @ mat.conj().T
        if not _in_level(conj, claimed_level - 1, m, n):
            return False
    return True


def strongness(state: PhaseFunctionState) -> StrongnessReport:
    """Decompose a two-qudit Phi of degree <= 3 and test strongness."""
    if state.n != 2:
        raise ArityMismatch("strongness is defined for two-qudit states")
    phi = state.phi
    if phi.degree() > 3:
        raise ArityMismatch(f"degree {phi.degree()} exceeds 3")
    m = state.modulus
    phi1 = phi.coeff((2, 1))
    phi2 = phi.coeff((1, 2))
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
    if state.n != 2:
        raise ArityMismatch("strip_quadratic is defined for two-qudit states")
    cubic = {e: c for e, c in state.phi.coeffs.items() if sum(e) >= 3}
    return PhaseFunctionState(state.modulus, 2,
                              ZdPoly(state.modulus, 2, cubic))


def swap_qudits(state: PhaseFunctionState) -> PhaseFunctionState:
    """Exchange the two qudits: Phi(j,k) -> Phi(k,j).  An involution."""
    if state.n != 2:
        raise ArityMismatch("swap_qudits is defined for two-qudit states")
    swapped = {(e[1], e[0]): c for e, c in state.phi.coeffs.items()}
    return PhaseFunctionState(state.modulus, 2,
                              ZdPoly(state.modulus, 2, swapped))
