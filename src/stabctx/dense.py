"""Dense complex-matrix oracle.

Everything here is floating point and advisory: it exists to cross-check the
exact integer engines and the Born probabilities `stabctx.born` computes from
their counts, never to decide or produce them.  Matrices are tiny at desk
scale (d <= 5, n <= 2 for the hierarchy oracle), so plain numpy is plenty.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .phase_space import Context, PhasePoint
from .zmod import Modulus, ZdPoly, _expect, _integers

ATOL = 1e-9  # absolute tolerance after global-phase normalization


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def single_weyl(d: int, p: int, q: int) -> np.ndarray:
    """W(p,q) = omega^{-inv2*p*q} Z(p) X(q) on one qudit."""
    d, p, q = _integers((d, p, q), "d, p and q")
    w = omega(d)
    m = Modulus(d)
    X = np.zeros((d, d), dtype=complex)
    for j in range(d):
        X[(j + q) % d, j] = 1.0
    Z = np.diag([w ** (p * j % d) for j in range(d)])
    return w ** (-m.inv2 * p * q % d) * (Z @ X)


@lru_cache(maxsize=100_000)
def weyl_matrix(point: PhasePoint) -> np.ndarray:
    """Tensor product Weyl operator for an n-qudit phase point.

    Cached (and marked read-only) since projector sums revisit the same
    points constantly."""
    d = _expect(point, PhasePoint).modulus.d
    out = np.array([[1.0 + 0j]])
    for i in range(point.n):
        p, q = point.coords[2 * i], point.coords[2 * i + 1]
        out = np.kron(out, single_weyl(d, p, q))
    out.flags.writeable = False
    return out


def _phases(m: Modulus, phi: ZdPoly) -> np.ndarray:
    """omega^{phi(j)} for every ket j, row-major: leftmost qudit most
    significant."""
    w = omega(_expect(m, Modulus).d)
    _expect(phi, ZdPoly)
    return np.array([w ** phi.evaluate(ket) for ket
                     in itertools.product(range(m.d), repeat=phi.num_vars)])


def phase_state_vector(m: Modulus, phi: ZdPoly) -> np.ndarray:
    """Normalized state vector with amplitudes omega^{phi(j)} / d^{n/2}."""
    vec = _phases(m, phi)
    return vec / np.sqrt(vec.size)


def diagonal_gate(m: Modulus, phi: ZdPoly) -> np.ndarray:
    """The diagonal unitary with phases omega^{phi(j)}."""
    return np.diag(_phases(m, phi))


def outcome_projector(context: Context, values: tuple[int, ...]) -> np.ndarray:
    """Projector onto the joint eigenspace of a context.

    Built as d^{-n} sum over subspace elements w of omega^{-s(w)} W(w),
    where s is the linear outcome functional taking values[i] on canonical
    basis vector i.
    """
    m = _expect(context, Context).modulus
    values = _integers(values, "outcome values")
    d = m.d
    n = context.n
    w = omega(d)
    size = d ** n
    proj = np.zeros((size, size), dtype=complex)
    for coords, coeffs in zip(context.elements, context.element_coeffs):
        s = sum(c * o for c, o in zip(coeffs, values)) % d
        proj += w ** (-s % d) * weyl_matrix(PhasePoint(m, n, coords))
    return proj / size

