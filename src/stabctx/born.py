"""Outcome possibility, root-of-unity multisets and empirical models.

Whether a joint outcome of commuting Weyl measurements can occur on a
phase-function state is a zero-vs-nonzero question about a sum of d-th roots
of unity.  Expanding the joint eigenspace projector against the state gives,
for every output basis ket, one root of unity per subspace element; since d
is prime such a sum vanishes iff every root appears equally often.  All
(im)possibility verdicts here are therefore decided by integer counting
in `stabctx.kernel`: `outcome_possibility` wraps the per-ket oracle
`kernel.residue_counts` as `RootMultiset`s and zero-sum witnesses.
Empirical models take the expectation instead and read
`kernel.PointCounts`, as the lambda scan in `stabctx.hidden_vars` does:
d^(2n) <psi|Pi|psi> is a sum of d^(2n) roots, counted from the state's
characteristic function.  The outcome is possible iff those
counts R[s] are not uniform, and its Born probability is
d^(-2n) * sum_s R[s] cos(2 pi s / d).  Probabilities are floats and
advisory only, cross-checked against `stabctx.dense`.

The same expansion read as a polynomial in the subspace coordinates (x, y)
yields the master polynomial: an outcome is impossible iff that polynomial
permutes Z_d equally for every ket, i.e. is a permutation polynomial for
all (j, k).  The two routes are implemented independently and cross-checked
in the test suite.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, TextIO

import numpy as np

from . import kernel
from .phase_space import Context, PhasePoint, symplectic_product
from .states import PhaseFunctionState
from .zmod import MalformedInput, Modulus, StabctxError, ZdPoly, _integers, \
    inv, is_permutation_polynomial


class IncompatibleContext(StabctxError):
    """State and context disagree on modulus or qudit count."""


class NonCommuting(StabctxError):
    """Generator pair is not symplectically orthogonal."""


class ScaleError(StabctxError):
    """Tabulation requested beyond n = 2."""


@dataclass(frozen=True, slots=True)
class RootMultiset:
    """Multiset of d-th roots of unity as a length-d count vector.

    counts[t] is the multiplicity of omega^t.  Because d is prime, the
    represented sum vanishes exactly when all counts are equal.
    """

    modulus: Modulus
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _integers(self.counts, "root counts")
        if len(counts) != self.modulus.d:
            raise MalformedInput("need one count per d-th root")
        if any(c < 0 for c in counts):
            raise MalformedInput("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    def total(self) -> int:
        return sum(self.counts)

    def is_zero_sum(self) -> bool:
        return len(set(self.counts)) == 1

    def numeric_sum(self) -> complex:
        w = np.exp(2j * np.pi / self.modulus.d)
        return sum(c * w ** t for t, c in enumerate(self.counts))

    def merge(self, other: "RootMultiset") -> "RootMultiset":
        return RootMultiset(self.modulus,
                            tuple(a + b for a, b in zip(self.counts, other.counts)))


@dataclass(frozen=True, slots=True)
class JointOutcome:
    """A joint outcome on a context: the linear functional taking values[i]
    on canonical basis vector i.  Any subspace element sum(c_i b_i) is
    assigned sum(c_i values[i]); additivity is forced by the composition law,
    so these d^n functionals are the only joint outcomes with eigenspaces."""

    context: Context
    values: tuple[int, ...]

    def __post_init__(self):
        values = _integers(self.values, "outcome values")
        if len(values) != self.context.n:
            raise MalformedInput("one outcome value per basis vector")
        object.__setattr__(
            self, "values", tuple(v % self.context.modulus.d for v in values))

    def of_element(self, coeffs: Sequence[int]) -> int:
        d = self.context.modulus.d
        return sum(c * o for c, o in zip(coeffs, self.values)) % d


@dataclass(frozen=True, slots=True)
class PossibilityResult:
    possible: bool
    per_ket: tuple[RootMultiset, ...]


def _check_compatible(state: PhaseFunctionState, context: Context):
    if state.modulus != context.modulus or state.n != context.n:
        raise IncompatibleContext("state and context live on different systems")
    if state.n > 2:
        raise ScaleError("possibility engine supports n <= 2")


def outcome_possibility(state: PhaseFunctionState,
                        outcome: JointOutcome) -> PossibilityResult:
    """Expand the outcome projector against the state, exactly.

    Returns the per-ket root multisets (kets in row-major order) and whether
    any of them fails to vanish.  The outcome is impossible iff every ket's
    multiset is a uniform orbit.
    """
    context = outcome.context
    _check_compatible(state, context)
    counts = kernel.residue_counts(state.modulus.d, state.phi_table(),
                                   [context.canonical_key], [outcome.values])
    multis = tuple(RootMultiset(state.modulus, tuple(row))
                   for row in counts[0].tolist())
    possible = any(not rm.is_zero_sum() for rm in multis)
    return PossibilityResult(possible, multis)


def master_polynomial(state: PhaseFunctionState, u: PhasePoint, v: PhasePoint,
                      A: int, B: int, j: int, k: int) -> ZdPoly:
    """The exponent of the projector expansion as a polynomial in (x, y).

    For the commuting pair W(u), W(v) with prescribed outcomes (A, B) and
    output ket (j, k), with (P, Q) = x*u + y*v:

        -x*A - y*B - inv2*(P1*Q1 + P2*Q2) + j*P1 + k*P2 + Phi(j-Q1, k-Q2)

    The outcome (A, B) is impossible on the state iff this is a permutation
    polynomial in (x, y) for every choice of (j, k).
    """
    if state.n != 2:
        raise ScaleError("master polynomial is two-qudit machinery")
    if u.modulus != state.modulus or v.modulus != state.modulus:
        raise IncompatibleContext("generator moduli differ from the state")
    if symplectic_product(u, v) != 0:
        raise NonCommuting("generators do not commute")
    m = state.modulus
    x = ZdPoly.variable(m, 0, 2)
    y = ZdPoly.variable(m, 1, 2)
    P1 = x * u.coords[0] + y * v.coords[0]
    Q1 = x * u.coords[1] + y * v.coords[1]
    P2 = x * u.coords[2] + y * v.coords[2]
    Q2 = x * u.coords[3] + y * v.coords[3]
    shifted = state.phi.substitute([ZdPoly.constant(m, j, 2) - Q1,
                                    ZdPoly.constant(m, k, 2) - Q2])
    return (x * (-A) + y * (-B) - (P1 * Q1 + P2 * Q2) * m.inv2
            + P1 * j + P2 * k + shifted)


def impossibility_by_psi(state: PhaseFunctionState, outcome: JointOutcome) -> bool:
    """Decide impossibility through the master polynomial alone.

    True iff the master polynomial is a permutation polynomial for every
    (j, k).  Independent of `outcome_possibility`; the two must agree.
    """
    context = outcome.context
    _check_compatible(state, context)
    if state.n != 2:
        raise ScaleError("psi route is two-qudit machinery")
    b1, b2 = context.canonical_basis
    A, B = outcome.values
    d = state.modulus.d
    for j in range(d):
        for k in range(d):
            psi = master_polynomial(state, b1, b2, A, B, j, k)
            if not is_permutation_polynomial(psi):
                return False
    return True


# -- reference family polynomials -------------------------------------------

def _lam4(lam: Sequence[int]) -> tuple[int, int, int, int]:
    if len(lam) != 4:
        raise MalformedInput("two-qudit hidden variables have four components")
    return tuple(lam)  # type: ignore[return-value]


def psi_type_I(m: Modulus, phi1: int, phi2: int, lam: Sequence[int],
               alpha: int, j: int, k: int) -> ZdPoly:
    """Family-I reference polynomial for generators (1,0,0,0), (0,0,alpha,1).

    Hidden variables pair componentwise with coordinates (p1,q1,p2,q2).
    Constant terms are dropped, as translation preserves permutation
    polynomials.
    """
    l1, l2, l3, l4 = _lam4(lam)
    x = ZdPoly.variable(m, 0, 2)
    y = ZdPoly.variable(m, 1, 2)
    i2 = m.inv2
    return (x * (j - l1)
            + (y ** 2) * (j * phi2 - i2 * alpha)
            + y * (alpha * (k - l3) - l4 - j * j * phi1 - 2 * j * k * phi2))


def psi_type_II(m: Modulus, phi1: int, phi2: int, lam: Sequence[int],
                alpha: int, j: int, k: int) -> ZdPoly:
    """Family-II reference polynomial for generators (0,0,1,0), (alpha,1,0,0)."""
    l1, l2, l3, l4 = _lam4(lam)
    x = ZdPoly.variable(m, 0, 2)
    y = ZdPoly.variable(m, 1, 2)
    i2 = m.inv2
    return (x * (k - l3)
            + (y ** 2) * (k * phi1 - i2 * alpha)
            + y * (alpha * (j - l1) - l2 - k * k * phi2 - 2 * j * k * phi1))


def psi_type_III(m: Modulus, phi1: int, phi2: int, lam: Sequence[int],
                 alpha: int, beta: int, j: int, k: int) -> ZdPoly:
    """Family-III reference polynomial for generators (1,0,beta,0),
    (0,1,alpha,-beta^{-1}), beta != 0."""
    l1, l2, l3, l4 = _lam4(lam)
    d = m.d
    x = ZdPoly.variable(m, 0, 2)
    y = ZdPoly.variable(m, 1, 2)
    i2 = m.inv2
    bi = inv(beta, m)
    return (x * (j - l1 + beta * (k - l3))
            + (y ** 3) * (bi * (phi1 - bi * phi2) % d)
            + (y ** 2) * ((bi * (i2 * alpha - 2 * j * phi1 - 2 * k * phi2
                                 + bi * j * phi2) + k * phi1) % d)
            + y * ((alpha * (k - l3) + bi * (l4 + j * j * phi1 + 2 * j * k * phi2)
                    - l2 - 2 * j * k * phi1 - k * k * phi2) % d))


# -- empirical models --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EmpiricalRow:
    """One (context, joint outcome) cell of an empirical model."""

    possible: bool
    probability: float


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Conditional outcome data for a state over a list of contexts.

    Two read-only (context, outcome) arrays, outcomes row-major over Z_d^n
    as `outcomes()` lists them: `possible` is exact (integer counting), and
    `probability` holds floats from the same counts, advisory.
    `rows` keys the cells by (context index, outcome), built on first use.
    """

    state: PhaseFunctionState
    contexts: tuple[Context, ...]
    possible: np.ndarray  # (contexts, d^n) bool
    probability: np.ndarray  # (contexts, d^n) float64

    def __post_init__(self):
        self.possible.flags.writeable = self.probability.flags.writeable = False

    @cached_property
    def rows(self) -> dict[tuple[int, tuple[int, ...]], EmpiricalRow]:
        cells = itertools.product(range(len(self.contexts)), self.outcomes())
        return dict(zip(cells, map(EmpiricalRow, self.possible.ravel().tolist(),
                                   self.probability.ravel().tolist())))

    def row(self, ctx_index: int, values: Sequence[int]) -> EmpiricalRow:
        d, n = self.state.modulus.d, self.state.n
        values = _integers(values, "outcome values")
        if not 0 <= ctx_index < len(self.contexts) or len(values) != n:
            raise MalformedInput(f"no cell ({ctx_index}, {values}) in model")
        col = np.ravel_multi_index(np.mod(values, d), (d,) * n)
        return EmpiricalRow(bool(self.possible[ctx_index, col]),
                            float(self.probability[ctx_index, col]))

    def outcomes(self) -> list[tuple[int, ...]]:
        d = self.state.modulus.d
        return list(itertools.product(range(d), repeat=self.state.n))

    def marginal(self, ctx_index: int, point: PhasePoint, value: int) -> float:
        """Probability that the measurement at `point` yields `value`, from
        this context's joint distribution."""
        if not 0 <= ctx_index < len(self.contexts):
            raise MalformedInput(f"no context {ctx_index} in model")
        ctx = self.contexts[ctx_index]
        d = self.state.modulus.d
        if (point.modulus != self.state.modulus or point.n != self.state.n
                or point.coords not in ctx.elements):
            raise IncompatibleContext(f"{point} not in context {ctx_index}")
        coeffs = ctx.element_coeffs[ctx.elements.index(point.coords)]
        (value,) = _integers((value,), "outcome values")
        values = np.array(self.outcomes()) @ coeffs % d
        return float(self.probability[ctx_index, values == value % d].sum())

    def nonsignalling_defect(self) -> float:
        """Largest marginal disagreement across context overlaps."""
        m, n = self.state.modulus, self.state.n
        dists: dict[tuple[int, ...], list[list[float]]] = {}
        for ci, ctx in enumerate(self.contexts):
            for coords in ctx.elements:
                pt = PhasePoint(m, n, coords)
                dists.setdefault(coords, []).append(
                    [self.marginal(ci, pt, v) for v in range(m.d)])
        return max((float(np.ptp(rows, axis=0).max())
                    for rows in dists.values()), default=0.0)

    # -- exports ----------------------------------------------------------

    def _cells(self, outcomes: Sequence):
        """(label, outcomes[i], possible, probability) per cell, in order."""
        for ctx, possible, probs in zip(self.contexts, self.possible,
                                        self.probability):
            yield from zip(itertools.repeat(ctx.display_label), outcomes,
                           possible.tolist(), probs.tolist())

    def to_csv(self, out: Optional[TextIO] = None) -> Optional[str]:
        """CSV with columns: context, outcome, possible, probability,
        streamed row by row to `out`, or returned as text without `out`.
        Outcome values are ';'-joined; probabilities use 12 digits."""
        buf = io.StringIO() if out is None else out
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["context", "outcome", "possible", "probability"])
        texts = [";".join(map(str, o)) for o in self.outcomes()]
        writer.writerows((label, o, ("false", "true")[p], f"{q:.12f}")
                         for label, o, p, q in self._cells(texts))
        return buf.getvalue() if out is None else None

    def to_json_obj(self) -> dict:
        """JSON document; each impossible outcome carries its zero-sum
        witness, the per-ket root counts.  These are the same for every
        impossible outcome: d^n kets, each with all d counts d^(n-1).
        JSON-serializable; tuples are written as arrays."""
        d, n = self.state.modulus.d, self.state.n
        witness = ((d ** (n - 1),) * d,) * d ** n
        rows = []
        for label, o, p, q in self._cells(self.outcomes()):
            entry = {"context": label, "outcome": o, "possible": p,
                     "probability": round(q, 12)}
            if not p:
                entry["zero_sum_witness"] = witness
            rows.append(entry)
        return {
            "schema": "1",
            "modulus": d,
            "n": n,
            "phi": str(self.state.phi),
            "contexts": [ctx.record() for ctx in self.contexts],
            "rows": rows,
        }


def build_empirical_model(state: PhaseFunctionState,
                          contexts: Sequence[Context]) -> EmpiricalModel:
    """Tabulate possibility and probability for every (context, outcome).

    From each cell's `kernel.PointCounts.weyl_counts` R[s], the roots whose
    sum is d^(2n) <psi|Pi|psi>: possible iff R is not uniform (exact, d
    prime), with probability d^(-2n) * sum_s R[s] cos(2 pi s / d), or 0.0.
    """
    for ctx in contexts:
        _check_compatible(state, ctx)
    d, n = state.modulus.d, state.n
    keys = np.reshape([ctx.canonical_key for ctx in contexts], (-1, n, 2 * n))
    cos = np.cos(2 * np.pi * np.arange(d) / d)
    possible = np.empty((len(keys), d ** n), dtype=bool)
    probability = np.empty((len(keys), d ** n))
    for qs, counts in kernel.PointCounts(d, state.phi_table()).weyl_counts(
            keys):
        possible[qs] = (counts != counts[..., :1]).any(axis=-1)
        probability[qs] = np.where(possible[qs], counts @ cos, 0.0)
    return EmpiricalModel(state, tuple(contexts), possible,
                          probability / d ** (2 * n))
