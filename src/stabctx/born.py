"""Outcome possibility, root-of-unity multisets and empirical models.

Whether a joint outcome of commuting Weyl measurements can occur on a
phase-function state is a zero-vs-nonzero question about a sum of d-th roots
of unity.  Expanding the joint eigenspace projector against the state gives,
for every output basis ket, one root of unity per subspace element; since d
is prime such a sum vanishes iff every root appears equally often.  All
(im)possibility verdicts here are therefore decided by integer counting,
done by the engine in `stabctx.kernel`, which also serves the decision
procedure; this module wraps its counts as per-ket `RootMultiset`s and
zero-sum witnesses.  Born probabilities are read off the same counts c_t:
the projected amplitude at ket J is d^(-3n/2) * sum_t c_t omega^t.  They
are floats and advisory only, cross-checked against `stabctx.dense`.

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
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .phase_space import Context, PhasePoint, symplectic_product
from .states import PhaseFunctionState
from .zmod import MalformedInput, Modulus, StabctxError, ZdPoly, inv, \
    is_permutation_polynomial


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
        if len(self.counts) != self.modulus.d:
            raise MalformedInput("need one count per d-th root")
        if any(c < 0 for c in self.counts):
            raise MalformedInput("counts must be nonnegative")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

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
        if len(self.values) != self.context.n:
            raise MalformedInput("one outcome value per basis vector")
        object.__setattr__(
            self, "values", tuple(v % self.context.modulus.d for v in self.values))

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
    exact_witness: Optional[tuple[tuple[int, ...], ...]]  # per-ket counts when impossible


@dataclass(frozen=True)
class EmpiricalModel:
    """Conditional outcome data for a state over a list of contexts.

    Possibility flags are exact (integer counting); probabilities are floats
    computed from the same residue counts, and advisory.  Rows are keyed by
    (context index, outcome values).
    """

    state: PhaseFunctionState
    contexts: tuple[Context, ...]
    rows: dict[tuple[int, tuple[int, ...]], EmpiricalRow]

    def row(self, ctx_index: int, values: tuple[int, ...]) -> EmpiricalRow:
        return self.rows[(ctx_index, tuple(v % self.state.modulus.d
                                           for v in values))]

    def outcomes(self) -> list[tuple[int, ...]]:
        d = self.state.modulus.d
        return list(itertools.product(range(d), repeat=self.state.n))

    def context_probabilities(self, ctx_index: int) -> np.ndarray:
        return np.array([self.rows[(ctx_index, o)].probability
                         for o in self.outcomes()])

    def marginal(self, ctx_index: int, point: PhasePoint, value: int) -> float:
        """Probability that the measurement at `point` yields `value`, from
        this context's joint distribution."""
        ctx = self.contexts[ctx_index]
        d = self.state.modulus.d
        try:
            widx = ctx.elements.index(point.coords)
        except ValueError:
            raise IncompatibleContext(f"{point.coords} not in context") from None
        coeffs = ctx.element_coeffs[widx]
        total = 0.0
        for o in self.outcomes():
            if sum(c * v for c, v in zip(coeffs, o)) % d == value % d:
                total += self.rows[(ctx_index, o)].probability
        return total

    def nonsignalling_defect(self) -> float:
        """Largest marginal disagreement across context overlaps."""
        m = self.state.modulus
        worst = 0.0
        sets = [set(ctx.elements) for ctx in self.contexts]
        for i, j in itertools.combinations(range(len(self.contexts)), 2):
            shared = sets[i] & sets[j]
            for coords in shared:
                if all(c == 0 for c in coords):
                    continue
                pt = PhasePoint(m, self.state.n, coords)
                for val in range(m.d):
                    worst = max(worst, abs(self.marginal(i, pt, val)
                                           - self.marginal(j, pt, val)))
        return worst

    # -- exports ----------------------------------------------------------

    def to_csv(self) -> str:
        """CSV with columns: context, outcome, possible, probability.
        Outcome values are ';'-joined; probabilities use 12 digits."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["context", "outcome", "possible", "probability"])
        for ci, ctx in enumerate(self.contexts):
            label = ctx.display_label
            for o in self.outcomes():
                row = self.rows[(ci, o)]
                writer.writerow([label,
                                 ";".join(str(v) for v in o),
                                 "true" if row.possible else "false",
                                 f"{row.probability:.12f}"])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        """JSON document carrying the per-ket zero-sum witnesses for
        impossible outcomes.  JSON-serializable; tuples are written as
        arrays."""
        rows = []
        for ci, ctx in enumerate(self.contexts):
            label = ctx.display_label
            for o in self.outcomes():
                row = self.rows[(ci, o)]
                entry = {
                    "context": label,
                    "outcome": o,
                    "possible": row.possible,
                    "probability": round(row.probability, 12),
                }
                if not row.possible and row.exact_witness is not None:
                    entry["zero_sum_witness"] = row.exact_witness
                rows.append(entry)
        return {
            "schema": "1",
            "modulus": self.state.modulus.d,
            "n": self.state.n,
            "phi": str(self.state.phi),
            "contexts": [ctx.record() for ctx in self.contexts],
            "rows": rows,
        }


def build_empirical_model(state: PhaseFunctionState,
                          contexts: Sequence[Context]) -> EmpiricalModel:
    """Tabulate possibility and probability for every (context, outcome).

    One engine call per block of contexts gives, for each outcome and output
    ket J, the residue counts c_t of its roots.  The outcome is possible iff
    some ket's counts are not uniform, and the projected amplitude at J is
    d^(-3n/2) * sum_t c_t omega^t, so its Born probability is
    d^(-3n) * sum_J |sum_t c_t omega^t|^2.  Blocks hold
    max(1, kernel.CHUNK // d^(2n)) contexts, which keeps the counts of one
    block to a few MiB at any d; each block is reduced before the next.
    """
    for ctx in contexts:
        _check_compatible(state, ctx)
    d, n = state.modulus.d, state.n
    outcomes = list(itertools.product(range(d), repeat=n))
    values = np.reshape(outcomes, (-1, n))
    keys = np.reshape([ctx.canonical_key for ctx in contexts], (-1, n, 2 * n))
    phi = state.phi_table()
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    step = max(1, kernel.CHUNK // d ** (2 * n))
    rows: dict[tuple[int, tuple[int, ...]], EmpiricalRow] = {}
    for c0 in range(0, len(contexts), step):
        block = keys[c0:c0 + step]
        counts = kernel.residue_counts(
            d, phi, np.repeat(block, len(outcomes), axis=0),
            np.tile(values, (len(block), 1)))
        possible = (counts != counts[..., :1]).any(axis=(1, 2)).tolist()
        amps = sum(counts[..., t] * roots[t] for t in range(d))
        probs = (amps.real ** 2 + amps.imag ** 2).sum(axis=-1) / d ** (3 * n)
        cells = itertools.product(range(c0, c0 + len(block)), outcomes)
        for q, (key, p) in enumerate(zip(cells, probs.tolist())):
            rows[key] = EmpiricalRow(possible[q], p, None if possible[q] else
                                     tuple(map(tuple, counts[q].tolist())))
    return EmpiricalModel(state, tuple(contexts), rows)
