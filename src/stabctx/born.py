"""Outcome possibility and empirical models.

Whether a joint outcome of commuting Weyl measurements can occur on a
phase-function state is a zero-vs-nonzero question about a sum of d-th roots
of unity.  The outcome's projector Pi annihilates the state iff
<psi|Pi|psi> = 0, and d^(2n) <psi|Pi|psi> is a sum of d^(2n) roots, counted
from the state's characteristic function; since d is prime it vanishes iff
those counts R[s] are uniform.  All (im)possibility verdicts here are
therefore decided by integer counting in `stabctx.kernel`:
`outcome_possibility` asks `kernel.impossible`, which enumerates the
exponents at the subspace's own points, and empirical models read
`kernel.PointCounts`, as the lambda scan in `stabctx.hidden_vars` does.  A
possible outcome's Born probability is d^(-2n) * sum_s R[s] cos(2 pi s / d).
Probabilities are floats and advisory only, cross-checked against
`stabctx.dense`.

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
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from . import kernel
from .phase_space import Context, PhasePoint, symplectic_product
from .states import PhaseFunctionState
from .zmod import MalformedInput, Modulus, StabctxError, ZdPoly, _expect, \
    _integers, inv, is_permutation_polynomial


class IncompatibleContext(StabctxError):
    """State and context disagree on modulus or qudit count."""


class NonCommuting(StabctxError):
    """Generator pair is not symplectically orthogonal."""


class ScaleError(StabctxError):
    """Tabulation requested beyond n = 2."""


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
        if len(values) != _expect(self.context, Context).n:
            raise MalformedInput("one outcome value per basis vector")
        object.__setattr__(
            self, "values", tuple(v % self.context.modulus.d for v in values))


def _check_compatible(state: PhaseFunctionState, context: Context):
    """Raise unless `state` and `context` are a state and a context on the
    same system that the engine supports."""
    _expect(state, PhaseFunctionState)
    _expect(context, Context)
    if state.modulus != context.modulus or state.n != context.n:
        raise IncompatibleContext("state and context live on different systems")
    if state.n > 2:
        raise ScaleError("possibility engine supports n <= 2")


def outcome_possibility(state: PhaseFunctionState,
                        outcome: JointOutcome) -> bool:
    """Whether the outcome can occur on the state, decided exactly by
    `kernel.impossible`: it is impossible iff the root counts R of
    d^(2n) <psi|Pi|psi>, enumerated at the subspace's points, are
    uniform."""
    context = _expect(outcome, JointOutcome).context
    _check_compatible(state, context)
    return not kernel.impossible(state.modulus.d, state.phi_table(),
                                 [context.canonical_key], [outcome.values])[0]


def master_polynomial(state: PhaseFunctionState, u: PhasePoint, v: PhasePoint,
                      A: int, B: int, j: int, k: int) -> ZdPoly:
    """The exponent of the projector expansion as a polynomial in (x, y).

    For the commuting pair W(u), W(v) with prescribed outcomes (A, B) and
    output ket (j, k), with (P, Q) = x*u + y*v:

        -x*A - y*B - inv2*(P1*Q1 + P2*Q2) + j*P1 + k*P2 + Phi(j-Q1, k-Q2)

    The outcome (A, B) is impossible on the state iff this is a permutation
    polynomial in (x, y) for every choice of (j, k).
    """
    if _expect(state, PhaseFunctionState).n != 2:
        raise ScaleError("master polynomial is two-qudit machinery")
    if any(_expect(w, PhasePoint).modulus != state.modulus or w.n != state.n
           for w in (u, v)):
        raise IncompatibleContext("generators live on a different system "
                                  "than the state")
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
    context = _expect(outcome, JointOutcome).context
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

@lru_cache(maxsize=None)
def _element_values(d: int, n: int) -> np.ndarray:
    """table[o, e, v] = 1.0 iff a context's element e (the combination
    `Context.element_coeffs[e]` of its canonical basis) takes value v on
    joint outcome o, i.e. o . e = v mod d; o and e are row-major over
    Z_d^n, and the table is the same for every context.  Cached per (d, n),
    so read-only."""
    table = (kernel._dots(d, n)[..., None] == np.arange(d)).astype(float)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, slots=True)
class EmpiricalRow:
    """One (context, joint outcome) cell of an empirical model."""

    possible: bool
    probability: float


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Conditional outcome data for a state over a list of contexts.

    Three read-only arrays: `keys` stacks the contexts' `canonical_key`s,
    (contexts, n, 2n), for the engine, the LP and the nonsignalling defect;
    `possible` (exact) and `probability` (advisory floats from the same
    counts) are (context, outcome) tables, outcomes as `outcomes()` lists
    them.  `rows` keys the cells by (context index, outcome), on first use.
    """

    state: PhaseFunctionState
    contexts: tuple[Context, ...]
    keys: np.ndarray  # (contexts, n, 2n) int64
    possible: np.ndarray  # (contexts, d^n) bool
    probability: np.ndarray  # (contexts, d^n) float64

    def __post_init__(self):
        for table in (self.keys, self.possible, self.probability):
            table.flags.writeable = False

    @cached_property
    def rows(self) -> dict[tuple[int, tuple[int, ...]], EmpiricalRow]:
        cells = itertools.product(range(len(self.contexts)), self.outcomes())
        return dict(zip(cells, map(EmpiricalRow, self.possible.ravel().tolist(),
                                   self.probability.ravel().tolist())))

    def outcomes(self) -> list[tuple[int, ...]]:
        d = self.state.modulus.d
        return list(itertools.product(range(d), repeat=self.state.n))

    def marginal(self, ctx_index: int, point: PhasePoint, value: int) -> float:
        """Probability that the measurement at `point` yields `value`, from
        this context's joint distribution."""
        ctx_index, value = _integers((ctx_index, value),
                                     "context indices and outcome values")
        if not 0 <= ctx_index < len(self.contexts):
            raise MalformedInput(f"no context {ctx_index} in model")
        if not isinstance(point, PhasePoint):
            raise MalformedInput("marginals are taken at a PhasePoint, "
                                 f"not {point!r}")
        ctx = self.contexts[ctx_index]
        d, n = self.state.modulus.d, self.state.n
        if (point.modulus != self.state.modulus or point.n != n
                or point.coords not in ctx.elements):
            raise IncompatibleContext(f"{point} not in context {ctx_index}")
        element = ctx.elements.index(point.coords)
        return float(self.probability[ctx_index]
                     @ _element_values(d, n)[:, element, value % d])

    def nonsignalling_defect(self) -> float:
        """Largest marginal disagreement across context overlaps: every
        (context, element, value) marginal comes from one product with
        `_element_values`, and each point's marginals are compared over
        the contexts that hold it, the points read from `keys`."""
        if not self.contexts:
            return 0.0
        d, n = self.state.modulus.d, self.state.n
        marginals = (self.probability
                     @ _element_values(d, n).reshape(d ** n, d ** n * d))
        points = kernel._points(d, n, self.keys).ravel()
        order = np.argsort(points, kind="stable")
        starts = np.flatnonzero(np.diff(points[order], prepend=-1))
        rows = marginals.reshape(-1, d)[order]
        return float((np.maximum.reduceat(rows, starts)
                      - np.minimum.reduceat(rows, starts)).max())

    # -- exports ----------------------------------------------------------

    def _by_context(self):
        """(label, possible, probability) per context, rows as lists."""
        return zip([ctx.display_label for ctx in self.contexts],
                   self.possible.tolist(), self.probability.tolist())

    def to_csv(self, out: Optional[TextIO] = None) -> Optional[str]:
        """CSV with columns: context, outcome, possible, probability,
        streamed one context at a time to `out`, or returned as text without
        `out`.  Outcome values are ';'-joined; probabilities use 12 digits."""
        buf = io.StringIO() if out is None else out
        buf.write("context,outcome,possible,probability\n")
        texts = [";".join(map(str, o)) + "," for o in self.outcomes()]
        flags = ("false,", "true,")
        for label, possible, probs in self._by_context():
            field = io.StringIO()  # the label as csv quotes it, then ","
            csv.writer(field, lineterminator="\n").writerow((label, ""))
            prefix = field.getvalue()[:-1]
            buf.write("".join([f"{prefix}{o}{flags[p]}{q:.12f}\n"
                               for o, p, q in zip(texts, possible, probs)]))
        return buf.getvalue() if out is None else None

    def to_json_obj(self) -> dict:
        """JSON document; each impossible outcome carries its zero-sum
        witness, the per-ket root counts.  These are the same for every
        impossible outcome: d^n kets, each with all d counts d^(n-1).
        JSON-serializable; tuples are written as arrays."""
        d, n = self.state.modulus.d, self.state.n
        witness = ((d ** (n - 1),) * d,) * d ** n
        rows, outcomes = [], self.outcomes()
        for label, possible, probs in self._by_context():
            for o, p, q in zip(outcomes, possible, probs):
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
                          contexts: Iterable[Context]) -> EmpiricalModel:
    """Tabulate possibility and probability for every (context, outcome).

    From each cell's `kernel.PointCounts.weyl_counts` R[s], the roots whose
    sum is d^(2n) <psi|Pi|psi>: possible iff R is not uniform (exact, d
    prime), with probability d^(-2n) * sum_s R[s] cos(2 pi s / d), or 0.0.
    """
    contexts = tuple(contexts)  # a one-shot iterable is read once
    for ctx in contexts:
        _check_compatible(state, ctx)
    d, n = _expect(state, PhaseFunctionState).modulus.d, state.n
    keys = np.array([ctx.canonical_key for ctx in contexts],
                    dtype=np.int64).reshape(-1, n, 2 * n)
    cos = np.cos(2 * np.pi * np.arange(d) / d)
    possible = np.empty((len(keys), d ** n), dtype=bool)
    probability = np.empty((len(keys), d ** n))
    for qs, counts in kernel.PointCounts(d, state.phi_table()).weyl_counts(
            keys):
        possible[qs] = (counts != counts[..., :1]).any(axis=-1)
        probability[qs] = np.where(possible[qs], counts @ cos, 0.0)
    return EmpiricalModel(state, contexts, keys, possible,
                          probability / d ** (2 * n))
