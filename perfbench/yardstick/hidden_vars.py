"""Hidden-variable machinery, the strong-contextuality decision procedure,
and the contextual-fraction linear program.

A hidden variable assigns a predetermined outcome to every Weyl measurement.
Consistency with any quantum state forces additivity along commuting pairs,
and (for two or more qudits) additivity forces linearity: the only candidates
are the d^(2n) linear functionals lam . (p1,q1,...,pn,qn).  The decision
procedure therefore scans that list and hunts, per candidate, for one context
in which the prescribed joint outcome is impossible.  A strong normal-form
state phi1*j^2*k + phi2*j*k^2 with phi1 != 0 admits a three-context shortcut
per candidate (families I, II, III with parameters computed from lam); the
scan falls back to the full family catalogue and then to complete context
enumeration when the shortcut does not apply.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from . import kernel
from .born import EmpiricalModel, JointOutcome
from .phase_space import Context, UnsupportedScale, enumerate_contexts, \
    table1_contexts
from .states import PhaseFunctionState, StrongnessReport, strip_quadratic, \
    strongness, swap_qudits
from .zmod import Modulus, StabctxError, inv


class IncompleteProbe(StabctxError):
    """Candidate assignment is missing a point referenced by an identity."""


class InfeasibleModel(StabctxError):
    """The contextual-fraction LP rejected the model's probabilities."""


@dataclass(frozen=True, slots=True)
class HiddenVariable:
    """A linear outcome assignment: W(p,q) is prescribed lam . (p,q)."""

    modulus: Modulus
    n: int
    lam: tuple[int, ...]

    def __post_init__(self):
        if len(self.lam) != 2 * self.n:
            raise UnsupportedScale(f"{len(self.lam)} components for n={self.n}")
        object.__setattr__(self, "lam",
                           tuple(c % self.modulus.d for c in self.lam))

    def outcome(self, coords: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(self.lam, coords)) % self.modulus.d


def enumerate_linear_hv(m: Modulus, n: int) -> list[HiddenVariable]:
    """All d^(2n) linear hidden variables, lexicographic, zero first."""
    return [HiddenVariable(m, n, lam)
            for lam in itertools.product(range(m.d), repeat=2 * n)]


def prescribed_outcome(hv: HiddenVariable, c: Context) -> JointOutcome:
    """Restrict the functional to the context, on its canonical basis."""
    if hv.modulus != c.modulus or hv.n != c.n:
        raise UnsupportedScale("hidden variable and context sizes differ")
    return JointOutcome(c, tuple(hv.outcome(b.coords) for b in c.canonical_basis))


# -- linearity forcing (two-qudit identities) ---------------------------------

def proof_chain_identities(m: Modulus):
    """The additivity identities that force two-qudit linearity.

    Yields (name, parts, total): a candidate must satisfy
    lam(total) = sum(lam(part)).  The families:

      zero         lam(0) + lam(0) = lam(0)
      block-split  lam(p1,q1,p2,q2) = lam(p1,q1,0,0) + lam(0,0,p2,q2)
      cross-split  lam(p1,q1,p2,q2) = lam(p1,0,p2,0) + lam(0,q1,0,q2)
                   whenever p1*q1 = -p2*q2
      ray          lam(c*v) = lam((c-1)*v) + lam(v)
      chain        the ancilla decomposition of lam(1,k,0,0) through
                   (1,k,0,-k/2), (1,k/2,1,-k/2), (0,k/2,-1,0) and the
                   mirrored decomposition of lam(0,0,1,k), plus their
                   conclusions lam(1,k,0,0) = lam(1,0,0,0) + lam(0,k,0,0)
                   and lam(0,0,1,k) = lam(0,0,1,0) + lam(0,0,0,k)
    """
    d = m.d
    i2 = m.inv2
    zero = (0, 0, 0, 0)
    yield ("zero", [zero, zero], zero)
    for p in itertools.product(range(d), repeat=4):
        p1, q1, p2, q2 = p
        yield ("block-split", [(p1, q1, 0, 0), (0, 0, p2, q2)], p)
        if (p1 * q1 + p2 * q2) % d == 0:
            yield ("cross-split", [(p1, 0, p2, 0), (0, q1, 0, q2)], p)
    for v in itertools.product(range(d), repeat=4):
        if v == zero:
            continue
        for c in range(2, d):
            prev = tuple((c - 1) * a % d for a in v)
            cur = tuple(c * a % d for a in v)
            yield ("ray", [prev, v], cur)
    for k in range(d):
        h = i2 * k % d
        yield ("chain-1a", [(1, k, 0, -h % d), (0, 0, 0, h)], (1, k, 0, 0))
        yield ("chain-1b", [(1, h, 1, -h % d), (0, h, d - 1, 0)],
               (1, k, 0, -h % d))
        yield ("chain-1c",
               [(1, 0, 0, 0), (0, h, 0, 0), (0, 0, 1, 0), (0, 0, 0, -h % d)],
               (1, h, 1, -h % d))
        yield ("chain-1", [(1, 0, 0, 0), (0, k, 0, 0)], (1, k, 0, 0))
        yield ("chain-2a", [(0, -h % d, 1, k), (0, h, 0, 0)], (0, 0, 1, k))
        yield ("chain-2b", [(1, -h % d, 1, h), (-1 % d, 0, 0, h)],
               (0, -h % d, 1, k))
        yield ("chain-2c",
               [(1, 0, 0, 0), (0, -h % d, 0, 0), (0, 0, 1, 0), (0, 0, 0, h)],
               (1, -h % d, 1, h))
        yield ("chain-2", [(0, 0, 1, 0), (0, 0, 0, k)], (0, 0, 1, k))


def check_linearity_forcing(m: Modulus,
                            candidate: Mapping[tuple[int, ...], int],
                            n: int = 2) -> bool:
    """Whether an outcome assignment satisfies every forcing identity.

    The candidate maps phase-point coordinate tuples to outcomes and must be
    defined on every point an identity references (IncompleteProbe if not).
    Linear assignments always pass; any non-linear assignment violates at
    least one identity.
    """
    if n != 2:
        raise UnsupportedScale("linearity forcing is stated for n = 2")
    d = m.d

    def val(pt):
        try:
            return candidate[pt]
        except KeyError:
            raise IncompleteProbe(f"candidate not defined at {pt}") from None

    for _name, parts, total in proof_chain_identities(m):
        if sum(val(p) for p in parts) % d != val(total) % d:
            return False
    return True


def violated_identity(m: Modulus, candidate: Mapping[tuple[int, ...], int]):
    """First violated identity as (name, parts, total), or None."""
    d = m.d
    for name, parts, total in proof_chain_identities(m):
        try:
            lhs = sum(candidate[p] for p in parts) % d
            rhs = candidate[total] % d
        except KeyError as exc:
            raise IncompleteProbe(str(exc)) from None
        if lhs != rhs:
            return (name, parts, total)
    return None


# -- the decision procedure ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class Refutation:
    """Evidence that one hidden variable is inconsistent with the state: in
    the named context, the outcome it prescribes is impossible (confirmed by
    the permutation-polynomial check at every one of the d^2 kets)."""

    lam: tuple[int, ...]
    stage: str  # "proof" | "table1" | "full"
    context_label: str
    context_basis: tuple[tuple[int, ...], ...]
    outcome: tuple[int, ...]
    kets_checked: int


@dataclass(frozen=True, slots=True)
class ConsistencyRow:
    context_label: str
    context_basis: tuple[tuple[int, ...], ...]
    outcome: tuple[int, ...]
    possible: bool


@dataclass(frozen=True, slots=True)
class Witness:
    lam: tuple[int, ...]
    rows: tuple[ConsistencyRow, ...]


@dataclass(frozen=True)
class StrongContextualityCertificate:
    """Machine-checkable verdict for one state.

    strongly_contextual: `refutations` covers every linear hidden variable,
    in enumeration order; each entry is independently re-checkable through
    the projector route.  not_strongly_contextual: `witness` names a hidden
    variable whose prescribed outcome is possible in every enumerated
    context, with the full consistency table.
    """

    modulus: int
    n: int
    phi: str
    normalized_phi: str
    swapped: bool
    strong: bool
    phi1: int
    phi2: int
    strategy: str
    normalize: bool
    verdict: str  # "strongly_contextual" | "not_strongly_contextual"
    refutations: tuple[Refutation, ...] = ()
    witness: Optional[Witness] = None
    stages_used: frozenset[str] = frozenset()

    @property
    def strongly_contextual(self) -> bool:
        return self.verdict == "strongly_contextual"

    def refutation_for(self, lam: Sequence[int]) -> Refutation:
        key = tuple(lam)
        for r in self.refutations:
            if r.lam == key:
                return r
        raise KeyError(f"no refutation recorded for {key}")

    def to_json_obj(self) -> dict:
        out = {
            "schema": "1",
            "modulus": self.modulus,
            "n": self.n,
            "phi": self.phi,
            "normalized_phi": self.normalized_phi,
            "swapped": self.swapped,
            "strong": self.strong,
            "phi1": self.phi1,
            "phi2": self.phi2,
            "strategy": self.strategy,
            "normalize": self.normalize,
            "verdict": self.verdict,
            "stages_used": sorted(self.stages_used),
        }
        if self.verdict == "strongly_contextual":
            out["refutations"] = [
                {
                    "lambda": list(r.lam),
                    "stage": r.stage,
                    "context": r.context_label,
                    "basis": [list(b) for b in r.context_basis],
                    "outcome": list(r.outcome),
                    "kets_checked": r.kets_checked,
                }
                for r in self.refutations
            ]
        else:
            assert self.witness is not None
            out["witness"] = {
                "lambda": list(self.witness.lam),
                "consistency": [
                    {
                        "context": row.context_label,
                        "basis": [list(b) for b in row.context_basis],
                        "outcome": list(row.outcome),
                        "possible": row.possible,
                    }
                    for row in self.witness.rows
                ],
            }
        return out


def proof_context_parameters(m: Modulus, phi1: int, phi2: int,
                             lam: Sequence[int]):
    """Per-candidate family parameters for the three-context shortcut.

    Requires phi1 != 0.  Yields (family, alpha, beta) with beta None for
    families I and II:
        I:   alpha = 2*l1*phi2
        II:  alpha = 2*l3*phi1
        III: if phi2 = -1: alpha = 6*(l1*phi1 - l3),        beta = 1/phi1
             else:         alpha = 2/(phi2+1) * (l1*phi1*(phi2+2)
                                     + l3*(phi2^2 - 1)),    beta = (phi2+1)/phi1
    """
    d = m.d
    l1, _l2, l3, _l4 = tuple(c % d for c in lam)
    yield ("I", 2 * l1 * phi2 % d, None)
    yield ("II", 2 * l3 * phi1 % d, None)
    if phi2 % d == d - 1:
        alpha = 6 * (l1 * phi1 - l3) % d
        beta = inv(phi1, m)
    else:
        alpha = (2 * inv(phi2 + 1, m)
                 * (l1 * phi1 * (phi2 + 2) + l3 * (phi2 * phi2 - 1))) % d
        beta = inv(phi1, m) * (phi2 + 1) % d
    yield ("III", alpha, beta)


class _Scanner:
    """Shared per-state machinery for the hidden-variable scan."""

    def __init__(self, work_state: PhaseFunctionState, rep: StrongnessReport,
                 strategy: str, use_proof: bool):
        self.m = work_state.modulus
        self.d = self.m.d
        self.phi_tab = kernel.coerce_table(work_state.phi_table())
        self.rep = rep
        self.strategy = strategy
        self.use_proof = use_proof
        self.table1 = table1_contexts(self.m)
        self.by_family = {}
        for label, ctx in self.table1:
            fam, _, params = label.partition(":")
            pieces = dict(p.split("=") for p in params.split(","))
            alpha = int(pieces["alpha"])
            beta = int(pieces["beta"]) if "beta" in pieces else None
            self.by_family[(fam, alpha, beta)] = (label, ctx)
        self._full: Optional[list[Context]] = None
        self._memo: dict = {}
        self._ctx_cache: dict = {}

    def full_contexts(self) -> list[Context]:
        if self._full is None:
            self._full = enumerate_contexts(self.m, 2)
        return self._full

    def _ctx_arrays(self, ctx: Context):
        key = ctx.canonical_key
        hit = self._ctx_cache.get(key)
        if hit is None:
            b1, b2 = ctx.canonical_basis
            hit = (kernel.coerce_point(b1.coords), kernel.coerce_point(b2.coords))
            self._ctx_cache[key] = hit
        return hit

    def first_possible_ket(self, ctx: Context, a: int, b: int) -> int:
        """Memoized kernel call; the result only depends on the subspace and
        the two prescribed outcomes."""
        key = (ctx.canonical_key, a, b)
        hit = self._memo.get(key)
        if hit is None:
            u, v = self._ctx_arrays(ctx)
            hit = kernel.first_possible_ket(self.d, self.phi_tab, u, v, a, b)
            self._memo[key] = hit
        return hit

    def candidates(self, hv: HiddenVariable):
        if self.use_proof:
            for fam, alpha, beta in proof_context_parameters(
                    self.m, self.rep.phi1, self.rep.phi2, hv.lam):
                label, ctx = self.by_family[(fam, alpha, beta)]
                yield ("proof", label, ctx)
        if self.strategy == "table1_first":
            for label, ctx in self.table1:
                yield ("table1", label, ctx)
        for ctx in self.full_contexts():
            yield ("full", ctx.display_label, ctx)

    def scan_one(self, hv: HiddenVariable) -> Optional[Refutation]:
        """Refutation for this candidate, or None if it survives every
        context in the stream (including the full enumeration)."""
        tried = set()
        for stage, label, ctx in self.candidates(hv):
            if ctx.canonical_key in tried:
                continue
            tried.add(ctx.canonical_key)
            a, b = (hv.outcome(bb.coords) for bb in ctx.canonical_basis)
            if self.first_possible_ket(ctx, a, b) < 0:
                return Refutation(hv.lam, stage, label,
                                  ctx.canonical_key, (a, b), self.d ** 2)
        return None

    def consistency_table(self, hv: HiddenVariable) -> tuple[ConsistencyRow, ...]:
        rows = []
        for ctx in self.full_contexts():
            a, b = (hv.outcome(bb.coords) for bb in ctx.canonical_basis)
            possible = self.first_possible_ket(ctx, a, b) >= 0
            rows.append(ConsistencyRow(ctx.display_label, ctx.canonical_key,
                                       (a, b), possible))
        return tuple(rows)


def _normalize(state: PhaseFunctionState):
    work = strip_quadratic(state)
    rep = strongness(work)
    swapped = False
    if rep.phi1 == 0 and rep.phi2 != 0:
        work = swap_qudits(work)
        swapped = True
        rep = strongness(work)
    return work, rep, swapped


_WORKER_STATE: dict = {}


def _scan_worker_init(phi_coeffs, d, strategy, use_proof, normalize):
    from .zmod import ZdPoly
    m = Modulus(d)
    work = PhaseFunctionState(m, 2, ZdPoly(m, 2, dict(phi_coeffs)))
    rep = strongness(work) if normalize else strongness(strip_quadratic(work))
    _WORKER_STATE["scanner"] = _Scanner(work, rep, strategy, use_proof)
    _WORKER_STATE["m"] = m


def _scan_worker(lams):
    scanner = _WORKER_STATE["scanner"]
    m = _WORKER_STATE["m"]
    out = []
    for lam in lams:
        hv = HiddenVariable(m, 2, lam)
        out.append(scanner.scan_one(hv))
    return out


def decide_strong_contextuality(state: PhaseFunctionState,
                                strategy: str = "table1_first",
                                jobs: int = 1,
                                normalize: bool = True) -> StrongContextualityCertificate:
    """Decide strong contextuality of a two-qudit phase-function state.

    With normalize=True (default) the state is first reduced to its cubic
    part, swapping qudits if needed so that the j^2*k coefficient is nonzero
    when possible; the verdict is unchanged by these reductions and the
    certificate refers to the reduced state.  strategy "table1_first" tries
    the per-candidate three-context shortcut, then the labelled family
    catalogue, then complete enumeration; "full_scan" goes straight to the
    enumeration.  A candidate surviving every enumerated context yields a
    not_strongly_contextual verdict with its full consistency table.
    """
    if state.n != 2:
        raise UnsupportedScale("decision procedure supports n = 2")
    if strategy not in ("table1_first", "full_scan"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if normalize:
        work, rep, swapped = _normalize(state)
    else:
        work, swapped = state, False
        rep = strongness(strip_quadratic(state))
    use_proof = (strategy == "table1_first" and normalize
                 and rep.is_strong and rep.phi1 != 0)
    scanner = _Scanner(work, rep, strategy, use_proof)
    lams = enumerate_linear_hv(state.modulus, 2)

    results: list[Optional[Refutation]]
    if jobs > 1:
        chunks = [lams[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(
                max_workers=jobs, initializer=_scan_worker_init,
                initargs=(tuple(work.phi.coeffs.items()), state.modulus.d,
                          strategy, use_proof, normalize)) as pool:
            parts = list(pool.map(_scan_worker,
                                  [[hv.lam for hv in chunk] for chunk in chunks]))
        results = [None] * len(lams)
        for ci, chunk in enumerate(chunks):
            for pos, hv in enumerate(chunk):
                results[ci + pos * jobs] = parts[ci][pos]
    else:
        results = []
        for hv in lams:
            r = scanner.scan_one(hv)
            results.append(r)
            if r is None:
                break

    base = dict(
        modulus=state.modulus.d, n=2, phi=str(state.phi),
        normalized_phi=str(work.phi), swapped=swapped,
        strong=rep.is_strong, phi1=rep.phi1, phi2=rep.phi2,
        strategy=strategy, normalize=normalize,
    )
    for idx, r in enumerate(results):
        if r is None:
            hv = lams[idx]
            return StrongContextualityCertificate(
                **base, verdict="not_strongly_contextual",
                witness=Witness(hv.lam, scanner.consistency_table(hv)),
            )
    return StrongContextualityCertificate(
        **base, verdict="strongly_contextual",
        refutations=tuple(results),
        stages_used=frozenset(r.stage for r in results),
    )


# -- contextual fraction -------------------------------------------------------

@dataclass(frozen=True)
class ContextualFraction:
    cf: float
    weights: dict[HiddenVariable, float] = field(default_factory=dict)


def contextual_fraction(model: EmpiricalModel) -> ContextualFraction:
    """Contextual fraction of an empirical model, by linear programming.

    Maximizes the total weight of linear hidden variables subject to, for
    every (context, joint outcome), the consistent weight not exceeding the
    outcome's probability; cf = 1 - (optimal weight).  Restricting to linear
    hidden variables loses nothing: a non-linear global assignment restricts
    non-additively to some context, where its prescribed outcome has
    probability zero, forcing its weight to zero.

    Floating point with feasibility tolerance 1e-6; advisory next to the
    exact decision procedure.
    """
    state = model.state
    m = state.modulus
    d = m.d
    n = state.n
    lams = enumerate_linear_hv(m, n)
    outcomes = model.outcomes()
    oindex = {o: i for i, o in enumerate(outcomes)}
    ncons = len(model.contexts) * len(outcomes)
    A = np.zeros((ncons, len(lams)))
    b = np.zeros(ncons)
    for ci, ctx in enumerate(model.contexts):
        probs = model.context_probabilities(ci)
        if abs(float(probs.sum()) - 1.0) > 1e-6:
            raise InfeasibleModel(
                f"context {ci} probabilities sum to {probs.sum():.8f}")
        rows = [b.coords for b in ctx.canonical_basis]
        for li, hv in enumerate(lams):
            values = tuple(hv.outcome(r) for r in rows)
            A[ci * len(outcomes) + oindex[values], li] = 1.0
        for oi, o in enumerate(outcomes):
            b[ci * len(outcomes) + oi] = max(float(probs[oi]), 0.0)
    res = linprog(c=-np.ones(len(lams)), A_ub=A, b_ub=b,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise InfeasibleModel(f"LP failed: {res.message}")
    total = float(res.x.sum())
    cf = min(max(1.0 - total, 0.0), 1.0)
    weights = {hv: float(w) for hv, w in zip(lams, res.x) if w > 1e-9}
    return ContextualFraction(cf, weights)
