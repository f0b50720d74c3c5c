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

The scan handles candidates as arrays rather than one at a time: shortcut
parameters are computed for a whole block of lam at once, each stage walks
its contexts in order over the lam not yet refuted, and every distinct
(subspace, outcome) query is answered once, from the state's point-count
table (`kernel.PointCounts`, built once per state), and kept in one int8
table over (subspace, a, b) cells.  Each block of lam fills its own slice
of the certificate's columns.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, TextIO

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from . import kernel
from .born import EmpiricalModel, JointOutcome
from .phase_space import Context, UnsupportedScale, context_rows, \
    span_label, table1_contexts
from .states import PhaseFunctionState, StrongnessReport, strip_quadratic, \
    strongness, swap_qudits
from .zmod import MalformedInput, Modulus, StabctxError, _integers, inv


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
        d = self.modulus.d
        object.__setattr__(self, "lam", tuple(
            c % d for c in _integers(self.lam, "hidden-variable components")))

    def outcome(self, coords: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(self.lam, coords)) % self.modulus.d


def enumerate_linear_hv(m: Modulus, n: int) -> list[HiddenVariable]:
    """All d^(2n) linear hidden variables, lexicographic, zero first."""
    return [HiddenVariable(m, n, lam)
            for lam in itertools.product(range(m.d), repeat=2 * n)]


def _lam_array(d: int, n: int) -> np.ndarray:
    """The d^(2n) lam as rows of one int array, lexicographic, zero first."""
    return np.indices((d,) * (2 * n)).reshape(2 * n, -1).T


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
    return violated_identity(m, candidate) is None


def violated_identity(m: Modulus, candidate: Mapping[tuple[int, ...], int]):
    """First violated identity as (name, parts, total), or None."""
    d = m.d
    for name, parts, total in proof_chain_identities(m):
        try:
            lhs = sum(candidate[p] for p in parts) % d
            rhs = candidate[total] % d
        except KeyError as exc:
            raise IncompleteProbe(
                f"candidate not defined at {exc.args[0]}") from None
        if lhs != rhs:
            return (name, parts, total)
    return None


# -- the decision procedure ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class Refutation:
    """Evidence that one hidden variable is inconsistent with the state: in
    the named context, the outcome it prescribes is impossible (every one of
    the d^2 kets' root multisets is uniform; the certificate writes d^2 as
    "kets_checked").  Certificates keep columns and build these on request
    (`StrongContextualityCertificate.refutations`)."""

    lam: tuple[int, ...]
    stage: str  # "proof" | "table1" | "full"
    context_label: str
    context_basis: tuple[tuple[int, ...], ...]
    outcome: tuple[int, ...]


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


@dataclass(frozen=True, eq=False)
class StrongContextualityCertificate:
    """Machine-checkable verdict for one state.

    strongly_contextual: the scan's columns refute every linear hidden
    variable, one entry per lam in lexicographic order: the stage (index
    into `stages`), the subspace's row in `context_rows` and the impossible
    outcome (a, b) lam prescribes there.  `contexts` gives each distinct
    (stage, row) pair's label and basis.  The columns are read-only;
    `refutations` and `stages_used` derive from them.
    not_strongly_contextual: `witness` names a hidden variable whose
    prescribed outcome is possible in every enumerated context, with the
    full consistency table.  `write_certificate` writes
    the JSON; `to_json_obj` is its test oracle.
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
    stages: tuple[str, ...] = ()
    stage: Optional[np.ndarray] = None  # (d^4,) index into `stages`
    row: Optional[np.ndarray] = None  # (d^4,) row of `context_rows`
    outcome: Optional[np.ndarray] = None  # (d^4, 2)
    contexts: Mapping[tuple[int, int], tuple] = field(default_factory=dict)
    witness: Optional[Witness] = None

    def __post_init__(self):
        for column in (self.stage, self.row, self.outcome):
            if column is not None:
                column.flags.writeable = False

    @property
    def strongly_contextual(self) -> bool:
        return self.verdict == "strongly_contextual"

    @property
    def stages_used(self) -> frozenset[str]:
        return frozenset(self.stages[s] for s, _row in self.contexts)

    @cached_property
    def refutations(self) -> tuple[Refutation, ...]:
        lams = itertools.product(range(self.modulus), repeat=2 * self.n)
        return () if self.stage is None else tuple(
            Refutation(lam, self.stages[s], *self.contexts[s, r], tuple(o))
            for lam, s, r, o in zip(lams, self.stage.tolist(),
                                    self.row.tolist(), self.outcome.tolist()))

    def _head(self) -> dict:
        """The document's fields other than the refutations or witness."""
        return {"schema": "1", "stages_used": sorted(self.stages_used), **{
            key: getattr(self, key) for key in (
                "modulus", "n", "phi", "normalized_phi", "swapped", "strong",
                "phi1", "phi2", "strategy", "normalize", "verdict")}}

    def to_json_obj(self) -> dict:
        """JSON-serializable; tuples are written as arrays."""
        out = self._head()
        if self.strongly_contextual:
            kets = self.modulus ** 2
            out["refutations"] = [
                {"lambda": r.lam, "stage": r.stage, "context": r.context_label,
                 "basis": r.context_basis, "outcome": r.outcome,
                 "kets_checked": kets} for r in self.refutations]
        else:
            assert self.witness is not None
            out["witness"] = {"lambda": self.witness.lam, "consistency": [
                {"context": row.context_label, "basis": row.context_basis,
                 "outcome": row.outcome, "possible": row.possible}
                for row in self.witness.rows]}
        return out


# Stands in for the list the writer streams: json.dumps writes it as
# "\u0000", which no other string of a certificate contains.
_SLOT = "\0"
WRITE_BATCH = 4096  # list items joined per write


def _field(key: str, value, depth: int) -> str:
    """The text `"key": value` of an object whose keys sit `depth` levels
    deep, laid out as json.dumps(..., indent=2) lays it out there; each
    _SLOT in `value` becomes a %d to format an integer into."""
    pad = "  " * depth
    return (f"{pad}{json.dumps(key)}: " + json.dumps(value, indent=2)
            .replace("\n", "\n" + pad).replace(json.dumps(_SLOT), "%d"))


def write_certificate(cert: StrongContextualityCertificate,
                      out: TextIO) -> None:
    """Write `cert` to `out` as schema "1" JSON: exactly
    json.dumps(cert.to_json_obj(), indent=2, sort_keys=True) + "\n".

    The refutations (or the witness's consistency table) are streamed in
    batches.  Each item is joined from text built once per distinct
    context, outcome and stage (or possible flag); only a refutation's
    lambda is formatted per item.
    """
    d, width = cert.modulus, 2 * cert.n
    doc, depth = cert._head(), 2 if cert.strongly_contextual else 3
    if cert.strongly_contextual:
        doc["refutations"] = _SLOT
    else:
        doc["witness"] = {"consistency": _SLOT, "lambda": cert.witness.lam}
    head, tail = json.dumps(doc, indent=2, sort_keys=True) \
        .split(json.dumps(_SLOT))
    inner = depth + 1  # the items' keys, in sorted order below
    basis = _field("basis", [[_SLOT] * width] * cert.n, inner)

    def opening(label: str, rows: tuple) -> str:
        return "  " * depth + "{\n" + basis % sum(rows, ()) + ",\n" \
            + _field("context", label, inner) + ",\n"

    outcomes = [_field("outcome", ab, inner) + ",\n"
                for ab in itertools.product(range(d), repeat=2)]
    end = "\n" + "  " * depth + "}"
    if cert.strongly_contextual:
        ns = len(cert.stages)
        kets = _field("kets_checked", d * d, inner) + ",\n"
        openings = {r * ns + s: opening(*named) + kets
                    for (s, r), named in cert.contexts.items()}
        lam_line = _field("lambda", [_SLOT] * width, inner) + ",\n"
        stages = [_field("stage", name, inner) + end for name in cert.stages]
        items = (openings[c] + lam_line % lam + outcomes[o] + stages[s]
                 for lam, c, o, s in zip(
                     itertools.product(range(d), repeat=width),
                     (cert.row * ns + cert.stage).tolist(),
                     (cert.outcome @ (d, 1)).tolist(), cert.stage.tolist()))
    else:
        possible = [_field("possible", p, inner) + end for p in (False, True)]
        items = (opening(r.context_label, r.context_basis)
                 + outcomes[r.outcome[0] * d + r.outcome[1]]
                 + possible[r.possible] for r in cert.witness.rows)
    out.write(head + "[\n")
    sep = ""
    while batch := list(itertools.islice(items, WRITE_BATCH)):
        out.write(sep + ",\n".join(batch))
        sep = ",\n"
    out.write("\n" + "  " * (depth - 1) + "]" + tail + "\n")


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


def proof_stage_parameters(m: Modulus, phi1: int, phi2: int, lams: np.ndarray):
    """`proof_context_parameters` for an (N, 4) array of hidden variables.

    Returns (alpha_I, alpha_II, alpha_III, beta_III): three arrays of shape
    (N,) and the family-III beta, which does not depend on lam.
    """
    d = m.d
    phi1, phi2 = phi1 % d, phi2 % d
    l1, l3 = lams[:, 0] % d, lams[:, 2] % d
    alpha_i = 2 * l1 * phi2 % d
    alpha_ii = 2 * l3 * phi1 % d
    if phi2 == d - 1:
        alpha_iii = 6 * (l1 * phi1 - l3) % d
        beta = inv(phi1, m)
    else:
        alpha_iii = (2 * inv(phi2 + 1, m)
                     * (l1 * phi1 * (phi2 + 2) + l3 * (phi2 * phi2 - 1))) % d
        beta = inv(phi1, m) * (phi2 + 1) % d
    return alpha_i, alpha_ii, alpha_iii, beta


# (lam, context) pairs looked up per step of a stage's context walk: a lone
# lam tries 64 contexts per step, thousands of lam one context per step.
# Wider steps save numpy calls but evaluate queries that the serial stream
# would never reach (lam refuted by an earlier context of the step); 16-64
# was fastest on d = 7 and d = 11 states, 1024 and up 1.5-2x slower.
QUERY_BATCH = 64


class _Scanner:
    """The hidden-variable scan of one state.

    Each lam walks its stream of contexts (proof, then table1, then full
    stage, as the strategy allows) until its prescribed outcome is
    impossible in one.  A subspace is named by its row in `context_rows`:
    the table1 stage is the rows of the Table-1 families, in catalogue
    order, and the full stage is every row.  lam are processed as arrays.
    `counts`, the state's `kernel.PointCounts`, is built here, and every
    distinct (subspace, a, b) cell goes to its `impossible` at most once
    per state: `known` holds one int8 per cell at (sid*d + a)*d + b, -1
    until asked, then 0 (possible) or 1 (impossible).  That is
    (d^2+1)(d+1)d^2 bytes: 19,600 at d = 7, 177,144 at d = 11.
    """

    def __init__(self, work_state: PhaseFunctionState, rep: StrongnessReport,
                 strategy: str, use_proof: bool):
        self.m = work_state.modulus
        self.d = self.m.d
        self.counts = kernel.PointCounts(self.d, work_state.phi_table())
        self.rep = rep
        self.rows = context_rows(self.m, 2)  # (subspaces, 2, 4)
        self.known = np.full(len(self.rows) * self.d ** 2, -1, dtype=np.int8)
        families = table1_contexts(self.m)
        index = {key: sid for sid, key
                 in enumerate(map(tuple, self.rows.reshape(-1, 8).tolist()))}
        self.table1 = np.array(  # row of each family, in order
            [index[sum(ctx.canonical_key, ())] for ctx in families])
        self.family = {sid: ctx.label for sid, ctx
                       in zip(self.table1.tolist(), families)}
        self.stages = (("proof",) if use_proof else ()) \
            + (("table1",) if strategy == "table1_first" else ()) + ("full",)

    def context(self, stage: int, sid: int) -> tuple[str, tuple]:
        """A subspace's certificate label and basis (its canonical generator
        rows): the family label in the proof and table1 stages, else the
        span label."""
        rows = self.rows[sid].tolist()
        label = span_label(rows) if self.stages[stage] == "full" \
            else self.family[sid]
        return label, tuple(map(tuple, rows))

    def _impossible(self, sid: np.ndarray, ab: np.ndarray) -> np.ndarray:
        """Answers, from `known`, for arrays of (subspace, (a, b)) queries;
        cells not asked yet (a query's answer depends only on its cell) go
        to `counts` in one call."""
        d = self.d
        qid = (sid * d + ab[..., 0]) * d + ab[..., 1]
        new = self.known[qid] < 0
        if new.any():
            todo, first = np.unique(qid[new], return_index=True)
            self.known[todo] = self.counts.impossible(
                self.rows[sid[new][first]], ab[new][first])
        return self.known[qid] == 1

    def scan(self, lams: np.ndarray, stage: np.ndarray, where: np.ndarray,
             outcome: np.ndarray) -> None:
        """Refute each row of an (N, 4) array of hidden variables.

        Writes per lam the index into `stages` (-1 if lam survives every
        context) to `stage`, the refuting subspace's row in `rows` to
        `where` and lam's prescribed outcome (a, b) there to `outcome`.
        """
        n, d = len(lams), self.d
        stage[:] = -1
        alive = np.arange(n)
        for s, name in enumerate(self.stages):
            if name == "proof":
                alpha_i, alpha_ii, alpha_iii, beta = proof_stage_parameters(
                    self.m, self.rep.phi1, self.rep.phi2, lams)
                # table1_contexts lists I_alpha, II_alpha, then III_alpha,beta
                # with beta = 1..d-1 innermost
                order = self.table1[np.stack(
                    [alpha_i, d + alpha_ii,
                     2 * d + (d - 1) * alpha_iii + beta - 1], axis=1)]
            else:
                ids = self.table1 if name == "table1" \
                    else np.arange(len(self.rows))
                order = np.broadcast_to(ids, (n, len(ids)))
            start = 0
            while alive.size and start < order.shape[1]:
                stop = start + max(1, QUERY_BATCH // alive.size)
                sid = order[alive, start:stop]  # subspaces to try, in order
                ab = (self.rows[sid]
                      @ lams[alive][:, None, :, None])[..., 0] % d
                imp = self._impossible(sid, ab)
                first = np.where(imp.any(axis=1), imp.argmax(axis=1), -1)
                hit = np.flatnonzero(first >= 0)
                who = alive[hit]
                stage[who] = s
                where[who] = sid[hit, first[hit]]
                outcome[who] = ab[hit, first[hit]]
                alive = alive[first < 0]
                start = stop
            if not alive.size:
                break

    def witness(self, lam: np.ndarray) -> Witness:
        """lam with its consistency table over every subspace."""
        ab = self.rows @ lam % self.d
        impossible = self._impossible(np.arange(len(self.rows)), ab)
        return Witness(tuple(lam.tolist()), tuple(
            ConsistencyRow(*self.context(-1, sid), tuple(o), not imp)
            for sid, (o, imp) in enumerate(zip(ab.tolist(),
                                               impossible.tolist()))))


def _normalize(state: PhaseFunctionState):
    work = strip_quadratic(state)
    rep = strongness(work)
    swapped = False
    if rep.phi1 == 0 and rep.phi2 != 0:
        work = swap_qudits(work)
        swapped = True
        rep = strongness(work)
    return work, rep, swapped


def decide_strong_contextuality(state: PhaseFunctionState,
                                strategy: str = "table1_first",
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

    Candidates are scanned in lexicographic blocks of 1, 2, 4, ... lam, and
    the scan stops after the first block holding a survivor, whose lowest
    survivor is the witness: witnesses mostly sit at small lam.
    """
    if state.n != 2:
        raise UnsupportedScale("decision procedure supports n = 2")
    if strategy not in ("table1_first", "full_scan"):
        raise MalformedInput(f"unknown strategy {strategy!r}")
    if normalize:
        work, rep, swapped = _normalize(state)
    else:
        work, swapped = state, False
        rep = strongness(strip_quadratic(state))
    use_proof = (strategy == "table1_first" and normalize
                 and rep.is_strong and rep.phi1 != 0)
    d = state.modulus.d
    lams = _lam_array(d, 2)
    # the certificate's columns, filled block by block; allocated after
    # the scanner, they raised the peak RSS at d = 23 by 9 MiB
    stage = np.empty(len(lams), dtype=np.int64)
    row = np.empty(len(lams), dtype=np.int64)
    outcome = np.empty((len(lams), 2), dtype=np.int64)
    scanner = _Scanner(work, rep, strategy, use_proof)

    base = dict(
        modulus=d, n=2, phi=str(state.phi),
        normalized_phi=str(work.phi), swapped=swapped,
        strong=rep.is_strong, phi1=rep.phi1, phi2=rep.phi2,
        strategy=strategy, normalize=normalize,
    )
    start, size = 0, 1
    while start < len(lams):
        block = slice(start, start + size)
        scanner.scan(lams[block], stage[block], row[block], outcome[block])
        if (stage[block] < 0).any():
            lam = lams[start + np.argmax(stage[block] < 0)]
            return StrongContextualityCertificate(
                **base, verdict="not_strongly_contextual",
                witness=scanner.witness(lam))
        start, size = start + size, 2 * size

    return StrongContextualityCertificate(
        **base, verdict="strongly_contextual", stages=scanner.stages,
        stage=stage, row=row, outcome=outcome,
        contexts={pair: scanner.context(*pair)
                  for pair in set(zip(stage.tolist(), row.tolist()))})


# -- contextual fraction -------------------------------------------------------

@dataclass(frozen=True)
class ContextualFraction:
    """The LP's contextual fraction, and the weight of every linear hidden
    variable it keeps (above 1e-9), keyed by its lam tuple.  cf is exactly
    1.0 with no weights when every lam prescribes an impossible outcome in
    some context, i.e. when the model is strongly contextual."""

    cf: float
    weights: dict[tuple[int, ...], float] = field(default_factory=dict)


def _prescribed_cells(m: Modulus, n: int,
                      contexts: Sequence[Context]) -> np.ndarray:
    """cells[c, l] = c * d^n + o, where o (row-major over Z_d^n, the column
    order of `EmpiricalModel`'s arrays) is the outcome the l-th lam,
    lexicographically (as `enumerate_linear_hv`), prescribes on the
    canonical basis of contexts[c]."""
    d = m.d
    keys = np.array([c.canonical_key for c in contexts]).reshape(-1, n, 2 * n)
    values = keys @ _lam_array(d, n).T % d  # (context, basis element, lam)
    return d ** np.arange(n - 1, -1, -1) @ values \
        + d ** n * np.arange(len(contexts))[:, None]


def _incidence(rows: np.ndarray, height: int) -> csr_matrix:
    """The 0/1 matrix with a 1 at (rows[c, l], l)."""
    cols = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    return csr_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())),
                      shape=(height, rows.shape[1]))


def consistency_matrix(m: Modulus, n: int,
                       contexts: Sequence[Context]) -> csr_matrix:
    """The LP's 0/1 matrix over every lam: entry (c * d^n + o, l) is 1 iff
    the l-th lam prescribes outcome o on contexts[c] (see
    `_prescribed_cells`)."""
    return _incidence(_prescribed_cells(m, n, contexts),
                      len(contexts) * m.d ** n)


def contextual_fraction(model: EmpiricalModel) -> ContextualFraction:
    """Contextual fraction of an empirical model, by linear programming.

    Maximizes the total weight of linear hidden variables subject to, for
    every (context, joint outcome), the consistent weight not exceeding the
    outcome's probability; cf = 1 - (optimal weight).  Restricting to linear
    hidden variables loses nothing: a non-linear global assignment restricts
    non-additively to some context, where its prescribed outcome has
    probability zero, forcing its weight to zero.

    The LP runs over the support only.  A lam that prescribes an impossible
    outcome (exact, `model.possible`) in some context has weight zero, so
    its column is dropped, and then every row no remaining lam reaches.
    When no lam survives, the model is strongly contextual and cf is
    exactly 1 with no LP (Abramsky, Barbosa & Mansfield 2017).

    Floating point with feasibility tolerance 1e-6; advisory next to the
    exact decision procedure.
    """
    m, n = model.state.modulus, model.state.n
    if not model.contexts:
        raise MalformedInput("no contexts: the contextual fraction needs "
                             "at least one")
    probs = model.probability
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if bad.size:
        raise InfeasibleModel(
            f"context {bad[0]} probabilities sum to {sums[bad[0]]:.8f}")
    cells = _prescribed_cells(m, n, model.contexts)
    keep = np.flatnonzero(model.possible.ravel()[cells].all(axis=0))
    if not keep.size:
        return ContextualFraction(1.0, {})
    reached, rows = np.unique(cells[:, keep], return_inverse=True)
    res = linprog(c=-np.ones(len(keep)),
                  b_ub=np.maximum(probs.ravel()[reached], 0.0),
                  A_ub=_incidence(rows.reshape(-1, len(keep)), len(reached)),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise InfeasibleModel(f"LP failed: {res.message}")
    cf = min(max(1.0 - float(res.x.sum()), 0.0), 1.0)
    lams = map(tuple, _lam_array(m.d, n)[keep].tolist())
    weights = {lam: w for lam, w in zip(lams, res.x.tolist()) if w > 1e-9}
    return ContextualFraction(cf, weights)
