"""Hidden-variable machinery, the strong-contextuality decision procedure,
and the contextual-fraction linear program.

A hidden variable assigns a predetermined outcome to every Weyl measurement.
Consistency with any quantum state forces additivity along commuting pairs,
and (for two or more qudits) additivity forces linearity: the only candidates
are the d^(2n) linear functionals lam . (p1,q1,...,pn,qn).  The decision
procedure therefore scans that list and hunts, per candidate, for one context
in which the prescribed joint outcome is impossible.  A strong normal-form
state phi1*j^2*k + phi2*j*k^2 with phi1 != 0 admits a three-context shortcut
per candidate (`proof_stage_positions`: families I, II, III computed from
lam); the scan falls back to the full family catalogue and then to complete
context enumeration when the shortcut does not apply.

The scan handles candidates as arrays rather than one at a time: shortcut
contexts are read for a block of lam at once from a table over (l1, l3),
each stage walks its contexts in order over the lam not yet refuted, and
every distinct (subspace, outcome) query is answered once, from the state's
point-count table (`kernel.PointCounts`, built once per state), and kept in
one int8 table over (subspace, a, b) cells.  Each block of lam fills its
own slice of the certificate's columns; where Theorem 1 holds, one takes all.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Mapping, Optional, TextIO

import numpy as np

from . import kernel
from .born import EmpiricalModel
from .phase_space import UnsupportedScale, context_rows, span_labels, \
    table1_rows
from .states import PhaseFunctionState, StrongnessReport, strip_quadratic, \
    strongness, swap_qudits
from .zmod import MalformedInput, Modulus, StabctxError, _expect, _integers, \
    inv

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


class IncompleteProbe(StabctxError):
    """Candidate assignment is missing a point referenced by an identity."""


class InfeasibleModel(StabctxError):
    """The contextual-fraction LP rejected the model's probabilities."""


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
    d = _expect(m, Modulus).d
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
        chain = [
            ("a", [(1, k, 0, -h % d), (0, 0, 0, h)], (1, k, 0, 0)),
            ("b", [(1, h, 1, -h % d), (0, h, d - 1, 0)], (1, k, 0, -h % d)),
            ("c", [(1, 0, 0, 0), (0, h, 0, 0), (0, 0, 1, 0), (0, 0, 0, -h % d)],
             (1, h, 1, -h % d)),
            ("", [(1, 0, 0, 0), (0, k, 0, 0)], (1, k, 0, 0)),
        ]
        for step, parts, total in chain:
            yield (f"chain-1{step}", parts, total)
        for step, parts, total in chain:  # the qudits' (p, q) pairs swapped
            yield (f"chain-2{step}", [p[2:] + p[:2] for p in parts],
                   total[2:] + total[:2])


def check_linearity_forcing(m: Modulus,
                            candidate: Mapping[tuple[int, ...], int]) -> bool:
    """Whether a two-qudit assignment satisfies every forcing identity.

    The candidate maps phase-point coordinate tuples to outcomes and must be
    defined on every point an identity references (IncompleteProbe if not).
    Linear assignments always pass; any non-linear assignment violates at
    least one identity.
    """
    return violated_identity(m, candidate) is None


def violated_identity(m: Modulus, candidate: Mapping[tuple[int, ...], int]):
    """First violated identity as (name, parts, total), or None."""
    d = _expect(m, Modulus).d
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
    the named context, the outcome it prescribes is impossible (the
    outcome's root counts R are uniform; the certificate writes the d^2 kets
    of its expansion as "kets_checked").  Certificates keep columns and
    build these on request (`StrongContextualityCertificate.refutations`)."""

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


@dataclass(frozen=True)
class Witness:
    """A lam that survived the scan's full stage, which visits every
    subspace, so its outcome is possible in each: its consistency table is,
    per row of `context_rows`, the span label and outcome row @ lam % d,
    possible.  `rows` builds that table on first use."""

    modulus: Modulus
    lam: tuple[int, ...]

    @cached_property
    def rows(self) -> tuple[ConsistencyRow, ...]:
        m = self.modulus
        keys = context_rows(m, 2)
        return tuple(
            ConsistencyRow(label, tuple(map(tuple, key)), tuple(o), True)
            for label, key, o in zip(span_labels(m, 2), keys.tolist(),
                                     (keys @ self.lam % m.d).tolist()))


@dataclass(frozen=True, eq=False)
class StrongContextualityCertificate:
    """Machine-checkable verdict for one state.

    strongly_contextual: the scan's columns refute every linear hidden
    variable, one entry per lam in lexicographic order: the stage (index
    into `stages`), the subspace's row in `context_rows` and the impossible
    outcome (a, b) lam prescribes there.  `contexts` gives each distinct
    (stage, row) pair's label and basis.  The columns are read-only;
    `refutations` and `stages_used` derive from them.
    not_strongly_contextual: `witness` holds only the lam whose outcome
    is possible in every context; its table derives from lam.
    `write_certificate` writes the JSON, using the columns as indices into
    per-certificate tables of text; `to_json_obj` is its byte oracle.
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


# Stands in for what the writer fills in per item: json.dumps writes it as
# "\u0000", which no other string of a certificate contains.
_SLOT = "\0"
WRITE_BATCH = 4096  # items gathered and joined per write: bounds memory


def _field(key: str, value, depth: int) -> str:
    """The text `"key": value` of an object whose keys sit `depth` levels
    deep, laid out as json.dumps(..., indent=2) lays it out there; each
    _SLOT in `value` becomes a %s to format a value's JSON text into."""
    pad = "  " * depth
    return (f"{pad}{json.dumps(key)}: " + json.dumps(value, indent=2)
            .replace("\n", "\n" + pad).replace(json.dumps(_SLOT), "%s"))


def write_certificate(cert: StrongContextualityCertificate,
                      out: TextIO) -> None:
    """Write `cert` to `out` as schema "1" JSON: exactly
    json.dumps(cert.to_json_obj(), indent=2, sort_keys=True) + "\n".

    Every item (a refutation, or a row of the witness's table, derived
    from its lam) is a row of texts, each picked by an integer index from
    a small table built once per certificate: a refutation's opening per
    distinct (stage, subspace), one text per digit of lam and position,
    its outcome and its stage; a witness row's basis entries, context
    label and outcome.  `WRITE_BATCH` rows at a time are gathered from
    the columns and joined into one write.
    """
    d, width = _expect(cert, StrongContextualityCertificate).modulus, 2 * cert.n
    doc, depth = cert._head(), 2 if cert.strongly_contextual else 3
    if cert.strongly_contextual:
        doc["refutations"] = _SLOT
    else:
        doc["witness"] = {"consistency": _SLOT, "lambda": cert.witness.lam}
    head, tail = json.dumps(doc, indent=2, sort_keys=True) \
        .split(json.dumps(_SLOT))
    inner, pad = depth + 1, "  " * depth  # the items' keys, sorted below
    end = "\n" + pad + "},\n"

    def slots(key: str, value) -> tuple[str, list[list[str]]]:
        """`key`'s field up to its first slot, and per slot the text of
        each v in Z_d there, through to the next slot or the field's end."""
        first, *rest = (_field(key, value, inner) + ",\n").split("%s")
        return first, [[str(v) + part for v in range(d)] for part in rest]

    context = _field("context", _SLOT, inner) + ",\n"
    first, (a, b) = slots("outcome", [_SLOT, _SLOT])
    outcomes = [first + x + y for x in a for y in b]
    if cert.strongly_contextual:
        ns, count = len(cert.stages), d ** width
        codes, opening_of = np.unique(cert.row * ns + cert.stage,
                                      return_inverse=True)
        opening = pad + "{\n" + _field(
            "basis", [[_SLOT] * width] * cert.n, inner) + ",\n" + context \
            + _field("kets_checked", d * d, inner) + ",\n"
        lam, digits = slots("lambda", [_SLOT] * width)
        tables = [[opening % (*sum(rows, ()), json.dumps(label)) + lam
                   for label, rows in (cert.contexts[c % ns, c // ns]
                                       for c in codes.tolist())],
                  *digits, outcomes,
                  [_field("stage", name, inner) + end for name in cert.stages]]
        place, outcome = d ** np.arange(width - 1, -1, -1), cert.outcome

        def columns(i: np.ndarray) -> tuple:
            return opening_of[i], i[:, None] // place % d, \
                outcome[i] @ (d, 1), cert.stage[i]
    else:
        m = cert.witness.modulus
        keys = context_rows(m, cert.n)
        basis, entries = slots("basis", [[_SLOT] * width] * cert.n)
        entries[0] = [pad + "{\n" + basis + text for text in entries[0]]
        possible = _field("possible", True, inner) + end
        tables = [*entries, [context % json.dumps(label)
                             for label in span_labels(m, cert.n)],
                  [text + possible for text in outcomes]]
        count, outcome = len(keys), keys @ cert.witness.lam % d @ (d, 1)
        keys = keys.reshape(count, -1)

        def columns(i: np.ndarray) -> tuple:
            return keys[i], i, outcome[i]
    pieces = np.array([text for table in tables for text in table],
                      dtype=object)
    offsets = np.cumsum([0] + [len(table) for table in tables[:-1]])
    out.write(head + "[\n")
    for start in range(0, count, WRITE_BATCH):
        i = np.arange(start, min(start + WRITE_BATCH, count))
        text = "".join(pieces[np.column_stack(columns(i)) + offsets]
                       .ravel().tolist())
        out.write(text if i[-1] + 1 < count else text[:-2])  # no last ",\n"
    out.write("\n" + "  " * (depth - 1) + "]" + tail + "\n")


def proof_stage_positions(m: Modulus, phi1: int, phi2: int,
                          lams: np.ndarray) -> np.ndarray:
    """The three-context shortcut: for each row of an (N, 4) array of lam,
    the positions in `table1_rows(m)` of the families I_alpha, II_alpha and
    III_alpha,beta below, shape (N, 3).  Requires phi1 != 0.  On the state
    phi1*j^2*k + phi2*j*k^2, at least one of the three refutes lam:
        I:   alpha = 2*l1*phi2
        II:  alpha = 2*l3*phi1
        III: if phi2 = -1: alpha = 6*(l1*phi1 - l3),        beta = 1/phi1
             else:         alpha = 2/(phi2+1) * (l1*phi1*(phi2+2)
                                     + l3*(phi2^2 - 1)),    beta = (phi2+1)/phi1
    """
    d = _expect(m, Modulus).d
    lams = kernel._reduce(lams, d)
    if lams.ndim != 2 or lams.shape[1] != 4:
        raise MalformedInput("lams must be an integer (N, 4) array")
    phi1, phi2 = (c % d for c in _integers((phi1, phi2), "phi1 and phi2"))
    l1, l3 = lams[:, 0], lams[:, 2]
    alpha_i = 2 * l1 * phi2 % d
    alpha_ii = 2 * l3 * phi1 % d
    if phi2 == d - 1:
        alpha_iii = 6 * (l1 * phi1 - l3) % d
        beta = inv(phi1, m)
    else:
        alpha_iii = (2 * inv(phi2 + 1, m)
                     * (l1 * phi1 * (phi2 + 2) + l3 * (phi2 * phi2 - 1))) % d
        beta = inv(phi1, m) * (phi2 + 1) % d
    # table1_rows lists I_alpha, II_alpha, then III_alpha,beta with
    # beta = 1..d-1 innermost
    return np.stack([alpha_i, d + alpha_ii,
                     2 * d + (d - 1) * alpha_iii + beta - 1], axis=1)


# (lam, context) pairs looked up per step of a stage's context walk: a lone
# lam tries 64 contexts per step, thousands of lam one context per step.
# Wider steps save numpy calls but evaluate queries that the serial stream
# would never reach (lam refuted by an earlier context of the step); 16-64
# was fastest on d = 7 and d = 11 states, 1024 and up 1.5-2x slower.
QUERY_BATCH = 64


class _Scanner:
    """The hidden-variable scan of one state.

    Each lam walks its stream of contexts, stage by stage through `stages`
    (proof, table1 and full, or a tail of them), until its prescribed
    outcome is impossible in one; lam are processed as arrays.  A subspace
    is named by its row in `context_rows`: the table1 stage is the Table-1
    families' rows, `table1_rows`, the proof stage's three depend on lam
    only through (l1, l3), in `proof`, and the full stage is every row.
    `counts`, the state's `kernel.PointCounts`, is built here, and every
    distinct (subspace, a, b) cell goes to its `uniform` at most once per
    state: `known` holds one int8 per cell at (sid*d + a)*d + b, -1 until
    asked, then 0 (possible) or 1 (impossible).  That is (d^2+1)(d+1)d^2
    bytes: 19,600 at d = 7, 177,144 at d = 11.
    """

    def __init__(self, work_state: PhaseFunctionState, rep: StrongnessReport,
                 stages: tuple[str, ...]):
        self.m = work_state.modulus
        self.d = self.m.d
        self.counts = kernel.PointCounts(self.d, work_state.phi_table())
        self.rows = context_rows(self.m, 2)  # (rows, 2, 4), int32 like lam
        self.known = np.full(len(self.rows) * self.d ** 2, -1, dtype=np.int8)
        self.table1, labels = table1_rows(self.m)
        self.family = dict(zip(self.table1.tolist(), labels))
        self.stages = stages
        if "proof" in stages:  # rows per (l1, l3) at l1*d + l3, l2 = l4 = 0
            pairs = np.indices((self.d, 1, self.d, 1)).reshape(4, -1).T
            self.proof = self.table1[proof_stage_positions(
                self.m, rep.phi1, rep.phi2, pairs)]

    def context(self, stage: int, sid: int) -> tuple[str, tuple]:
        """A subspace's certificate label and basis (its canonical generator
        rows): the family label in the proof and table1 stages, else the
        span label."""
        label = span_labels(self.m, 2)[sid] if self.stages[stage] == "full" \
            else self.family[sid]
        return label, tuple(map(tuple, self.rows[sid].tolist()))

    def _impossible(self, sid: np.ndarray, ab: np.ndarray) -> np.ndarray:
        """Answers, from `known`, for arrays of (subspace, (a, b)) queries;
        cells not asked yet (a query's answer depends only on its cell) go
        to `counts` in one call."""
        d = self.d
        qid = (sid.astype(np.int64) * d + ab[..., 0]) * d + ab[..., 1]
        new = self.known[qid] < 0
        if new.any():
            todo, first = np.unique(qid[new], return_index=True)
            self.known[todo] = self.counts.uniform(
                kernel.row_points(d, sid[new][first]), ab[new][first])
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
        alive = np.arange(n, dtype=np.int32)
        for s, name in enumerate(self.stages):
            if name == "proof":
                order = self.proof[lams[:, 0] * d + lams[:, 2]]
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


def decide_strong_contextuality(state: PhaseFunctionState,
                                strategy: str = "table1_first",
                                normalize: bool = True) -> StrongContextualityCertificate:
    """Decide strong contextuality of a two-qudit phase-function state.

    With normalize=True (default) the state is first reduced to its cubic
    part, swapping qudits if needed so that the j^2*k coefficient is nonzero
    when possible; the verdict is unchanged by these reductions and the
    certificate refers to the reduced state.  strategy "table1_first" tries
    the per-candidate three-context shortcut (on a normalised strong state,
    whose j^2*k coefficient is nonzero), then the labelled family catalogue,
    then complete enumeration; "full_scan" goes straight to the enumeration.
    A candidate surviving every enumerated context yields a
    not_strongly_contextual verdict whose `Witness` holds only that lam.

    Candidates are scanned in lexicographic blocks of 1, 2, 4, ... lam, and
    the scan stops after the first block holding a survivor, whose lowest
    survivor is the witness: witnesses mostly sit at small lam.  Where
    Theorem 1 refutes every lam in the proof stage (strong normal forms at
    d != 1 mod 3), one block holds all d^4 lam: three array steps.
    """
    if _expect(state, PhaseFunctionState).n != 2:
        raise UnsupportedScale("decision procedure supports n = 2")
    if strategy not in ("table1_first", "full_scan"):
        raise MalformedInput(f"unknown strategy {strategy!r}")
    if not isinstance(normalize, (bool, np.bool_)):
        raise MalformedInput(f"normalize must be a bool, not {normalize!r}")
    normalize = bool(normalize)
    cubic = strip_quadratic(state)
    rep = strongness(cubic)
    swapped = normalize and rep.phi1 == 0 and rep.phi2 != 0
    if swapped:
        cubic = swap_qudits(cubic)
        rep = strongness(cubic)
    work = cubic if normalize else state
    stages = ("full",) if strategy == "full_scan" \
        else ("proof", "table1", "full") if normalize and rep.is_strong \
        else ("table1", "full")
    d = state.modulus.d
    lams = kernel._grid(d, 4)[0]  # every lam, in lexicographic order
    # the certificate's columns, filled block by block; allocated after
    # the scanner, they raised the peak RSS at d = 23 by 9 MiB
    stage = np.empty(len(lams), dtype=np.int8)
    row = np.empty(len(lams), dtype=np.int32)
    outcome = np.empty((len(lams), 2), dtype=np.int32)
    scanner = _Scanner(work, rep, stages)

    base = dict(
        modulus=d, n=2, phi=str(state.phi),
        normalized_phi=str(work.phi), swapped=swapped,
        strong=rep.is_strong, phi1=rep.phi1, phi2=rep.phi2,
        strategy=strategy, normalize=normalize,
    )
    start, size = 0, len(lams) if stages[0] == "proof" and d % 3 != 1 else 1
    while start < len(lams):
        block = slice(start, start + size)
        scanner.scan(lams[block], stage[block], row[block], outcome[block])
        if (stage[block] < 0).any():
            lam = lams[start + np.argmax(stage[block] < 0)]
            return StrongContextualityCertificate(
                **base, verdict="not_strongly_contextual",
                witness=Witness(state.modulus, tuple(lam.tolist())))
        start, size = start + size, 2 * size

    ns = len(stages)  # each distinct (stage, row) once, from its code
    codes = np.flatnonzero(np.bincount(row * ns + stage)).tolist()
    return StrongContextualityCertificate(
        **base, verdict="strongly_contextual", stages=stages,
        stage=stage, row=row, outcome=outcome,
        contexts={(c % ns, c // ns): scanner.context(c % ns, c // ns)
                  for c in codes})


# -- contextual fraction -------------------------------------------------------

@dataclass(frozen=True)
class ContextualFraction:
    """The LP's contextual fraction, and the weight of every linear hidden
    variable it keeps (above 1e-9), keyed by its lam tuple.  cf is exactly
    1.0 with no weights when every lam prescribes an impossible outcome in
    some context, i.e. when the model is strongly contextual."""

    cf: float
    weights: dict[tuple[int, ...], float] = field(default_factory=dict)


def _cell_dtype(cells: int) -> type:
    """int32 while it indexes `cells` model cells, else int64."""
    return np.int32 if cells <= 2 ** 31 else np.int64


def _prescribed_cells(d: int, keys: np.ndarray) -> np.ndarray:
    """cells[c, l] = c * d^n + o, where o (row-major over Z_d^n, the column
    order of `EmpiricalModel`'s arrays) is the outcome the l-th lam, in
    `kernel._grid` order, prescribes on the basis keys[c] of a
    (contexts, n, 2n) key array such as `EmpiricalModel.keys`.  With lam =
    (hi, lo), key . lam is key[:n] . hi + key[n:] . lo: one outer sum."""
    count, n = keys.shape[:2]
    keys = keys.reshape(count, n, 2, n)
    halves = (keys @ kernel._grid(d, n)[0].T % d).astype(
        np.min_scalar_type(2 * d))  # (context, element, hi or lo, half index)
    cells = np.repeat(np.arange(count, dtype=_cell_dtype(count * d ** n)),
                      d ** (2 * n)).reshape(count, d ** n, d ** n)
    for i in range(n):  # Horner's rule: c * d^n + o
        cells *= d
        cells += (halves[:, i, 0, :, None] + halves[:, i, 1, None, :]) % d
    return cells.reshape(count, d ** (2 * n))


@cache
def _scipy():
    """scipy's LP solver and sparse matrix, imported on first use: only the
    contextual fraction needs them, and they take most of the package's
    import time."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    return linprog, csr_matrix


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, the contextual fraction's solver, called
    through this module's name so that it can be replaced."""
    return _scipy()[0](*args, **kwargs)


def _incidence(rows: np.ndarray, height: int) -> csr_matrix:
    """The 0/1 matrix with a 1 at (rows[c, l], l)."""
    cols = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    csr_matrix = _scipy()[1]
    return csr_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())),
                      shape=(height, rows.shape[1]))


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
    _scipy()  # the first call pays the import, whichever branch it takes
    m, n = _expect(model, EmpiricalModel).state.modulus, model.state.n
    if not model.contexts:
        raise MalformedInput("no contexts: the contextual fraction needs "
                             "at least one")
    probs = model.probability
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if bad.size:
        raise InfeasibleModel(
            f"context {bad[0]} probabilities sum to {sums[bad[0]]:.8f}")
    cells = _prescribed_cells(m.d, model.keys)
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
    lams = map(tuple, kernel._grid(m.d, 2 * n)[0][keep].tolist())
    weights = {lam: w for lam, w in zip(lams, res.x.tolist()) if w > 1e-9}
    return ContextualFraction(cf, weights)
