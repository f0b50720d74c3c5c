import dataclasses
import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from stabctx import hidden_vars, kernel, phase_space
from stabctx.born import JointOutcome, build_empirical_model, \
    outcome_possibility
from stabctx.hidden_vars import (
    IncompleteProbe,
    InfeasibleModel,
    check_linearity_forcing,
    contextual_fraction,
    decide_strong_contextuality,
    proof_chain_identities,
    proof_stage_positions,
    violated_identity,
)
from stabctx.phase_space import Context, PhasePoint, enumerate_contexts, \
    table1_contexts
from stabctx.states import PhaseFunctionState, strip_quadratic, swap_qudits
from stabctx.zmod import MalformedInput, Modulus, ZdPoly, parse_poly


def state(d, text):
    m = Modulus(d)
    return PhaseFunctionState(m, 2, parse_poly(text, m))


def prescribed(lam, ctx):
    """The outcome lam prescribes on a context, read as the scan reads it:
    the canonical basis rows @ lam % d."""
    d = ctx.modulus.d
    return JointOutcome(ctx, tuple(np.array(ctx.canonical_key) @ lam % d))


def linear_table(m, lam):
    return {p: sum(a * b for a, b in zip(lam, p)) % m.d
            for p in itertools.product(range(m.d), repeat=4)}


class TestEnumerate:
    """Every lam is a row of `kernel._grid(d, 4)[0]`, the scan's and the
    LP's list."""

    def test_counts(self):
        assert kernel._grid(3, 4)[0].shape == (81, 4)
        assert kernel._grid(5, 4)[0].shape == (625, 4)

    def test_zero_first_and_deterministic(self):
        lams = kernel._grid(3, 4)[0]
        assert lams[0].tolist() == [0, 0, 0, 0]
        assert lams[1].tolist() == [0, 0, 0, 1]
        assert lams.tolist() == [list(lam) for lam
                                 in itertools.product(range(3), repeat=4)]
        assert lams.flags.c_contiguous and not lams.flags.writeable
        assert lams.dtype == np.int32


class TestLinearityForcing:
    def test_all_linear_pass_d3(self):
        m = Modulus(3)
        for lam in kernel._grid(3, 4)[0].tolist():
            assert check_linearity_forcing(m, linear_table(m, lam))

    def test_square_candidate_fails(self):
        # lam(v) = v1^2 on the first coordinate, linear elsewhere
        m = Modulus(5)
        table = {p: (p[0] * p[0] + 2 * p[1] + p[2]) % 5
                 for p in itertools.product(range(5), repeat=4)}
        assert not check_linearity_forcing(m, table)
        name, parts, total = violated_identity(m, table)
        assert sum(table[p] for p in parts) % 5 != table[total]

    def test_constant_one_fails(self):
        m = Modulus(3)
        table = {p: 1 for p in itertools.product(range(3), repeat=4)}
        assert not check_linearity_forcing(m, table)

    def test_incomplete_probe(self):
        m = Modulus(3)
        with pytest.raises(IncompleteProbe, match=r"at \(0, 0, 0, 1\)$"):
            check_linearity_forcing(m, {(0, 0, 0, 0): 0})

    def test_identities_reference_commuting_or_derived_sums(self):
        # every identity's parts sum to its total
        m = Modulus(5)
        for name, parts, total in proof_chain_identities(m):
            acc = [0, 0, 0, 0]
            for p in parts:
                acc = [(a + b) % 5 for a, b in zip(acc, p)]
            assert tuple(acc) == tuple(c % 5 for c in total), name

    @pytest.mark.parametrize("d, digest", [
        (5, "1ac5cfd289cd2b4238aa36ca614d1cc6def5633cf668ec73b6400df4e27d860b"),
        (7, "2090536352f465b6ff3deb45ea17a58baf8a6453b354f730c7584a2cb7749ba1"),
    ], ids=["d5", "d7"])
    def test_identities_digest(self, d, digest):
        """The identities keep the names, order, totals and parts (up to
        order) recorded while each mirrored chain identity (chain-2a, 2b,
        2c, 2) was still written out by hand."""
        rows = [[name, sorted(parts), total]
                for name, parts, total in proof_chain_identities(Modulus(d))]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    def test_chain_identities_mirror_per_k(self):
        """Per k the chain runs 1a, 1b, 1c, 1 and then the same four with
        the two qudits' (p, q) pairs swapped."""
        m = Modulus(7)
        chain = [(name, parts, total)
                 for name, parts, total in proof_chain_identities(m)
                 if name.startswith("chain")]
        assert len(chain) == 8 * 7
        def swap(v):
            return (v[2], v[3], v[0], v[1])

        for k in range(7):
            block = chain[8 * k: 8 * k + 8]
            assert [name for name, _, _ in block] == [
                f"chain-{side}{step}" for side in "12"
                for step in ("a", "b", "c", "")]
            assert block[0][2] == (1, k, 0, 0)
            for (_, parts, total), (_, mparts, mtotal) in zip(block[:4],
                                                              block[4:]):
                assert mtotal == swap(total)
                assert mparts == [swap(p) for p in parts]

    def test_random_perturbations_violate(self):
        m = Modulus(5)
        rng = random.Random(0)
        points = list(itertools.product(range(5), repeat=4))
        for _ in range(100):
            lam = tuple(rng.randrange(5) for _ in range(4))
            table = linear_table(m, lam)
            victim = points[rng.randrange(1, len(points))]
            table[victim] = (table[victim] + rng.randrange(1, 5)) % 5
            assert not check_linearity_forcing(m, table)


class TestPrescribedOutcome:
    def test_zero_functional(self):
        m = Modulus(5)
        for ctx in table1_contexts(m):
            assert prescribed((0, 0, 0, 0), ctx).values == (0, 0)

    def test_dot_product_convention(self):
        # III:alpha=0,beta=2 has canonical basis row (1, 0, 2, 0), on which
        # lam = (1, 2, 3, 4) is 1 + 3*2
        m = Modulus(5)
        ctx = table1_contexts(m)[2 * 5 + 1]
        assert ctx.label == "III:alpha=0,beta=2"
        assert ctx.canonical_key[0] == (1, 0, 2, 0)
        assert prescribed((1, 2, 3, 4), ctx).values[0] == (1 + 3 * 2) % 5

    def test_family_I_example(self):
        m = Modulus(5)
        lam = (0, 1, 0, 0)
        ctx = table1_contexts(m)[2]
        assert ctx.label == "I:alpha=2"
        out = prescribed(lam, ctx)
        assert out.values == tuple(
            sum(a * b for a, b in zip(lam, row)) % 5
            for row in ctx.canonical_key)

    def test_outcome_functional_additive(self):
        # the outcome on sum(c_i b_i) is sum(c_i values[i]) = lam . point
        m = Modulus(3)
        lam = np.array((2, 1, 0, 2))
        for ctx in enumerate_contexts(m, 2)[:8]:
            out = prescribed(lam, ctx)
            for coords, coeffs in zip(ctx.elements, ctx.element_coeffs):
                assert np.dot(coeffs, out.values) % 3 == lam @ coords % 3


class TestDecide:
    def test_cs_gate_state_d3(self):
        cert = decide_strong_contextuality(state(3, "j*k^2"))
        assert cert.strongly_contextual
        assert cert.swapped  # phi1 was 0, qudits exchanged
        assert len(cert.refutations) == 81

    def test_flat_state_d5_has_witness(self):
        m = Modulus(5)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        cert = decide_strong_contextuality(st)
        assert not cert.strongly_contextual
        assert cert.witness is not None
        assert len(cert.witness.rows) == 156
        assert all(row.possible for row in cert.witness.rows)

    def test_witness_reverified_by_projector_route(self):
        """The decision derives a witness's table from lam alone, without
        asking the state again, so every row is re-checked here: each
        subspace's outcome is lam's prescribed outcome, and
        `outcome_possibility` (the enumeration at the subspace's points)
        finds it possible on the certified (reduced) state.  Inputs:
        the flat d=5 state and the d=7 witness cubic of
        tests/data/analyze_sha256.json."""
        for d, text in ((5, "0"), (7, "j^3 + 2*j^2*k + 3*k^3 + j")):
            m = Modulus(d)
            cert = decide_strong_contextuality(state(d, text))
            st = state(d, cert.normalized_phi)
            contexts = enumerate_contexts(m, 2)
            assert len(cert.witness.rows) == len(contexts)
            for row, ctx in zip(cert.witness.rows, contexts):
                outcome = prescribed(cert.witness.lam, ctx)
                assert (row.context_label, row.context_basis, row.outcome,
                        row.possible) == (ctx.display_label, ctx.canonical_key,
                                          outcome.values, True)
                assert outcome_possibility(st, outcome), (d, row)

    def test_strong_states_d5(self):
        for text in ("j^2*k", "j*k^2", "j^2*k + j*k^2", "2*j^2*k + 4*j*k^2"):
            cert = decide_strong_contextuality(state(5, text))
            assert cert.strongly_contextual, text
            assert cert.stages_used == {"proof"}

    @pytest.mark.parametrize("d, sample", [(3, None), (5, None), (11, 3)])
    def test_proof_stage_refutes_at_first_impossible_context(self, d, sample):
        """Each lam's (stage, row, outcome) is the first of its three
        `proof_stage_positions` contexts whose cell is impossible, each
        lam's cells asked on its own of `kernel.impossible`: every strong
        normal form at d = 3 and 5, and a seeded sample (forms and lam) at
        d = 11."""
        m = Modulus(d)
        rng = random.Random(d)
        forms = list(itertools.product(range(1, d), range(d)))
        lams = np.indices((d,) * 4).reshape(4, -1).T
        picked = range(len(lams))
        if sample:
            forms = rng.sample(forms, sample)
            picked = rng.sample(picked, 100)
        rows = phase_space.context_rows(m, 2)
        table1 = phase_space.table1_rows(m)[0]
        for phi1, phi2 in forms:
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, {(2, 1): phi1,
                                                        (1, 2): phi2}))
            cert = decide_strong_contextuality(st)
            tab = st.phi_table()
            sids = table1[proof_stage_positions(m, phi1, phi2, lams)]
            for i in picked:
                values = rows[sids[i]] @ lams[i] % d
                imp = hidden_vars.kernel.impossible(d, tab, rows[sids[i]],
                                                    values)
                first = int(np.argmax(imp))
                assert imp[first], (phi1, phi2, i)
                assert (cert.stages[cert.stage[i]], cert.row[i],
                        tuple(cert.outcome[i])) == (
                    "proof", sids[i, first], tuple(values[first]))

    def test_witness_below_theorem1_keeps_its_lambda(self):
        """At d = 1 (mod 3) a normal form's lam stay on the block schedule:
        the lowest survivor is still the witness."""
        cert = decide_strong_contextuality(state(7, "2*j^2*k + j*k^2"))
        assert cert.verdict == "not_strongly_contextual"
        assert cert.witness.lam == (0, 0, 0, 0)

    def test_certificate_covers_all_hidden_variables(self):
        cert = decide_strong_contextuality(state(3, "j^2*k"))
        lams = [r.lam for r in cert.refutations]
        assert lams == list(map(tuple, kernel._grid(3, 4)[0].tolist()))

    def test_refutations_built_on_request(self):
        cert = decide_strong_contextuality(state(3, "j^2*k + j*k^2"))
        assert "refutations" not in vars(cert)  # the scan keeps columns
        assert cert.stage.shape == cert.row.shape == (81,)
        assert cert.outcome.shape == (81, 2)
        refutations = cert.refutations
        assert refutations is cert.refutations  # built once
        for r, s, row, o in zip(refutations, cert.stage, cert.row,
                                cert.outcome):
            assert r.stage == cert.stages[s]
            assert (r.context_label, r.context_basis) == cert.contexts[s, row]
            assert r.outcome == tuple(o)
        assert cert.stages_used == {r.stage for r in refutations}

    def test_certificate_columns_read_only(self):
        cert = decide_strong_contextuality(state(3, "j^2*k"))
        for column in (cert.stage, cert.row, cert.outcome):
            with pytest.raises(ValueError):
                column[0] = 999

    def test_refutations_recheck_via_projector(self):
        m = Modulus(3)
        st = state(3, "j^2*k")
        cert = decide_strong_contextuality(st)
        for r in cert.refutations:
            ctx = Context([PhasePoint(m, 2, c) for c in r.context_basis])
            outcome = JointOutcome(ctx, r.outcome)
            assert not outcome_possibility(st, outcome)

    def test_full_scan_strategy_same_verdicts(self):
        for text, want in (("j^2*k", True), ("j*k + 2*j", False)):
            cert = decide_strong_contextuality(state(3, text),
                                               strategy="full_scan")
            assert cert.strongly_contextual == want
            if want:
                assert cert.stages_used == {"full"}

    def test_verdict_invariant_under_reductions(self):
        rng = random.Random(1)
        m = Modulus(3)
        for _ in range(6):
            coeffs = {(e1, e2): rng.randrange(3)
                      for e1 in range(3) for e2 in range(3) if e1 + e2 <= 3}
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            base = decide_strong_contextuality(st).verdict
            assert decide_strong_contextuality(strip_quadratic(st)).verdict == base
            assert decide_strong_contextuality(swap_qudits(st)).verdict == base

    def test_unnormalized_analysis_matches(self):
        # analyze the raw quadratic-dressed state (no reduction applied):
        # the verdict must match the reduced state's
        st = state(5, "j^2*k + 3*j*k + 2*j + 1")
        raw = decide_strong_contextuality(st, normalize=False)
        reduced = decide_strong_contextuality(st)
        assert raw.verdict == reduced.verdict == "strongly_contextual"

    def test_degenerate_states_run_via_full_scan(self):
        # local cubic only: outside the strong normal form, still decided
        cert = decide_strong_contextuality(state(5, "j^3"))
        assert not cert.strong
        assert cert.verdict in ("strongly_contextual", "not_strongly_contextual")

    @pytest.mark.parametrize("strategy", ["table1_first", "full_scan"])
    @pytest.mark.parametrize("d, text", [
        (5, "j^2*k + 2*j*k^2"),
        (5, "j^3 + j*k^2 + k^3"),
        (7, "2*j^3 + j^2*k + 3*k^3 + j"),
    ])
    def test_engine_asked_each_cell_once(self, monkeypatch, d, text,
                                         strategy):
        engine = hidden_vars.kernel.PointCounts.uniform
        asked = []

        def record(counts, points, values):
            cells = np.concatenate([points, values], axis=1)
            asked.extend(map(tuple, cells.tolist()))
            return engine(counts, points, values)

        monkeypatch.setattr(hidden_vars.kernel.PointCounts, "uniform",
                            record)
        decide_strong_contextuality(state(d, text), strategy=strategy)
        assert asked
        assert len(set(asked)) == len(asked)

    @pytest.mark.parametrize("strategy", ["table1_first", "full_scan"])
    @pytest.mark.parametrize("d, text, strong", [
        (5, "j^2*k + 2*j*k^2", True),
        (5, "j*k + 2*j", False),
        (7, "j^2*k", True),
        (7, "j^2*k + 3*j*k^2", False),
    ])
    def test_scan_builds_no_context(self, monkeypatch, d, text, strong,
                                    strategy):
        """Once a first decide at d has built the tables, the scan names
        subspaces by their rows and builds no `Context`."""
        decide_strong_contextuality(state(d, text), strategy=strategy)
        init = phase_space.Context.__init__
        built = []

        def record(ctx, *args, **kwargs):
            built.append(args)
            init(ctx, *args, **kwargs)

        monkeypatch.setattr(phase_space.Context, "__init__", record)
        cert = decide_strong_contextuality(state(d, text), strategy=strategy)
        assert cert.strongly_contextual == strong
        assert built == []

    def test_json_certificate(self):
        import json
        cert = decide_strong_contextuality(state(3, "j^2*k"))
        doc = cert.to_json_obj()
        assert doc["schema"] == "1"
        assert doc["verdict"] == "strongly_contextual"
        assert len(doc["refutations"]) == 81
        json.dumps(doc, sort_keys=True)


class TestContextualFraction:
    def test_strong_state_cf_one(self):
        m = Modulus(5)
        st = state(5, "j^2*k")
        model = build_empirical_model(st, table1_contexts(m))
        result = contextual_fraction(model)
        assert result.cf == pytest.approx(1.0, abs=1e-6)
        assert not result.weights

    def test_flat_state_cf_zero(self):
        m = Modulus(3)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        result = contextual_fraction(model)
        assert result.cf == pytest.approx(0.0, abs=1e-6)
        assert sum(result.weights.values()) == pytest.approx(1.0, abs=1e-6)

    def test_cf_matches_decision(self):
        """cf over all contexts is 1 iff the decision says strong: at d=3,
        and at d=5 for a strong normal form, cubics ending in a table-1
        refutation and in a witness, and a quadratic."""
        cases = [(3, "j^2*k", True), (3, "j*k", False),
                 (3, "j*k^2 + j*k", True), (5, "j^2*k + 2*j*k^2", True),
                 (5, "j^3 + k^3", True), (5, "2*j^3 + j*k", False),
                 (5, "j^2 + 3*k^2 + j*k", False)]
        for d, text, strong in cases:
            st = state(d, text)
            model = build_empirical_model(st, enumerate_contexts(Modulus(d), 2))
            cf = contextual_fraction(model).cf
            cert = decide_strong_contextuality(st)
            assert cert.strongly_contextual == strong, text
            assert (abs(cf - 1.0) < 1e-6) == strong, text

    def test_model_rows_built_on_request(self):
        """The CLI's model and cf paths read the arrays only."""
        m = Modulus(5)
        model = build_empirical_model(state(5, "j*k + 2*j"),
                                      enumerate_contexts(m, 2))
        model.to_csv()
        model.to_json_obj()
        result = contextual_fraction(model)
        assert "rows" not in vars(model)
        assert result.weights and all(
            type(lam) is tuple and len(lam) == 4 for lam in result.weights)

    def test_monotone_in_contexts(self):
        # more contexts, more constraints: cf cannot drop
        for d, text in ((3, "j^2*k + j*k"), (5, "j*k + 2*j")):
            m = Modulus(d)
            st = state(d, text)
            t1 = contextual_fraction(build_empirical_model(
                st, table1_contexts(m))).cf
            full = contextual_fraction(build_empirical_model(
                st, enumerate_contexts(m, 2))).cf
            assert full >= t1 - 1e-7

    @pytest.mark.parametrize("family", ["table1", "full"])
    def test_consistency_matrix_matches_loop(self, family):
        """The LP's 0/1 matrix, `_incidence` of `_prescribed_cells`, has a
        1 at (c * d^2 + o, l) iff the l-th lam prescribes outcome o on
        context c."""
        m = Modulus(3)
        contexts = table1_contexts(m) if family == "table1" \
            else enumerate_contexts(m, 2)
        outcomes = list(itertools.product(range(3), repeat=2))
        lams = kernel._grid(3, 4)[0].tolist()
        expected = np.zeros((len(contexts) * 9, len(lams)))
        for ci, ctx in enumerate(contexts):
            for li, lam in enumerate(lams):
                values = tuple(sum(a * b for a, b in zip(lam, row)) % 3
                               for row in ctx.canonical_key)
                expected[ci * 9 + outcomes.index(values), li] = 1.0
        keys = np.array([ctx.canonical_key for ctx in contexts])
        A = hidden_vars._incidence(hidden_vars._prescribed_cells(3, keys),
                                   len(contexts) * 9)
        assert A.shape == expected.shape
        assert np.array_equal(A.toarray(), expected)

    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2])
    def test_prescribed_cells_match_matmul_formula(self, d, n):
        """The cells, built by outer sum over the two halves of lam, equal
        d^(n-1..0) @ (keys @ lams.T % d) + d^n * (context index) over
        every lam: for full and Table-1 contexts and a reversed subset."""
        m = Modulus(d)
        full = enumerate_contexts(m, n)
        pools = [full, full[::-3]] + ([table1_contexts(m)] if n == 2 else [])
        lams = np.array(list(itertools.product(range(d), repeat=2 * n)))
        for contexts in pools:
            keys = np.array([c.canonical_key for c in contexts])
            expected = d ** np.arange(n - 1, -1, -1) @ (keys @ lams.T % d) \
                + d ** n * np.arange(len(contexts))[:, None]
            cells = hidden_vars._prescribed_cells(d, keys)
            assert cells.dtype == np.int32
            assert np.array_equal(cells, expected)

    def test_cell_dtype_widens_past_int32(self):
        """Cell indices are int32 while the largest, (contexts * d^n) - 1,
        fits, and int64 past 2^31 (checked without building the cells)."""
        d, n = 11, 2
        count = 2 ** 31 // d ** n + 1
        assert (count - 1) * d ** n - 1 < 2 ** 31 <= count * d ** n - 1
        assert hidden_vars._cell_dtype((count - 1) * d ** n) is np.int32
        assert hidden_vars._cell_dtype(count * d ** n) is np.int64
        assert hidden_vars._cell_dtype(2 ** 31) is np.int32
        assert hidden_vars._cell_dtype(2 ** 31 + 1) is np.int64

    def test_infeasible_model_names_first_bad_context(self):
        m = Modulus(3)
        st = state(3, "j^2*k")
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        probability = model.probability.copy()
        probability[[4, 7], 0] += 0.5  # outcome (0, 0)
        with pytest.raises(InfeasibleModel, match=r"context 4 probabilities "
                                                  r"sum to 1\.5"):
            contextual_fraction(dataclasses.replace(model,
                                                    probability=probability))

    @pytest.mark.parametrize("d, text, family", [
        (3, "j*k^2 + j*k", "full"), (3, "j*k + 2*j", "full"),
        (5, "2*j^3 + j*k", "table1"), (5, "2*j^3 + j*k", "full"),
        (5, "j^2 + 3*k^2 + j*k", "full"), (5, "j^2*k + 2*j*k^2", "table1"),
    ], ids=["d3-strong", "d3-quadratic", "d5-cubic-table1", "d5-cubic-full",
            "d5-quadratic", "d5-strong-table1"])
    def test_pruned_lp_matches_unpruned_oracle(self, d, text, family):
        """The LP over the support gives the cf and weights of the LP over
        all d^4 lam, solved here from the whole consistency matrix."""
        m = Modulus(d)
        contexts = table1_contexts(m) if family == "table1" \
            else enumerate_contexts(m, 2)
        model = build_empirical_model(state(d, text), contexts)
        keys = np.array([ctx.canonical_key for ctx in contexts])
        A = hidden_vars._incidence(hidden_vars._prescribed_cells(d, keys),
                                   len(contexts) * d ** 2)
        res = linprog(c=-np.ones(d ** 4),
                      b_ub=np.maximum(model.probability.ravel(), 0.0),
                      A_ub=A, bounds=(0, None), method="highs")
        assert res.status == 0
        oracle = {lam: w for lam, w in zip(
            itertools.product(range(d), repeat=4), res.x) if w > 1e-9}
        result = contextual_fraction(model)
        assert result.cf == pytest.approx(1.0 - res.x.sum(), abs=1e-9)
        assert result.weights.keys() == oracle.keys()
        for lam, w in oracle.items():
            assert result.weights[lam] == pytest.approx(w, abs=1e-9)
        if (d, text, family) == (5, "2*j^3 + j*k", "table1"):
            assert result.cf == pytest.approx(0.6180339887, abs=1e-9)
            assert len(result.weights) == 25

    def test_strong_model_skips_lp(self, monkeypatch):
        """No lam survives a strongly contextual model's support, so cf is
        exactly 1 and no LP runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called")

        model = build_empirical_model(state(5, "j^2*k + 2*j*k^2 + j*k"),
                                      enumerate_contexts(Modulus(5), 2))
        monkeypatch.setattr(hidden_vars, "linprog", refuse)
        result = contextual_fraction(model)
        assert result.cf == 1.0
        assert result.weights == {}

    def test_no_contexts_rejected(self):
        model = build_empirical_model(state(3, "j*k"), [])
        with pytest.raises(MalformedInput, match="no contexts"):
            contextual_fraction(model)

    def test_nonlinear_assignments_never_everywhere_possible(self):
        # sampled non-linear global assignments restrict non-additively to
        # some context, so the LP's linear-only variable set loses nothing
        m = Modulus(3)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        contexts = enumerate_contexts(m, 2)
        rng = random.Random(2)
        points = list(itertools.product(range(3), repeat=4))
        for _ in range(50):
            lam = tuple(rng.randrange(3) for _ in range(4))
            table = linear_table(m, lam)
            victim = points[rng.randrange(1, len(points))]
            table[victim] = (table[victim] + rng.randrange(1, 3)) % 3
            additive_everywhere = True
            for ctx in contexts:
                for coords, coeffs in zip(ctx.elements, ctx.element_coeffs):
                    expected = sum(c * table[b.coords] for c, b in
                                   zip(coeffs, ctx.canonical_basis)) % 3
                    if table[coords] != expected:
                        additive_everywhere = False
                        break
                if not additive_everywhere:
                    break
            assert not additive_everywhere
