import itertools
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from stabctx import hidden_vars
from stabctx.born import EmpiricalModel, JointOutcome, \
    build_empirical_model, outcome_possibility
from stabctx.hidden_vars import (
    HiddenVariable,
    IncompleteProbe,
    InfeasibleModel,
    check_linearity_forcing,
    consistency_matrix,
    contextual_fraction,
    decide_strong_contextuality,
    enumerate_linear_hv,
    prescribed_outcome,
    proof_chain_identities,
    violated_identity,
)
from stabctx.phase_space import Context, PhasePoint, enumerate_contexts, \
    table1_contexts
from stabctx.states import PhaseFunctionState, strip_quadratic, swap_qudits
from stabctx.zmod import MalformedInput, Modulus, ZdPoly, parse_poly


def state(d, text):
    m = Modulus(d)
    return PhaseFunctionState(m, 2, parse_poly(text, m))


def linear_table(m, lam):
    return {p: sum(a * b for a, b in zip(lam, p)) % m.d
            for p in itertools.product(range(m.d), repeat=4)}


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_linear_hv(Modulus(3), 2)) == 81
        assert len(enumerate_linear_hv(Modulus(5), 2)) == 625

    def test_zero_first_and_deterministic(self):
        hvs = enumerate_linear_hv(Modulus(3), 2)
        assert hvs[0].lam == (0, 0, 0, 0)
        assert hvs[1].lam == (0, 0, 0, 1)
        assert hvs == enumerate_linear_hv(Modulus(3), 2)

    @pytest.mark.parametrize("component", [1.5, "1"])
    def test_rejects_non_integer_components(self, component):
        with pytest.raises(MalformedInput):
            HiddenVariable(Modulus(5), 2, (component, 0, 0, 0))


class TestLinearityForcing:
    def test_all_linear_pass_d3(self):
        m = Modulus(3)
        for hv in enumerate_linear_hv(m, 2):
            assert check_linearity_forcing(m, linear_table(m, hv.lam))

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
        hv = HiddenVariable(m, 2, (0, 0, 0, 0))
        for ctx in table1_contexts(m):
            assert prescribed_outcome(hv, ctx).values == (0, 0)

    def test_dot_product_convention(self):
        m = Modulus(5)
        hv = HiddenVariable(m, 2, (1, 2, 3, 4))
        assert hv.outcome((1, 0, 2, 0)) == (1 + 3 * 2) % 5

    def test_family_I_example(self):
        m = Modulus(5)
        hv = HiddenVariable(m, 2, (0, 1, 0, 0))
        ctx = table1_contexts(m)[2]
        assert ctx.label == "I:alpha=2"
        out = prescribed_outcome(hv, ctx)
        assert out.values == tuple(hv.outcome(b.coords)
                                   for b in ctx.canonical_basis)

    def test_outcome_functional_additive(self):
        m = Modulus(3)
        hv = HiddenVariable(m, 2, (2, 1, 0, 2))
        for ctx in enumerate_contexts(m, 2)[:8]:
            out = prescribed_outcome(hv, ctx)
            for coords, coeffs in zip(ctx.elements, ctx.element_coeffs):
                assert out.of_element(coeffs) == hv.outcome(coords)


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
        m = Modulus(5)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        cert = decide_strong_contextuality(st)
        hv = HiddenVariable(m, 2, cert.witness.lam)
        for ctx in enumerate_contexts(m, 2)[::13]:
            outcome = prescribed_outcome(hv, ctx)
            assert outcome_possibility(st, outcome).possible

    def test_strong_states_d5(self):
        for text in ("j^2*k", "j*k^2", "j^2*k + j*k^2", "2*j^2*k + 4*j*k^2"):
            cert = decide_strong_contextuality(state(5, text))
            assert cert.strongly_contextual, text
            assert cert.stages_used == {"proof"}

    def test_certificate_covers_all_hidden_variables(self):
        cert = decide_strong_contextuality(state(3, "j^2*k"))
        lams = [r.lam for r in cert.refutations]
        assert lams == [hv.lam for hv in enumerate_linear_hv(Modulus(3), 2)]

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
            assert not outcome_possibility(st, outcome).possible

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
        engine = hidden_vars.kernel.PointCounts.impossible
        asked = []

        def record(counts, gens, values):
            cells = np.concatenate(
                [np.reshape(gens, (len(gens), -1)), values], axis=1)
            asked.extend(map(tuple, cells.tolist()))
            return engine(counts, gens, values)

        monkeypatch.setattr(hidden_vars.kernel.PointCounts, "impossible",
                            record)
        decide_strong_contextuality(state(d, text), strategy=strategy)
        assert asked
        assert len(set(asked)) == len(asked)

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
        m = Modulus(3)
        contexts = table1_contexts(m) if family == "table1" \
            else enumerate_contexts(m, 2)
        outcomes = list(itertools.product(range(3), repeat=2))
        lams = enumerate_linear_hv(m, 2)
        expected = np.zeros((len(contexts) * 9, len(lams)))
        for ci, ctx in enumerate(contexts):
            rows = [b.coords for b in ctx.canonical_basis]
            for li, hv in enumerate(lams):
                values = tuple(hv.outcome(r) for r in rows)
                expected[ci * 9 + outcomes.index(values), li] = 1.0
        A = consistency_matrix(m, 2, contexts)
        assert A.shape == expected.shape
        assert np.array_equal(A.toarray(), expected)

    def test_infeasible_model_names_first_bad_context(self):
        m = Modulus(3)
        st = state(3, "j^2*k")
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        probability = model.probability.copy()
        probability[[4, 7], 0] += 0.5  # outcome (0, 0)
        with pytest.raises(InfeasibleModel, match=r"context 4 probabilities "
                                                  r"sum to 1\.5"):
            contextual_fraction(EmpiricalModel(st, model.contexts,
                                               model.possible, probability))

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
        res = linprog(c=-np.ones(d ** 4),
                      b_ub=np.maximum(model.probability.ravel(), 0.0),
                      A_ub=consistency_matrix(m, 2, contexts),
                      bounds=(0, None), method="highs")
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
