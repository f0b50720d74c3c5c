import io
import itertools
import json
import random

import numpy as np
import pytest

from stabctx import dense, kernel
from stabctx.born import (
    IncompatibleContext,
    JointOutcome,
    NonCommuting,
    RootMultiset,
    build_empirical_model,
    impossibility_by_psi,
    master_polynomial,
    outcome_possibility,
    psi_type_I,
    psi_type_II,
    psi_type_III,
)
from stabctx.phase_space import Context, PhasePoint, enumerate_contexts, \
    table1_contexts
from stabctx.states import PhaseFunctionState
from stabctx.zmod import MalformedInput, Modulus, ZdPoly, inv, parse_poly


def state(d, text):
    m = Modulus(d)
    return PhaseFunctionState(m, 2, parse_poly(text, m))


def random_state(m, rng, max_degree=3):
    coeffs = {}
    for e1 in range(4):
        for e2 in range(4):
            if 0 < e1 + e2 <= max_degree:
                coeffs[(e1, e2)] = rng.randrange(m.d)
    coeffs[(0, 0)] = rng.randrange(m.d)
    return PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))


class TestRootMultiset:
    def test_uniform_is_zero_sum(self):
        m = Modulus(5)
        rm = RootMultiset(m, (5, 5, 5, 5, 5))
        assert rm.is_zero_sum()
        assert abs(rm.numeric_sum()) < 1e-9

    def test_nonuniform_is_not(self):
        m = Modulus(5)
        rm = RootMultiset(m, (6, 5, 5, 5, 4))
        assert not rm.is_zero_sum()
        assert abs(rm.numeric_sum()) > 1e-9

    def test_zero_sum_iff_numeric_vanishes_on_real_expansions(self):
        # multisets produced by actual projector expansions at d=3,5
        rng = random.Random(0)
        checked = 0
        for d in (3, 5):
            m = Modulus(d)
            contexts = enumerate_contexts(m, 2)
            while checked < (500 if d == 3 else 1000):
                st = random_state(m, rng)
                ctx = contexts[rng.randrange(len(contexts))]
                outcome = JointOutcome(ctx, (rng.randrange(d), rng.randrange(d)))
                res = outcome_possibility(st, outcome)
                for rm in res.per_ket:
                    assert rm.is_zero_sum() == (abs(rm.numeric_sum()) < 1e-9)
                    checked += 1

    def test_merge(self):
        m = Modulus(3)
        a = RootMultiset(m, (1, 0, 2))
        b = RootMultiset(m, (2, 3, 1))
        assert a.merge(b).counts == (3, 3, 3)
        assert a.merge(b).is_zero_sum()

    def test_fractional_count_rejected(self):
        # once stored as (1, 1, 1, 1, 1), a uniform orbit
        with pytest.raises(MalformedInput):
            RootMultiset(Modulus(5), (1, 1, 1, 1, 1.9))

    def test_generator_counts_read_once(self):
        m = Modulus(5)
        rm = RootMultiset(m, (c for c in (6, 5, 5, 5, 4)))
        assert rm.counts == (6, 5, 5, 5, 4)
        assert rm == RootMultiset(m, np.array([6, 5, 5, 5, 4]))


class TestOutcomePossibility:
    @pytest.mark.parametrize("values", [(1.5, 0), ("1", 0)])
    def test_non_integer_outcome_rejected(self, values):
        # (1.5, 0) was once read as (1, 0); ("1", 0) raised a bare TypeError
        ctx = enumerate_contexts(Modulus(5), 2)[7]
        with pytest.raises(MalformedInput):
            JointOutcome(ctx, values)

    def test_flat_state_computational_context(self):
        # |+>|+> against {Z x I, I x Z}: every outcome possible, prob 1/9
        m = Modulus(3)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        ctx = Context([PhasePoint(m, 2, (1, 0, 0, 0)),
                       PhasePoint(m, 2, (0, 0, 1, 0))])
        outcome = JointOutcome(ctx, (0, 0))
        res = outcome_possibility(st, outcome)
        assert res.possible
        proj = dense.outcome_projector(ctx, (0, 0))
        vec = dense.phase_state_vector(m, st.phi)
        assert np.linalg.norm(proj @ vec) ** 2 == pytest.approx(1 / 9, abs=1e-9)

    def test_frozen_impossible_instance(self):
        # normal form of the d=3 controlled-phase magic state, against the
        # family-III context with alpha=0, beta=1 and the joint outcome (0,0)
        # prescribed by the surviving assignment lam=(1,2,2,2)
        m = Modulus(3)
        st = state(3, "j^2*k")
        ctx = Context([PhasePoint(m, 2, (1, 0, 1, 0)),
                       PhasePoint(m, 2, (0, 1, 0, 2))],
                      label="III:alpha=0,beta=1")
        outcome = JointOutcome(ctx, (0, 0))
        res = outcome_possibility(st, outcome)
        assert not res.possible
        assert all(rm.is_zero_sum() for rm in res.per_ket)
        # dense cross-check
        proj = dense.outcome_projector(ctx, (0, 0))
        vec = dense.phase_state_vector(m, st.phi)
        assert np.linalg.norm(proj @ vec) < 1e-9
        # psi route agrees
        assert impossibility_by_psi(st, outcome)

    def test_per_ket_totals(self):
        m = Modulus(3)
        st = state(3, "j*k^2 + j")
        ctx = enumerate_contexts(m, 2)[7]
        outcome = JointOutcome(ctx, (1, 2))
        res = outcome_possibility(st, outcome)
        assert len(res.per_ket) == 9
        assert all(rm.total() == 9 for rm in res.per_ket)

    def test_resolution_of_identity_counts(self):
        # summing multisets over all joint outcomes: every root appears
        # (d^n - 1) * d^(n-1) times, plus d^n extra at the state's own phase
        rng = random.Random(1)
        for d in (3, 5):
            m = Modulus(d)
            contexts = enumerate_contexts(m, 2)
            for _ in range(3):
                st = random_state(m, rng)
                ctx = contexts[rng.randrange(len(contexts))]
                merged = None
                for o in itertools.product(range(d), repeat=2):
                    res = outcome_possibility(st, JointOutcome(ctx, o))
                    if merged is None:
                        merged = list(res.per_ket)
                    else:
                        merged = [a.merge(b) for a, b in zip(merged, res.per_ket)]
                for ket_index, rm in enumerate(merged):
                    j, k = divmod(ket_index, d)
                    phase = st.phi.evaluate((j, k))
                    base = (d * d - 1) * d
                    want = tuple(base + (d * d if t == phase else 0)
                                 for t in range(d))
                    assert rm.counts == want

    def test_incompatible_context(self):
        st = state(3, "j*k")
        ctx5 = enumerate_contexts(Modulus(5), 2)[0]
        with pytest.raises(IncompatibleContext):
            outcome_possibility(st, JointOutcome(ctx5, (0, 0)))

    def test_single_qudit_state(self):
        m = Modulus(5)
        st = PhaseFunctionState(m, 1, parse_poly("x^3", m, variables=("x",)))
        ctx = enumerate_contexts(m, 1)[0]
        res = outcome_possibility(st, JointOutcome(ctx, (0,)))
        assert len(res.per_ket) == 5
        assert all(rm.total() == 5 for rm in res.per_ket)


class TestMasterPolynomial:
    def test_flat_state_zero_outcome(self):
        m = Modulus(5)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        u = PhasePoint(m, 2, (1, 0, 0, 0))
        v = PhasePoint(m, 2, (0, 0, 1, 0))
        for j in range(5):
            for k in range(5):
                psi = master_polynomial(st, u, v, 0, 0, j, k)
                assert psi.coeffs == ZdPoly(m, 2, {(1, 0): j, (0, 1): k}).coeffs
        # at j = k = 0 the polynomial is constant: the outcome is possible
        psi00 = master_polynomial(st, u, v, 0, 0, 0, 0)
        assert psi00.is_zero()

    def test_noncommuting_rejected(self):
        m = Modulus(5)
        st = state(5, "j^2*k")
        with pytest.raises(NonCommuting):
            master_polynomial(st, PhasePoint(m, 2, (1, 0, 0, 0)),
                              PhasePoint(m, 2, (0, 1, 0, 0)), 0, 0, 0, 0)

    @pytest.mark.parametrize("d", [5, 11])
    def test_family_displays_match_up_to_constants(self, d):
        # the reference family polynomials equal the master polynomial up to
        # a term constant in (x, y)
        m = Modulus(d)
        rng = random.Random(d)
        for _ in range(60):
            phi1 = rng.randrange(d)
            phi2 = rng.randrange(d)
            st = PhaseFunctionState(
                m, 2, ZdPoly(m, 2, {(2, 1): phi1, (1, 2): phi2}))
            lam = tuple(rng.randrange(d) for _ in range(4))
            j, k = rng.randrange(d), rng.randrange(d)
            alpha = rng.randrange(d)
            beta = rng.randrange(1, d)
            cases = [
                ((1, 0, 0, 0), (0, 0, alpha, 1),
                 psi_type_I(m, phi1, phi2, lam, alpha, j, k)),
                ((0, 0, 1, 0), (alpha, 1, 0, 0),
                 psi_type_II(m, phi1, phi2, lam, alpha, j, k)),
                ((1, 0, beta, 0), (0, 1, alpha, -inv(beta, m)),
                 psi_type_III(m, phi1, phi2, lam, alpha, beta, j, k)),
            ]
            for ucoords, vcoords, reference in cases:
                u = PhasePoint(m, 2, ucoords)
                v = PhasePoint(m, 2, vcoords)
                A = sum(a * b for a, b in zip(lam, u.coords)) % d
                B = sum(a * b for a, b in zip(lam, v.coords)) % d
                diff = master_polynomial(st, u, v, A, B, j, k) - reference
                assert diff.degree() <= 0, (ucoords, vcoords)


class TestPsiRouteAgreement:
    @pytest.mark.parametrize("d", [3, 5])
    def test_agrees_with_projector_route(self, d):
        m = Modulus(d)
        rng = random.Random(d + 10)
        contexts = enumerate_contexts(m, 2)
        for _ in range(40):
            st = random_state(m, rng)
            ctx = contexts[rng.randrange(len(contexts))]
            outcome = JointOutcome(ctx, (rng.randrange(d), rng.randrange(d)))
            assert impossibility_by_psi(st, outcome) == \
                (not outcome_possibility(st, outcome).possible)

    def test_flat_state_zero_outcome_possible(self):
        m = Modulus(3)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        for ctx in enumerate_contexts(m, 2):
            assert not impossibility_by_psi(st, JointOutcome(ctx, (0, 0)))


class TestEmpiricalModel:
    def test_probabilities_sum_to_one(self):
        m = Modulus(3)
        st = state(3, "j*k^2")
        contexts = table1_contexts(m)
        model = build_empirical_model(st, contexts)
        assert model.probability.shape == (len(contexts), 9)
        assert model.probability.sum(axis=1) == pytest.approx(1.0, abs=1e-9)

    def test_possible_iff_probability_above_tolerance(self):
        m = Modulus(3)
        st = state(3, "j*k^2 + 2*j*k")
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        for (ci, o), row in model.rows.items():
            assert row.possible == (row.probability > 1e-9)

    def test_flat_state_nonsignalling_over_all_contexts(self):
        m = Modulus(3)
        st = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        assert model.nonsignalling_defect() < 1e-9

    def test_strong_state_has_impossible_outcome_in_table1(self):
        m = Modulus(5)
        st = state(5, "j^2*k + 2*j*k^2")
        model = build_empirical_model(st, table1_contexts(m))
        assert any(not row.possible for row in model.rows.values())

    def test_arrays_read_only(self):
        model = build_empirical_model(state(3, "j^2*k"), enumerate_contexts(
            Modulus(3), 2))
        for table in (model.possible, model.probability):
            with pytest.raises(ValueError):
                table[0, 0] = 0
        assert model.possible.dtype == bool

    def test_arrays_match_rows(self):
        m = Modulus(3)
        model = build_empirical_model(state(3, "j*k^2 + 2*j*k"),
                                      enumerate_contexts(m, 2))
        assert "rows" not in vars(model)
        rows = model.rows
        assert rows is model.rows  # built once
        for (ci, o), row in rows.items():
            col = o[0] * 3 + o[1]
            assert row == model.row(ci, o)
            assert row.possible == model.possible[ci, col]
            assert row.probability == model.probability[ci, col]

    def test_row_rejects_cells_outside_the_model(self):
        m = Modulus(3)
        model = build_empirical_model(state(3, "j^2*k"), table1_contexts(m))
        assert model.row(0, (4, -1)) == model.row(0, (1, 2))
        for ci, values in ((len(model.contexts), (0, 0)), (-1, (0, 0)),
                           (0, (0,)), (0, (0, 0, 0))):
            with pytest.raises(MalformedInput):
                model.row(ci, values)
        point = PhasePoint(m, 2, model.contexts[-1].elements[1])
        for ci in (-1, len(model.contexts)):
            with pytest.raises(MalformedInput):
                model.marginal(ci, point, 0)

    def test_row_rejects_non_integer_outcome(self):
        model = build_empirical_model(state(3, "j^2*k"),
                                      table1_contexts(Modulus(3)))
        with pytest.raises(MalformedInput):
            model.row(0, (1.5, 0))

    def test_marginal_rejects_non_integer_value(self):
        m = Modulus(3)
        model = build_empirical_model(state(3, "j^2*k"), table1_contexts(m))
        point = PhasePoint(m, 2, model.contexts[0].elements[1])
        with pytest.raises(MalformedInput):
            model.marginal(0, point, 1.5)

    def test_marginals_match_cell_loop(self):
        m = Modulus(3)
        st = state(3, "j^2*k + j*k^2 + 2*k")
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        for ci in range(0, len(model.contexts), 5):
            ctx = model.contexts[ci]
            for coords, coeffs in zip(ctx.elements, ctx.element_coeffs):
                pt = PhasePoint(m, 2, coords)
                for value in range(3):
                    loop = sum(model.rows[ci, o].probability
                               for o in model.outcomes()
                               if sum(c * v for c, v in zip(coeffs, o)) % 3
                               == value)
                    assert model.marginal(ci, pt, value) == \
                        pytest.approx(loop, abs=1e-12)
        assert model.nonsignalling_defect() < 1e-9

    def test_marginal_rejects_point_of_another_system(self):
        model = build_empirical_model(state(3, "j^2*k"),
                                      enumerate_contexts(Modulus(3), 2))
        mine = PhasePoint(Modulus(3), 2, (1, 0, 0, 0))
        ci = next(i for i, ctx in enumerate(model.contexts)
                  if mine.coords in ctx.elements)
        assert model.marginal(ci, mine, 0) == pytest.approx(1 / 3)
        for other in (PhasePoint(Modulus(5), 2, (1, 0, 0, 0)),
                      PhasePoint(Modulus(3), 1, (1, 0))):
            with pytest.raises(IncompatibleContext):
                model.marginal(ci, other, 0)

    def test_csv_export(self):
        m = Modulus(3)
        st = state(3, "j*k^2")
        contexts = table1_contexts(m)[:3]
        model = build_empirical_model(st, contexts)
        text = model.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "context,outcome,possible,probability"
        assert len(lines) == 1 + 3 * 9
        first = lines[1].split(",")
        assert first[0] == "I:alpha=0"
        assert first[1] == "0;0"
        assert first[2] in ("true", "false")
        float(first[3])
        out = io.StringIO()
        assert model.to_csv(out) is None
        assert out.getvalue() == text

    def test_json_export_carries_witnesses(self):
        m = Modulus(3)
        st = state(3, "j^2*k")
        model = build_empirical_model(st, enumerate_contexts(m, 2))
        doc = model.to_json_obj()
        assert doc["schema"] == "1"
        impossible = [r for r in doc["rows"] if not r["possible"]]
        assert impossible, "a strong state must have impossible outcomes"
        for r in impossible:
            witness = r["zero_sum_witness"]
            assert len(witness) == 9
            for counts in witness:
                assert len(set(counts)) == 1  # uniform orbit per ket
        json.dumps(doc)  # serializable

    @pytest.mark.parametrize("d", [3, 5])
    def test_witness_is_the_engine_counts(self, d):
        """Every impossible outcome's counts are the uniform table the JSON
        writes: d^n kets, each with all d counts d^(n-1)."""
        m = Modulus(d)
        st = state(d, "j^2*k + 2*j*k^2")
        contexts = enumerate_contexts(m, 2)
        model = build_empirical_model(st, contexts)
        ci, col = np.argwhere(~model.possible)[::7].T
        counts = kernel.residue_counts(
            d, st.phi_table(), [contexts[c].canonical_key for c in ci],
            np.stack([col // d, col % d], axis=1))
        assert counts.size and (counts == d).all()
        witnesses = [r["zero_sum_witness"] for r in model.to_json_obj()["rows"]
                     if not r["possible"]]
        assert witnesses and all(w == ((d,) * d,) * d * d for w in witnesses)

    def test_projector_idempotent_and_orthogonal(self):
        m = Modulus(3)
        ctx = enumerate_contexts(m, 2)[11]
        projs = [dense.outcome_projector(ctx, o)
                 for o in itertools.product(range(3), repeat=2)]
        for i, p in enumerate(projs):
            assert np.allclose(p @ p, p, atol=1e-9)
            for q in projs[i + 1:]:
                assert np.allclose(p @ q, 0, atol=1e-9)
        assert np.allclose(sum(projs), np.eye(9), atol=1e-9)


def dense_probability(st, ctx, values):
    psi = dense.phase_state_vector(st.modulus, st.phi)
    return float(np.linalg.norm(dense.outcome_projector(ctx, values) @ psi) ** 2)


class TestBornFromCounts:
    """Probabilities from the engine's counts against the dense projector
    oracle, and the blocking of contexts into the engine's gathers."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_dense_projector_on_every_cell(self, d):
        m = Modulus(d)
        st = random_state(m, random.Random(d))
        contexts = enumerate_contexts(m, 2)
        model = build_empirical_model(st, contexts)
        assert len(model.rows) == len(contexts) * d * d
        for (ci, o), row in model.rows.items():
            assert abs(row.probability
                       - dense_probability(st, contexts[ci], o)) <= 1e-12
        impossible = model.probability[~model.possible]
        assert impossible.size and (impossible == 0.0).all()

    def test_matches_dense_projector_single_qudit(self):
        m = Modulus(5)
        st = PhaseFunctionState(m, 1, parse_poly("2*j^3 + j^2 + 3*j", m,
                                                 variables=("j",)))
        contexts = enumerate_contexts(m, 1)
        model = build_empirical_model(st, contexts)
        assert len(model.rows) == len(contexts) * 5
        for (ci, o), row in model.rows.items():
            assert abs(row.probability
                       - dense_probability(st, contexts[ci], o)) <= 1e-12
            assert row.possible == (row.probability > 1e-9)
            assert row.possible or row.probability == 0.0

    def test_blocks_match_one_context_per_block(self):
        m = Modulus(5)
        st = state(5, "j^3 + 2*j^2*k + k^2 + j")
        contexts = enumerate_contexts(m, 2)
        assert len(contexts) > kernel.CHUNK // 5 ** 5  # spans two gathers
        model = build_empirical_model(st, contexts)
        for ci, ctx in enumerate(contexts):
            single = build_empirical_model(st, [ctx])
            for o in model.outcomes():
                assert model.rows[(ci, o)] == single.rows[(0, o)]

    def test_empty_context_list(self):
        st = state(5, "j^2*k")
        model = build_empirical_model(st, [])
        assert model.contexts == () and model.rows == {}
        assert model.to_csv() == "context,outcome,possible,probability\n"
        assert model.to_json_obj()["rows"] == []
