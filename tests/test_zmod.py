import doctest
import io
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stabctx.zmod
from stabctx import dense, kernel
from stabctx.born import IncompatibleContext, JointOutcome, ScaleError, \
    build_empirical_model, impossibility_by_psi, \
    master_polynomial, outcome_possibility, psi_type_I
from stabctx.hidden_vars import check_linearity_forcing, \
    contextual_fraction, decide_strong_contextuality, proof_chain_identities, \
    proof_stage_positions, write_certificate
from stabctx.phase_space import Context, DimensionMismatch, PhasePoint, \
    UnsupportedScale, context_rows, enumerate_contexts, span_labels, \
    symplectic_product, table1_contexts, table1_rows
from stabctx.states import OracleScaleExceeded, PhaseFunctionState, \
    diagonal_gate_level, strip_quadratic, strongness, swap_qudits, \
    verify_level_by_conjugation
from stabctx.zmod import (
    ArityMismatch,
    DicksonClassification,
    MalformedInput,
    Modulus,
    PolyParseError,
    StabctxError,
    UnsupportedModulus,
    ZdPoly,
    ZeroInverse,
    dickson_classify,
    inv,
    is_permutation_polynomial,
    parse_poly,
)


def poly1(m, *coeffs):
    """Single-variable polynomial from (exponent, coeff) pairs."""
    return ZdPoly(m, 1, {(e,): c for e, c in coeffs})


class TestModulus:
    def test_accepts_odd_primes(self):
        for d in (3, 5, 7, 11, 13):
            assert Modulus(d).d == d

    @pytest.mark.parametrize("bad", [1, 2, 4, 6, 9, 15, 21, -3, 0])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(UnsupportedModulus):
            Modulus(bad)

    def test_inv2(self):
        for d in (3, 5, 7, 11):
            assert 2 * Modulus(d).inv2 % d == 1


class TestInv:
    def test_inv_2_mod_5(self):
        assert inv(2, Modulus(5)) == 3

    def test_inv_identity(self):
        assert inv(1, Modulus(7)) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroInverse):
            inv(0, Modulus(5))

    def test_inv_exhaustive(self):
        for d in (3, 5, 7, 11):
            m = Modulus(d)
            for a in range(1, d):
                assert a * inv(a, m) % d == 1


class TestEval:
    def test_example_j2k(self):
        m = Modulus(3)
        p = ZdPoly(m, 2, {(2, 1): 1})
        assert p.evaluate((2, 2)) == 2

    def test_zero_poly(self):
        m = Modulus(5)
        p = ZdPoly.zero(m, 2)
        for pt in itertools.product(range(5), repeat=2):
            assert p.evaluate(pt) == 0

    def test_cube(self):
        m = Modulus(5)
        p = ZdPoly(m, 1, {(3,): 1})
        assert p.evaluate((2,)) == 3

    def test_arity_mismatch(self):
        m = Modulus(5)
        p = ZdPoly(m, 2, {(1, 1): 1})
        with pytest.raises(ArityMismatch):
            p.evaluate((1,))


class TestRingOps:
    def test_canonical_form_drops_zeros(self):
        m = Modulus(5)
        p = ZdPoly(m, 1, {(2,): 5, (1,): 3})
        assert (2,) not in p.coeffs
        assert p.coeff((1,)) == 3

    def test_add_mul_against_evaluation(self):
        rng = random.Random(0)
        m = Modulus(7)
        for _ in range(50):
            a = ZdPoly(m, 2, {(rng.randrange(3), rng.randrange(3)): rng.randrange(7)
                              for _ in range(4)})
            b = ZdPoly(m, 2, {(rng.randrange(3), rng.randrange(3)): rng.randrange(7)
                              for _ in range(4)})
            pt = (rng.randrange(7), rng.randrange(7))
            assert (a + b).evaluate(pt) == (a.evaluate(pt) + b.evaluate(pt)) % 7
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt) % 7
            assert (a - b).evaluate(pt) == (a.evaluate(pt) - b.evaluate(pt)) % 7

    def test_substitute_matches_composition(self):
        m = Modulus(5)
        phi = parse_poly("j^2*k + 2*j*k^2", m)
        x = ZdPoly.variable(m, 0, 2)
        y = ZdPoly.variable(m, 1, 2)
        sub = phi.substitute([2 - y, x + 1])
        for j in range(5):
            for k in range(5):
                assert sub.evaluate((j, k)) == phi.evaluate(((2 - k) % 5, (j + 1) % 5))


class TestTextForm:
    def test_round_trip_canonical(self):
        m = Modulus(5)
        text = "2*j^2*k + 4*j*k^2 + 1"
        assert str(parse_poly(text, m)) == text

    def test_minus_normalizes(self):
        m = Modulus(5)
        assert str(parse_poly("x^3 - x", m, variables=("x",))) == "x^3 + 4*x"

    def test_zero(self):
        m = Modulus(5)
        assert str(parse_poly("0", m)) == "0"

    def test_bare_monomial(self):
        m = Modulus(5)
        p = parse_poly("j^2*k", m)
        assert p.coeffs == {(2, 1): 1}

    def test_reject_garbage(self):
        m = Modulus(5)
        for bad in ("j +", "2**k", "j^", "q^2", "j 2"):
            with pytest.raises(PolyParseError):
                parse_poly(bad, m)
        for bad, message in (("", "empty polynomial"),
                             ("   ", "empty polynomial"),
                             ("-", "term expected after '-'"),
                             ("j +", "term expected after '\\+'"),
                             ("j -", "term expected after '-'"),
                             ("j^2*k$", "unexpected character"),
                             ("2*", "dangling '\\*'")):
            with pytest.raises(PolyParseError, match=message):
                parse_poly(bad, m)

    @pytest.mark.parametrize("text, variables, message", [
        ("j^2*k $ ", None, "unexpected character at ' $ '"),
        ("j*q + y", None, "unknown variables ['j', 'q', 'y']; "
                          "expected j,k or x,y"),
        ("", None, "empty polynomial"),
        ("j +  ", None, "term expected after '+'"),
        (" - ", None, "term expected after '-'"),
        ("j*q^2", ("j", "k"), "unknown variable 'q'"),
        ("j^ k", None, "exponent expected after '^'"),
        ("j + *k", None, "factor expected near ' *'"),
        ("2*j *", None, "dangling '*'"),
        ("j  k", None, "'+' or '-' expected near '  k'"),
    ])
    def test_parse_error_messages(self, text, variables, message):
        """Each PolyParseError message, with the text it quotes."""
        with pytest.raises(PolyParseError) as info:
            parse_poly(text, Modulus(5), variables)
        assert str(info.value) == message

    def test_x_alone_is_one_variable(self):
        """Text naming only x is single-variable, as the README says, and
        the Dickson classifier takes it."""
        m = Modulus(5)
        p = parse_poly("x^3 + 1", m)
        assert p == poly1(m, (3, 1), (0, 1)) and str(p) == "x^3 + 1"
        assert dickson_classify(p) == DicksonClassification(
            True, (1, "x^3", 0, 1))
        assert parse_poly("x*y + y", m).coeffs == {(1, 1): 1, (0, 1): 1}
        assert parse_poly("y", m).num_vars == 2

    @settings(derandomize=True, database=None, max_examples=200)
    @given(st.data(), st.sampled_from((3, 5, 7)), st.sampled_from((1, 2)))
    def test_parse_inverts_str(self, data, d, num_vars):
        """parse_poly(str(p)) == p; text naming no variable is a constant,
        read as two-variable unless the names are given."""
        m = Modulus(d)
        exps = st.tuples(*[st.integers(0, 2 * d)] * num_vars)
        p = ZdPoly(m, num_vars, data.draw(
            st.dictionaries(exps, st.integers(-d, 3 * d), max_size=6)))
        names = ("x",) if num_vars == 1 else ("j", "k")
        assert parse_poly(str(p), m, names) == p
        if num_vars == 2 or p.degree() > 0:
            assert parse_poly(str(p), m) == p

    def test_parse_random_round_trip(self):
        rng = random.Random(1)
        m = Modulus(7)
        for _ in range(30):
            p = ZdPoly(m, 2, {(rng.randrange(4), rng.randrange(4)): rng.randrange(7)
                              for _ in range(5)})
            assert parse_poly(str(p), m).coeffs == p.coeffs


class TestPermutationPolynomial:
    def test_identity_permutes(self):
        m = Modulus(3)
        assert is_permutation_polynomial(poly1(m, (1, 1)))

    def test_square_does_not(self):
        m = Modulus(5)
        assert not is_permutation_polynomial(poly1(m, (2, 1)))

    def test_cube_at_5(self):
        # 5 = 2 mod 3, so cubing is a bijection
        m = Modulus(5)
        assert is_permutation_polynomial(poly1(m, (3, 1)))

    def test_translation_invariance(self):
        rng = random.Random(2)
        for d in (3, 5):
            m = Modulus(d)
            for _ in range(20):
                p = ZdPoly(m, 2, {(rng.randrange(3), rng.randrange(3)): rng.randrange(d)
                                  for _ in range(4)})
                base = is_permutation_polynomial(p)
                for c in range(d):
                    assert is_permutation_polynomial(p + c) == base

    def test_split_sums(self):
        # p(x,y) = p1(x) + p2(y) with p1 a permutation polynomial is one too
        rng = random.Random(3)
        for d in (3, 5):
            m = Modulus(d)
            for _ in range(20):
                a = rng.randrange(1, d)
                p1 = ZdPoly(m, 2, {(1, 0): a})
                p2 = ZdPoly(m, 2, {(0, rng.randrange(4)): rng.randrange(d),
                                   (0, 2): rng.randrange(d)})
                assert is_permutation_polynomial(p1 + p2)


class TestDickson:
    def test_cube_plus_one(self):
        m = Modulus(5)
        res = dickson_classify(poly1(m, (3, 1), (0, 1)))
        assert res == DicksonClassification(True, (1, "x^3", 0, 1))

    def test_linear(self):
        m = Modulus(5)
        res = dickson_classify(poly1(m, (1, 2), (0, 3)))
        assert res == DicksonClassification(True, (2, "x", 0, 3))

    def test_d7_refused(self):
        m = Modulus(7)
        p = poly1(m, (3, 1))
        with pytest.raises(UnsupportedModulus):
            dickson_classify(p)
        # fallback histogram decides: x^3 is not a bijection mod 7
        assert not is_permutation_polynomial(p)

    def test_normal_form_reconstructs(self):
        m = Modulus(5)
        rng = random.Random(4)
        for _ in range(100):
            p = poly1(m, (3, rng.randrange(5)), (2, rng.randrange(5)),
                      (1, rng.randrange(5)), (0, rng.randrange(5)))
            res = dickson_classify(p)
            if res.normal_form is None:
                continue
            a, g, b, c = res.normal_form
            e = 3 if g == "x^3" else 1
            for x in range(5):
                assert p.evaluate((x,)) == (a * pow(x + b, e, 5) + c) % 5

    @pytest.mark.parametrize("d", [3, 5])
    def test_exhaustive_agreement(self, d):
        m = Modulus(d)
        for e3, e2, e1, e0 in itertools.product(range(d), repeat=4):
            p = poly1(m, (3, e3), (2, e2), (1, e1), (0, e0))
            assert dickson_classify(p).is_permutation == is_permutation_polynomial(p)

    @pytest.mark.parametrize("d", [7, 11])
    def test_random_agreement(self, d):
        # d=7 is 1 mod 3: the classifier refuses, only the histogram applies;
        # d=11 is 2 mod 3: classifier and histogram must agree on the sample.
        m = Modulus(d)
        rng = random.Random(d)
        for _ in range(10_000):
            p = poly1(m, (3, rng.randrange(d)), (2, rng.randrange(d)),
                      (1, rng.randrange(d)), (0, rng.randrange(d)))
            if d % 3 == 1:
                with pytest.raises(UnsupportedModulus):
                    dickson_classify(p)
                break
            assert dickson_classify(p).is_permutation == is_permutation_polynomial(p)


def test_doctests():
    """The >>> examples in stabctx.zmod's docstrings (inv, parse_poly)."""
    result = doctest.testmod(stabctx.zmod)
    assert result.failed == 0
    assert result.attempted >= 4



M3 = Modulus(3)
J3 = ZdPoly.variable(M3, 0, 2)
M5 = Modulus(5)
X5 = ZdPoly.variable(M5, 0, 1)
JK5 = parse_poly("j*k", M5)
ONE_QUDIT = PhaseFunctionState(M5, 1, X5)
THREE_QUDITS = PhaseFunctionState(M5, 3, ZdPoly.zero(M5, 3))
KEY = ((1, 0, 0, 0), (0, 0, 1, 0))


def model3():
    return build_empirical_model(PhaseFunctionState(M3, 2, J3 * J3),
                                 table1_contexts(M3))


def unit_context(n):
    """span{e_1, e_3, ..., e_(2n-1)} in Z_5^(2n): the p coordinates."""
    return Context([PhasePoint(M5, n, tuple(int(i == k) for k in range(2 * n)))
                    for i in range(0, 2 * n, 2)])


MALFORMED = {
    "outcome_value_count": lambda: JointOutcome(
        enumerate_contexts(M3, 2)[0], (1,)),
    "lambda_components": lambda: psi_type_I(M3, 1, 1, (0, 0, 0), 0, 0, 0),
    "unknown_strategy": lambda: decide_strong_contextuality(
        PhaseFunctionState(M3, 2, J3), strategy="fastest"),
    # "no" once ran the normalising path and was written to the certificate
    "string_normalize": lambda: decide_strong_contextuality(
        PhaseFunctionState(M3, 2, J3), normalize="no"),
    "int_normalize": lambda: decide_strong_contextuality(
        PhaseFunctionState(M3, 2, J3), normalize=0),
    # a label reaches the CSV and JSON artifacts as given
    "int_context_label": lambda: Context(
        [PhasePoint(M5, 2, KEY[0]), PhasePoint(M5, 2, KEY[1])], label=7),
    "list_context_label": lambda: Context(
        [PhasePoint(M5, 2, KEY[0]), PhasePoint(M5, 2, KEY[1])], label=["I"]),
    # "" was kept: display_label fell back to the span label, record() wrote ""
    "empty_context_label": lambda: Context(
        [PhasePoint(M5, 2, KEY[0]), PhasePoint(M5, 2, KEY[1])], label=""),
    "hierarchy_level": lambda: verify_level_by_conjugation(J3, 0),
    # 2.5 once recursed until RecursionError, "2" raised a bare TypeError
    "float_hierarchy_level": lambda: verify_level_by_conjugation(J3, 2.5),
    "string_hierarchy_level": lambda: verify_level_by_conjugation(J3, "2"),
    "int_poly_text": lambda: parse_poly(5, M5),
    "bytes_poly_text": lambda: parse_poly(b"j", M5),
    # float lams once gave float positions; a 3-column array was read
    "float_proof_stage_lams": lambda: proof_stage_positions(
        M5, 1, 2, np.zeros((3, 4))),
    "proof_stage_lams_width": lambda: proof_stage_positions(
        M5, 1, 2, np.zeros((3, 3), dtype=int)),
    # an object array, as integers beyond int64 make, holding a float
    "object_proof_stage_lams": lambda: proof_stage_positions(
        M5, 1, 2, [[5 * 10 ** 30, 1.5, 0, 0]]),
    # a float phi2 once gave float positions; a float phi1 was reported
    # as a non-integer inverted value
    "float_proof_stage_phi2": lambda: proof_stage_positions(
        M5, 1, 4.0, np.zeros((3, 4), dtype=int)),
    "float_proof_stage_phi1": lambda: proof_stage_positions(
        M5, 1.0, 2, np.zeros((3, 4), dtype=int)),
    "negative_power": lambda: J3 ** -1,
    "float_power": lambda: J3 ** 1.5,
    "float_modulus": lambda: Modulus(5.0),
    "string_modulus": lambda: Modulus("5"),
    "float_coefficient": lambda: ZdPoly(Modulus(5), 2, {(1, 1): 2.5}),
    "string_coefficient": lambda: ZdPoly(Modulus(5), 2, {(1, 1): "2"}),
    "float_exponent": lambda: ZdPoly(Modulus(5), 2, {(1.5, 1): 2}),
    "float_num_vars": lambda: ZdPoly(Modulus(5), 2.5, {}),
    "float_variable_index": lambda: ZdPoly.variable(Modulus(5), 1.5, 2),
    "variable_index_out_of_range": lambda: ZdPoly.variable(Modulus(5), 2, 2),
    "float_qudit_count": lambda: PhasePoint(Modulus(5), 2.0, (1, 0, 0, 0)),
    "negative_exponent": lambda: ZdPoly(Modulus(5), 2, {(-1, 1): 2}),
    "float_summand": lambda: parse_poly("j", Modulus(5)) + 2.5,
    "float_factor": lambda: 2.7 * parse_poly("j", Modulus(5)),
    "float_inverse": lambda: inv(2.5, Modulus(5)),
    "float_point": lambda: parse_poly("j*k", Modulus(5)).evaluate((1.5, 2)),
    "ragged_engine_query": lambda: kernel.impossible(
        5, np.zeros((5, 5), dtype=int), [((1, 0, 0, 0), (0, 0, 1))], [(0, 0)]),
    # row ids once raised AttributeError (a list), TypeError (floats) or
    # IndexError (outside the 156 rows at d = 5)
    "float_row_ids": lambda: kernel.row_points(5, np.array([1.0])),
    "negative_row_id": lambda: kernel.row_points(5, np.array([-1])),
    "row_id_past_rows": lambda: kernel.row_points(5, np.array([156])),
    "huge_row_id": lambda: kernel.row_points(5, np.array([10 ** 6])),
    "bool_row_ids": lambda: kernel.row_points(5, np.array([True])),
    "nested_row_ids": lambda: kernel.row_points(5, [[0]]),
    "ragged_row_ids": lambda: kernel.row_points(5, [[0], [1, 2]]),
    "float_state_qudit_count": lambda: PhaseFunctionState(M5, 2.0, JK5),
    "float_marginal_context_index": lambda: model3().marginal(
        1.5, PhasePoint(M3, 2, (1, 0, 0, 0)), 0),
    "float_kernel_modulus": lambda: kernel.PointCounts(
        5.0, np.zeros((5, 5), int)),
    "string_kernel_modulus": lambda: kernel.PointCounts(
        "5", np.zeros((5, 5), int)),
    # ("x", "x") once read "x + 2" as a two-variable polynomial, "k + 2"
    "repeated_poly_variables": lambda: parse_poly("x + 2", M5, ("x", "x")),
    "int_poly_variable": lambda: parse_poly("j", M5, ("j", 2)),
    # a float n once raised a bare TypeError, or was served the cached int n
    "float_context_rows_qudit_count": lambda: context_rows(M5, 2.0),
    "float_enumerate_contexts_qudit_count": lambda: enumerate_contexts(
        M5, 2.0),
    # coordinate tuples for PhasePoints once raised AttributeError
    "tuple_marginal_point": lambda: model3().marginal(0, (1, 0, 0, 0), 0),
    "tuple_context_basis": lambda: Context([(1, 0, 0, 0), (0, 0, 1, 0)]),
    # an array basis once raised numpy's ambiguous-truth ValueError
    "array_context_basis": lambda: Context(np.array([(1, 0, 0, 0),
                                                     (0, 0, 1, 0)])),
    # a scalar or a foreign type where a sequence, mapping or library
    # object belongs once raised a bare TypeError or AttributeError
    "int_phase_point_coords": lambda: PhasePoint(M5, 2, 7),
    "int_context_basis": lambda: Context(3),
    "list_poly_coefficients": lambda: ZdPoly(M5, 2, [1, 2]),
    "string_state_phi": lambda: PhaseFunctionState(M5, 2, "j*k"),
    "string_possibility_outcome": lambda: outcome_possibility(
        PhaseFunctionState(M5, 2, JK5), "x"),
    "int_model_context": lambda: build_empirical_model(
        PhaseFunctionState(M5, 2, JK5), [1]),
    "string_decided_state": lambda: decide_strong_contextuality("abc"),
    "string_outcome_context": lambda: JointOutcome("x", (1, 2)),
    # an int where a Modulus belongs once raised a bare AttributeError
    "int_context_rows_modulus": lambda: context_rows(5, 2),
    "int_enumerate_contexts_modulus": lambda: enumerate_contexts(5, 2),
    "int_table1_contexts_modulus": lambda: table1_contexts(5),
    "int_table1_rows_modulus": lambda: table1_rows(5),
    "int_span_labels_modulus": lambda: span_labels(5, 2),
    "int_phase_point_modulus": lambda: PhasePoint(5, 2, (1, 0, 0, 0)),
    "int_poly_modulus": lambda: ZdPoly(5, 2, {(1, 1): 1}),
    "int_parse_poly_modulus": lambda: parse_poly("j*k", 5),
    "int_inverse_modulus": lambda: inv(2, 5),
    "int_proof_stage_modulus": lambda: proof_stage_positions(
        5, 1, 2, np.zeros((3, 4), dtype=int)),
    "int_proof_chain_modulus": lambda: list(proof_chain_identities(5)),
    "int_linearity_forcing_modulus": lambda: check_linearity_forcing(5, {}),
    # so did these foreign objects where a state, model or polynomial belongs
    "string_model_state": lambda: build_empirical_model("x", []),
    "string_contextual_fraction_model": lambda: contextual_fraction("x"),
    "string_dickson_poly": lambda: dickson_classify("x"),
    "int_permutation_poly": lambda: is_permutation_polynomial(3),
    # and these, where a state, polynomial, point, certificate or outcome
    # belongs
    "string_strongness_state": lambda: strongness("x"),
    "string_strip_quadratic_state": lambda: strip_quadratic("x"),
    "string_swap_qudits_state": lambda: swap_qudits("x"),
    "string_gate_level_poly": lambda: diagonal_gate_level("x"),
    "string_conjugation_poly": lambda: verify_level_by_conjugation("x", 2),
    "string_symplectic_points": lambda: symplectic_product("x", "y"),
    "string_written_certificate": lambda: write_certificate("x", io.StringIO()),
    "string_master_polynomial_state": lambda: master_polynomial(
        "x", PhasePoint(M5, 2, KEY[0]), PhasePoint(M5, 2, KEY[1]),
        0, 0, 0, 0),
    "tuple_master_polynomial_generator": lambda: master_polynomial(
        PhaseFunctionState(M5, 2, JK5), KEY[0], PhasePoint(M5, 2, KEY[1]),
        0, 0, 0, 0),
    "none_psi_outcome": lambda: impossibility_by_psi(
        PhaseFunctionState(M5, 2, JK5), None),
    # the dense oracle's entries once raised a bare AttributeError or
    # TypeError
    "string_weyl_matrix_point": lambda: dense.weyl_matrix("x"),
    "string_projector_context": lambda: dense.outcome_projector(
        "x", (0, 0)),
    "string_state_vector_poly": lambda: dense.phase_state_vector(M5, "x"),
    "string_diagonal_gate_modulus": lambda: dense.diagonal_gate("x", None),
    "string_single_weyl_modulus": lambda: dense.single_weyl("x", 1, 1),
}
# Arguments outside a function's scope: each case raises the StabctxError
# subclass that the function documents.
OUT_OF_SCOPE = {
    # counting decides possibility only for prime d
    "composite_kernel_modulus": (UnsupportedModulus, lambda:
                                 kernel.PointCounts(9, np.zeros((9, 9), int))),
    "composite_oracle_modulus": (UnsupportedModulus, lambda: kernel.impossible(
        9, np.zeros((9, 9), int), [KEY], [(0, 0)])),
    # born
    "three_qudit_possibility": (ScaleError, lambda: outcome_possibility(
        THREE_QUDITS, JointOutcome(unit_context(3), (0, 0, 0)))),
    "master_poly_one_qudit": (ScaleError, lambda: master_polynomial(
        ONE_QUDIT, PhasePoint(M5, 1, (1, 0)), PhasePoint(M5, 1, (2, 0)),
        0, 0, 0, 0)),
    "master_poly_modulus": (IncompatibleContext, lambda: master_polynomial(
        PhaseFunctionState(M5, 2, JK5), PhasePoint(M3, 2, (1, 0, 0, 0)),
        PhasePoint(M5, 2, (0, 0, 1, 0)), 0, 0, 0, 0)),
    "master_poly_generator_qudits": (
        IncompatibleContext, lambda: master_polynomial(
            PhaseFunctionState(Modulus(5), 2, parse_poly("j*k", Modulus(5))),
            PhasePoint(Modulus(5), 1, (1, 0)),
            PhasePoint(Modulus(5), 1, (2, 0)), 0, 0, 0, 0)),
    "psi_route_one_qudit": (ScaleError, lambda: impossibility_by_psi(
        ONE_QUDIT, JointOutcome(unit_context(1), (0,)))),
    # hidden_vars
    "decide_one_qudit": (UnsupportedScale, lambda:
                         decide_strong_contextuality(ONE_QUDIT)),
    # phase_space
    "phase_point_coordinates": (DimensionMismatch, lambda: PhasePoint(
        M5, 2, (1, 0, 0))),
    "context_empty_basis": (DimensionMismatch, lambda: Context([])),
    "context_basis_size": (DimensionMismatch, lambda: Context(
        [PhasePoint(M5, 2, (1, 0, 0, 0))])),
    # states
    "state_modulus": (ArityMismatch, lambda: PhaseFunctionState(M3, 2, JK5)),
    "state_variable_count": (ArityMismatch, lambda: PhaseFunctionState(
        M5, 1, JK5)),
    "phi_table_three_qudits": (OracleScaleExceeded,
                               lambda: THREE_QUDITS.phi_table()),
    "strongness_one_qudit": (ArityMismatch, lambda: strongness(ONE_QUDIT)),
    "strip_quadratic_one_qudit": (ArityMismatch,
                                  lambda: strip_quadratic(ONE_QUDIT)),
    "swap_qudits_one_qudit": (ArityMismatch, lambda: swap_qudits(ONE_QUDIT)),
    # zmod
    "no_variables": (ArityMismatch, lambda: ZdPoly(M5, 0, {})),
    "exponent_arity": (ArityMismatch, lambda: ZdPoly(M5, 2, {(1,): 1})),
    "sum_of_domains": (ArityMismatch, lambda: JK5 + X5),
    "substitute_count": (ArityMismatch, lambda: JK5.substitute([X5])),
    "substitute_domains": (ArityMismatch, lambda: JK5.substitute([X5, JK5])),
    "dickson_two_variables": (ArityMismatch, lambda: dickson_classify(JK5)),
    "dickson_quartic": (ArityMismatch, lambda: dickson_classify(X5 ** 4)),
}
BOUNDARY = {**{k: (MalformedInput, f) for k, f in MALFORMED.items()},
            **OUT_OF_SCOPE}


@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_malformed_input_is_library_error(case):
    """Malformed or out-of-scope arguments raise the documented StabctxError
    subclass; only MalformedInput is also a ValueError, for callers that
    catch that."""
    error, call = BOUNDARY[case]
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, StabctxError)
    assert isinstance(info.value, ValueError) == (error is MalformedInput)


def test_public_api():
    """Every name in `stabctx.__all__` resolves on the package, once, and
    `from stabctx import *` binds exactly those names."""
    names = stabctx.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(stabctx, name) for name in names)
    bound = {}
    exec("from stabctx import *", bound)
    assert set(bound) - {"__builtins__"} == set(names)


def test_numpy_bool_normalize_read_as_bool():
    """A numpy bool means the same as a Python bool for `normalize`, and
    the certificate stores a Python bool."""
    st = PhaseFunctionState(M3, 2, J3 * J3 * ZdPoly.variable(M3, 1, 2))
    for flag in (True, False):
        cert = decide_strong_contextuality(st, normalize=np.bool_(flag))
        assert cert.normalize is flag
        assert cert.to_json_obj() == decide_strong_contextuality(
            st, normalize=flag).to_json_obj()


def test_numpy_integers_read_as_ints():
    """Numpy integers mean the same as Python ints at the boundary, and
    are stored as Python ints."""
    m = Modulus(np.int64(5))
    assert m == Modulus(5) and type(m.d) is int
    p = ZdPoly(m, 2, {(np.int64(2), np.int32(1)): np.int64(7)})
    assert p == ZdPoly(m, 2, {(2, 1): 2}) and str(p) == "2*j^2*k"
    [(exps, c)] = p.coeffs.items()
    assert {type(v) for v in (*exps, c)} == {int}
    assert p.evaluate((np.int64(1), np.int8(3))) == 1
    assert str(parse_poly("j", m) + np.int64(6)) == "j + 1"
    assert inv(np.int64(2), m) == 3
