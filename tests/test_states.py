import itertools
import random

import numpy as np
import pytest

from stabctx import dense
from stabctx.phase_space import PhasePoint
from stabctx.states import (
    OracleScaleExceeded,
    OutsideCharacterization,
    PhaseFunctionState,
    _is_pauli,
    diagonal_gate_level,
    strip_quadratic,
    strongness,
    swap_qudits,
    verify_level_by_conjugation,
)
from stabctx.zmod import Modulus, ZdPoly, parse_poly


def state(d, text):
    m = Modulus(d)
    return PhaseFunctionState(m, 2, parse_poly(text, m))


class TestDiagonalGateLevel:
    def test_cubic_is_level_3(self):
        m = Modulus(5)
        assert diagonal_gate_level(parse_poly("j^2*k", m)) == 3

    def test_zero_is_level_1(self):
        m = Modulus(5)
        assert diagonal_gate_level(ZdPoly.zero(m, 2)) == 1

    def test_quadratic_is_level_2(self):
        m = Modulus(5)
        assert diagonal_gate_level(parse_poly("j*k", m)) == 2

    def test_linear_is_level_1(self):
        m = Modulus(5)
        assert diagonal_gate_level(parse_poly("2*j", m)) == 1

    def test_refuses_cubic_at_d3(self):
        m = Modulus(3)
        with pytest.raises(OutsideCharacterization):
            diagonal_gate_level(parse_poly("j*k^2", m))

    def test_refuses_degree_4(self):
        m = Modulus(5)
        with pytest.raises(OutsideCharacterization):
            diagonal_gate_level(parse_poly("j^2*k^2", m))


class TestPauliCheck:
    @pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_accepts_every_weyl_operator_times_every_root(self, d, n):
        m = Modulus(d)
        w = dense.omega(d)
        for coords in itertools.product(range(d), repeat=2 * n):
            weyl = dense.weyl_matrix(PhasePoint(m, n, coords))
            for t in range(d):
                assert _is_pauli(w ** t * weyl, m, n) is True, (coords, t)

    @pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_rejects_near_misses(self, d, n):
        m = Modulus(d)
        size = d ** n
        weyl = dense.weyl_matrix(PhasePoint(m, n, (1,) * (2 * n)))
        kets = np.arange(size)
        misses = {
            "phase not a d-th root": weyl * np.exp(1j * np.pi / 7),
            "fourier": np.exp(2j * np.pi * np.outer(kets, kets) / size)
            / np.sqrt(size),
            "swap of two kets": np.eye(size)[[1, 0, *range(2, size)]],
            "diag(1, ..., 1, -1)": np.diag([1.0] * (size - 1) + [-1.0]),
            "diag(-1, 1, ..., 1)": np.diag([-1.0] + [1.0] * (size - 1)),
        }
        for name, mat in misses.items():
            assert _is_pauli(mat.astype(complex), m, n) is False, name


class TestConjugationOracle:
    def test_j2k_is_level_3_not_2(self):
        m = Modulus(5)
        phi = parse_poly("j^2*k", m)
        assert verify_level_by_conjugation(phi, 3)
        assert not verify_level_by_conjugation(phi, 2)

    def test_quartic_rejected_below_top_level(self):
        # U_{j^4} is outside level 3: some conjugate of a conjugate fails
        # the Pauli check inside the recursion
        assert not verify_level_by_conjugation(parse_poly("j^4", Modulus(5)), 3)

    def test_j2k2_is_level_4_not_3_at_d3(self):
        phi = parse_poly("j^2*k^2", Modulus(3))
        assert verify_level_by_conjugation(phi, 4) is True
        assert verify_level_by_conjugation(phi, 3) is False

    def test_linear_is_pauli(self):
        m = Modulus(5)
        phi = parse_poly("2*j", m)
        assert verify_level_by_conjugation(phi, 1)
        assert verify_level_by_conjugation(phi, 2)

    def test_controlled_phase_at_d3(self):
        # the two-qutrit gate with phase j*k^2 sits strictly at level 3
        m = Modulus(3)
        phi = parse_poly("j*k^2", m)
        assert verify_level_by_conjugation(phi, 3)
        assert not verify_level_by_conjugation(phi, 2)

    def test_agrees_with_degree_rule_on_monomials_d5(self):
        m = Modulus(5)
        for exps in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                     (3, 0), (2, 1), (1, 2), (0, 3)]:
            phi = ZdPoly.monomial(m, 1, exps)
            level = diagonal_gate_level(phi)
            assert verify_level_by_conjugation(phi, level), exps
            if level > 1:
                assert not verify_level_by_conjugation(phi, level - 1), exps

    def test_hierarchy_nesting(self):
        m = Modulus(3)
        rng = random.Random(0)
        for _ in range(3):
            coeffs = {(e1, e2): rng.randrange(3)
                      for e1 in range(2) for e2 in range(2)}
            phi = ZdPoly(m, 2, coeffs)  # degree <= 2: at most Clifford
            assert verify_level_by_conjugation(phi, 2)
            assert verify_level_by_conjugation(phi, 3)

    def test_scale_guard(self):
        m = Modulus(7)
        with pytest.raises(OracleScaleExceeded):
            verify_level_by_conjugation(parse_poly("j*k", m), 2)


class TestStrongness:
    def test_j2k_strong(self):
        rep = strongness(state(5, "j^2*k"))
        assert rep.is_strong and rep.phi1 == 1 and rep.phi2 == 0

    def test_quadratic_not_strong(self):
        rep = strongness(state(5, "j*k"))
        assert not rep.is_strong
        assert rep.phi1 == 0 and rep.phi2 == 0
        assert rep.quadratic_part.coeffs == {(1, 1): 1}

    def test_local_cubic_blocks_strongness(self):
        rep = strongness(state(5, "j^3 + j^2*k"))
        assert not rep.is_strong
        assert rep.phi1 == 1
        assert rep.local_cubic_terms.coeffs == {(3, 0): 1}

    def test_decomposition_reassembles(self):
        rng = random.Random(1)
        m = Modulus(5)
        for _ in range(30):
            coeffs = {e: rng.randrange(5)
                      for e in [(3, 0), (2, 1), (1, 2), (0, 3), (2, 0),
                                (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]}
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            rep = strongness(st)
            rebuilt = (rep.quadratic_part + rep.local_cubic_terms
                       + ZdPoly.monomial(m, rep.phi1, (2, 1))
                       + ZdPoly.monomial(m, rep.phi2, (1, 2)))
            assert rebuilt.coeffs == st.phi.coeffs
            assert rep.is_strong == (rep.local_cubic_terms.is_zero()
                                     and (rep.phi1, rep.phi2) != (0, 0))


class TestReductions:
    def test_strip_example(self):
        st = state(5, "j^2*k + 3*j*k + 1")
        assert strip_quadratic(st).phi.coeffs == {(2, 1): 1}

    def test_strip_fixed_point(self):
        st = state(5, "j^2*k")
        assert strip_quadratic(st).phi.coeffs == st.phi.coeffs

    def test_strip_idempotent(self):
        rng = random.Random(2)
        m = Modulus(5)
        for _ in range(20):
            coeffs = {(rng.randrange(4), rng.randrange(4)): rng.randrange(5)
                      for _ in range(5)}
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            once = strip_quadratic(st)
            assert strip_quadratic(once).phi.coeffs == once.phi.coeffs

    def test_swap_example(self):
        st = state(5, "j*k^2")
        assert swap_qudits(st).phi.coeffs == {(2, 1): 1}

    def test_swap_involution(self):
        rng = random.Random(3)
        m = Modulus(5)
        for _ in range(20):
            coeffs = {(rng.randrange(4), rng.randrange(4)): rng.randrange(5)
                      for _ in range(5)}
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            assert swap_qudits(swap_qudits(st)).phi.coeffs == st.phi.coeffs

    def test_strongness_invariant_under_swap(self):
        rng = random.Random(4)
        m = Modulus(5)
        for _ in range(20):
            coeffs = {(rng.randrange(4), rng.randrange(4)): rng.randrange(5)
                      for _ in range(5)}
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            try:
                a = strongness(st)
                b = strongness(swap_qudits(st))
            except Exception:
                continue
            assert a.is_strong == b.is_strong
            assert (a.phi1, a.phi2) == (b.phi2, b.phi1)

    def test_normal_form_for_strong_states(self):
        # strip + swap (when needed) lands on phi1*j^2*k + phi2*j*k^2, phi1 != 0
        m = Modulus(5)
        rng = random.Random(5)
        for phi1, phi2 in itertools.product(range(5), repeat=2):
            if (phi1, phi2) == (0, 0):
                continue
            quad = {(1, 1): rng.randrange(5), (1, 0): rng.randrange(5),
                    (0, 0): rng.randrange(5)}
            coeffs = dict(quad)
            coeffs[(2, 1)] = phi1
            coeffs[(1, 2)] = phi2
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            work = strip_quadratic(st)
            rep = strongness(work)
            if rep.phi1 == 0:
                work = swap_qudits(work)
                rep = strongness(work)
            assert rep.phi1 != 0
            assert set(work.phi.coeffs) <= {(2, 1), (1, 2)}
