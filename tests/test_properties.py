"""Properties that tie the decision procedure to the symmetries of the
problem.  GL(2) covariance: for A in GL(2, F_d), U|J> = |AJ> is a
Clifford, so it carries a state to one with the same verdict, every
refuting subspace to a refuting subspace and a witness lam to a witness
lam.  The image state is Phi' = Phi o A^-1; points (P, Q) map to
(A^-T P, A Q), in (p1, q1, p2, q2) order by a symplectic S, and lam by
L = S^-T, so that L lam . S w = lam . w.

The scalings diag(a, b) and the qudit swap also permute the Table-1
families, so a state and its image refute as many lam in each stage: in
the table1 and full stages because those stages walk the families and all
subspaces, and in the proof stage because on every strong normal form at
d = 3, 5 and 7 the three-context shortcut refutes each lam that some
Table-1 family refutes (the table1 stage refutes none there).  Shears do
not keep the families, so other maps keep the verdict alone.

A nonzero binary cubic form over F_d splits in one of five ways, by its
rational roots on the projective line: (1,1,1), (1^2,1), (1^3), (1,2) or
(3).  In every census taken (all forms at d = 5 and 7, samples at d = 11
and 13) a cubic state's verdict depended on its form's type alone; one
representative per type is pinned at d = 5, 7, 11 and 13.

The engine builds its point counts in closed form when every difference
G_Q(J) = Phi(J - Q) - Phi(J) is quadratic in J, and by enumeration
otherwise; either way its verdicts are those of `kernel.impossible`, which
enumerates the exponents at the asked subspaces' points alone."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabctx import kernel
from stabctx.hidden_vars import decide_strong_contextuality
from stabctx.phase_space import _rref, context_rows
from stabctx.states import PhaseFunctionState
from stabctx.zmod import Modulus, ZdPoly, inv, parse_poly

MONOMIALS = [(e1, e2) for e1 in range(4) for e2 in range(4)
             if 2 <= e1 + e2 <= 3]
QUARTIC = [(e1, e2) for e1 in range(5) for e2 in range(5 - e1)]


def transport(m, A):
    """The image of Phi under U|J> = |AJ>, Phi o A^-1, and the map's point
    matrix S, (P, Q) -> (A^-T P, A Q), and lam matrix L = S^-T."""
    (a, b), (c, e) = A.tolist()
    A_inv = inv(a * e - b * c, m) * np.array([[e, -b], [-c, a]]) % m.d
    j, k = (ZdPoly.variable(m, i, 2) for i in range(2))

    def image(phi):
        return phi.substitute([x * j + y * k for x, y in A_inv.tolist()])

    S, L = np.zeros((2, 4, 4), dtype=np.int64)
    S[0::2, 0::2] = L[1::2, 1::2] = A_inv.T  # p rows and columns, then q
    S[1::2, 1::2] = L[0::2, 0::2] = A
    return image, S, L


def is_monomial(A):
    """Whether A is a scaling diag(a, b), or one followed by the swap."""
    return not (A[0, 1] or A[1, 0]) or not (A[0, 0] or A[1, 1])


def subspace_map(m, S):
    """image[sid]: the `context_rows` row of subspace sid's image under S."""
    rows = context_rows(m, 2)
    index = {sum(map(tuple, key), ()): sid
             for sid, key in enumerate(rows.tolist())}
    return np.array([index[sum(_rref((S @ key.T).T, m), ())] for key in rows])


@st.composite
def cases(draw):
    """A cubic-plus-quadratic state at d = 3, 5 or 7 and a map A in
    GL(2, F_d): half the time any invertible A, else a scaling diag(a, b),
    then the swap if drawn.  The local cubics j^3 and k^3 are dropped half
    the time, so that strong states, and with them the proof stage, come up
    often."""
    d = draw(st.sampled_from((3, 5, 7)))
    coeffs = {e: draw(st.integers(0, d - 1)) for e in MONOMIALS}
    if draw(st.booleans()):
        coeffs[3, 0] = coeffs[0, 3] = 0
    if draw(st.booleans()):
        entries = st.lists(st.integers(0, d - 1), min_size=4, max_size=4)
        A = draw(entries.filter(lambda x: (x[0] * x[3] - x[1] * x[2]) % d))
        A = [A[:2], A[2:]]
    else:
        a, b = draw(st.integers(1, d - 1)), draw(st.integers(1, d - 1))
        A = [[0, b], [a, 0]] if draw(st.booleans()) else [[a, 0], [0, b]]
    return Modulus(d), coeffs, np.array(A)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(cases())
def test_local_maps_carry_certificates(case):
    m, coeffs, A = case
    d, rows = m.d, context_rows(m, 2)
    image, S, L = transport(m, A)
    phi = ZdPoly(m, 2, coeffs)
    cert = decide_strong_contextuality(PhaseFunctionState(m, 2, phi))
    other = decide_strong_contextuality(PhaseFunctionState(m, 2, image(phi)))
    assert other.verdict == cert.verdict
    # the certificate speaks of its normalised state
    work = parse_poly(cert.normalized_phi, m, variables=("j", "k"))
    counts = kernel.PointCounts(d, PhaseFunctionState(
        m, 2, image(work)).phi_table())
    if cert.strongly_contextual:
        if is_monomial(A):  # as many lam refuted in each stage
            assert other.stages == cert.stages
            assert np.array_equal(np.bincount(cert.stage, minlength=3),
                                  np.bincount(other.stage, minlength=3))
        lams = np.indices((d,) * 4).reshape(4, -1).T
        assert np.array_equal(
            cert.outcome, (rows[cert.row] @ lams[..., None])[..., 0] % d)
        keys = rows[subspace_map(m, S)[cert.row]]
        outcomes = (keys @ (lams @ L.T)[..., None])[..., 0] % d
        assert counts.impossible(keys, outcomes).all()
    else:
        lam = L @ cert.witness.lam % d
        assert not counts.impossible(rows, rows @ lam % d).any()


def degree(d, coeffs):
    """The total degree of Phi as a function on Z_d^2: x^e equals
    x^(e - (d - 1)) there for e >= d, so exponents are first reduced below
    d and like terms merged."""
    reduced = {}
    for exps, c in coeffs.items():
        exps = tuple(e if e < d else (e - 1) % (d - 1) + 1 for e in exps)
        reduced[exps] = (reduced.get(exps, 0) + c) % d
    return max((sum(exps) for exps, c in reduced.items() if c), default=0)


@st.composite
def builder_cases(draw):
    """A state of degree <= 4 at d = 3 to 13, its quartic terms dropped half
    the time, and one subspace, a row of `context_rows`."""
    m = Modulus(draw(st.sampled_from((3, 5, 7, 11, 13))))
    top = draw(st.sampled_from((3, 4)))
    coeffs = {e: draw(st.integers(0, m.d - 1)) for e in QUARTIC
              if sum(e) <= top}
    return m, coeffs, draw(st.integers(0, len(context_rows(m, 2)) - 1))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(builder_cases())
def test_point_count_builders_agree_with_per_ket_route(case):
    """The closed form (no enumerated table) is built exactly when every G_Q is
    quadratic.  For any Phi of reduced total degree D >= 1 the degree D - 1
    part of G_Q is -Q . grad of Phi's top part, which is nonzero for Q a
    unit vector since no exponent reaches d; so that is when Phi has
    degree <= 3.  Either way every outcome of the drawn subspace gets the
    verdict of `kernel.impossible`, the enumeration at its points."""
    m, coeffs, row = case
    d = m.d
    tab = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs)).phi_table()
    counts = kernel.PointCounts(d, tab)
    assert (counts.table is None) == (degree(d, coeffs) <= 3)
    gens = np.repeat(context_rows(m, 2)[row:row + 1], d * d, axis=0)
    outcomes = np.indices((d, d)).reshape(2, -1).T
    assert np.array_equal(counts.impossible(gens, outcomes),
                          kernel.impossible(d, tab, gens, outcomes))


def test_quartic_takes_enumeration():
    """j^4 * k has cubic differences at every d >= 5."""
    for d in (5, 7, 11, 13):
        m = Modulus(d)
        counts = kernel.PointCounts(d, PhaseFunctionState(
            m, 2, parse_poly("j^4*k", m)).phi_table())
        assert counts.table.shape == (d, d ** 4)
        assert np.array_equal(counts.key, np.arange(d ** 4))


# One binary cubic form per splitting type, in the order (1,1,1), (1^2,1),
# (1^3), (1,2), (3), with the type's verdict at d: S strongly contextual,
# W a witness.
CENSUS = {
    5: ("j^2*k + j*k^2", "j^2*k", "j^3", "j^2*k + 3*k^3",
        "j^3 + j*k^2 + k^3", "SSWSS"),
    7: ("j^2*k + j*k^2", "j^2*k", "j^3", "j^2*k + 4*k^3", "j^3 + 2*k^3",
        "WSWWW"),
    11: ("j^2*k + j*k^2", "j^2*k", "j^3", "j^2*k + 9*k^3",
         "j^3 + j*k^2 + 4*k^3", "SSWSS"),
    13: ("j^2*k + j*k^2", "j^2*k", "j^3", "j^2*k + 11*k^3", "j^3 + 2*k^3",
         "WWWWW"),
}
# the types' rational root multiplicities, in the same order
ROOTS = ((1, 1, 1), (2, 1), (3,), (1,), ())


def rational_roots(d, phi):
    """The multiplicities of the roots of a binary cubic form F(j, k) on
    the projective line over F_d, largest first: [1 : 0] counts the zero
    leading coefficients of F(x, 1), and each x in F_d its multiplicity as
    a root of F(x, 1), divided out by Horner's rule."""
    f = [phi.coeff((3 - i, i)) for i in range(4)]  # F(x, 1), x^3 first
    roots = [next(i for i, c in enumerate(f) if c)]
    f = f[roots[0]:]
    for x in range(d):
        roots.append(0)
        while len(f) > 1:
            *quotient, value = itertools.accumulate(
                f, lambda acc, c: (acc * x + c) % d)
            if value:
                break
            f, roots[-1] = quotient, roots[-1] + 1
    return tuple(sorted(filter(None, roots), reverse=True))


@pytest.mark.parametrize("d", sorted(CENSUS))
def test_census_verdict_by_splitting_type(d):
    """Each representative has its type, and its state gets the type's
    verdict."""
    m = Modulus(d)
    *forms, verdicts = CENSUS[d]
    for text, roots, verdict in zip(forms, ROOTS, verdicts):
        phi = parse_poly(text, m)
        assert rational_roots(d, phi) == roots, text
        cert = decide_strong_contextuality(PhaseFunctionState(m, 2, phi))
        assert cert.strongly_contextual == (verdict == "S"), text
