"""Properties that tie the decision procedure to the symmetries of the
problem.  Local-scaling covariance: U|j, k> = |aj, bk> with a, b != 0 and
the qudit swap are local Cliffords, so they carry a state to one with the
same verdict, every refuting subspace to a refuting subspace and a witness
lam to a witness lam.  The image state is Phi'(j, k) = Phi(a^-1 j, b^-1 k);
points (p1, q1, p2, q2) map by S = diag(a^-1, a, b^-1, b), and lam by
L = diag(a, a^-1, b, b^-1), so that L lam . S w = lam . w.  The swap
permutes the qudits' (p, q) pairs in points and in lam alike.

The maps also permute the Table-1 families, so a state and its image
refute as many lam in each stage: in the table1 and full stages because
those stages walk the families and all subspaces, and in the proof stage
because on every strong normal form at d = 3, 5 and 7 the three-context
shortcut refutes each lam that some Table-1 family refutes (the table1
stage refutes none there).

The engine builds its point counts in closed form when every difference
G_Q(J) = Phi(J - Q) - Phi(J) is quadratic in J, and by enumeration
otherwise; either way its verdicts are those of `kernel.impossible`, which
enumerates the exponents at the asked subspaces' points alone."""

import numpy as np
from hypothesis import given, settings, strategies as st

from stabctx import kernel
from stabctx.hidden_vars import decide_strong_contextuality
from stabctx.phase_space import _rref, context_rows
from stabctx.states import PhaseFunctionState
from stabctx.zmod import Modulus, ZdPoly, inv, parse_poly

MONOMIALS = [(e1, e2) for e1 in range(4) for e2 in range(4)
             if 2 <= e1 + e2 <= 3]
QUARTIC = [(e1, e2) for e1 in range(5) for e2 in range(5 - e1)]
SWAP = np.eye(4, dtype=np.int64)[[2, 3, 0, 1]]


def transport(m, a, b, swap):
    """The image of Phi under the map, and the map's point matrix S and
    lam matrix L: the scaling by (a, b), then the swap if `swap`."""
    ia, ib = inv(a, m), inv(b, m)
    j, k = (ZdPoly.variable(m, i, 2) for i in range(2))

    def image(phi):
        phi = phi.substitute([ia * j, ib * k])
        return phi.substitute([k, j]) if swap else phi

    S, L = np.diag([ia, a, ib, b]), np.diag([a, ia, b, ib])
    return (image, SWAP @ S, SWAP @ L) if swap else (image, S, L)


def subspace_map(m, S):
    """image[sid]: the `context_rows` row of subspace sid's image under S."""
    rows = context_rows(m, 2)
    index = {sum(map(tuple, key), ()): sid
             for sid, key in enumerate(rows.tolist())}
    return np.array([index[sum(_rref((S @ key.T).T, m), ())] for key in rows])


@st.composite
def cases(draw):
    """A cubic-plus-quadratic state at d = 3, 5 or 7 and a local map.  The
    local cubics j^3 and k^3 are dropped half the time, so that strong
    states, and with them the proof stage, come up often."""
    d = draw(st.sampled_from((3, 5, 7)))
    coeffs = {e: draw(st.integers(0, d - 1)) for e in MONOMIALS}
    if draw(st.booleans()):
        coeffs[3, 0] = coeffs[0, 3] = 0
    a, b = draw(st.integers(1, d - 1)), draw(st.integers(1, d - 1))
    return Modulus(d), coeffs, a, b, draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(cases())
def test_local_maps_carry_certificates(case):
    m, coeffs, a, b, swap = case
    d, rows = m.d, context_rows(m, 2)
    image, S, L = transport(m, a, b, swap)
    phi = ZdPoly(m, 2, coeffs)
    cert = decide_strong_contextuality(PhaseFunctionState(m, 2, phi))
    other = decide_strong_contextuality(PhaseFunctionState(m, 2, image(phi)))
    assert other.verdict == cert.verdict
    # the certificate speaks of its normalised state
    work = parse_poly(cert.normalized_phi, m, variables=("j", "k"))
    counts = kernel.PointCounts(d, PhaseFunctionState(
        m, 2, image(work)).phi_table())
    if cert.strongly_contextual:
        assert other.stages == cert.stages  # as many lam refuted in each
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
    """The closed form (a table 6d wide) is built exactly when every G_Q is
    quadratic.  For any Phi of reduced total degree D >= 1 the degree D - 1
    part of G_Q is -Q . grad of Phi's top part, which is nonzero for Q a
    unit vector since no exponent reaches d; so that is when Phi has
    degree <= 3.  Either way every outcome of the drawn subspace gets the
    verdict of `kernel.impossible`, the enumeration at its points."""
    m, coeffs, row = case
    d = m.d
    tab = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs)).phi_table()
    counts = kernel.PointCounts(d, tab)
    assert (counts.table.shape[1] == 6 * d) == (degree(d, coeffs) <= 3)
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
