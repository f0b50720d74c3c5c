"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and nowhere else: possibility is decided
by exact integer counting; 1e-9 bounds the dense float cross-checks; 1e-6
bounds the LP results.
"""

import itertools
import random
import time

import numpy as np

from stabctx import dense, kernel
from stabctx.born import (
    JointOutcome,
    build_empirical_model,
    impossibility_by_psi,
    master_polynomial,
    outcome_possibility,
    psi_type_I,
    psi_type_II,
    psi_type_III,
)
from stabctx.hidden_vars import (
    check_linearity_forcing,
    contextual_fraction,
    decide_strong_contextuality,
)
from stabctx.phase_space import PhasePoint, enumerate_contexts, table1_contexts
from stabctx.states import PhaseFunctionState
from stabctx.zmod import Modulus, ZdPoly, dickson_classify, inv, \
    is_permutation_polynomial, parse_poly


def report(num, ok, elapsed, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s): {detail}"
    print(line)
    assert ok, line


def strong_states(d):
    m = Modulus(d)
    out = []
    for phi1 in range(d):
        for phi2 in range(d):
            if (phi1, phi2) == (0, 0):
                continue
            phi = ZdPoly(m, 2, {(2, 1): phi1, (1, 2): phi2})
            out.append(PhaseFunctionState(m, 2, phi))
    return out


def random_quadratic(m, rng):
    coeffs = {e: rng.randrange(m.d)
              for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    return ZdPoly(m, 2, coeffs)


def test_criterion_01_theorem1_d5():
    """All 24 strong normal-form states at d=5, family contexts only."""
    start = time.perf_counter()
    states = strong_states(5)
    ok = len(states) == 24
    for st in states:
        cert = decide_strong_contextuality(st, strategy="table1_first")
        ok = ok and cert.strongly_contextual
        ok = ok and cert.stages_used <= {"proof", "table1"}
        ok = ok and len(cert.refutations) == 625
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, ok, elapsed, "24/24 strong states at d=5 certified from the "
                           "30 family contexts")


def test_criterion_02_theorem1_d11():
    """All 120 strong normal-form states at d=11, single-threaded."""
    start = time.perf_counter()
    states = strong_states(11)
    ok = len(states) == 120
    certified = 0
    for st in states:
        cert = decide_strong_contextuality(st, strategy="table1_first")
        if cert.strongly_contextual and cert.stages_used <= {"proof", "table1"}:
            certified += 1
    elapsed = time.perf_counter() - start
    ok = ok and certified == 120 and elapsed < 600.0
    report(2, ok, elapsed, f"{certified}/120 strong states at d=11 certified "
                           "single-threaded")


def test_criterion_03_controlled_phase_d3():
    """The d=3 controlled-phase magic state j*k^2."""
    start = time.perf_counter()
    st = PhaseFunctionState(Modulus(3), 2, parse_poly("j*k^2", Modulus(3)))
    cert = decide_strong_contextuality(st)
    full = decide_strong_contextuality(st, strategy="full_scan")
    ok = cert.strongly_contextual and full.strongly_contextual
    report(3, ok, time.perf_counter() - start,
           "j*k^2 at d=3 strongly contextual (family scan and full scan)")


def test_criterion_04_quadratic_invariance_d5():
    """Dressing each strong state with 5 random quadratics cannot change the
    verdict; the dressed states are analyzed raw (no reduction applied)."""
    start = time.perf_counter()
    rng = random.Random(4)
    m = Modulus(5)
    agreements = 0
    total = 0
    for st in strong_states(5):
        base = decide_strong_contextuality(st).verdict
        for _ in range(5):
            q = random_quadratic(m, rng)
            dressed = PhaseFunctionState(m, 2, st.phi + q)
            raw = decide_strong_contextuality(dressed, normalize=False)
            total += 1
            if raw.verdict == base == "strongly_contextual":
                agreements += 1
    ok = total == 120 and agreements == 120
    report(4, ok, time.perf_counter() - start,
           f"{agreements}/120 quadratic dressings keep the verdict at d=5")


def test_criterion_05_negative_controls():
    """Flat and random quadratic states at d=3 and d=5 are not strongly
    contextual; each witness is re-verified over the full enumeration
    through the projector route."""
    start = time.perf_counter()
    rng = random.Random(5)
    ok = True
    checked = 0
    for d in (3, 5):
        m = Modulus(d)
        contexts = enumerate_contexts(m, 2)
        candidates = [ZdPoly.zero(m, 2)] + [random_quadratic(m, rng)
                                            for _ in range(3)]
        for phi in candidates:
            st = PhaseFunctionState(m, 2, phi)
            cert = decide_strong_contextuality(st, normalize=False)
            ok = ok and not cert.strongly_contextual
            ok = ok and cert.witness is not None
            lam = cert.witness.lam
            for ctx in contexts:
                outcome = JointOutcome(
                    ctx, tuple(np.array(ctx.canonical_key) @ lam % d))
                ok = ok and outcome_possibility(st, outcome)
            checked += 1
    ok = ok and checked == 8
    report(5, ok, time.perf_counter() - start,
           "8/8 negative controls carry a fully re-verified witness")


def test_criterion_06_oracle_equivalence():
    """>= 1000 random (state, context, outcome) triples: four routes agree,
    the counting oracle (`outcome_possibility`, exponents enumerated at the
    subspace's points), the production engine (`PointCounts`, in closed
    form for these cubic states), the permutation polynomial and the dense
    projection."""
    start = time.perf_counter()
    rng = random.Random(6)
    disagreements = 0
    total = 0
    for d in (3, 5):
        m = Modulus(d)
        contexts = enumerate_contexts(m, 2)
        for _ in range(500):
            coeffs = {(e1, e2): rng.randrange(d)
                      for e1 in range(4) for e2 in range(4) if e1 + e2 <= 3}
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
            ctx = contexts[rng.randrange(len(contexts))]
            outcome = JointOutcome(ctx, (rng.randrange(d), rng.randrange(d)))
            enumerated = outcome_possibility(st, outcome)
            cell = not kernel.PointCounts(d, st.phi_table()).impossible(
                [ctx.canonical_key], [outcome.values])[0]
            psi = not impossibility_by_psi(st, outcome)
            proj = dense.outcome_projector(ctx, outcome.values)
            vec = dense.phase_state_vector(m, st.phi)
            numeric = bool(np.linalg.norm(proj @ vec) > 1e-9)
            total += 1
            if not (enumerated == cell == psi == numeric):
                disagreements += 1
    ok = total >= 1000 and disagreements == 0
    report(6, ok, time.perf_counter() - start,
           f"{total} random triples through 4 routes, "
           f"{disagreements} route disagreements")


def test_criterion_07_family_regression():
    """For every family context and >= 500 random parameter tuples per d,
    the master polynomial minus the family reference is constant in (x,y)."""
    start = time.perf_counter()
    failures = 0
    total_by_d = {}
    for d in (5, 11):
        m = Modulus(d)
        rng = random.Random(100 + d)
        per_context = -(-500 // (d * (d + 1)))  # ceil: >= 500 tuples per d
        total = 0
        for ctx in table1_contexts(m):
            fam, _, params = ctx.label.partition(":")
            pieces = dict(p.split("=") for p in params.split(","))
            alpha = int(pieces["alpha"])
            beta = int(pieces.get("beta", 0))
            u, v = ctx.basis
            for _ in range(per_context):
                phi1, phi2 = rng.randrange(d), rng.randrange(d)
                lam = tuple(rng.randrange(d) for _ in range(4))
                j, k = rng.randrange(d), rng.randrange(d)
                st = PhaseFunctionState(
                    m, 2, ZdPoly(m, 2, {(2, 1): phi1, (1, 2): phi2}))
                A = sum(a * b for a, b in zip(lam, u.coords)) % d
                B = sum(a * b for a, b in zip(lam, v.coords)) % d
                master = master_polynomial(st, u, v, A, B, j, k)
                if fam == "I":
                    ref = psi_type_I(m, phi1, phi2, lam, alpha, j, k)
                elif fam == "II":
                    ref = psi_type_II(m, phi1, phi2, lam, alpha, j, k)
                else:
                    ref = psi_type_III(m, phi1, phi2, lam, alpha, beta, j, k)
                if (master - ref).degree() > 0:
                    failures += 1
                total += 1
        total_by_d[d] = total
    ok = failures == 0 and all(t >= 500 for t in total_by_d.values())
    report(7, ok, time.perf_counter() - start,
           f"family regression: {total_by_d} tuples, {failures} failures")


def test_criterion_08_dickson_exhaustive_d5():
    """All 625 degree-<=3 coefficient tuples at d=5: normal-form
    classification matches exhaustive permutation testing."""
    start = time.perf_counter()
    m = Modulus(5)
    mismatches = 0
    for e3, e2, e1, e0 in itertools.product(range(5), repeat=4):
        p = ZdPoly(m, 1, {(3,): e3, (2,): e2, (1,): e1, (0,): e0})
        if dickson_classify(p).is_permutation != is_permutation_polynomial(p):
            mismatches += 1
    ok = mismatches == 0
    report(8, ok, time.perf_counter() - start,
           f"625 polynomials at d=5, {mismatches} classifier mismatches")


def test_criterion_09_cubic_factorization():
    """The family-III polynomial with the shortcut parameters collapses, on
    the critical line and after scaling by beta^2, to 2*(y + c)^3 when
    phi2 = -1 and to (y + c)^3 otherwise, up to an additive constant."""
    start = time.perf_counter()
    failures = 0
    total = 0
    for d in (5, 11):
        m = Modulus(d)
        rng = random.Random(200 + d)
        for _ in range(250):
            phi1 = rng.randrange(1, d)
            phi2 = rng.randrange(d)
            l1, l3 = rng.randrange(d), rng.randrange(d)
            k = rng.randrange(d)
            l2 = -l3 * (2 * phi1 * l1 + phi2 * l3) % d
            l4 = -l1 * (2 * phi2 * l3 + phi1 * l1) % d
            lam = (l1, l2, l3, l4)
            if phi2 == d - 1:
                alpha = 6 * (l1 * phi1 - l3) % d
                beta = inv(phi1, m)
                lead = 2
                c = inv(phi1, m) * (k - l3) % d
            else:
                alpha = (2 * inv(phi2 + 1, m)
                         * (l1 * phi1 * (phi2 + 2) + l3 * (phi2 ** 2 - 1))) % d
                beta = inv(phi1, m) * (phi2 + 1) % d
                lead = 1
                c = inv(phi1, m) * (k - l3) * (phi2 + 1) % d
            j = (l1 - beta * (k - l3)) % d
            st = PhaseFunctionState(
                m, 2, ZdPoly(m, 2, {(2, 1): phi1, (1, 2): phi2}))
            u = PhasePoint(m, 2, (1, 0, beta, 0))
            v = PhasePoint(m, 2, (0, 1, alpha, -inv(beta, m)))
            A = sum(a * b for a, b in zip(lam, u.coords)) % d
            B = sum(a * b for a, b in zip(lam, v.coords)) % d
            psi = master_polynomial(st, u, v, A, B, j, k)
            y = ZdPoly.variable(m, 1, 2)
            target = ((y + c) ** 3) * lead
            diff = psi * (beta * beta) - target
            # on the critical line the x-part vanishes entirely and the rest
            # matches the cube up to a constant
            x_free = all(e[0] == 0 for e in psi.coeffs)
            total += 1
            if not (x_free and diff.degree() <= 0):
                failures += 1
    ok = failures == 0 and total == 500
    report(9, ok, time.perf_counter() - start,
           f"{total} factorization instances, {failures} failures")


def test_criterion_10_contextual_fraction():
    """cf = 1 for every strong state at d=5 over the family contexts and
    cf = 0 for the flat state at d=3 over all 40 contexts, each LP solve
    inside its time budget."""
    start = time.perf_counter()
    m5 = Modulus(5)
    family = table1_contexts(m5)
    ok = True
    worst_lp = 0.0
    for st in strong_states(5):
        model = build_empirical_model(st, family)
        t0 = time.perf_counter()
        result = contextual_fraction(model)
        worst_lp = max(worst_lp, time.perf_counter() - t0)
        ok = ok and abs(result.cf - 1.0) <= 1e-6
    m3 = Modulus(3)
    flat = PhaseFunctionState(m3, 2, ZdPoly.zero(m3, 2))
    model = build_empirical_model(flat, enumerate_contexts(m3, 2))
    t0 = time.perf_counter()
    result = contextual_fraction(model)
    worst_lp = max(worst_lp, time.perf_counter() - t0)
    ok = ok and abs(result.cf) <= 1e-6
    ok = ok and worst_lp < 30.0
    report(10, ok, time.perf_counter() - start,
           f"cf=1 for 24 strong states, cf=0 for the flat state "
           f"(worst LP {worst_lp:.2f}s)")


def test_criterion_11_linearity_suite():
    """Every forcing identity holds for all 625 linear assignments at d=5;
    100 randomly perturbed non-linear assignments each violate one."""
    start = time.perf_counter()
    m = Modulus(5)
    points = list(itertools.product(range(5), repeat=4))
    ok = True
    for lam in kernel._grid(5, 4)[0]:  # lam . p over every point p
        table = dict(zip(points, (np.array(points) @ lam % 5).tolist()))
        if not check_linearity_forcing(m, table):
            ok = False
            break
    rng = random.Random(11)
    caught = 0
    for _ in range(100):
        lam = tuple(rng.randrange(5) for _ in range(4))
        table = {p: sum(a * b for a, b in zip(lam, p)) % 5 for p in points}
        victim = points[rng.randrange(1, len(points))]
        table[victim] = (table[victim] + rng.randrange(1, 5)) % 5
        if not check_linearity_forcing(m, table):
            caught += 1
    ok = ok and caught == 100
    report(11, ok, time.perf_counter() - start,
           f"625 linear assignments pass, {caught}/100 perturbations caught")
