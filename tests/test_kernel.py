"""The possibility engine against oracles that share no code with it: the
master-polynomial route and the dense projector norm.  Its closed-form
point counts against their enumeration.  Also the proof stage's three
contexts per hidden variable, checked to refute it by the engine and, on a
sample, by the master-polynomial route."""

import itertools
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from stabctx import dense, kernel
from stabctx.born import JointOutcome, impossibility_by_psi
from stabctx.hidden_vars import proof_stage_positions
from stabctx.phase_space import context_rows, enumerate_contexts, \
    table1_contexts, table1_rows
from stabctx.states import PhaseFunctionState
from stabctx.zmod import MalformedInput, Modulus, ZdPoly, parse_poly
from test_properties import CENSUS


def random_state(rng, d):
    m = Modulus(d)
    coeffs = {(rng.randrange(4), rng.randrange(4)): rng.randrange(d)
              for _ in range(5)}
    if rng.random() < 0.5:  # strong normal-form states have impossible outcomes
        coeffs = {(2, 1): rng.randrange(1, d), (1, 2): rng.randrange(d)}
    return PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))


def all_outcomes(d):
    return [(a, b) for a in range(d) for b in range(d)]


def weyl(d, phi_table, gens):
    """All of kernel.PointCounts.weyl_counts' blocks, checked to tile the
    subspaces in order."""
    blocks, end = [], 0
    for qs, block in kernel.PointCounts(d, phi_table).weyl_counts(gens):
        assert (qs.start, qs.stop) == (end, end + len(block))
        blocks.append(block)
        end = qs.stop
    assert end == len(gens)
    return np.concatenate(blocks)


def test_kernel_matches_projector_route():
    rng = random.Random(1)
    verdicts = set()
    for d, count in ((3, 12), (5, 8), (7, 4)):
        contexts = enumerate_contexts(Modulus(d), 2)
        for _ in range(count):
            st = random_state(rng, d)
            ctx = contexts[rng.randrange(len(contexts))]
            outcomes = all_outcomes(d)
            got = kernel.impossible(d, st.phi_table(),
                                    [ctx.canonical_key] * len(outcomes),
                                    outcomes)
            vec = dense.phase_state_vector(st.modulus, st.phi)
            for (a, b), imp in zip(outcomes, got.tolist()):
                outcome = JointOutcome(ctx, (a, b))
                assert imp == impossibility_by_psi(st, outcome)
                proj = dense.outcome_projector(ctx, (a, b))
                assert imp == (np.linalg.norm(proj @ vec) < 1e-9)
                verdicts.add(imp)
    assert verdicts == {True, False}


def test_inputs_reduced_mod_d():
    rng = random.Random(2)
    shifts = np.random.default_rng(2)
    for d in (3, 5, 7):
        contexts = enumerate_contexts(Modulus(d), 2)
        for _ in range(10):
            st = random_state(rng, d)
            tab = st.phi_table().astype(np.int64)
            gens = np.array([contexts[rng.randrange(len(contexts))].canonical_key
                             for _ in range(d * d)])
            outcomes = np.array(all_outcomes(d))
            moved = (tab + d * shifts.integers(-3, 4, tab.shape),
                     gens + d * shifts.integers(-3, 4, gens.shape),
                     outcomes + d * shifts.integers(-3, 4, outcomes.shape))
            assert np.array_equal(kernel.impossible(d, *moved),
                                  kernel.impossible(d, tab, gens, outcomes))
            assert np.array_equal(
                weyl(d, moved[0], moved[1][:d]),
                weyl(d, tab, gens[:d]))


BIG = 5 * 10 ** 30  # a multiple of d = 5 beyond int64: numpy holds objects


def big(array):
    return np.asarray(array).astype(object) + BIG


def test_integers_beyond_int64_reduced_mod_d():
    """Every entry point gives the same answer with its generators,
    outcomes, phi table or lams shifted by BIG as without the shift."""
    d, m = 5, Modulus(5)
    st = PhaseFunctionState(m, 2, ZdPoly(m, 2, {(2, 1): 1, (1, 2): 2}))
    tab = st.phi_table()
    gens = context_rows(m, 2)[::7]
    outcomes = np.indices((d, d)).reshape(2, -1).T[:len(gens)]
    want = kernel.impossible(d, tab, gens, outcomes)
    assert want.any() and not want.all()
    for args in ((big(tab), gens, outcomes), (tab, big(gens), outcomes),
                 (tab, gens, big(outcomes))):
        assert np.array_equal(kernel.impossible(d, *args), want)
        assert np.array_equal(
            kernel.PointCounts(d, args[0]).impossible(*args[1:]), want)
    assert np.array_equal(weyl(d, big(tab), big(gens)), weyl(d, tab, gens))
    lams = np.indices((d,) * 4).reshape(4, -1).T[::7]
    assert np.array_equal(proof_stage_positions(m, 1, 2, big(lams)),
                          proof_stage_positions(m, 1, 2, lams))


def test_proof_stage_contexts_refute_every_lambda():
    """On every strong normal form, at least one of the three Table-1
    contexts `proof_stage_positions` names for a lam (not necessarily each)
    makes lam's prescribed outcome impossible; at d = 5 a seeded sample is
    rechecked through the master polynomial, which shares no code with the
    engine."""
    rng = random.Random(16)
    for d, pairs in ((3, None), (5, None),
                     (11, [(1, 10), (3, 5), (7, 0), (10, 10)])):
        m = Modulus(d)
        lams = np.indices((d,) * 4).reshape(4, -1).T
        rows = context_rows(m, 2)
        table1 = table1_rows(m)[0]
        families = table1_contexts(m)
        for phi1, phi2 in pairs or itertools.product(range(1, d), range(d)):
            st = PhaseFunctionState(m, 2, ZdPoly(m, 2, {(2, 1): phi1,
                                                        (1, 2): phi2}))
            pos = proof_stage_positions(m, phi1, phi2, lams)
            gens = rows[table1[pos]]  # (lam, 3, 2, 4)
            ab = (gens @ lams[:, None, :, None])[..., 0] % d
            refuted = kernel.PointCounts(d, st.phi_table()).impossible(
                gens.reshape(-1, 2, 4), ab.reshape(-1, 2)).reshape(-1, 3)
            assert refuted.any(axis=1).all(), (d, phi1, phi2)
            if d != 5:
                continue
            for i in rng.sample(range(len(lams)), 5):
                assert any(impossibility_by_psi(st, JointOutcome(
                    families[p],
                    tuple(np.array(families[p].canonical_key) @ lams[i] % d)))
                    for p in pos[i].tolist()), (phi1, phi2, lams[i])


KEY = ((1, 0, 0, 0), (0, 0, 1, 0))


@pytest.mark.parametrize("phi_table, gens, values", [
    # two generator sets, one outcome pair
    (np.zeros((5, 5), dtype=int), [KEY] * 2, [(0, 0)]),
    # one outcome per query where a two-qudit query needs two
    (np.zeros((5, 5), dtype=int), [KEY], [(0,)]),
    # a table over Z_3^2 at d = 5
    (np.zeros((3, 3), dtype=int), [KEY], [(0, 0)]),
    # a three-qudit table
    (np.zeros((5, 5, 5), dtype=int), [KEY], [(0, 0)]),
    # a float table, float generators, float and string outcomes: none of
    # them may be truncated to the integers they start with
    (np.zeros((5, 5)), [KEY], [(0, 0)]),
    (np.zeros((5, 5), dtype=int), [((1.5, 0, 0, 0), (0, 0, 1, 0))], [(0, 0)]),
    (np.zeros((5, 5), dtype=int), [KEY], [(1.5, 0)]),
    (np.zeros((5, 5), dtype=int), [KEY], [("1", 0)]),
    # ragged generators, ragged outcomes
    (np.zeros((5, 5), dtype=int), [((1, 0, 0, 0), (0, 0, 1))], [(0, 0)]),
    (np.zeros((5, 5), dtype=int), [KEY] * 2, [(0, 0), (0,)]),
    # object arrays, as integers beyond int64 make, holding a float or a str
    (np.zeros((5, 5), dtype=int), [((BIG, 1.5, 0, 0), (0, 0, 1, 0))],
     [(0, 0)]),
    (np.zeros((5, 5), dtype=int), [KEY], [(BIG, "1")]),
    # object arrays holding a bool, which Python would read as 0 or 1
    (np.zeros((5, 5), dtype=int), [KEY], [(BIG, True)]),
    (np.zeros((5, 5), dtype=int), [KEY], [(BIG, np.False_)]),
    (np.zeros((5, 5), dtype=int), [((BIG, True, 0, 0), (0, 0, 1, 0))],
     [(0, 0)]),
])
def test_malformed_queries_rejected(phi_table, gens, values):
    """Every engine entry raises MalformedQuery, which is a MalformedInput
    and so also a ValueError.  Generators other than KEY's are at fault,
    and their rows, read as lams, are rejected by the proof stage too."""
    for engine in (kernel.impossible, lambda d, tab, *query:
                   kernel.PointCounts(d, tab).impossible(*query)):
        with pytest.raises(kernel.MalformedQuery) as info:
            engine(5, phi_table, gens, values)
        assert isinstance(info.value, ValueError)
    if len(gens) == 1 and values == [(0, 0)]:  # table or generators at fault
        with pytest.raises(kernel.MalformedQuery) as info:
            weyl(5, phi_table, gens)
        assert isinstance(info.value, ValueError)
    if gens != [KEY] * len(gens):
        with pytest.raises(MalformedInput):
            proof_stage_positions(Modulus(5), 1, 2,
                                  [row for gen in gens for row in gen])


def test_multi_chunk_batch_equals_single_queries(monkeypatch):
    rng = random.Random(3)
    d = 5
    st = random_state(rng, d)
    contexts = enumerate_contexts(Modulus(d), 2)
    queries = [(contexts[rng.randrange(len(contexts))].canonical_key,
                (rng.randrange(d), rng.randrange(d))) for _ in range(1000)]
    gens = [g for g, _ in queries]
    outcomes = [o for _, o in queries]
    assert len(queries) * d ** 4 > 2 * kernel.CHUNK
    flags = kernel.impossible(d, st.phi_table(), gens, outcomes)
    assert flags.any() and not flags.all()
    for i, (g, o) in enumerate(queries):
        assert flags[i] == kernel.impossible(d, st.phi_table(), [g], [o])[0]
    monkeypatch.setattr(kernel, "CHUNK", 5)  # one point per bincount
    assert np.array_equal(
        kernel.impossible(d, st.phi_table(), gens[:50], outcomes[:50]),
        flags[:50])
    for i in range(10):  # one query's d^2 points: its kets split too
        assert flags[i] == kernel.impossible(d, st.phi_table(), [gens[i]],
                                             [outcomes[i]])[0]


def test_one_query_memory_bounded_at_d31():
    d = 31
    tab = np.arange(d * d).reshape(d, d) ** 3 % d
    tracemalloc.start()
    try:
        kernel.impossible(d, tab, [((1, 0, 0, 0), (0, 0, 0, 1))], [(0, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 24 bytes per CHUNK entry; one unchunked query at d = 31
    # (d^4 = 923,521 exponents) takes about 22 MiB
    assert peak < 48 * kernel.CHUNK


def test_many_queries_memory_bounded_at_d7():
    """`impossible` enumerates the queries of CHUNK points at a time, so
    every cell at d = 7 (19,600 queries over 2,401 points) peaks at a fixed
    amount beyond copies of its inputs; enumerating all of them at once
    took 35 MiB."""
    d = 7
    gens, outcomes = every_cell(d, 2, context_rows(Modulus(d), 2))
    tab = np.arange(d * d).reshape(d, d) ** 3 % d
    tracemalloc.start()
    try:
        kernel.impossible(d, tab, gens, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one reduced copy of the inputs, then per block `_points`' int32
    # products (about 32 bytes per point) and the block's counts: measured
    # 4.1 MiB; with int64 products and two copies of the inputs, 6.0 MiB
    assert peak < gens.nbytes + outcomes.nbytes + 64 * kernel.CHUNK


def every_cell(d, n, gens):
    """Query generators and outcomes: each subspace repeated once per
    outcome, outcomes row-major."""
    outcomes = np.indices((d,) * n).reshape(n, -1).T
    return np.repeat(gens, d ** n, axis=0), np.tile(outcomes, (len(gens), 1))


def weyl_by_query(d, n, phi_table, gens):
    """weyl_counts' oracle, the exponent written out here for every cell:
    element c of subspace g, at (P, Q) = c.g, and output ket J give the
    root of Pi|psi> at J with exponent -c.a - inv2 P.Q + J.P + Phi(J - Q),
    and pairing with <psi| subtracts Phi(J); summed over kets, these
    per-ket residue counts are R[q, a, s].  Elements, kets and outcomes a
    run row-major over Z_d^n."""
    grid = np.indices((d,) * n).reshape(n, -1).T
    place = d ** np.arange(n - 1, -1, -1)
    phi = np.ravel(phi_table)
    inv2 = (d + 1) // 2
    out = np.empty((len(gens), d ** n, d), dtype=np.int64)
    for q, g in enumerate(np.asarray(gens) % d):
        points = grid @ g % d  # (element, coordinate)
        P, Q = points[:, 0::2], points[:, 1::2]
        e = (-inv2 * (P * Q).sum(axis=1)[:, None] + P @ grid.T
             + phi[(grid - Q[:, None]) % d @ place] - phi)  # (element, ket)
        e = (e - (grid @ grid.T)[:, :, None]) % d  # (outcome, element, ket)
        e += d * np.arange(d ** n)[:, None, None]
        out[q] = np.bincount(e.ravel(), minlength=d ** (n + 1)).reshape(-1, d)
    return out


def impossible_by_query(d, n, phi_table, gens):
    """kernel.impossible on every (subspace, outcome) cell, shaped (q, o)."""
    return kernel.impossible(d, phi_table, *every_cell(d, n, gens)).reshape(
        len(gens), d ** n)


@pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1),
                                  (7, 2)])
def test_weyl_counts_equal_ket_sums_of_residue_counts(d, n):
    rng = random.Random(d + n)
    m = Modulus(d)
    keys = np.array([c.canonical_key for c in enumerate_contexts(m, n)])
    if n == 2:
        tables = [random_state(rng, d).phi_table() for _ in range(2)]
    else:  # a quadratic table is a stabilizer state, with impossible outcomes
        tables = [np.array([rng.randrange(d) for _ in range(d)]),
                  np.arange(d) ** 2 * rng.randrange(1, d) % d]
    verdicts = set()
    for tab in tables:
        got = weyl(d, tab, keys)
        assert got.shape == (len(keys), d ** n, d)
        assert np.array_equal(got, weyl_by_query(d, n, tab, keys))
        possible = (got != got[..., :1]).any(axis=-1)
        assert np.array_equal(possible, ~impossible_by_query(d, n, tab, keys))
        verdicts.update(possible.ravel().tolist())
    assert verdicts == {True, False}


@pytest.mark.parametrize("d, count", [(11, 6), (13, 4)])
def test_weyl_possibility_matches_impossible_on_sampled_cells(d, count):
    rng = random.Random(d)
    m = Modulus(d)
    pools = (enumerate_contexts(m, 2), table1_contexts(m))
    verdicts = set()
    for _ in range(2):
        tab = random_state(rng, d).phi_table()
        keys = [pool[rng.randrange(len(pool))].canonical_key
                for pool in pools for _ in range(count)]
        got = weyl(d, tab, keys)
        possible = (got != got[..., :1]).any(axis=-1)
        assert np.array_equal(possible, ~impossible_by_query(d, 2, tab, keys))
        verdicts.update(possible.ravel().tolist())
    assert verdicts == {True, False}


@pytest.mark.parametrize("chunk", [
    # per gather of the enumerated table; per histogram of the closed form
    2 * 5 ** 6,  # ten subspaces; every subspace
    4 * 5 ** 4,  # twenty outcomes; four subspaces
    100,  # one outcome; four outcomes
])
def test_weyl_counts_split_equals_unsplit(monkeypatch, chunk):
    d = 5
    j, k = np.indices((d, d))
    tables = (random_state(random.Random(5), d).phi_table(),  # closed form
              (j ** 4 * k + k ** 3) % d)  # enumerated
    assert [kernel.PointCounts(d, tab).table is None
            for tab in tables] == [True, False]
    keys = [c.canonical_key for c in enumerate_contexts(Modulus(d), 2)[::15]]
    for tab in tables:
        monkeypatch.setattr(kernel, "CHUNK", len(keys) * d ** 6)
        whole = weyl(d, tab, keys)
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        split = weyl(d, tab, keys)
        assert np.array_equal(split, whole)


D13 = 13
# k^3, whose differences are quadratic (the closed form), and j^4 * k + k^3,
# whose are not (enumeration), as tables over Z_13^2
CUBIC_D13 = np.arange(D13 * D13).reshape(D13, D13) ** 3 % D13
QUARTIC_D13 = (np.outer(np.arange(D13) ** 4, np.arange(D13)) + CUBIC_D13) % D13


def one_subspace_memory(tab, has_table):
    """Peak traced memory of building a d = 13 state's PointCounts and
    reading one subspace's weyl_counts, checked to hold an enumerated
    table or not (the closed form holds none)."""
    tracemalloc.start()
    try:
        counts = kernel.PointCounts(D13, tab)
        blocks = list(counts.weyl_counts([((1, 0, 0, 0), (0, 0, 0, 1))]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (counts.table is not None) == has_table
    # enumeration: d^6 = 4,826,809 point exponents in bincounts of CHUNK or
    # fewer; both: gathers of CHUNK or fewer entries
    assert peak < sum(b.nbytes for _, b in blocks) + 48 * kernel.CHUNK


def test_one_subspace_memory_bounded_at_d13():
    one_subspace_memory(CUBIC_D13, False)


def test_one_subspace_memory_bounded_at_d13_enumerated():
    one_subspace_memory(QUARTIC_D13, True)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_point_counts_impossible_equals_per_ket_impossible(d):
    """The state's whole table (closed form for the cubic states) against
    `kernel.impossible`, which enumerates only the asked points (once the
    per-ket route): every (subspace, outcome) cell up to d = 7; beyond,
    every outcome of sampled random and Table-1 subspaces."""
    rng = random.Random(20 + d)
    m = Modulus(d)
    pools = (enumerate_contexts(m, 2), table1_contexts(m))
    verdicts = set()
    for _ in range(2):
        tab = random_state(rng, d).phi_table()
        keys = [c.canonical_key for c in pools[0]] if d <= 7 else [
            pool[rng.randrange(len(pool))].canonical_key
            for pool in pools for _ in range(5)]
        gens, outcomes = every_cell(d, 2, keys)
        got = kernel.PointCounts(d, tab).impossible(gens, outcomes)
        assert np.array_equal(got, kernel.impossible(d, tab, gens, outcomes))
        verdicts.update(got.tolist())
    assert verdicts == {True, False}


def cell_gathers_memory(tab, has_table):
    """Peak traced memory of building a d = 13 state's PointCounts and
    reading every outcome of one subspace through `impossible`, checked to
    hold an enumerated table or not (the closed form holds none)."""
    d = D13
    gens, outcomes = every_cell(d, 2, [((1, 0, 0, 0), (0, 0, 0, 1))])
    tracemalloc.start()
    try:
        counts = kernel.PointCounts(d, tab)
        counts.impossible(gens, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (counts.table is not None) == has_table
    table = counts.table.nbytes if has_table else 0
    # the table (enumerated: 5.7 CHUNK), then d^3 = 2,197 counts per cell in
    # gathers of CHUNK or fewer, six for these 169 cells: measured 21 CHUNK
    # more; the closed form reads d^2 bins per cell instead
    assert len(gens) * d ** 3 > 5 * kernel.CHUNK
    assert peak < table + 48 * kernel.CHUNK


def test_cell_gathers_memory_bounded_at_d13():
    cell_gathers_memory(CUBIC_D13, False)


def test_cell_gathers_memory_bounded_at_d13_enumerated():
    cell_gathers_memory(QUARTIC_D13, True)


def test_closed_form_build_memory_per_point_at_d31():
    """The closed form holds no d^(2n+1) array: at d = 31 (923,521 phase
    points) its build peaks at a fixed number of bytes per point."""
    d = 31
    tab = np.arange(d * d).reshape(d, d) ** 3 % d
    kernel._quadratics(d)  # per-d constants, built once per process
    tracemalloc.start()
    try:
        counts = kernel.PointCounts(d, tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.table is None
    # measured 13 bytes per point, at the rank-1 test: the int32 key
    # beside that test's int32 sums and their bool mask
    assert peak < 24 * d ** 4


def strong_normal_forms(d):
    m = Modulus(d)
    for phi1, phi2 in itertools.product(range(1, d), range(d)):
        yield PhaseFunctionState(m, 2, ZdPoly(m, 2, {(2, 1): phi1,
                                                     (1, 2): phi2}))


def full_cubic(rng, d):
    """All ten coefficients of degree <= 3 drawn, a quadratic (zero cubic
    part) one time in three."""
    m = Modulus(d)
    top = 3 if rng.randrange(3) else 2
    return PhaseFunctionState(m, 2, ZdPoly(m, 2, {
        (a, b): rng.randrange(d) for a in range(top + 1)
        for b in range(top + 1 - a)}))


def enumerated(d, phi_table):
    """The point counts C[t, w] by enumeration, the closed form's oracle."""
    d, phi, n = kernel._table(d, phi_table)
    return kernel._point_counts(d, phi, *kernel._grid(d, n),
                                np.arange(d ** (2 * n)))


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_closed_form_equals_enumeration(d):
    """Expanded through its key, the closed form's counts are the enumerated
    C, C_w being the histogram reader's spread row at the bin of c.a = 0:
    on every strong normal form up to d = 11 and a seeded sample at
    d = 13, and on seeded cubics and quadratics with every coefficient
    drawn (rank-1 and M = 0 points beyond Q = 0), plus j*k and 0."""
    rng = random.Random(40 + d)
    m = Modulus(d)
    states = list(strong_normal_forms(d))
    if d == 13:
        states = rng.sample(states, 6)
    states += [full_cubic(rng, d) for _ in range(6)]
    states += [PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
               for coeffs in ({(1, 1): 1}, {})]
    for st in states:
        counts = kernel.PointCounts(d, st.phi_table())
        assert counts.table is None, st.phi
        bins, spread = kernel._bins(d)
        assert np.array_equal(spread[bins[counts.key * d]].T,
                              enumerated(d, st.phi_table())), st.phi


@pytest.mark.parametrize("d", [17, 23])
def test_closed_form_equals_enumeration_at_large_d(d):
    """As above, at d = 17 and 23, where the closed form's integer sums are
    largest: on a strong normal form and a cubic form with points of every
    class, at a seeded sample of up to 50 points of each class."""
    m = Modulus(d)
    rng = np.random.default_rng(d)
    bins, spread = kernel._bins(d)
    classes = set()
    for text in ("j^2*k + 3*j*k^2", "j^3 + j^2*k + j*k^2"):
        table = PhaseFunctionState(m, 2, parse_poly(text, m)).phi_table()
        counts = kernel.PointCounts(d, table)
        assert counts.table is None, text
        cls = counts.key // d
        points = np.concatenate([rng.permutation(np.flatnonzero(cls == c))[:50]
                                 for c in range(6)])
        classes.update(cls[points].tolist())
        _, phi, _ = kernel._table(d, table)
        assert np.array_equal(
            spread[bins[counts.key[points] * d]].T,
            kernel._point_counts(d, phi, *kernel._grid(d, 2), points)), text
    assert classes == set(range(6))


def histogram_and_gather(d, st):
    """A closed-form state's point counts, read by class histogram, and
    their oracle: the same state's counts enumerated at every point, read
    through the gather."""
    counts = kernel.PointCounts(d, st.phi_table())
    assert counts.table is None, st.phi
    _, phi, _ = kernel._table(d, st.phi_table())
    return counts, kernel.PointCounts._enumerated(d, phi, 2,
                                                  np.arange(d ** 4))


def route_states(d):
    """Every strong normal form, and the census's one binary cubic form per
    splitting type where it has them."""
    m = Modulus(d)
    forms = CENSUS[d][:-1] if d in CENSUS else ()
    return list(strong_normal_forms(d)) + [
        PhaseFunctionState(m, 2, parse_poly(text, m)) for text in forms]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_histogram_uniform_equals_gather_on_every_cell(d):
    """`uniform` by class histogram against the gather of the enumerated
    counts, on every (subspace, outcome) cell."""
    rows = np.arange(len(context_rows(Modulus(d), 2)))
    points = np.repeat(kernel.row_points(d, rows), d * d, axis=0)
    values = np.tile(np.indices((d, d)).reshape(2, -1).T, (len(rows), 1))
    verdicts = set()
    for st in route_states(d):
        counts, oracle = histogram_and_gather(d, st)
        got = counts.uniform(points, values)
        assert np.array_equal(got, oracle.uniform(points, values)), st.phi
        verdicts.update(got.tolist())
    assert verdicts == {True, False}


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_histogram_weyl_counts_equal_gather(d):
    """`weyl_counts` by class histogram equals the gather of the enumerated
    counts, every int64 count of every outcome: on every context up to
    d = 7, and on sampled contexts beyond."""
    rng = random.Random(60 + d)
    rows = context_rows(Modulus(d), 2)
    states = route_states(d)
    if d > 7:
        rows = rows[rng.sample(range(len(rows)), 6)]
        states = rng.sample(states, 4)
    for st in states:
        counts, oracle = histogram_and_gather(d, st)
        got = np.concatenate([b for _, b in counts.weyl_counts(rows)])
        want = np.concatenate([b for _, b in oracle.weyl_counts(rows)])
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), st.phi


@pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1),
                                  (7, 2)])
def test_point_counts_at_asked_points_equal_full_columns(monkeypatch, d, n):
    """`_point_counts` at a subset of points is the full enumeration's
    columns there: at one subspace's points, at one point and at fewer than
    d^(2n-1) random points, with CHUNK small enough that chunk edges split
    the kets (fewer than d^(2n-1) points, or n = 2) and one subspace's
    points.  And `impossible` on every outcome of one subspace, whose
    queries repeat its points, is `PointCounts.impossible`: on a random
    table and on a cubic one (the closed form for n = 2)."""
    rng = np.random.default_rng(10 * d + n)
    cubic = np.indices((d,) * n)
    cubic = cubic[0] ** (4 - n) * cubic[-1] ** (n - 1) % d  # x^3, j^2 * k
    rows = context_rows(Modulus(d), n)
    gens, outcomes = every_cell(d, n, rows[rng.integers(len(rows), size=1)])
    subspace = np.unique(kernel._points(d, n, gens[:1]))
    few = np.sort(rng.choice(d ** (2 * n), d ** (2 * n - 1) - 1, replace=False))
    for tab in (rng.integers(0, d, (d,) * n), cubic):
        full = enumerated(d, tab)
        _, phi, _ = kernel._table(d, tab)
        want = kernel.PointCounts(d, tab).impossible(gens, outcomes)
        for chunk in (2, 12 * d, kernel.CHUNK):
            monkeypatch.setattr(kernel, "CHUNK", chunk)
            for points in (subspace, few[:1], few):
                got = kernel._point_counts(d, phi, *kernel._grid(d, n),
                                           points)
                assert np.array_equal(got, full[:, points]), (chunk, points)
            assert np.array_equal(kernel.impossible(d, tab, gens, outcomes),
                                  want)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_row_points_cache_every_row_and_only_rows_asked(d):
    """`row_points` equals the point formula written out per element, on
    every row of `context_rows`, and computes only the rows asked for."""
    rows = context_rows(Modulus(d), 2)
    want = np.empty((len(rows), d * d), dtype=np.int64)
    for sid, (g1, g2) in enumerate(rows.tolist()):
        for e, (c1, c2) in enumerate(itertools.product(range(d), repeat=2)):
            p1, q1, p2, q2 = ((c1 * a + c2 * b) % d for a, b in zip(g1, g2))
            want[sid, e] = ((p1 * d + p2) * d + q1) * d + q2
    kernel._row_points.cache_clear()
    asked = np.array(random.Random(d).choices(range(len(rows)), k=d))
    got = kernel.row_points(d, asked)
    assert got.dtype == np.int32 and np.array_equal(got, want[asked])
    info = kernel._row_points.cache_info()
    assert info.currsize == info.misses == len(set(asked.tolist()))
    every = np.arange(len(rows))
    assert np.array_equal(kernel.row_points(d, every), want)
    assert kernel._row_points.cache_info().currsize == len(rows)
    assert np.array_equal(kernel.row_points(d, asked.tolist()), got)
    with pytest.raises(ValueError):  # the cached rows are read-only
        kernel._row_points(d, 0)[0] = 0


def test_row_points_shared_by_threads():
    """Four threads asking overlapping rows of a fresh d at once, from a
    cold cache, switching every microsecond, each get the serial answer,
    and the cache they share ends holding exactly the rows asked."""
    d, threads = 11, 4
    count = len(context_rows(Modulus(d), 2))
    step, rng = count // (threads + 1), random.Random(d)
    asks = [[np.array(rng.choices(range(step * t, step * (t + 2)), k=16))
             for _ in range(40)] for t in range(threads)]
    kernel._row_points.cache_clear()
    want = kernel.row_points(d, np.arange(count))
    kernel._row_points.cache_clear()
    got = [None] * threads
    start = threading.Barrier(threads)

    def work(t):
        start.wait(timeout=60)
        got[t] = [kernel.row_points(d, sids) for sids in asks[t]]

    workers = [threading.Thread(target=work, args=(t,))
               for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert None not in got
    for sids_list, points_list in zip(asks, got):
        for sids, points in zip(sids_list, points_list):
            assert np.array_equal(points, want[sids])
    asked = sorted({s for ask in asks for sids in ask for s in sids.tolist()})
    held = kernel._row_points.cache_info()
    assert held.currsize == len(asked)
    kernel.row_points(d, np.array(asked))  # every asked row is held
    assert kernel._row_points.cache_info().misses == held.misses
