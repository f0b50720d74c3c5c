import hashlib
import itertools
import json
import pathlib
import random

import numpy as np
import pytest

from stabctx import dense
from stabctx.phase_space import (
    Context,
    DimensionMismatch,
    PhasePoint,
    UnsupportedScale,
    context_rows,
    enumerate_contexts,
    span_labels,
    symplectic_product,
    table1_contexts,
    table1_rows,
)
from stabctx.zmod import MalformedInput, Modulus

KEY_DIGESTS = json.loads((pathlib.Path(__file__).parent / "data"
                          / "context_keys_sha256.json").read_text())


def pt(m, *coords):
    return PhasePoint(m, len(coords) // 2, tuple(coords))


def brute_force_lagrangians(m):
    """Independent oracle: span every commuting independent pair of nonzero
    points of Z_d^4 and deduplicate by element set."""
    d = m.d
    points = [c for c in itertools.product(range(d), repeat=4)
              if any(x != 0 for x in c)]
    arr = np.array(points)
    # symplectic Gram matrix between all pairs
    J = np.zeros((4, 4), dtype=int)
    for i in range(2):
        J[2 * i, 2 * i + 1] = 1
        J[2 * i + 1, 2 * i] = -1
    gram = arr @ J @ arr.T % d
    seen = set()
    for i in range(len(points)):
        for j in np.nonzero(gram[i] == 0)[0]:
            if j <= i:
                continue
            span = set()
            for a in range(d):
                for b in range(d):
                    span.add(tuple((a * arr[i] + b * arr[j]) % d))
            if len(span) == d * d:
                seen.add(frozenset(span))
    return seen


class TestSymplecticProduct:
    def test_family_I_generators_orthogonal(self):
        m = Modulus(5)
        for alpha in range(5):
            assert symplectic_product(pt(m, 1, 0, 0, 0), pt(m, 0, 0, alpha, 1)) == 0

    def test_self_product_zero(self):
        m = Modulus(7)
        rng = random.Random(0)
        for _ in range(20):
            v = pt(m, *(rng.randrange(7) for _ in range(4)))
            assert symplectic_product(v, v) == 0

    def test_single_pq_term(self):
        m = Modulus(5)
        assert symplectic_product(pt(m, 0, 1, 0, 0), pt(m, 1, 0, 0, 0)) == 4

    def test_antisymmetry_bilinearity(self):
        rng = random.Random(1)
        for d in (3, 5, 7, 11, 13):
            m = Modulus(d)
            for _ in range(20):
                u, v, w = (pt(m, *(rng.randrange(d) for _ in range(4)))
                           for _ in range(3))
                a, b = rng.randrange(d), rng.randrange(d)
                assert symplectic_product(u, v) == -symplectic_product(v, u) % d
                mix = PhasePoint(m, 2, tuple(a * x + b * y for x, y
                                             in zip(u.coords, v.coords)))
                lhs = symplectic_product(mix, w)
                rhs = (a * symplectic_product(u, w)
                       + b * symplectic_product(v, w)) % d
                assert lhs == rhs

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symplectic_product(pt(Modulus(3), 1, 0), pt(Modulus(3), 1, 0, 0, 0))
        with pytest.raises(DimensionMismatch):
            symplectic_product(pt(Modulus(3), 1, 0), pt(Modulus(5), 1, 0))


class TestCompose:
    """The Weyl law of `dense.weyl_matrix`, which `born.master_polynomial`
    and `dense.outcome_projector` rest on, at d = 3 and 5, with the phase
    computed here."""

    def test_composition_law_against_dense(self):
        # W(u) W(v) = omega^{inv2 [u,v]} W(u+v)
        rng = random.Random(4)
        for d in (3, 5):
            m = Modulus(d)
            w = dense.omega(d)
            for _ in range(15):
                u = pt(m, *(rng.randrange(d) for _ in range(4)))
                v = pt(m, *(rng.randrange(d) for _ in range(4)))
                phase = m.inv2 * symplectic_product(u, v) % d
                total = pt(m, *(a + b for a, b in zip(u.coords, v.coords)))
                lhs = dense.weyl_matrix(u) @ dense.weyl_matrix(v)
                rhs = w ** phase * dense.weyl_matrix(total)
                assert np.allclose(lhs, rhs, atol=1e-9)

    def test_d_fold_self_composition_is_identity(self):
        # W(v)^d = I, by direct matrix power
        for d in (3, 5):
            m = Modulus(d)
            for coords in [(1, 0, 0, 0), (1, 2, 0, 1), (2, 2, 1, 1)]:
                mat = dense.weyl_matrix(pt(m, *coords))
                assert np.allclose(np.linalg.matrix_power(mat, d),
                                   np.eye(d * d), atol=1e-9)


class TestEnumerateContexts:
    def test_single_qudit_count(self):
        assert len(enumerate_contexts(Modulus(3), 1)) == 4

    @pytest.mark.parametrize("d,expected", [(3, 40), (5, 156)])
    def test_two_qudit_count(self, d, expected):
        m = Modulus(d)
        ctxs = enumerate_contexts(m, 2)
        assert len(ctxs) == expected
        assert expected == (d * d + 1) * (d + 1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_brute_force_oracle(self, d):
        m = Modulus(d)
        ours = {frozenset(ctx.elements) for ctx in enumerate_contexts(m, 2)}
        assert ours == brute_force_lagrangians(m)

    def test_all_distinct(self):
        m = Modulus(5)
        ctxs = enumerate_contexts(m, 2)
        assert len({ctx.canonical_key for ctx in ctxs}) == len(ctxs)

    def test_pairwise_orthogonal_within_context(self):
        m = Modulus(3)
        for ctx in enumerate_contexts(m, 2):
            for a, b in itertools.combinations(ctx.elements, 2):
                va = PhasePoint(m, 2, a)
                vb = PhasePoint(m, 2, b)
                assert symplectic_product(va, vb) == 0

    def test_distinct_contexts_intersect_properly(self):
        m = Modulus(3)
        ctxs = enumerate_contexts(m, 2)
        rng = random.Random(6)
        for _ in range(100):
            c1, c2 = rng.sample(ctxs, 2)
            shared = set(c1.elements) & set(c2.elements)
            assert len(shared) < 9  # proper subspace of either

    def test_scale_guard(self):
        for enumerate_ in (enumerate_contexts, context_rows):
            for n in (0, 3):
                with pytest.raises(UnsupportedScale):
                    enumerate_(Modulus(3), n)

    @pytest.mark.parametrize("case", sorted(KEY_DIGESTS))
    def test_order_pinned(self, case):
        """Canonical keys, in enumeration order, keep the SHA-256 digests
        recorded before enumeration moved to `context_rows`; the array
        holds the same rows in the same order."""
        d, n = (int(part[1:]) for part in case.split("_"))
        keys = [[list(row) for row in ctx.canonical_key]
                for ctx in enumerate_contexts(Modulus(d), n)]
        for rows in (keys, context_rows(Modulus(d), n).tolist()):
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            assert digest == KEY_DIGESTS[case]


class TestTable1Contexts:
    def test_count_d5(self):
        m = Modulus(5)
        contexts = table1_contexts(m)
        assert len(contexts) == 30  # 5 + 5 + 20 = d(d+1)

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_count_formula(self, d):
        assert len(table1_contexts(Modulus(d))) == d * (d + 1)

    def test_generators_commute(self):
        m = Modulus(5)
        for ctx in table1_contexts(m):
            g1, g2 = ctx.basis
            assert symplectic_product(g1, g2) == 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_members_of_full_enumeration(self, d):
        m = Modulus(d)
        full = set(enumerate_contexts(m, 2))
        for ctx in table1_contexts(m):
            assert ctx in full

    def test_labels(self):
        m = Modulus(3)
        labels = [ctx.label for ctx in table1_contexts(m)]
        assert labels[0] == "I:alpha=0"
        assert "II:alpha=2" in labels
        assert "III:alpha=1,beta=2" in labels

    def test_all_distinct_subspaces(self):
        m = Modulus(5)
        contexts = table1_contexts(m)
        assert len({ctx.canonical_key for ctx in contexts}) == len(contexts)

    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
    def test_rows_name_the_catalogue(self, d):
        """`table1_rows` gives each family's row in `context_rows`, in
        catalogue order, with the family's label."""
        m = Modulus(d)
        rows, labels = table1_rows(m)
        keys = context_rows(m, 2)[rows].tolist()
        contexts = table1_contexts(m)
        assert keys == [[list(row) for row in ctx.canonical_key]
                        for ctx in contexts]
        assert labels == tuple(ctx.label for ctx in contexts)

    def test_tables_built_once_and_read_only(self):
        m = Modulus(5)
        assert table1_rows(m) is table1_rows(Modulus(5))
        assert context_rows(m, 2) is context_rows(Modulus(5), 2)
        for table in (table1_rows(m)[0], context_rows(m, 1),
                      context_rows(m, 2)):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_catalogues_built_once_as_tuples(self):
        """The `Context` catalogues are cached per argument and shared, so
        they are tuples of read-only contexts: no caller can append to the
        shared copy or relabel a context in it."""
        for build in (lambda: enumerate_contexts(Modulus(5), 2),
                      lambda: enumerate_contexts(Modulus(5), 1),
                      lambda: table1_contexts(Modulus(5))):
            first = build()
            assert type(first) is tuple
            assert build() is first
        # the scan's and the witness's span labels: one tuple per (d, n)
        for d, n in itertools.product((3, 5, 7), (1, 2)):
            labels = span_labels(Modulus(d), n)
            assert type(labels) is tuple
            assert labels == tuple(
                c.display_label for c in enumerate_contexts(Modulus(d), n))
            assert span_labels(Modulus(d), n) is labels
        shared = table1_contexts(Modulus(5))[0]
        with pytest.raises(AttributeError):
            shared.label = "changed"
        assert table1_contexts(Modulus(5))[0].label == "I:alpha=0"


class TestPhasePoint:
    def test_integer_coordinates_reduced_mod_d(self):
        point = PhasePoint(Modulus(5), 2, (np.int64(6), -1, True, 0))
        assert point.coords == (1, 4, 1, 0)

    @pytest.mark.parametrize("coord", [1.5, "1"])
    def test_rejects_non_integer_coordinates(self, coord):
        # a float coordinate would otherwise survive into Context.basis and
        # be truncated by the RREF behind the canonical key
        with pytest.raises(MalformedInput):
            PhasePoint(Modulus(5), 2, (coord, 0, 0, 0))


class TestContext:
    def test_equality_is_subspace_identity(self):
        m = Modulus(5)
        c1 = Context([pt(m, 1, 0, 0, 0), pt(m, 0, 0, 1, 0)])
        # same subspace, different generators
        c2 = Context([pt(m, 2, 0, 1, 0), pt(m, 3, 0, 1, 0)])
        assert c1 == c2
        assert hash(c1) == hash(c2)

    def test_rejects_non_isotropic(self):
        m = Modulus(5)
        with pytest.raises(DimensionMismatch):
            Context([pt(m, 1, 0, 0, 0), pt(m, 0, 1, 0, 0)])

    def test_rejects_dependent(self):
        m = Modulus(5)
        with pytest.raises(DimensionMismatch):
            Context([pt(m, 1, 0, 0, 0), pt(m, 2, 0, 0, 0)])

    def test_elements_and_coeffs(self):
        m = Modulus(3)
        ctx = Context([pt(m, 1, 0, 0, 0), pt(m, 0, 0, 1, 0)])
        assert len(ctx.elements) == 9
        for coords, coeffs in zip(ctx.elements, ctx.element_coeffs):
            want = [0, 0, 0, 0]
            for c, row in zip(coeffs, ctx.canonical_key):
                for i, entry in enumerate(row):
                    want[i] = (want[i] + c * entry) % 3
            assert tuple(want) == coords

    def test_record(self):
        m = Modulus(3)
        ctx = table1_contexts(m)[0]
        rec = ctx.record()
        assert rec["modulus"] == 3
        assert rec["label"] == ctx.label == "I:alpha=0"
        assert rec["basis"] == [[1, 0, 0, 0], [0, 0, 0, 1]]
