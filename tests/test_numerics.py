import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptforge.errors import DomainError
from gptforge.numerics import (
    LinearProgram,
    effect_lp,
    lp_solve,
    orthonormalize,
    round_to_int,
    symmetric_eigen,
)
from oracles import lp_vertex_oracle


class TestSymmetricEigen:
    def test_identity(self):
        w, v = symmetric_eigen(np.eye(3))
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        w, v = symmetric_eigen(np.diag([2.0, -1.0]))
        assert np.allclose(w, [2, -1])
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_reconstruction_8x8(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        m = a + a.T
        w, v = symmetric_eigen(m)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) < 1e-8
        assert np.all(np.diff(w) <= 1e-12)

    def test_reconstruction_64x64(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((64, 64))
        m = a + a.T
        w, v = symmetric_eigen(m)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) < 1e-8
        assert np.max(np.abs(v.T @ v - np.eye(64))) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            symmetric_eigen(np.zeros((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        m = a + a.T
        w, v = symmetric_eigen(m)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) < 1e-8


class TestOrthonormalize:
    def test_orthonormal_unchanged_up_to_sign(self):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 3)))[0]
        out = orthonormalize(q)
        assert np.allclose(np.abs(out.T @ q), np.eye(3), atol=1e-12)

    def test_gram_schmidt_by_hand(self):
        out = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_random_8x2(self):
        a = np.random.default_rng(1).standard_normal((8, 2))
        q = orthonormalize(a)
        assert np.max(np.abs(q.T @ q - np.eye(2))) < 1e-12
        # same span: projections agree
        p1 = q @ q.T
        u = np.linalg.qr(a)[0]
        assert np.allclose(p1, u @ u.T, atol=1e-10)

    def test_rank_deficient_reports_rank(self):
        a = np.ones((4, 2))
        with pytest.raises(DomainError, match="rank 1"):
            orthonormalize(a)


class TestLpSolve:
    def test_single_variable(self):
        res = lp_solve(LinearProgram(np.array([1.0]), bounds=[(0.0, 1.0)]))
        assert res.optimal and abs(res.value - 1.0) < 1e-8
        assert abs(res.x[0] - 1.0) < 1e-8

    def test_two_variables(self):
        lp = LinearProgram(
            np.array([1.0, 1.0]),
            ub=(np.array([[1.0, 1.0]]), np.array([1.0])),
            bounds=[(0.0, None), (0.0, None)],
        )
        res = lp_solve(lp)
        assert res.optimal and abs(res.value - 1.0) < 1e-8

    def test_infeasible(self):
        lp = LinearProgram(
            np.array([1.0]),
            eq=(np.array([[1.0], [1.0]]), np.array([1.0, 2.0])),
        )
        assert lp_solve(lp).status == "infeasible"

    def test_unbounded(self):
        res = lp_solve(LinearProgram(np.array([1.0])))
        assert res.status == "unbounded"

    def test_width_mismatch(self):
        lp = LinearProgram(np.array([1.0, 2.0]),
                           ub=(np.array([[1.0]]), np.array([1.0])))
        with pytest.raises(DomainError):
            lp_solve(lp)

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 9))
            c = rng.standard_normal(n)
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m) + 1.0
            lo = [-5.0] * n
            hi = [5.0] * n
            status, value = lp_vertex_oracle(c, a, b, lo, hi)
            res = lp_solve(LinearProgram(c, ub=(a, b),
                                         bounds=list(zip(lo, hi))))
            assert res.status == status
            if status == "optimal":
                assert abs(res.value - value) < 1e-8


class TestEffectLp:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_against_vertex_enumeration(self, seed, k, dim, extra):
        # identity rows bound every coordinate to [0, 1], so the oracle's
        # box is slack; the k effects separate into k independent LPs
        rng = np.random.default_rng(seed)
        points = np.concatenate(
            [np.eye(dim), rng.uniform(-1.0, 1.0, (extra, dim))])
        objective = rng.standard_normal((k, dim))
        res = effect_lp(points, objective)
        assert res.optimal
        a_ub = np.concatenate([points, -points])
        b_ub = np.concatenate([np.ones(len(points)), np.zeros(len(points))])
        box = [-5.0] * dim, [5.0] * dim
        expected = 0.0
        for c in objective:
            status, value = lp_vertex_oracle(c, a_ub, b_ub, *box)
            assert status == "optimal"
            expected += value
        assert abs(res.value - expected) < 1e-8
        vals = points @ res.x.reshape(k, dim).T
        assert vals.min() >= -1e-8 and vals.max() <= 1.0 + 1e-8

    def test_equalities_over_stacked_effects(self):
        # two effects summing to the unit on a segment: a measurement
        points = np.array([[1.0, 1.0], [1.0, -1.0]])
        a_eq = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        res = effect_lp(points, [[0.0, 1.0], [0.0, -1.0]],
                        eq=(a_eq, np.array([1.0, 0.0])))
        assert res.optimal and abs(res.value - 1.0) < 1e-8
        assert np.allclose(res.x, [0.5, 0.5, 0.5, -0.5], atol=1e-8)


class TestRoundToInt:
    def test_exact(self):
        assert round_to_int(3.0) == 3

    def test_within_soft(self):
        assert round_to_int(2.0 + 5e-9) == 2

    def test_hard_failure(self):
        from gptforge.errors import NumericalConsistencyError

        with pytest.raises(NumericalConsistencyError):
            round_to_int(2.01)

    def test_warning_band(self):
        with pytest.warns(UserWarning):
            assert round_to_int(2.0 + 1e-6) == 2
