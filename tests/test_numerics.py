import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptforge
from gptforge.errors import DomainError, NumericalConsistencyError
from gptforge.numerics import (
    LinearProgram,
    check_feasible,
    effect_lp,
    lp_solve,
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


class TestLpSolve:
    def test_single_variable(self):
        box = (np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))  # 0 <= x <= 1
        res = lp_solve(LinearProgram(np.array([1.0]), ub=box))
        assert res.optimal and abs(res.value - 1.0) < 1e-8
        assert abs(res.x[0] - 1.0) < 1e-8

    def test_two_variables(self):
        lp = LinearProgram(
            np.array([1.0, 1.0]),  # x + y <= 1 with x, y >= 0
            ub=(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                np.array([1.0, 0.0, 0.0])),
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

    def test_non_finite_point_never_feasible(self):
        # nan passes every "> tol" comparison, so it is refused up front
        lp = LinearProgram(np.array([1.0]),
                           eq=(np.array([[1.0]]), np.array([1.0])))
        check_feasible(lp, np.array([1.0]))
        with pytest.raises(NumericalConsistencyError, match="non-finite"):
            check_feasible(lp, np.array([np.nan]))

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
            # the oracle's box lo <= x <= hi, given to the LP as ub rows
            eye = np.eye(n)
            rows = np.concatenate([a, eye, -eye])
            rhs = np.concatenate([b, hi, np.negative(lo)])
            res = lp_solve(LinearProgram(c, ub=(rows, rhs)))
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


def _public_callables():
    """(name, callable) for every public function, class and method defined
    in a gptforge module, exception types aside."""
    for info in pkgutil.iter_modules(gptforge.__path__):
        mod = importlib.import_module(f"gptforge.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__ or not callable(obj) \
                    or (inspect.isclass(obj)
                        and issubclass(obj, BaseException)):
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in inspect.getmembers(
                        obj, lambda m: inspect.isfunction(m)
                        or inspect.ismethod(m)):
                    if not attr.startswith("_") and \
                            member.__module__ == mod.__name__:
                        yield f"{info.name}.{name}.{attr}", member


def test_one_tolerance_knob():
    # tolerances come from the constants in gptforge.numerics; the one
    # parameter kept is used with two values (1e-6 for irrep dimensions)
    knobs = {
        f"{name}({param})"
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param.endswith("tol")
    }
    assert knobs == {"numerics.round_to_int(soft_tol)"}
