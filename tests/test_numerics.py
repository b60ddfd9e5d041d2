import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptforge
from gptforge import deformation, discrimination, numerics, state_space
from gptforge.errors import (
    DomainError,
    LpSolverFailure,
    NumericalConsistencyError,
)
from gptforge.numerics import (
    CERTIFIED_RADIUS,
    DEFAULT_TOL,
    ZERO_NORM,
    LinearProgram,
    check_feasible,
    effect_lp,
    effect_program,
    lp_solve,
    round_to_int,
    symmetric_eigen,
)
from oracles import highs_lp, lp_vertex_oracle


def _assert_certificate(p, res):
    """The kernel's evidence for ``res``, checked on the arrays of ``p``."""
    assert res.certificate is not None
    c = np.asarray(p.objective, dtype=float)
    empty = (np.zeros((0, len(c))), np.zeros(0))
    (a_eq, b_eq), (a_ub, b_ub) = (
        empty if pair is None else (np.asarray(pair[0]), np.asarray(pair[1]))
        for pair in (p.eq, p.ub))
    if res.status == "unbounded":
        d = res.certificate
        check_feasible(p, res.x)
        slip = max(np.max(np.abs(a_eq @ d), initial=0.0),
                   np.max(a_ub @ d, initial=0.0))
        assert np.max(np.abs(d)) == 1.0 and slip <= ZERO_NORM
        assert c @ d > ZERO_NORM * max(1.0, np.max(np.abs(c)))
        return
    q = len(b_eq)
    z, y = res.certificate[:q], res.certificate[q:]
    assert np.all(y >= 0.0)
    combo = a_eq.T @ z + a_ub.T @ y
    bound = b_eq @ z + b_ub @ y
    if res.status == "optimal":
        check_feasible(p, res.x)
        size = max(1.0, np.max(np.abs(c)))
        assert np.max(np.abs(combo - c)) <= DEFAULT_TOL * size
        assert abs(bound - res.value) <= DEFAULT_TOL * max(1.0, abs(res.value))
    else:
        # no point of 1-norm up to CERTIFIED_RADIUS meets every row within
        # DEFAULT_TOL: for such x, combo . x - bound <= DEFAULT_TOL |f|_1
        scale = np.sum(np.abs(res.certificate))
        assert res.status == "infeasible" and scale > 0.0
        assert (bound + DEFAULT_TOL * scale
                + CERTIFIED_RADIUS * np.max(np.abs(combo), initial=0.0)) < 0.0


def _effect_case(seed, kind, k, dim, n_eq):
    """(points, objective, eq) of an effect LP of the given kind: general,
    flat (the points span a hyperplane), flat-in-span (and the objective
    lies in their span), contradictory (an equality asks for 3/2 on a
    point), zero (objective), duplicated (every point three times) or
    parallel (an objective row is a point's validity row)."""
    # augmented points (column 0 is 1) so that e = (1/2, 0, ...) is valid
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    rank = dim - 1 if kind.startswith("flat") else dim
    carrier = rng.standard_normal((n, rank - 1)) @ rng.standard_normal(
        (rank - 1, dim - 1))
    points = np.concatenate([np.ones((n, 1)), carrier], axis=1)
    objective = rng.standard_normal((k, dim))
    if kind == "zero":
        objective[:] = 0.0
    elif kind == "flat-in-span":
        objective = rng.standard_normal((k, n)) @ points / n
    elif kind == "duplicated":
        points = np.repeat(points, 3, axis=0)
    elif kind == "parallel":
        objective[0] = points[int(rng.integers(n))]
    a_eq = rng.standard_normal((n_eq, k * dim))
    x0 = np.tile(np.eye(dim)[0] / 2.0, k)
    b_eq = a_eq @ x0
    if kind == "contradictory":
        # the first effect must take 3/2 on one sampled point
        row = np.zeros(k * dim)
        row[:dim] = points[int(rng.integers(n))]
        a_eq, b_eq = np.vstack([a_eq, row]), np.append(b_eq, 1.5)
    return points, objective, (a_eq, b_eq) if len(b_eq) else None


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
            program = LinearProgram(c, ub=(rows, rhs))
            res = lp_solve(program)
            assert res.status == status == highs_lp(program)[0]
            _assert_certificate(program, res)
            if status == "optimal":
                assert abs(res.value - value) < 1e-8
                assert abs(res.value - highs_lp(program)[1]) < 1e-8


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(["general", "flat", "flat-in-span",
                            "contradictory", "zero", "duplicated",
                            "parallel"]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=2))
    def test_row_generation_matches_all_rows(self, seed, kind, k, dim, n_eq):
        # the kernel, cold on every row and warm round after round, against
        # HiGHS alone, with every certificate checked from the arrays
        points, objective, eq = _effect_case(seed, kind, k, dim, n_eq)
        full = effect_program(points, objective, eq)
        status, value, _ = highs_lp(full)
        for res in (lp_solve(full), effect_lp(points, objective, eq)):
            assert res.status == status
            _assert_certificate(full, res)
            if res.optimal:
                assert abs(res.value - value) <= 1e-7
        spanning = ("general", "zero", "duplicated", "parallel")
        assert kind not in spanning or res.optimal
        # an equality row may close the direction the points leave open
        assert kind != "flat" or n_eq or res.status == "unbounded"
        assert kind != "contradictory" or res.status == "infeasible"

    def test_non_finite_point_refused(self):
        # refused as when the full program was validated
        points = np.concatenate([np.eye(2), np.full((1, 2), np.nan),
                                 np.eye(2)])
        with pytest.raises(DomainError):
            effect_lp(points, [[1.0, 1.0]])


class TestKernel:
    """The numpy dual simplex: warm starts and equality rows."""

    def test_rounds_after_the_first_start_warm(self, monkeypatch):
        # each round starts from the basis of the one before
        rng = np.random.default_rng(11)
        points = np.concatenate(
            [np.ones((400, 1)), rng.standard_normal((400, 8))], axis=1)
        objective = [points[3] - points[7]]
        starts = []
        solve = numerics.lp_solve

        def spy(p, *warm):
            starts.append(bool(warm and warm[0] is not None))
            return solve(p, *warm)

        monkeypatch.setattr(numerics, "lp_solve", spy)
        res = effect_lp(points, objective)
        assert len(starts) >= 3 and starts[0] is False and all(starts[1:])
        full = effect_program(points, objective)
        assert abs(res.value - highs_lp(full)[1]) <= 1e-7
        _assert_certificate(full, res)

    def test_equalities_alone(self):
        # n independent equalities fix the point; a redundant one is met
        a_eq = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        p = LinearProgram(np.array([1.0, -1.0]),
                          eq=(a_eq, np.array([0.25, 0.5, 0.75])))
        res = lp_solve(p)
        assert res.optimal and np.allclose(res.x, [0.25, 0.5])
        _assert_certificate(p, res)
        infeasible = lp_solve(LinearProgram(
            p.objective, eq=(a_eq, np.array([0.25, 0.5, 1.0]))))
        assert infeasible.status == "infeasible"
        _assert_certificate(LinearProgram(
            p.objective, eq=(a_eq, np.array([0.25, 0.5, 1.0]))), infeasible)


class TestBox:
    """The artificial box of the kernel: BOX_START = 1e4, grown by
    BOX_GROWTH = 1e3 while it binds, up to BOX_MAX = 1e10."""

    @pytest.mark.parametrize("bounds,value", [([5e6], 5e6),
                                              ([3e9, 2e4], 3_000_020_000.0)])
    def test_grows_to_a_far_optimum(self, bounds, value):
        # one growth for 5e6, two for 3e9
        p = LinearProgram(np.ones(len(bounds)),
                          ub=(np.eye(len(bounds)), np.array(bounds)))
        res = lp_solve(p)
        assert res.optimal and res.value == value
        assert res.value == pytest.approx(highs_lp(p)[1], rel=1e-12)
        _assert_certificate(p, res)

    def test_optimum_past_the_cap_refused(self):
        p = LinearProgram(np.ones(1), ub=(np.eye(1), np.array([5e12])))
        with pytest.raises(LpSolverFailure):
            lp_solve(p)

    def test_grows_when_it_is_in_a_farkas_vector(self):
        # an effect pinned to 1 and 0 on two points 2e-5 apart has slope
        # 5e4: inside the first box the equalities cannot be met
        points = np.array([[1.0, -1e-5], [1.0, 0.0], [1.0, 1e-5]])
        eq = (points[[2, 0]], np.array([1.0, 0.0]))
        res = effect_lp(points, [[0.0, 0.0]], eq)
        full = effect_program(points, np.zeros((1, 2)), eq)
        assert res.optimal and highs_lp(full)[0] == "optimal"
        assert np.allclose(res.x, [0.5, 5e4], rtol=1e-9, atol=0.0)
        _assert_certificate(full, res)


class TestNoCertifiedAnswer:
    """A kernel run that ends without a checked certificate is an error."""

    @pytest.fixture(params=["none", "singular"])
    def failing_kernel(self, request, monkeypatch):
        def fail(p, start=None):
            if request.param == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return None

        monkeypatch.setattr(numerics, "_dual_simplex", fail)

    def test_lp_solve(self, failing_kernel):
        box = (np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        eq = (np.array([[1.0]]), np.array([0.5]))
        with pytest.raises(LpSolverFailure, match=re.escape(
                "(1 eq rows, 2 ub rows, 1 variables, cold start)")):
            lp_solve(LinearProgram(np.array([1.0]), eq=eq, ub=box))
        with pytest.raises(LpSolverFailure, match="warm start"):
            lp_solve(LinearProgram(np.array([1.0]), ub=box), np.array([0]))

    def test_callers(self, failing_kernel):
        shape = r"\(\d+ eq rows, \d+ ub rows, \d+ variables, cold start\)"
        s = state_space.deformable_structure([0.5, 0.3, 0.2], 200, 0)
        with pytest.raises(LpSolverFailure, match=shape):
            effect_lp(s.points, [s.points[0]])
        with pytest.raises(LpSolverFailure, match=shape):
            deformation.pure_state_distance(s, 3, 7)
        with pytest.raises(LpSolverFailure, match=shape):
            discrimination.max_distinguishable_sampled(s, 2)


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


def test_no_module_reads_the_environment():
    # a run depends on its arguments alone
    for path in sorted(Path(gptforge.__file__).parent.rglob("*.py")):
        found = re.findall(r"os\.environ|getenv", path.read_text())
        assert not found, f"{path.name} reads the environment: {found}"


def test_scipy_is_a_test_dependency_only():
    src = Path(gptforge.__file__).parent
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), \
                f"{path.name}:{node.lineno} imports scipy"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (src.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w-]+", d)[0] for d in project["dependencies"]] \
        == ["numpy"]
    assert any(re.match(r"scipy\b", d)
               for d in project["optional-dependencies"]["test"])
