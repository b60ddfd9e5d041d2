import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptforge import compact_rep as cr
from gptforge.errors import AccuracyError, DomainError
from gptforge.numerics import UNITARY_TOL
from oracles import act_batched, block_samples_qr, haar_samples_qr


class TestBases:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gell_mann_trace_orthonormal(self, d):
        t = cr.gell_mann_basis(d)
        assert t.shape == (d * d - 1, d, d)
        gram = 0.5 * np.einsum("aij,bji->ab", t, t)
        assert np.max(np.abs(gram - np.eye(d * d - 1))) < 1e-12
        assert np.max(np.abs(np.einsum("aii->a", t))) < 1e-12
        assert np.max(np.abs(t - np.swapaxes(t, 1, 2).conj())) < 1e-12

    def test_symmetric_basis(self):
        b = cr.symmetric_traceless_basis(3)
        assert b.shape == (5, 3, 3)
        gram = 0.5 * np.einsum("aij,bji->ab", b, b)
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12


class TestHaar:
    def test_su1_scalar(self):
        u = cr.haar_samples(cr.su_fundamental(1), 1, 0)[0]
        assert u.shape == (1, 1) and u[0, 0] == 1.0

    def test_unitary_det_and_columns(self):
        us = cr.haar_samples(cr.su_fundamental(3), 200, 0)
        err = np.max(np.abs(np.swapaxes(us.conj(), 1, 2) @ us - np.eye(3)))
        assert err < 1e-10
        assert np.max(np.abs(np.linalg.det(us) - 1.0)) < 1e-10
        norms = np.linalg.norm(us, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_su2_entry_mean(self):
        us = cr.haar_samples(cr.su_fundamental(2), 10_000, 1)
        assert np.max(np.abs(us.mean(axis=0))) < 0.05

    def test_orthogonal_det(self):
        rs = cr.haar_samples(cr.so_fundamental(4), 200, 0)
        err = np.max(np.abs(np.swapaxes(rs, 1, 2) @ rs - np.eye(4)))
        assert err < 1e-10
        assert np.max(np.abs(np.linalg.det(rs) - 1.0)) < 1e-10

    def test_determinism(self):
        a = cr.haar_samples(cr.su_fundamental(3), 5, 123)
        b = cr.haar_samples(cr.su_fundamental(3), 5, 123)
        assert np.array_equal(a, b)

    # the two factorisations agree to about cond(z) eps, so a fixed example
    # set keeps a rare ill-conditioned Ginibre draw from flaking the bound
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([cr.su_fundamental, cr.so_fundamental]),
           st.integers(1, 16), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_matches_lapack_oracle(self, make, d, n, seed):
        spec = make(d)
        got = cr.haar_samples(spec, n, seed)
        want = haar_samples_qr(spec, n, seed)
        assert got.shape == want.shape == (n, d, d)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
        err = np.abs(np.swapaxes(got.conj(), 1, 2) @ got - np.eye(d))
        assert np.max(err, initial=0.0) < UNITARY_TOL
        det = np.linalg.det(got)
        assert np.max(np.abs(det - 1.0), initial=0.0) < 1e-12

    def test_haar_invariance_commutant(self):
        # the averaged conjugation of a fixed matrix commutes with fresh
        # group elements within statistical tolerance
        n = 3000
        us = cr.haar_samples(cr.su_fundamental(2), n, 2)
        gammas = cr.rep_matrices(cr.su_adjoint(2), us)
        a = np.diag([1.0, 2.0, 3.0])
        avg = np.einsum("nij,jk,nlk->il", gammas, a, gammas) / n
        fresh = cr.rep_matrices(cr.su_adjoint(2),
                                cr.haar_samples(cr.su_fundamental(2), 20, 3))
        comm = np.max(np.abs(fresh @ avg - avg @ fresh))
        assert comm < 5.0 / np.sqrt(n)


class _FixedDraws:
    """Stands in for a Generator: its normal draws are the given stacks, in
    turn."""

    def __init__(self, *stacks):
        self.stacks = [np.asarray(z, dtype=float) for z in stacks]

    def standard_normal(self, shape):
        z = self.stacks.pop(0)
        assert z.shape == shape
        return z.copy()


# nonsingular matrices on which some Householder pivot x_0 is exactly 0
_ZERO_PIVOTS = [
    [[0, 1], [1, 0]],
    [[0, 1], [1, 1]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]],
]


class TestHouseholderEdgeCases:
    @pytest.mark.parametrize("m", _ZERO_PIVOTS)
    @pytest.mark.parametrize("parts", ["orthogonal", "unitary-real",
                                       "unitary-imaginary"])
    def test_zero_pivots(self, m, parts):
        m = np.array(m, dtype=float)
        d = len(m)
        # the zero-pivot matrix beside a generic one: samples stay separate
        stack = np.stack([m, np.random.default_rng(3).normal(size=(d, d))])
        zero = np.zeros_like(stack)
        draws = {"orthogonal": (stack,), "unitary-real": (stack, zero),
                 "unitary-imaginary": (zero, stack)}[parts]
        q, det = cr._ginibre(_FixedDraws(*draws), 2, d, parts != "orthogonal")
        z = 1j * stack if parts == "unitary-imaginary" else stack
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(det))
        err = np.abs(np.swapaxes(q.conj(), 1, 2) @ q - np.eye(d))
        assert np.max(err) < 1e-14
        r = np.swapaxes(q.conj(), 1, 2) @ z
        assert np.max(np.abs(np.tril(r, -1))) < 1e-14
        diag = np.einsum("nii->ni", r)
        assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) < 1e-14
        assert np.max(np.abs(det - np.linalg.det(q))) < 1e-14


class TestCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([cr.su_adjoint, cr.so_traceless_symmetric]),
           st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_coordinates_invert_matrix(self, make, d, seed):
        spec = make(d)
        v = np.random.default_rng(seed).normal(size=spec.real_dimension)
        assert np.max(np.abs(spec.coordinates(spec.matrix(v)) - v)) < 1e-13


class TestAdjoint:
    def test_identity(self):
        assert np.allclose(cr.rep_matrices(cr.su_adjoint(3), np.eye(3)), np.eye(8), atol=1e-12)

    def test_su2_phase_is_xy_rotation(self):
        # U T_x U^H = cos(2 th) T_x - sin(2 th) T_y and
        # U T_y U^H = sin(2 th) T_x + cos(2 th) T_y by direct computation,
        # so the adjoint matrix rotates the (x, y) plane by 2 th and fixes z.
        th = 0.41
        u = np.diag([np.exp(1j * th), np.exp(-1j * th)])
        m = cr.rep_matrices(cr.su_adjoint(2), u)
        expect = np.array([
            [np.cos(2 * th), np.sin(2 * th), 0.0],
            [-np.sin(2 * th), np.cos(2 * th), 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.max(np.abs(m - expect)) < 1e-12

    def test_su3_orthogonal_special(self):
        u = cr.haar_samples(cr.su_adjoint(3), 1, 7)[0]
        m = cr.rep_matrices(cr.su_adjoint(3), u)
        assert m.shape == (8, 8)
        assert np.max(np.abs(m @ m.T - np.eye(8))) < 1e-8
        assert abs(np.linalg.det(m) - 1.0) < 1e-8

    def test_homomorphism_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u, v = cr.haar_samples(cr.su_fundamental(3), 2, rng)
            err = np.max(np.abs(
                cr.rep_matrices(cr.su_adjoint(3), u @ v)
                - cr.rep_matrices(cr.su_adjoint(3), u)
                @ cr.rep_matrices(cr.su_adjoint(3), v)
            ))
            assert err < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            cr.rep_matrices(cr.su_adjoint(2), np.ones((2, 2)))

    def test_rejects_nan_element(self):
        with pytest.raises(DomainError):
            cr.rep_matrices(cr.su_adjoint(2), np.full((2, 2), np.nan))

    def test_symmetric_action_homomorphism(self):
        rng = np.random.default_rng(6)
        r, s = cr.haar_samples(cr.so_fundamental(3), 2, rng)
        err = np.max(np.abs(
            cr.rep_matrices(cr.so_traceless_symmetric(3), r @ s)
            - cr.rep_matrices(cr.so_traceless_symmetric(3), r)
            @ cr.rep_matrices(cr.so_traceless_symmetric(3), s)
        ))
        assert err < 1e-10


def _torus_average_oracle(d, n_grid):
    """Brute-force grid average of adjoint matrices over the SU(d) torus."""
    import itertools

    total = np.zeros((d * d - 1, d * d - 1))
    count = 0
    for ks in itertools.product(range(n_grid), repeat=d - 1):
        phases = 2.0 * np.pi * np.array(ks) / n_grid
        full = np.append(phases, -phases.sum())
        u = np.diag(np.exp(1j * full))
        total += cr.rep_matrices(cr.su_adjoint(d), u)
        count += 1
    return total / count


class TestInvariantProjector:
    def test_su3_torus_rank_2(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.full_torus())
        assert p.rank == 2
        assert np.max(np.abs(p.projector @ p.projector - p.projector)) < 1e-12

    def test_su3_block_rank_1(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.block_subgroup(2, 1))
        assert p.rank == 1

    def test_su16_block_rank_1(self):
        # 159 generators on a 255-dimensional carrier; the fixed line is the
        # centre of S(U(4) x U(12))
        spec = cr.su_adjoint(16)
        p = cr.invariant_projector(spec, cr.block_subgroup(4, 12))
        assert p.rank == 1
        z = spec.coordinates(np.diag([3.0] * 4 + [-1.0] * 12))
        assert np.max(np.abs(p.projector @ z - z)) < 1e-10

    def test_su2_torus_rank_1_z_axis(self):
        p = cr.invariant_projector(cr.su_adjoint(2), cr.full_torus())
        assert p.rank == 1
        expect = np.zeros((3, 3))
        expect[2, 2] = 1.0
        assert np.max(np.abs(p.projector - expect)) < 1e-10

    def test_structural_matches_grid_oracle(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.full_torus())
        oracle = _torus_average_oracle(3, 6)
        assert np.max(np.abs(p.projector - oracle)) < 1e-10

    def test_grid_quadrature(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.full_torus(),
                                   cr.TorusGrid(8))
        q = cr.invariant_projector(cr.su_adjoint(3), cr.full_torus())
        assert p.rank == 2
        assert np.max(np.abs(p.projector - q.projector)) < 1e-10

    def test_monte_carlo_matches_structural(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.block_subgroup(2, 1),
                                   cr.MonteCarlo(2000, 0))
        q = cr.invariant_projector(cr.su_adjoint(3), cr.block_subgroup(2, 1))
        assert p.rank == q.rank == 1
        assert np.max(np.abs(p.projector - q.projector)) < 1e-8
        assert p.eigenvalues[0] > 0.999
        assert p.eigenvalues[1] < 0.001

    def test_too_coarse_raises(self):
        with pytest.raises(AccuracyError):
            cr.invariant_projector(cr.su_adjoint(3), cr.block_subgroup(2, 1),
                                   cr.MonteCarlo(2, 5))

    def test_spin2_torus_rank_1(self):
        p = cr.invariant_projector(cr.so_traceless_symmetric(3),
                                   cr.full_torus())
        assert p.rank == 1

    @pytest.mark.parametrize("quadrature", [None, cr.MonteCarlo(64, 0)])
    def test_block_subgroup_needs_su(self, quadrature):
        with pytest.raises(DomainError, match="SU"):
            cr.invariant_projector(cr.so_fundamental(3),
                                   cr.block_subgroup(2, 1), quadrature)

    @pytest.mark.parametrize("quadrature, n", [(cr.TorusGrid, 0),
                                               (cr.TorusGrid, -2),
                                               (cr.MonteCarlo, 0),
                                               (cr.MonteCarlo, -1)])
    def test_empty_quadrature_refused(self, quadrature, n):
        with pytest.raises(DomainError, match="n >= 1"):
            quadrature(n)

    def test_drift_samples_are_fresh(self, monkeypatch):
        # seed 1's drift check must not see the quadrature's own elements
        draws = []
        subgroup_samples = cr.subgroup_samples

        def spying(spec, sub, n, rng):
            draws.append(subgroup_samples(spec, sub, n, rng))
            return draws[-1]

        monkeypatch.setattr(cr, "subgroup_samples", spying)
        cr.invariant_projector(cr.su_adjoint(3), cr.full_torus(),
                               cr.MonteCarlo(2000, 1))
        quadrature, drift = draws
        assert drift.shape == (8, 3, 3)
        gaps = np.abs(drift[:, None] - quadrature[None]).max(axis=(2, 3))
        assert gaps.min() > 1e-6


_CONJUGATION_KINDS = ("su_adjoint", "so_traceless_symmetric")


def _generator_action_gram(spec, gens):
    """sum A_a^T A_a with each generator's D x D action built explicitly:
    the commutator a X - X a on the matrix carriers, ``act`` on the rest."""
    eye = np.eye(spec.real_dimension)
    total = np.zeros_like(eye)
    for a in gens:
        if spec.kind in _CONJUGATION_KINDS:
            b = spec.basis()
            m = spec.coordinates(a @ b - b @ a).T
        else:
            m = cr.act(spec, a, eye).T
        total += m.T @ m
    return total


def _blocks(d, cuts):
    """Block sizes of d cut after the positions whose bit is set in cuts."""
    edges = [0] + [i for i in range(1, d) if cuts >> (i - 1) & 1] + [d]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


_SU_KINDS = [cr.su_adjoint, cr.su_fundamental]
_ALL_KINDS = _SU_KINDS + [cr.so_traceless_symmetric, cr.so_fundamental]
# (carrier, element source); block subgroups live in SU(d) only
_SOURCES = ([(make, src) for make in _ALL_KINDS for src in ("haar", "torus")]
            + [(make, "block") for make in _SU_KINDS])


class TestAct:
    @pytest.mark.parametrize("make", _ALL_KINDS)
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [None, 5])  # one element or a stack
    @pytest.mark.parametrize("m", [None, 3])  # one vector or a batch
    def test_matches_batched_matmul(self, make, d, n, m):
        spec = make(d)
        dim = spec.real_dimension
        g = cr.haar_samples(spec, n or 1, 11)
        v = np.random.default_rng(12).normal(size=(m or 1, dim))
        g, v = (g if n else g[0]), (v if m else v[0])
        got = cr.act(spec, g, v)
        want = act_batched(spec, g, v)
        shape = tuple(k for k in (n, m) if k) + (dim,)
        assert got.shape == want.shape == shape
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("make", _ALL_KINDS)
    def test_empty_stack(self, make):
        spec = make(3)
        dim = spec.real_dimension
        g = cr.haar_samples(spec, 0, 0)
        assert g.shape == (0, 3, 3)
        assert cr.act(spec, g, np.ones(dim)).shape == (0, dim)
        assert cr.act(spec, g, np.ones((2, dim))).shape == (0, 2, dim)


class TestFundamentalSideOperators:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_SOURCES), st.integers(2, 5), st.integers(1, 40),
           st.integers(0, 15), st.integers(0, 2**32 - 1))
    def test_averaged_operator_is_matrix_mean(self, source, d, n, cuts, seed):
        make, kind = source
        spec = make(d)
        rng = np.random.default_rng(seed)
        if kind == "haar":
            elements = cr.haar_samples(spec, n, rng)
        else:
            sub = (cr.full_torus() if kind == "torus"
                   else cr.block_subgroup(*_blocks(d, cuts)))
            elements = cr.subgroup_samples(spec, sub, n, rng)
        avg = cr._averaged_operator(spec, elements)
        mean = cr.rep_matrices(spec, elements).mean(axis=0)
        assert np.max(np.abs(avg - mean)) < 1e-13

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_SOURCES), st.integers(2, 7), st.integers(0, 63))
    def test_gram_is_sum_of_generator_actions(self, source, d, cuts):
        make, kind = source
        spec = make(d)
        sub = (cr.block_subgroup(*_blocks(d, cuts)) if kind == "block"
               else cr.full_torus())
        gens = cr.subgroup_lie_generators(spec, sub)
        want = _generator_action_gram(spec, gens)
        got = cr._lie_gram(spec, gens)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec, sub, quadrature", [
        (cr.su_adjoint(4), cr.full_torus(), cr.TorusGrid(16)),
        (cr.su_adjoint(3), cr.block_subgroup(2, 1), cr.MonteCarlo(2000, 0)),
    ])
    def test_quadrature_builds_no_matrix_stack(self, monkeypatch, spec, sub,
                                               quadrature):
        # only the 8-sample drift check turns elements into D x D matrices
        built = []
        rep_matrices = cr.rep_matrices

        def counting(spec, elements):
            built.append(1 if np.ndim(elements) == 2 else len(elements))
            return rep_matrices(spec, elements)

        monkeypatch.setattr(cr, "rep_matrices", counting)
        p = cr.invariant_projector(spec, sub, quadrature)
        assert p.rank == cr.invariant_projector(spec, sub).rank
        assert sum(built) <= 8

    # the grid average and the Gram meet the basis through one contraction
    @pytest.mark.parametrize("spec, rank", [(cr.so_fundamental(3), 1),
                                            (cr.so_fundamental(4), 0),
                                            (cr.su_fundamental(3), 0),
                                            (cr.su_adjoint(3), 2),
                                            (cr.su_adjoint(4), 3),
                                            (cr.so_traceless_symmetric(3), 1),
                                            (cr.so_traceless_symmetric(4), 1),
                                            (cr.so_fundamental(1), 1),
                                            (cr.su_fundamental(1), 2)])
    def test_fundamental_grid_matches_structural(self, spec, rank):
        p = cr.invariant_projector(spec, cr.full_torus(), cr.TorusGrid(8))
        q = cr.invariant_projector(spec, cr.full_torus())
        assert p.rank == q.rank == rank
        assert np.max(np.abs(p.projector - q.projector)) < 1e-10


class TestWitness:
    # an irrep with a fixed subspace of rank >= 2 witnesses a non-Gelfand pair
    def test_su3_torus_witnesses_non_gelfand(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.full_torus())
        assert not p.rank < 2 and p.rank == 2

    def test_su3_block_consistent(self):
        p = cr.invariant_projector(cr.su_adjoint(3), cr.block_subgroup(2, 1))
        assert p.rank < 2 and p.rank == 1

    def test_su2_torus_consistent(self):
        p = cr.invariant_projector(cr.su_adjoint(2), cr.full_torus())
        assert p.rank < 2 and p.rank == 1


class TestSubgroupSamples:
    @pytest.mark.parametrize("make, source", _SOURCES)
    def test_negative_count_refused(self, make, source):
        spec = make(3)
        sub = (cr.full_torus() if source == "torus"
               else cr.block_subgroup(2, 1))

        def draw(n):
            if source == "haar":
                return cr.haar_samples(spec, n, 0)
            return cr.subgroup_samples(spec, sub, n, 0)

        assert draw(0).shape == (0, 3, 3)
        with pytest.raises(DomainError, match="n >= 0"):
            draw(-1)

    @pytest.mark.parametrize("sub", [cr.full_torus(), cr.block_subgroup(2, 1)])
    def test_samples_lie_in_su3(self, sub):
        hs = cr.subgroup_samples(cr.su_adjoint(3), sub, 64, 0)
        err = np.max(np.abs(np.swapaxes(hs.conj(), 1, 2) @ hs - np.eye(3)))
        assert err < 1e-10
        assert np.max(np.abs(np.linalg.det(hs) - 1.0)) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.integers(0, 63), st.integers(0, 40),
           st.integers(0, 2**32 - 1))
    def test_block_samples_match_lapack_oracle(self, d, cuts, n, seed):
        blocks = _blocks(d, cuts)
        got = cr.subgroup_samples(cr.su_adjoint(d), cr.block_subgroup(*blocks),
                                  n, seed)
        want = block_samples_qr(d, blocks, n, seed)
        assert got.shape == want.shape == (n, d, d)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
        det = np.linalg.det(got)
        assert np.max(np.abs(det - 1.0), initial=0.0) < 1e-12

    def test_so_torus_samples(self):
        hs = cr.subgroup_samples(cr.so_fundamental(3), cr.full_torus(), 32, 0)
        err = np.max(np.abs(np.swapaxes(hs, 1, 2) @ hs - np.eye(3)))
        assert err < 1e-12
        assert np.max(np.abs(hs[:, :, 2] - [0, 0, 1])) < 1e-12

    # entries at seed 2024 pin the seeded draw order: SU tori draw sample by
    # sample, SO tori one plane at a time, block subgroups one block at a time
    @pytest.mark.parametrize("spec, sub, entries", [
        (cr.su_adjoint(3), cr.full_torus(), [
            ((0, 0, 0), -0.4493301989265983 - 0.8933657550704435j),
            ((3, 1, 1), 0.4210900662184776 + 0.907018828984337j),
            ((3, 2, 2), -0.05996432555087181 - 0.998200520767861j),
        ]),
        (cr.so_fundamental(5), cr.full_torus(), [
            ((0, 0, 0), -0.4493301989265983),
            ((2, 0, 1), -0.9310384222263774),
            ((3, 1, 1), 0.3058248351522179),
            ((3, 3, 3), 0.4210900662184776),
        ]),
        (cr.su_adjoint(3), cr.block_subgroup(2, 1), [
            ((0, 0, 0), 0.13925863481158296 - 0.6915063192419888j),
            ((2, 0, 1), 0.32768610637035206 + 0.047421091712438135j),
            ((3, 1, 1), 0.19548738104460905 + 0.9786840877417332j),
            ((3, 2, 2), 0.866478966031549 + 0.4992135829731578j),
        ]),
    ])
    def test_seeded_draw_order(self, spec, sub, entries):
        hs = cr.subgroup_samples(spec, sub, 4, 2024)
        for index, value in entries:
            assert abs(hs[index] - value) < 1e-15
