"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's character-sum formulas: multiplicities
are counted by explicitly averaging the regular representation, and reality
types are detected by searching for invariant bilinear forms on explicitly
extracted irrep matrices.
"""

from dataclasses import replace

import numpy as np

from gptforge import deformation as dm
from gptforge.state_space import orbit_points


def regular_matrix(group, g):
    """Left-regular permutation matrix of element index g."""
    n = group.order
    m = np.zeros((n, n))
    for h in range(n):
        m[group.compose(g, h), h] = 1.0
    return m


def isotypic_projector(group, table, irrep):
    """P = (d/|G|) sum_g conj(chi(g)) R(g); Hermitian idempotent."""
    n = group.order
    d = table.dims[irrep]
    p = np.zeros((n, n), dtype=complex)
    for g in range(n):
        p += np.conj(table.value(irrep, g)) * regular_matrix(group, g)
    return p * d / n


def fixed_vector_multiplicity(group, table, irrep, sub):
    """Count H-fixed vectors inside the isotypic component, per irrep copy.

    The isotypic block of the regular representation holds dim(irrep) copies
    of the irrep, so the H-fixed dimension divided by dim(irrep) is the
    multiplicity of the trivial representation in the restriction.
    """
    p = isotypic_projector(group, table, irrep)
    evals, evecs = np.linalg.eigh(p)
    basis = evecs[:, evals > 0.5]
    avg = np.zeros((group.order, group.order))
    for h in sub.members:
        avg += regular_matrix(group, h)
    avg /= sub.order
    inside = basis.conj().T @ avg @ basis
    fixed = int(np.sum(np.linalg.eigvalsh((inside + inside.conj().T) / 2) > 0.5))
    d = table.dims[irrep]
    assert fixed % d == 0, "H-fixed dimension is not a multiple of dim(irrep)"
    return fixed // d


def gelfand_oracle(group, table, sub):
    """Gelfand decision by explicit fixed-vector counting."""
    for irrep in range(table.n_irreps):
        if fixed_vector_multiplicity(group, table, irrep, sub) > 1:
            return False
    return True


def irrep_matrices(group, table, irrep, rng):
    """Explicit unitary matrices of one irrep, projected out of the regular
    representation (commutant-eigenspace splitting)."""
    d = table.dims[irrep]
    p = isotypic_projector(group, table, irrep)
    evals, evecs = np.linalg.eigh(p)
    basis = evecs[:, evals > 0.5]
    assert basis.shape[1] == d * d
    blocks = np.array(
        [basis.conj().T @ regular_matrix(group, g) @ basis for g in group]
    )
    m = rng.standard_normal((d * d, d * d)) \
        + 1j * rng.standard_normal((d * d, d * d))
    m = m + m.conj().T
    comm = np.einsum("gij,jk,glk->il", blocks, m, blocks.conj()) / group.order
    w, v = np.linalg.eigh(comm)
    # group nearly equal eigenvalues; each cluster spans one irrep copy
    start = 0
    cluster = None
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > 1e-6:
            if i - start == d:
                cluster = v[:, start:i]
                break
            start = i
    assert cluster is not None, "no d-dimensional commutant eigenspace found"
    mats = np.einsum("ai,gab,bj->gij", cluster.conj(), blocks, cluster)
    for g in range(group.order):
        expected = table.value(irrep, g)
        assert abs(np.trace(mats[g]) - expected) < 1e-6
    return mats


def invariant_bilinear_type(mats, rng, tol=1e-8):
    """'real' / 'quaternionic' / 'complex' from invariant bilinear forms.

    Averages a random seed matrix to an invariant symmetric and an invariant
    antisymmetric bilinear form; which of the two survives fixes the type.
    """
    d = mats.shape[1]
    seed = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sym_seed = seed + seed.T
    anti_seed = seed - seed.T
    sym = np.einsum("gji,jk,gkl->il", mats, sym_seed, mats) / len(mats)
    anti = np.einsum("gji,jk,gkl->il", mats, anti_seed, mats) / len(mats)
    has_sym = np.max(np.abs(sym)) > tol
    has_anti = np.max(np.abs(anti)) > tol if d > 1 else False
    assert not (has_sym and has_anti), "both bilinear forms survived"
    if has_sym:
        return "real"
    if has_anti:
        return "quaternionic"
    return "complex"


def lp_vertex_oracle(c, a_ub, b_ub, lo, hi, tol=1e-9):
    """Maximize c.x over {A x <= b, lo <= x <= hi} by vertex enumeration.

    Returns (status, value): every n-subset of the constraint rows (box rows
    included) is intersected, feasible vertices are kept, and the best value
    reported.  Assumes the box makes the problem bounded.
    """
    import itertools

    n = len(c)
    rows = [np.asarray(r, dtype=float) for r in a_ub]
    rhs = list(b_ub)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(hi[i])
        rows.append(-e)
        rhs.append(-lo[i])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a = rows[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, rhs[list(combo)])
        if np.all(rows @ x <= rhs + tol):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def highs_lp(p, presolve=True):
    """The LP ``p`` (a gptforge ``LinearProgram``, maximized, variables
    free) by HiGHS through ``scipy.optimize.linprog`` alone: at HiGHS's
    defaults, and once more at feasibility tolerances ``DEFAULT_TOL / 10``
    with the objective scaled to a largest entry of 1 when the first point
    fails ``check_feasible`` or HiGHS stops without a status.

    Returns ``(status, value, x)``, status "optimal", "infeasible",
    "unbounded" or None (no status from either run, or a point that fails
    the check twice).
    """
    from scipy.optimize import linprog

    from gptforge.errors import NumericalConsistencyError
    from gptforge.numerics import DEFAULT_TOL, check_feasible

    c = -np.asarray(p.objective, dtype=float)
    a_eq, b_eq = (None, None) if p.eq is None else p.eq
    a_ub, b_ub = (None, None) if p.ub is None else p.ub
    tight = dict.fromkeys(("primal_feasibility_tolerance",
                           "dual_feasibility_tolerance"), DEFAULT_TOL / 10)
    for scale, options in ((1.0, {}), (np.max(np.abs(c)) or 1.0, tight)):
        res = linprog(c / scale, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(None, None), method="highs",
                      options=dict(options, presolve=presolve))
        if res.status in (2, 3):
            return ("infeasible", "unbounded")[res.status - 2], None, None
        if res.status == 0:
            try:
                check_feasible(p, res.x)
                return "optimal", -float(res.fun) * scale, res.x
            except NumericalConsistencyError:
                pass
    return None, None, None


def _solve_fractions(a, b):
    """x with a x = b for a square matrix of Fractions; None when singular."""
    n = len(a)
    m = [list(row) + [v] for row, v in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def barycentric_oracle(points, anchors):
    """The only effects e_i with e_i . a_j = delta_ij for three anchors a_j,
    as exact Fractions, and their worst violation of the three-state
    program: how far sum_i e_i leaves (1, 1, 1), and how far e_i . x leaves
    [0, 1] on a row x of ``points``.  Each e_i comes from Gauss-Jordan
    elimination on the rationals of the input floats, not from cross
    products.  (None, inf) when the anchors are linearly dependent.
    """
    from fractions import Fraction

    exact = [[Fraction(float(v)) for v in row] for row in anchors]
    effects = [_solve_fractions(exact, [Fraction(int(i == j)) for j in range(3)])
               for i in range(3)]
    if effects[0] is None:
        return None, float("inf")
    worst = max(abs(sum(col) - 1) for col in zip(*effects))
    for x in points:
        x = [Fraction(float(v)) for v in x]
        for e in effects:
            value = sum(u * v for u, v in zip(e, x))
            worst = max(worst, value - 1, -value)
    return effects, worst


def game_lp_oracle(vertices, plus, minus):
    """Exact optimum of the game LP, max c . e over the effects e with
    0 <= y . e <= 1 on every row y of ``vertices``, where
    c = (sum of ``plus`` rows - sum of ``minus`` rows) / 4, as a Fraction.

    Every basis is tried, with no presort and no early exit: r distinct
    vertices, r = min(3, number of vertices), each held at the bound 0 or 1.
    Its point is the e in the span of those r rows that meets the r
    equalities (the whole space when r = 3); the objective lies in the span
    of the vertices, so a component outside it changes nothing.  The best
    objective over the feasible basis points is the optimum.  All arithmetic
    is on the exact rationals of the input floats.
    """
    from fractions import Fraction
    import itertools

    exact = [[Fraction(float(v)) for v in row] for row in vertices]
    rows = [[Fraction(float(v)) for v in row] for row in plus]
    rows += [[-Fraction(float(v)) for v in row] for row in minus]
    c = [sum(col) / 4 for col in zip(*rows)]
    r = min(3, len(exact))
    best = None
    for combo in itertools.combinations(exact, r):
        gram = [[sum(u * v for u, v in zip(a, b)) for b in combo]
                for a in combo]
        # the basis point is linear in the bounds: solve for each unit bound
        units = [_solve_fractions(gram, [Fraction(int(i == j))
                                         for j in range(r)])
                 for i in range(r)]
        if units[0] is None:
            continue
        points = [[sum(l * a[k] for l, a in zip(lam, combo)) for k in range(3)]
                  for lam in units]
        values = [[sum(u * v for u, v in zip(y, e)) for y in exact]
                  for e in points]
        objective = [sum(u * v for u, v in zip(c, e)) for e in points]
        for bounds in itertools.product((0, 1), repeat=r):
            held = [i for i in range(r) if bounds[i]]
            at = [sum(values[i][v] for i in held) for v in range(len(exact))]
            if all(0 <= x <= 1 for x in at):
                value = sum(objective[i] for i in held)
                if best is None or value > best:
                    best = value
    return best


def quaternion_product(p, q):
    """Hamilton product of quaternions given as (w, x, y, z) = w + xi + yj + zk."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def gelfand_tsetlin_count(top):
    """Number of Gelfand-Tsetlin patterns with the given top row.

    Counts weakly interlacing integer triangles; equals the Weyl dimension of
    the SU(len(top)) irrep labeled by the partition.
    """
    import itertools

    def patterns(row):
        if len(row) == 1:
            return 1
        ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        total = 0
        for nxt in itertools.product(*ranges):
            if all(a >= b for a, b in zip(nxt, nxt[1:])):
                total += patterns(nxt)
        return total

    return patterns(tuple(top))


def conjugacy_classes_oracle(group):
    """Classes by the definition: conjugate each element by every element."""
    classes, seen = [], set()
    for x in group:
        if x not in seen:
            orbit = tuple(sorted({group.compose(group.compose(g, x),
                                                group.inverse(g))
                                  for g in group}))
            seen.update(orbit)
            classes.append(orbit)
    return tuple(classes)


def closed_under_composition(group, members):
    """Whether every product of two members is a member (all pairs)."""
    mem = set(members)
    return all(group.compose(i, j) in mem for i in mem for j in mem)


def frobenius_schur_element_sum(table, irrep):
    """(1/|G|) sum_g chi(g^2), summed over every element g."""
    g = table.group
    return sum(table.value(irrep, g.compose(x, x)) for x in g) / g.order


def coordinate_polish(y, x, beta, sweeps, probes):
    """The sup-norm coordinate polish with every probe of every step run
    over all points, in fresh arrays.

    Returns the polished coefficients and the number of coordinate steps
    taken (columns visited, summed over the sweeps run).
    """
    resid = y - x @ beta
    best = np.max(np.abs(resid))
    steps = 0
    for _ in range(sweeps):
        improved = False
        for c in range(len(beta)):
            steps += 1
            col = x[:, c]
            deltas = np.linspace(-max(best, 1e-12), max(best, 1e-12), probes)
            vals = np.max(np.abs(resid[None, :] - np.outer(deltas, col)),
                          axis=1)
            k = int(np.argmin(vals))
            if vals[k] < best - 1e-12:
                beta = beta.copy()
                beta[c] += deltas[k]
                resid = resid - deltas[k] * col
                best = vals[k]
                improved = True
        if not improved:
            break
    return beta, steps


def directed_estimate(sa, sb, seed):
    """The directed distance estimate with one least-squares solve per
    witness, each on its own SVD of ``sb.points``: the same witnesses,
    polish and validity shrink as the library's estimator."""
    x = sb.points
    worst = 0.0
    stream = np.random.SeedSequence(seed, spawn_key=(1,))
    for f0 in dm._witness_family(sa, np.random.default_rng(stream)):
        y = sa.points @ f0.vector
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        beta = dm._coordinate_polish(y, x, beta, dm.POLISH_SWEEPS,
                                     dm.POLISH_PROBES)
        beta = dm._force_valid(x, beta)
        worst = max(worst, float(np.max(np.abs(y - x @ beta))))
    return worst


def transform_structure(s, g):
    """Apply one group element (fundamental picture) to every sampled point."""
    pts = orbit_points(s.rep, g, s.points[:, 1:])
    elements = np.asarray(g) @ s.elements
    return replace(s, points=pts, elements=elements)


def ginibre_qr(rng, n, d, unitary):
    """n Haar samples from U(d) (``unitary``) or O(d): Ginibre + LAPACK QR
    (one call per matrix) with the R-diagonal phase (the sign, for O(d))
    fixed."""
    z = rng.standard_normal((n, d, d))
    if unitary:
        z = (z + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag))[:, None, :]


def unit_det_lu(q):
    """Rescale a batch of unitaries by a phase into SU(d), with the
    determinant from an LU factorisation."""
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / q.shape[-1])[:, None, None]


def haar_samples_qr(spec, n, rng):
    """``compact_rep.haar_samples`` through ``np.linalg.qr`` and
    ``np.linalg.det``: the same normal draws in the same order."""
    rng = np.random.default_rng(rng)
    unitary = spec.is_unitary_group
    if spec.d == 1:
        return np.ones((n, 1, 1), dtype=complex if unitary else float)
    q = ginibre_qr(rng, n, spec.d, unitary)
    if unitary:
        return unit_det_lu(q)
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def block_samples_qr(d, blocks, n, rng):
    """``compact_rep.subgroup_samples`` for a block subgroup of SU(d), through
    ``np.linalg.qr`` and ``np.linalg.det``."""
    rng = np.random.default_rng(rng)
    out = np.zeros((n, d, d), dtype=complex)
    start = 0
    for b in blocks:
        out[:, start:start + b, start:start + b] = ginibre_qr(rng, n, b, True)
        start += b
    return unit_det_lu(out)


def act_batched(spec, g, v):
    """``compact_rep.act`` with every product a batched matmul:
    g @ X @ g^H on the conjugation carriers, g @ v on the fundamental ones."""
    g = np.asarray(g, dtype=complex if spec.is_unitary_group else float)
    v = np.asarray(v, dtype=float)
    if v.ndim == 2:
        g = g[..., None, :, :]
    if spec.kind in ("su_adjoint", "so_traceless_symmetric"):
        gh = np.swapaxes(g.conj(), -1, -2)
        return spec.coordinates(g @ spec.matrix(v) @ gh)
    if spec.kind == "so_fundamental":
        return (g @ v[..., None])[..., 0]
    d = spec.d
    w = (g @ (v[..., :d] + 1j * v[..., d:])[..., None])[..., 0]
    return np.concatenate([w.real, w.imag], axis=-1)
