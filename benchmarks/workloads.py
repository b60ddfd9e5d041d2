"""The three benchmark workloads: operations, inputs and output checks.

Each workload is a fixed list of operations built from the workload seed.
A pass runs every operation once, in the order they are built here, so
every pass has the same mix and every seed the same order.  Operations go through
``gptforge.cli.main(argv)`` wherever a subcommand exists; invariant
projectors, the pure-state metric and sampled discrimination have no
subcommand and are library calls.  Functions are looked up on their module
at call time, so the tracer's wrappers see every call.

Every operation carries its own check, run outside the timed region, and an
encoding of its output that must not change between passes.  No operation of
a pass is expected to fail.  A known defect of the program is measured apart,
by a workload's probe: ops run once, untimed, after the measured phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gptforge.cli
import gptforge.compact_rep
import gptforge.deformation
import gptforge.discrimination
import gptforge.errors
import gptforge.state_space
from reference import gelfand_reference

# Errors the program documents for inputs it refuses or cannot handle.  An op
# that raises one of these (or a CLI call that exits nonzero) is refused.  A
# refusal makes the run incorrect unless it is a probe op's ``tolerated`` one,
# the known defect the probe counts; any other exception is a defect.
DOCUMENTED_ERRORS = tuple(
    getattr(gptforge.errors, name)
    for name in ("DomainError", "ResourceError", "NumericalConsistencyError",
                 "AccuracyError", "LpSolverFailure")
    if hasattr(gptforge.errors, name)
)

WORKLOADS = ("exact", "orbits", "distances")
NEAR_EQUAL_PROBES = 20  # near-equal hexagon triples in the exact probe


class Refused(Exception):
    """A CLI call that exited with a documented nonzero code."""


@dataclass(eq=False)
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    encode: Callable[[Any], str] = repr
    # probe ops only: prefix of the one refusal message that is the known
    # defect being counted, not a wrong answer
    tolerated: str | None = None


@dataclass
class Workload:
    ops: list
    cold: list  # one op of each kind, run untimed during set-up
    prepare: Callable[[], None] = lambda: None
    probe: list = field(default_factory=list)  # known-defect probe ops


# ---------------------------------------------------------------------------
# helpers


def cli_call(argv):
    """Run one CLI command in-process; return its stdout text.

    Raises :class:`Refused` on a nonzero exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gptforge.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
    if rc not in (0, None):
        raise Refused(f"exit {rc}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def cli_op(kind, label, argv, check, tolerated=None):
    return Op(kind, label, lambda: cli_call(argv),
              lambda text: check(json.loads(text)), encode=lambda text: text,
              tolerated=tolerated)


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def generic_triple(rng, min_gap=0.02):
    """Descending Dirichlet(1,1,1) triple with every gap at least ``min_gap``.

    Descending order is the paper's convention a1 > a2 > a3, under which the
    first bit of the encoding game is decoded perfectly.
    """
    while True:
        a = np.sort(rng.dirichlet([1.0, 1.0, 1.0]))[::-1]
        if min(a[0] - a[1], a[1] - a[2], a[2]) >= min_gap:
            return a


def near_equal_triple(rng):
    """Descending triple with two adjacent coefficients 1e-9 to 1e-6 apart."""
    a = generic_triple(rng)
    j = int(rng.integers(0, 2))
    a[j + 1] = a[j] - 10.0 ** rng.uniform(-9.0, -6.0)
    return a / a.sum()


# ---------------------------------------------------------------------------
# exact: finite groups, hexagon LPs, Grassmann enumeration


def _symmetric_cases():
    cases = []
    for n in (5, 6, 7):
        full = [[[0, 1]], [list(range(n))]]
        young = {
            f"({n - 1},1)": [[[0, 1]], [list(range(n - 1))]],
            f"({n - 2},2)": [[[0, 1]], [list(range(n - 2))], [[n - 2, n - 1]]],
            f"({n - 2},1,1)": [[[0, 1]], [list(range(n - 2))]],
            f"({n - 3},3)": [[[0, 1]], [list(range(n - 3))], [[n - 3, n - 2]],
                             [[n - 3, n - 2, n - 1]]],
        }
        for name, sub in young.items():
            cases.append((f"S{n}/{name}", n, full, sub))
    return cases


def _dihedral_cases():
    cases = []
    for n in range(5, 13):
        rot = [list(range(n))]
        ref = [[i, n - i] for i in range(1, (n + 1) // 2)]
        cases.append((f"D{n}/rotations", n, [rot, ref], [rot]))
        cases.append((f"D{n}/reflection", n, [rot, ref], [ref]))
    return cases


def _cycles(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = perm[i]
        out.append(cyc)
    return out


def _quaternion_cases():
    # points are units +-1, +-i, +-j, +-k encoded as letter + 4 * (sign < 0);
    # the group acts by right multiplication
    table = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
             (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
             (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
             (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def right(y):
        perm = []
        for x in range(8):
            sign, letter = table[(x % 4, y)]
            sign *= -1 if x >= 4 else 1
            perm.append(letter + (4 if sign < 0 else 0))
        return perm

    ri, rj = right(1), right(2)
    minus_one = [ri[ri[x]] for x in range(8)]
    full = [_cycles(ri), _cycles(rj)]
    return [("Q8/<i>", 8, full, [_cycles(ri)]),
            ("Q8/<-1>", 8, full, [_cycles(minus_one)]),
            ("Q8/1", 8, full, [])]


def _cyclic_cases():
    cases = []
    for n, k in ((8, 2), (9, 3), (12, 4)):
        power = [(i + k) % n for i in range(n)]
        cases.append((f"Z{n}/<r^{k}>", n, [[list(range(n))]], [_cycles(power)]))
    return cases


def _relabel(gens, pi):
    return [[[int(pi[a]) for a in cyc] for cyc in gen] for gen in gens]


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def check_hexagon(alpha, generic, payload, tol=1e-7):
    """The returned effects must certify the returned states.

    Rows sum to the unit effect (1, 1, 1), every effect lies in [0, 1] on
    every vertex, and effect i is 1 on state i and 0 on the others.  The
    reported vertices must be the permutations of the input triple.
    """
    a = np.asarray(alpha) / np.sum(alpha)
    verts = np.asarray(payload["vertices"], dtype=float)
    perms = np.array([a[list(p)] for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                            (1, 2, 0), (2, 0, 1), (2, 1, 0))])
    gaps = np.abs(verts[:, None, :] - perms[None, :, :]).max(axis=2)
    if gaps.min(axis=1).max() > 1e-12:
        return "vertices are not permutations of the input triple"
    effects = np.asarray(payload["effects"], dtype=float)
    states = payload["states"]
    n = payload["n_distinguishable"]
    if effects.shape != (n, 3) or len(states) != n:
        return f"effects {effects.shape} / states {len(states)} do not match n = {n}"
    if np.max(np.abs(effects.sum(axis=0) - 1.0)) > tol:
        return "effects do not sum to the unit effect"
    vals = effects @ verts.T
    if vals.min() < -tol or vals.max() > 1.0 + tol:
        return "an effect leaves [0, 1] on a vertex"
    if np.max(np.abs(effects @ verts[states].T - np.eye(n))) > tol:
        return "effects do not discriminate the states (e_i . x_j != delta_ij)"
    if generic:
        if n != 2:
            return f"generic triple gave n = {n}, expected 2"
        if abs(payload["bit1_success"] - 1.0) > tol:
            return f"generic triple gave bit1 = {payload['bit1_success']}"
    return None


def check_grassmann(payload):
    if not payload["entries"] or not payload["all_real"]:
        return "audit is empty or not all real"
    for e in payload["entries"]:
        if e["type"] != "real" or e["dynkin"] != e["dynkin"][::-1]:
            return f"entry {e['lambda']} is not a palindromic real irrep"
    return None


def build_exact(rng, workdir):
    ops = []
    inputs, refs = {}, {}
    cases = (_symmetric_cases() + _dihedral_cases() + _quaternion_cases()
             + _cyclic_cases())
    for label, degree, group, sub in cases:
        pi = rng.permutation(degree)  # seeded relabelling of the points
        group, sub = _relabel(group, pi), _relabel(sub, pi)
        stem = os.path.join(workdir, label.replace("/", "_"))
        _write_json(stem + ".G.json", {"degree": degree, "generators": group})
        _write_json(stem + ".H.json", {"degree": degree, "generators": sub})

        def check(payload, label=label):
            ref = refs[label]
            if (payload["group_order"], payload["subgroup_order"]) != (
                    ref.group_order, ref.subgroup_order):
                return "group or subgroup order differs from the reference"
            if payload["gelfand"] != ref.gelfand:
                return (f"decision {payload['gelfand']} differs from the "
                        f"double-coset reference {ref.gelfand}")
            return None

        inputs[label] = (degree, group, sub)
        ops.append(cli_op("gelfand", label,
                          ["gelfand", stem + ".G.json", stem + ".H.json"],
                          check))
    # S6/(3,3) twice and S6/(4,2) three times: with 88 ops a pass, p90 then
    # falls among the S6/(4,2) ops, below S6/(5,1), S6/(3,3) and the four S7
    # ops and above the hexagon ops
    for label, copy in (("S6/(3,3)", 2), ("S6/(4,2)", 2), ("S6/(4,2)", 3)):
        op = _find(ops, "gelfand", label)
        ops.append(Op(op.kind, f"{label}#{copy}", op.run, op.check,
                      op.encode))

    def hexagon(label, alpha, generic, tolerated=None):
        return cli_op(
            "hexagon", label,
            ["hexagon", *(repr(float(x)) for x in alpha), "--game"],
            lambda p: check_hexagon(alpha, generic, p), tolerated=tolerated)

    for i in range(50):
        ops.append(hexagon(f"generic[{i}]", generic_triple(rng), True))

    # 88 ops per pass, for the same reason as in build_orbits
    ops.append(cli_op("grassmann", "(2,3,1)", ["grassmann", "2", "3", "1"],
                      check_grassmann))

    # the probe: near-equal triples exit 4 in about 30 % of cases today (LP
    # feasibility checked at 1e-8 while HiGHS solves at 1e-7); that exit is
    # counted, any other refusal or a failed certificate is a defect
    probe = [hexagon(f"near-equal[{i}]", near_equal_triple(rng), False,
                     tolerated="Refused: exit 4:")
             for i in range(NEAR_EQUAL_PROBES)]

    def prepare():
        for label, case in inputs.items():
            refs[label] = gelfand_reference(*case)

    # fixed representatives, so set-up cost does not depend on the seed
    cold = [_find(ops, "gelfand", "S6/(5,1)"),
            next(op for op in ops if op.label.startswith("generic[")),
            _find(ops, "grassmann", "(2,3,1)")]
    return Workload(ops, cold, prepare, probe)


def _find(ops, kind, label):
    return next(op for op in ops if (op.kind, op.label) == (kind, label))


# ---------------------------------------------------------------------------
# orbits: Haar sampling, representation matrices, invariant projectors


def su_block_reference(d, k):
    """Gell-Mann coordinates of the traceless part of diag(1_k, 0_{d-k}).

    The diagonal basis elements come last, the l-th (l = 1..d-1) being
    sqrt(2 / (l (l + 1))) diag(1, ..., 1, -l, 0, ..., 0) with l ones.
    """
    diag = np.zeros(d)
    diag[:k] = 1.0
    diag -= diag.mean()
    coords = np.zeros(d * d - 1)
    for l in range(1, d):
        t = np.zeros(d)
        t[:l] = 1.0
        t[l] = -l
        coords[d * d - d + l - 1] = 0.5 * np.sqrt(2.0 / (l * (l + 1))) * t @ diag
    return coords


def check_sphere(samples, payload):
    if payload["n"] != samples:
        return f"sampled {payload['n']} points, asked for {samples}"
    if not payload["max_radial_deviation"] <= 1e-8:
        return f"radial deviation {payload['max_radial_deviation']:.3e} > 1e-8"
    return None


def check_projector(expected_rank, result, tol=1e-9):
    p = np.asarray(result.projector)
    if result.rank != expected_rank:
        return f"rank {result.rank}, expected {expected_rank}"
    if np.max(np.abs(p - p.T)) > tol:
        return "projector is not symmetric"
    if np.max(np.abs(p @ p - p)) > tol:
        return "projector is not idempotent"
    if abs(np.trace(p) - expected_rank) > 1e-6:
        return "trace differs from rank"
    return None


def encode_projector(result):
    p = np.ascontiguousarray(result.projector, dtype=float)
    return f"{result.rank}:{hashlib.sha256(p.tobytes()).hexdigest()}"


def build_orbits(rng, workdir):
    cr = gptforge.compact_rep
    ops = []

    def sphere(spec, samples, label=None):
        ops.append(cli_op(
            "sphere-check", label or spec,
            ["sphere-check", spec, "--samples", str(samples),
             "--seed", str(_seed(rng))],
            lambda p, samples=samples: check_sphere(samples, p)))

    # 47 ops per pass, three of them the su(4) TorusGrid(16) projector:
    # with a whole number of passes, p50 then falls among the deformable
    # sphere checks and p90 among that projector's repetitions
    for _ in range(14):
        sphere("deformable:" + _fmt(generic_triple(rng)), 2000)
    for spec in ("bloch", "spin2", "quartic:2"):
        for _ in range(2):
            sphere(spec, 2000)
    sphere("quartic:3", 300)
    for d in range(4, 9):
        k = d // 2
        path = os.path.join(workdir, f"su{d}_block.json")
        sign = 1.0 if rng.random() < 0.5 else -1.0
        _write_json(path, {
            "kind": "su_adjoint", "d": d,
            "subgroup": {"kind": "block", "blocks": [k, d - k]},
            "reference": (sign * su_block_reference(d, k)).tolist()})
        sphere(path, 200, label=f"su{d}/block({k},{d - k}).json")

    for spec, samples in (("deformable:" + _fmt(generic_triple(rng)), 500),
                          ("deformable:" + _fmt(generic_triple(rng)), 500),
                          ("bloch", 2000), ("bloch", 2000)):
        ops.append(cli_op(
            "schur-average", spec,
            ["schur-average", spec, "--samples", str(samples),
             "--seed", str(_seed(rng))],
            lambda p: None if p["all_ok"] else "block-average identity failed"))

    def projector(label, rank, make_args):
        ops.append(Op(
            "projector", label,
            lambda: gptforge.compact_rep.invariant_projector(*make_args()),
            lambda r, rank=rank: check_projector(rank, r),
            encode=encode_projector))

    for d in range(3, 9):
        projector(f"su{d}/torus", d - 1,
                  lambda d=d: (cr.su_adjoint(d), cr.full_torus()))
        k = d // 2
        projector(f"su{d}/block({k},{d - k})", 1,
                  lambda d=d, k=k: (cr.su_adjoint(d),
                                    cr.block_subgroup(k, d - k)))
    for d, label in ((3, "su3/torus/grid16"), (4, "su4/torus/grid16"),
                     (4, "su4/torus/grid16#2"), (4, "su4/torus/grid16#3")):
        projector(label, d - 1,
                  lambda d=d: (cr.su_adjoint(d), cr.full_torus(),
                               cr.TorusGrid(16)))
    mc_seed = _seed(rng)
    projector("su3/block(2,1)/mc2000", 1,
              lambda: (cr.su_adjoint(3), cr.block_subgroup(2, 1),
                       cr.MonteCarlo(2000, mc_seed)))

    # the projector goes first: its first call in the process is cold_s
    cold = [_find(ops, "projector", "su8/block(4,4)"),
            next(op for op in ops if op.label.startswith("deformable:")),
            _find(ops, "schur-average", "bloch")]
    return Workload(ops, cold)


# ---------------------------------------------------------------------------
# distances: least-squares distance estimates and large LPs


def check_window(t, estimate):
    """First-order deformation window: 0.2 t <= d(t) <= 2 t + 0.02."""
    if not 0.2 * t <= estimate <= 2.0 * t + 0.02:
        return f"estimate {estimate:.6g} at t = {t:g} outside [0.2t, 2t+0.02]"
    return None


def check_deform(text):
    lines = text.strip().splitlines()
    if lines[0] != "t,d_sym_estimate,seed,n" or len(lines) != 6 + 1:
        return "unexpected sweep table shape"
    for i, line in enumerate(lines[1:]):
        t, est = (float(x) for x in line.split(",")[:2])
        if abs(t - 0.02 * i) > 1e-12:
            return f"row {i} has t = {t}"
        if t > 0:
            msg = check_window(t, est)
            if msg:
                return msg
    return None


def check_bloch_spin2(payload):
    if abs(payload["lower_bound"] - 1.0 / 12.0) > 1e-12:
        return f"lower bound {payload['lower_bound']} != 1/12"
    if not payload["mc_verification"]["verified"]:
        return "Monte-Carlo verification of the 1/12 bound failed"
    return None


def check_pair_distance(t, payload):
    if payload["lower_bound"] is not None:
        return "deformable pair reported a missing block"
    return check_window(t, payload["estimate"])


def build_distances(rng, workdir):
    ops = []
    for _ in range(4):
        alpha = _fmt(generic_triple(rng))
        argv = ["deform", "--t-grid", "0:0.1:0.02", "--alpha", alpha,
                "--samples", "2000", "--seed", str(_seed(rng))]
        ops.append(Op("deform", alpha, lambda argv=argv: cli_call(argv),
                      check_deform, encode=lambda text: text))
    for _ in range(2):
        ops.append(cli_op(
            "distance", "bloch/spin2",
            ["distance", "bloch", "spin2", "--samples", "10000",
             "--seed", str(_seed(rng))], check_bloch_spin2))
    for _ in range(4):
        spec = "deformable:" + _fmt(generic_triple(rng))
        t = float(rng.uniform(0.02, 0.1))
        ops.append(cli_op(
            "distance", f"deformable/t={t:.4f}",
            ["distance", spec, f"{spec}:{t!r}", "--samples", "2000",
             "--seed", str(_seed(rng))],
            lambda p, t=t: check_pair_distance(t, p)))

    samples = [gptforge.state_space.deformable_structure(
        generic_triple(rng), 2000, _seed(rng)) for _ in range(2)]

    reverse = {}  # d(j, i), computed once per pair by the check
    for _ in range(10):
        i, j = (int(x) for x in rng.choice(2000, size=2, replace=False))
        ops.append(Op(
            "pure-state-distance", f"({i},{j})",
            lambda i=i, j=j: gptforge.deformation.pure_state_distance(
                samples[0], i, j),
            lambda v, i=i, j=j: check_pure_distance(samples[0], i, j, v,
                                                    reverse)))
    for s_index, s in enumerate(samples):
        for k, want in ((2, True), (3, False)):
            ops.append(Op(
                "sampled-discrimination", f"sample{s_index}/k={k}",
                lambda s=s, k=k:
                    gptforge.discrimination.max_distinguishable_sampled(s, k),
                lambda got, k=k, want=want: None if bool(got) == want else
                    f"k = {k} feasibility {got}, expected {want}"))

    cold = [ops[0], _find(ops, "distance", "bloch/spin2"),
            next(op for op in ops if op.kind == "pure-state-distance"),
            _find(ops, "sampled-discrimination", "sample0/k=2")]
    return Workload(ops, cold)


def check_pure_distance(sample, i, j, value, reverse):
    """Value in [0, 1] and d(i, j) = d(j, i) within 1e-6.

    The reverse distance costs one more LP; it is computed on the first
    check of each pair and reused afterwards.
    """
    if not -1e-9 <= value <= 1.0 + 1e-9:
        return f"distance {value} outside [0, 1]"
    if (i, j) not in reverse:
        reverse[i, j] = gptforge.deformation.pure_state_distance(sample, j, i)
    if abs(reverse[i, j] - value) > 1e-6:
        return f"d({i},{j}) = {value} but d({j},{i}) = {reverse[i, j]}"
    return None


BUILDERS = {"exact": build_exact, "orbits": build_orbits,
            "distances": build_distances}


def build(name, seed, workdir):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    wl = BUILDERS[name](rng, workdir)
    seen = {}
    for op in wl.ops:  # repeated specs get "#2", "#3", ... in pass order
        n = seen[op.kind, op.label] = seen.get((op.kind, op.label), 0) + 1
        if n > 1:
            op.label = f"{op.label}#{n}"
    return wl
