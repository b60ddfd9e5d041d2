"""Command-line surface: reproducible, machine-readable analyses.

Subcommands: gelfand, hexagon, deform, grassmann, distance, sphere-check,
schur-average, catalog, quartic.  JSON is the canonical output (keys sorted,
defaults echoed in a meta header); CSV is emitted only for sweep and figure
data.  Every command is deterministic given its inputs.  The four commands
that sample (deform, distance, sphere-check, schur-average) also take --seed
and --samples; their seed defaults to the non-negative integer in the
environment variable GPTFORGE_SEED, read on each call, or 0.  The parser
holds no environment state and is built once per process.

Each ``cmd_*`` returns a payload dict (the sweep CSV text for deform) and
prints nothing; ``main`` alone adds the meta header, serialises, and writes
to stdout or ``-o``.  Files are read by ``_load_json`` and written by
``_write_file``; a path either of them cannot use exits 2.

Exit codes: 0 success, 2 input error, 3 resource cap exceeded, 4 internal
numerical-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Context, Decimal

import numpy as np

from . import (classification, compact_rep, deformation, discrimination,
               finite_rep, state_space)
from .errors import (
    AccuracyError,
    DomainError,
    LpSolverFailure,
    NumericalConsistencyError,
    ResourceError,
)
from .numerics import DEFAULT_TOL, NORMALIZATION_TOL

DEFAULT_SAMPLES = 2000
MAX_T_GRID_ROWS = 1001  # a 0:1:0.001 grid; each row is a full distance estimate
MAX_GRASSMANN_ROWS = 10_000  # candidate partitions, comb(b1_max + m, m)
MAX_GRASSMANN_RANK = 64  # m + n; each row is an O((m + n)^2) Weyl product
MAX_FUNDAMENTAL_DIM = 16  # d of a structure's group, quartic k = 4 at most
MAX_DEGREE = 1_000  # points a group file's permutations act on
MAX_TRIALS = 10_000  # random effects of schur-average, built one by one


def _default_seed():
    """The seed when --seed is not given: GPTFORGE_SEED, else 0."""
    env = os.environ.get("GPTFORGE_SEED")
    if env is None:
        return 0
    try:
        return _nonnegative_int(env)
    except argparse.ArgumentTypeError as err:
        raise DomainError(f"GPTFORGE_SEED: {err}") from None


def _json_default(x):
    """numpy values json cannot encode: arrays as lists, scalars as Python
    scalars (np.float64 is a float already and never gets here)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _load_json(path):
    """The JSON document in ``path``, or a DomainError saying why not."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise DomainError(f"no such file: {path}") from err
    except (ValueError, RecursionError) as err:  # bad JSON, bytes or nesting
        raise DomainError(f"malformed JSON in {path}: {err}") from err
    except OSError as err:
        raise DomainError(f"cannot read {path}: {err.strerror}") from err


def _write_file(path, text):
    """Write ``text`` to ``path``, or raise a DomainError saying why not."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise DomainError(f"cannot write {path}: {err.strerror}") from err


# ---------------------------------------------------------------------------
# group files


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _perms_from_file(data, group_degree=None):
    if not isinstance(data, dict):
        raise DomainError("group file must hold a JSON object")
    degree = data.get("degree", group_degree)
    if not (_is_int(degree) and 1 <= degree <= MAX_DEGREE):
        raise DomainError(f"'degree' must be an integer from 1 to {MAX_DEGREE}")
    if group_degree not in (None, degree):
        raise DomainError(f"degree {degree} is not the group's {group_degree}")
    gens = data.get("generators", [])
    if not isinstance(gens, list):
        raise DomainError("'generators' must be a list of cycle lists")
    perms = []
    for cycles in gens:
        if not (isinstance(cycles, list)
                and all(isinstance(c, list) and all(map(_is_int, c))
                        for c in cycles)):
            raise DomainError(
                "each generator must be a list of cycles of integer indices")
        perms.append(finite_rep.cycles_to_perm(degree, cycles))
    return degree, perms


def cmd_gelfand(args):
    gdata = _load_json(args.group_file)
    degree, gperms = _perms_from_file(gdata)
    group = finite_rep.generate_group(gperms, degree=degree,
                                      max_order=args.max_order)
    sdata = _load_json(args.subgroup_file)
    _, sperms = _perms_from_file(sdata, degree)
    sub = finite_rep.subgroup_from_generators(group, sperms)

    table = finite_rep.character_table(group)
    decision = finite_rep.is_gelfand_pair(table, sub)
    payload = {
        "group_order": group.order,
        "subgroup_order": sub.order,
        "gelfand": decision.gelfand,
        "witness": None,
        "spherical_irreps": [],
    }
    if decision.gelfand:
        units = finite_rep.spherical_units(table, decision)
        payload["spherical_irreps"] = [
            {
                "irreps": list(u.irreps),
                "real_dim": u.real_dim,
                "kind": u.kind,
            }
            for u in units
        ]
        cap = args.dim_cap
        if cap is None:
            cap = group.order // sub.order
        payload["dim_cap"] = cap
        payload["structures"] = [
            list(t)
            for t in finite_rep.count_probabilistic_structures(units, cap)
        ]
    else:
        payload["witness"] = {
            "irrep": decision.witness_irrep,
            "multiplicity": decision.witness_multiplicity,
            "dim": table.dims[decision.witness_irrep],
        }
    return payload


# ---------------------------------------------------------------------------
# hexagon / game


def cmd_hexagon(args):
    alpha = discrimination.AlphaTriple.of([args.a1, args.a2, args.a3])
    # summed in decimal: the float sum of three finite floats can overflow
    total = sum(map(Decimal, (args.a1, args.a2, args.a3)))
    if abs(total - 1) > NORMALIZATION_TOL:
        shown = float(total)
        if math.isinf(shown):  # six digits, as :.6g prints a float
            shown = Context(prec=6).plus(total).normalize()
        print(
            f"warning: coefficients sum to {shown:.6g}; renormalizing",
            file=sys.stderr,
        )
    h = discrimination.hexagon_vertices(alpha)
    result = discrimination.max_distinguishable(h)
    payload = {
        "alpha": list(alpha.values),
        "vertices": h.vertices,
        "labels": {f"y{i + 1}": h.label_to_vertex[i] for i in range(6)},
        "n_distinguishable": result.n,
        "states": list(result.states),
        "effects": result.effects,
    }
    if args.game:
        game = discrimination.encoding_game_value(alpha)
        payload["bit1_success"] = game.bit1_success
        payload["bit2_success"] = game.bit2_success
        payload["game_degenerate"] = game.degenerate
        if game.degenerate:
            print(f"warning: {game.note}", file=sys.stderr)
        payload["game_conventions"] = (
            "uniform prior over the four game states; optimal two-outcome "
            "measurement per bit"
        )
    if args.csv:
        _write_file(args.csv, discrimination.hexagon_csv(h))
    return payload


# ---------------------------------------------------------------------------
# structure specs shared by deform / distance / sphere-check / schur-average


def _number(cast, text, where):
    try:
        return cast(text)
    except ValueError:
        raise DomainError(f"malformed number {text!r} in {where!r}") from None


def _alpha_triple(text):
    """The three coefficients of ``a1,a2,a3``, shared by ``deform --alpha``
    and the ``deformable:`` spec."""
    try:  # a wrong count fails the unpacking, a non-number float()
        a1, a2, a3 = map(float, text.split(","))
    except ValueError:
        raise DomainError(
            f"alpha must be three numbers a1,a2,a3, got {text!r}") from None
    return a1, a2, a3


def _check_dim(d, where):
    if d > MAX_FUNDAMENTAL_DIM:
        raise DomainError(f"{where}: fundamental dimension d = {d} exceeds "
                          f"{MAX_FUNDAMENTAL_DIM}")


def _structure_from_file(data):
    if not (isinstance(data, dict) and _is_int(data.get("d"))):
        raise DomainError("structure file needs a JSON object with integer 'd'")
    _check_dim(data["d"], "structure file 'd'")
    rep = compact_rep.CompactRepSpec(data.get("kind"), data["d"])
    subspec = data.get("subgroup")
    sub = None
    if subspec:
        kind = subspec.get("kind") if isinstance(subspec, dict) else None
        blocks = subspec.get("blocks") if kind == "block" else None
        if kind == "torus":
            sub = compact_rep.full_torus()
        elif isinstance(blocks, list) and blocks and all(
                _is_int(b) and b >= 1 for b in blocks):
            sub = compact_rep.block_subgroup(*blocks)
        else:
            raise DomainError(
                f"subgroup {subspec!r} is not {{'kind': 'torus'}} or "
                "{'kind': 'block', 'blocks': [positive integers]}")
    try:
        ref = np.asarray(data.get("reference"), dtype=float)
    except (TypeError, ValueError):
        raise DomainError(
            "structure file needs a 'reference' vector of numbers") from None
    return _group(rep), (
        lambda n, rng: state_space.build_structure(rep, sub, ref, n, rng))


def _group(rep):
    """The fundamental group of ``rep``: (is_unitary_group, d)."""
    return rep.is_unitary_group, rep.d


def _structure(text):
    """Parse one structure spec, bloch | spin2 | deformable[:a1,a2,a3[:t]] |
    quartic[:k] | file.json, into its fundamental group (see ``_group``) and
    its builder: a function of (n, rng) that builds the structure from n
    Haar samples of ``rng``, a seed or a Generator.  A malformed spec raises
    here, before any sampling.  The samples depend only on the fundamental
    group, so two specs on one group share their elements for one seed."""
    if text.endswith(".json"):
        return _structure_from_file(_load_json(text))
    name, *params = text.split(":")
    if name == "bloch" and not params:
        return _group(compact_rep.so_fundamental(3)), (
            lambda n, rng: state_space.bloch_structure(n, rng, via="so3"))
    if name == "spin2" and not params:
        return _group(compact_rep.so_traceless_symmetric(3)), (
            lambda n, rng: state_space.spin2_structure(n, rng))
    if name == "deformable" and len(params) <= 2:
        alpha = _alpha_triple(params[0] if params and params[0]
                              else "0.5,0.3,0.2")
        t = _number(float, params[1], text) if len(params) == 2 else 0.0
        if not 0.0 <= t <= 1.0:  # refused before any Haar draw
            raise DomainError(f"t must lie in [0, 1], got {t:g} in {text!r}")

        def deformable(n, rng):
            base = state_space.deformable_structure(alpha, n, rng)
            if t:
                return deformation.deform(
                    deformation.make_deformation_path(base), t)
            return base
        return _group(compact_rep.su_adjoint(3)), deformable
    if name == "quartic" and len(params) <= 1:
        k = _number(int, params[0], text) if params else 2
        _check_dim(k * k, text)
        return _group(compact_rep.su_adjoint(k * k)), (
            lambda n, rng: state_space.quartic_structure(k, n, rng))
    raise DomainError(
        f"unknown structure spec {text!r}; expected bloch, spin2, "
        "deformable:a1,a2,a3[:t], quartic[:k], or a .json file"
    )


def cmd_distance(args):
    (group0, build0), (group1, build1) = map(_structure,
                                             (args.spec0, args.spec1))
    if group0 != group1:  # refused before any Haar draw
        name0, name1 = (f"{'SU' if unitary else 'SO'}({d})"
                        for unitary, d in (group0, group1))
        raise DomainError(
            f"incompatible structure pair {args.spec0!r} and {args.spec1!r}: "
            f"their fundamental groups {name0} and {name1} differ; a "
            "distance needs two structures of one fundamental group")
    s0, s1 = (build(args.samples, args.seed) for build in (build0, build1))
    report = deformation.symmetrized_distance_estimate(s0, s1, rng=args.seed)
    payload = {
        "spec0": args.spec0,
        "spec1": args.spec1,
        "estimate": report.estimate,
        "directed_01": report.directed_01,
        "directed_10": report.directed_10,
        "lower_bound": None,
        "n": s0.n_points,
    }
    if s0.label != s1.label:
        # verified from the structure whose smaller irrep sets the bound
        owner, rival = sorted((s0, s1), key=lambda s: s.rep.real_dimension)
        verify = deformation.structure_distance_lower_bound(owner, rival)
        payload["lower_bound"] = verify.bound
        payload["missing_blocks"] = [s0.label, s1.label]
        payload["mc_verification"] = {
            "mc_min": verify.mc_min,
            "sigma": verify.sigma,
            "verified": verify.verified,
        }
    return payload


def _t_grid(text):
    """start:stop:step, inclusive, with 0 <= start <= stop <= 1, a positive
    finite step and at most ``MAX_T_GRID_ROWS`` rows, none past stop."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"t grid {text!r} is not start:stop:step")
    start, stop, step = (_number(float, x, text) for x in parts)
    if not (0.0 <= start <= stop <= 1.0):
        raise DomainError("t grid must lie inside [0, 1]")
    if not 0.0 < step < np.inf:
        raise DomainError(
            f"t grid step must be positive and finite, got {step:g}")
    # whole steps counted on the decimal text, where 0:0.3:0.1 is exactly 3
    # (the float quotient is 2.9999999999999996)
    start_text, stop_text, step_text = map(Decimal, parts)
    count = math.floor((stop_text - start_text) / step_text) + 1
    if count > MAX_T_GRID_ROWS:
        raise DomainError(f"t grid {text!r} has more than {MAX_T_GRID_ROWS} rows")
    # float rounding can put a last row a few ulps past stop
    return [min(start + i * step, stop) for i in range(count)]


def cmd_deform(args):
    ts = _t_grid(args.t_grid)
    alpha = _alpha_triple(args.alpha)
    base = state_space.deformable_structure(alpha, args.samples, args.seed)
    rows = deformation.deformation_sweep(base, ts, rng=args.seed)
    return deformation.sweep_csv(rows)


def cmd_sphere_check(args):
    s = _structure(args.spec)[1](args.samples, args.seed)
    return {
        "spec": args.spec,
        "n": s.n_points,
        "max_radial_deviation": state_space.sphere_check(s),
    }


def cmd_schur_average(args):
    # the random effects and the sample draw from two streams of one seed
    rng, stream = (np.random.default_rng([args.seed, i]) for i in (1, 2))
    s = _structure(args.spec)[1](args.samples, stream)
    effects = [state_space.unit_effect(s)]
    for i in range(args.trials):
        c0 = rng.uniform(0.3, 0.7)
        w = rng.standard_normal(s.rep.real_dimension)
        w *= rng.uniform(0.2, 1.0) * min(c0, 1.0 - c0) / np.linalg.norm(w)
        effects.append(state_space.Effect.affine(c0, w, f"random[{i}]"))
    checks = [{
        "label": e.label,
        "mc_average": r.mc_average,
        "exact": r.exact,
        "sigma": r.sigma,
        "ok": r.ok,
    } for e, r in zip(effects, deformation.schur_average_check(s, effects))]
    return {
        "spec": args.spec,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }


def cmd_grassmann(args):
    if args.m > args.n:
        raise DomainError(
            f"m = {args.m} exceeds n = {args.n}; swap the arguments"
        )
    if args.m + args.n > MAX_GRASSMANN_RANK:
        raise DomainError(f"m + n = {args.m + args.n} exceeds "
                          f"{MAX_GRASSMANN_RANK}")
    m, b = args.m, args.b1_max  # comb(m + b, m) >= m + b: test the cheap one
    if min(m, b) >= 1 and (m + b > MAX_GRASSMANN_ROWS
                           or math.comb(m + b, m) > MAX_GRASSMANN_ROWS):
        raise DomainError(f"m = {m}, b1_max = {b} gives more than "
                          f"{MAX_GRASSMANN_ROWS} candidate partitions")
    audit = classification.spherical_reality_audit(args.m, args.n, args.b1_max)
    return {
        "m": args.m,
        "n": args.n,
        "b1_max": args.b1_max,
        "all_real": audit.all_real,
        "entries": [
            {
                "lambda": list(r.partition),
                "dynkin": list(r.dynkin),
                "dim": r.dim,
                "type": r.type,
            }
            for r in audit.rows
        ],
        "spaces": classification.grassmann_spaces(args.m, args.n),
    }


def cmd_catalog(args):
    return {
        "entries": [
            {
                "space": e.space,
                "coset": e.coset,
                "group": e.group,
                "stabilizer": e.stabilizer,
                "gelfand": e.gelfand,
            }
            for e in classification.two_point_catalog()
        ],
    }


def cmd_quartic(args):
    _check_dim(args.k * args.k, "quartic k")
    rho = classification.quartic_reference(args.k)
    return {
        "k": args.k,
        "size": rho.shape[0],
        "rank": args.k,
        "trace": float(np.trace(rho)),
        "matrix": rho,
    }


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low, kind, cap=None):
    """An argparse type: integers >= ``low``, called ``kind`` in errors, and
    at most ``cap`` when one is given."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"{value} exceeds the cap {cap}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def build_parser():
    """The argument parser; it reads no environment, so one serves every
    call (``main`` uses the module's ``_PARSER``)."""
    parser = argparse.ArgumentParser(
        prog="gptforge",
        description=(
            "Analyse transitive convex state spaces: Gelfand decisions, "
            "orbit samples, discrimination games, structure distances, and "
            "spherical-representation catalogs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampled=False):
        if sampled:
            p.add_argument("--seed", type=_nonnegative_int, default=None,
                           help="rng seed (default GPTFORGE_SEED, else 0)")
            p.add_argument("--samples", type=_positive_int,
                           default=DEFAULT_SAMPLES,
                           help="Monte-Carlo sample count "
                                f"(default {DEFAULT_SAMPLES})")
        p.add_argument("-o", "--output", help="write output to a file")

    p = sub.add_parser("gelfand", help="decide a Gelfand pair from group files")
    p.add_argument("group_file")
    p.add_argument("subgroup_file")
    p.add_argument("--dim-cap", type=_nonnegative_int, default=None,
                   help="dimension cap for structure enumeration "
                        "(default |G/H|)")
    p.add_argument("--max-order", type=int, default=finite_rep.DEFAULT_ORDER_CAP)
    common(p)
    p.set_defaults(func=cmd_gelfand)

    p = sub.add_parser("hexagon", help="diagonal projection analysis")
    p.add_argument("a1", type=float)
    p.add_argument("a2", type=float)
    p.add_argument("a3", type=float)
    p.add_argument("--game", action="store_true",
                   help="also evaluate the two-bit encoding game")
    p.add_argument("--csv", help="write figure data CSV to this path")
    common(p)
    p.set_defaults(func=cmd_hexagon)

    p = sub.add_parser("deform", help="distance sweep along a deformation path")
    p.add_argument("--t-grid", default="0:0.1:0.02",
                   help="start:stop:step, inclusive (default 0:0.1:0.02)")
    p.add_argument("--alpha", default="0.5,0.3,0.2",
                   help="coefficients a1,a2,a3 (default 0.5,0.3,0.2)")
    common(p, sampled=True)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("distance", help="distance estimate between structures")
    p.add_argument("spec0")
    p.add_argument("spec1")
    common(p, sampled=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sphere-check", help="hypersphere consistency of an orbit")
    p.add_argument("spec")
    common(p, sampled=True)
    p.set_defaults(func=cmd_sphere_check)

    p = sub.add_parser("schur-average", help="block-average identity checks")
    p.add_argument("spec")
    p.add_argument("--trials", type=_int_at_least(1, "positive", MAX_TRIALS),
                   default=5,
                   help=f"random effects (default 5, at most {MAX_TRIALS})")
    common(p, sampled=True)
    p.set_defaults(func=cmd_schur_average)

    p = sub.add_parser("grassmann", help="spherical partition enumeration")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("b1_max", type=int)
    common(p)
    p.set_defaults(func=cmd_grassmann)

    p = sub.add_parser("catalog", help="two-point homogeneous space catalog")
    common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("quartic", help="quartic reference state")
    p.add_argument("k", type=int)
    common(p)
    p.set_defaults(func=cmd_quartic)

    return parser


_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "seed", 0) is None:  # a sampling command, no --seed
            args.seed = _default_seed()
        result = args.func(args)
        if isinstance(result, dict):
            result["meta"] = {"command": args.command, "tol": DEFAULT_TOL,
                              "seed": getattr(args, "seed", None),
                              "samples": getattr(args, "samples", None)}
            result = json.dumps(result, sort_keys=True, indent=2,
                                default=_json_default) + "\n"
        if args.output:
            _write_file(args.output, result)
        else:
            sys.stdout.write(result)
        return 0
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ResourceError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3
    except (NumericalConsistencyError, AccuracyError, LpSolverFailure) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
