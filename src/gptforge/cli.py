"""Command-line surface: reproducible, machine-readable analyses.

Subcommands: gelfand, hexagon, deform, grassmann, distance, sphere-check,
schur-average, catalog, quartic.  JSON is the canonical output (keys sorted,
defaults echoed in a meta header); CSV is emitted only for sweep and figure
data.  Every command is deterministic given its inputs and --seed; the
environment variable GPTFORGE_SEED overrides the default seed of 0.

Exit codes: 0 success, 2 input error, 3 resource cap exceeded, 4 internal
numerical-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import classification, deformation, discrimination, finite_rep, state_space
from .errors import (
    AccuracyError,
    DomainError,
    LpSolverFailure,
    NumericalConsistencyError,
    ResourceError,
)
from .numerics import DEFAULT_TOL

DEFAULT_SAMPLES = 2000
MAX_T_GRID_ROWS = 1001  # a 0:1:0.001 grid; each row is a full distance estimate
MAX_GRASSMANN_ROWS = 10_000  # candidate partitions, comb(b1_max + m, m)
MAX_GRASSMANN_RANK = 64  # m + n; each row is an O((m + n)^2) Weyl product
MAX_FUNDAMENTAL_DIM = 16  # d of a structure's group, quartic k = 4 at most


def _default_seed():
    env = os.environ.get("GPTFORGE_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as err:
        raise DomainError(f"GPTFORGE_SEED must be an integer, got {env!r}") from err


def _meta(args, command):
    return {
        "command": command,
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "tol": DEFAULT_TOL,
    }


def _emit(args, text):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(x):
    """numpy values json cannot encode: arrays as lists, scalars as Python
    scalars (np.float64 is a float already and never gets here)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, sort_keys=True, indent=2,
                           default=_json_default) + "\n")


# ---------------------------------------------------------------------------
# group files


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise DomainError(f"no such file: {path}") from err
    except json.JSONDecodeError as err:
        raise DomainError(f"malformed JSON in {path}: {err}") from err


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _perms_from_file(data, degree=None):
    if not isinstance(data, dict):
        raise DomainError("group file must hold a JSON object")
    if degree is None:
        degree = data.get("degree")
    if not _is_int(degree) or degree < 1:
        raise DomainError("group file needs a positive integer 'degree'")
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
    _, sperms = _perms_from_file(sdata, degree=degree)
    sub = finite_rep.subgroup_from_generators(group, sperms)

    table = finite_rep.character_table(group)
    decision = finite_rep.is_gelfand_pair(table, sub)
    payload = {
        "meta": _meta(args, "gelfand"),
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
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# hexagon / game


def cmd_hexagon(args):
    total = args.a1 + args.a2 + args.a3
    if abs(total - 1.0) > 1e-6:
        print(
            f"warning: coefficients sum to {total:.6g}; renormalizing",
            file=sys.stderr,
        )
    alpha = discrimination.AlphaTriple.of([args.a1, args.a2, args.a3])
    h = discrimination.hexagon_vertices(alpha)
    result = discrimination.max_distinguishable(h)
    payload = {
        "meta": _meta(args, "hexagon"),
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
        with open(args.csv, "w") as fh:
            fh.write(discrimination.hexagon_csv(h))
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# structure specs shared by deform / distance / sphere-check / schur-average


def _number(cast, text, where):
    try:
        return cast(text)
    except ValueError:
        raise DomainError(f"malformed number {text!r} in {where!r}") from None


def _check_dim(d, where):
    if d > MAX_FUNDAMENTAL_DIM:
        raise DomainError(f"{where}: fundamental dimension d = {d} exceeds "
                          f"{MAX_FUNDAMENTAL_DIM}")


def _parse_structure_spec(text):
    """bloch | spin2 | deformable:a1,a2,a3[:t] | quartic[:k] | file.json"""
    if text == "bloch":
        return {"name": "bloch"}
    if text == "spin2":
        return {"name": "spin2"}
    if text.startswith("deformable"):
        parts = text.split(":")
        alpha = (0.5, 0.3, 0.2)
        t = 0.0
        if len(parts) >= 2 and parts[1]:
            alpha = tuple(_number(float, x, text) for x in parts[1].split(","))
            if len(alpha) != 3:
                raise DomainError("deformable spec needs three coefficients")
        if len(parts) >= 3:
            t = _number(float, parts[2], text)
        return {"name": "deformable", "alpha": alpha, "t": t}
    if text.startswith("quartic"):
        parts = text.split(":")
        k = _number(int, parts[1], text) if len(parts) > 1 else 2
        _check_dim(k * k, text)
        return {"name": "quartic", "k": k}
    if text.endswith(".json"):
        data = _load_json(text)
        return {"name": "file", "data": data}
    raise DomainError(
        f"unknown structure spec {text!r}; expected bloch, spin2, "
        "deformable:a1,a2,a3[:t], quartic[:k], or a .json file"
    )


def _structure_from_file(data, n, seed):
    from . import compact_rep

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
    return state_space.build_structure(rep, sub, ref, n, seed)


def _build_single(spec, n, seed):
    name = spec["name"]
    if name == "bloch":
        return state_space.bloch_structure(n, seed, via="so3")
    if name == "spin2":
        return state_space.spin2_structure(n, seed)
    if name == "deformable":
        base = state_space.deformable_structure(spec["alpha"], n, seed)
        if spec["t"]:
            path = deformation.make_deformation_path(base)
            return deformation.deform(path, spec["t"])
        return base
    if name == "quartic":
        return state_space.quartic_structure(spec["k"], n, seed)
    return _structure_from_file(spec["data"], n, seed)


def _build_pair(spec0, spec1, n, seed):
    names = (spec0["name"], spec1["name"])
    if names == ("bloch", "spin2") or names == ("spin2", "bloch"):
        s_bloch, s_spin2 = state_space.bloch_spin2_pair(n, seed)
        return (s_bloch, s_spin2) if names[0] == "bloch" else (s_spin2, s_bloch)
    if names == ("deformable", "deformable"):
        if spec0["alpha"] != spec1["alpha"]:
            raise DomainError(
                "deformable pair must share alpha; distances across alphas "
                "need a common reference stream"
            )
        base = state_space.deformable_structure(spec0["alpha"], n, seed)
        path = deformation.make_deformation_path(base)
        s0 = deformation.deform(path, spec0["t"]) if spec0["t"] else base
        s1 = deformation.deform(path, spec1["t"]) if spec1["t"] else base
        return s0, s1
    if spec0 == spec1:
        s = _build_single(spec0, n, seed)
        return s, s
    raise DomainError(
        f"incompatible structure pair {names}: no common sampling convention"
    )


def cmd_distance(args):
    spec0 = _parse_structure_spec(args.spec0)
    spec1 = _parse_structure_spec(args.spec1)
    s0, s1 = _build_pair(spec0, spec1, args.samples, args.seed)
    report = deformation.symmetrized_distance_estimate(
        s0, s1, effect_family_size=args.family_size, rng=args.seed
    )
    payload = {
        "meta": _meta(args, "distance"),
        "spec0": args.spec0,
        "spec1": args.spec1,
        "estimate": report.estimate,
        "directed_01": report.directed_01,
        "directed_10": report.directed_10,
        "lower_bound": report.lower_bound if report.lower_bound > 0 else None,
        "n": report.n,
    }
    if report.missing_blocks:
        payload["missing_blocks"] = list(report.missing_blocks)
        # verified from the structure whose smaller irrep sets the bound
        d0, d1 = s0.rep.real_dimension, s1.rep.real_dimension
        owner, rival = (s0, s1) if d0 <= d1 else (s1, s0)
        verify = deformation.structure_distance_lower_bound(owner, rival)
        payload["mc_verification"] = {
            "mc_min": verify.mc_min,
            "sigma": verify.sigma,
            "verified": verify.verified,
        }
    _emit_json(args, payload)
    return 0


def _t_grid(text):
    """start:stop:step, inclusive, with 0 <= start <= stop <= 1, a positive
    finite step and at most ``MAX_T_GRID_ROWS`` rows."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"t grid {text!r} is not start:stop:step")
    start, stop, step = (_number(float, x, text) for x in parts)
    if not (0.0 <= start <= stop <= 1.0):
        raise DomainError("t grid must lie inside [0, 1]")
    if not 0.0 < step < np.inf:
        raise DomainError(
            f"t grid step must be positive and finite, got {step:g}")
    # capped before rounding: a tiny step would overflow or build a huge list
    count = round(min((stop - start) / step, MAX_T_GRID_ROWS)) + 1
    if count > MAX_T_GRID_ROWS:
        raise DomainError(f"t grid {text!r} has more than {MAX_T_GRID_ROWS} rows")
    return [start + i * step for i in range(count)]


def cmd_deform(args):
    ts = _t_grid(args.t_grid)
    base = state_space.deformable_structure(args.alpha, args.samples, args.seed)
    rows = deformation.deformation_sweep(base, ts,
                                         effect_family_size=args.family_size,
                                         rng=args.seed)
    _emit(args, deformation.sweep_csv(rows))
    return 0


def cmd_sphere_check(args):
    spec = _parse_structure_spec(args.spec)
    s = _build_single(spec, args.samples, args.seed)
    payload = {
        "meta": _meta(args, "sphere-check"),
        "spec": args.spec,
        "n": s.n_points,
        "max_radial_deviation": state_space.sphere_check(s),
    }
    _emit_json(args, payload)
    return 0


def cmd_schur_average(args):
    spec = _parse_structure_spec(args.spec)
    s = _build_single(spec, args.samples, args.seed)
    rng = np.random.default_rng([args.seed, 1])
    checks = []
    effects = [state_space.unit_effect(s)]
    for i in range(args.trials):
        c0 = rng.uniform(0.3, 0.7)
        w = rng.standard_normal(s.rep.real_dimension)
        w *= rng.uniform(0.2, 1.0) * min(c0, 1.0 - c0) / np.linalg.norm(w)
        effects.append(state_space.Effect.affine(c0, w, f"random[{i}]"))
    results = deformation.schur_average_check(
        s, effects, args.samples, np.random.default_rng([args.seed, 2]))
    for e, r in zip(effects, results):
        checks.append({
            "label": e.label,
            "mc_average": r.mc_average,
            "exact": r.exact,
            "sigma": r.sigma,
            "ok": bool(r.deviation <= 4.0 * r.sigma + 1e-12),
        })
    payload = {
        "meta": _meta(args, "schur-average"),
        "spec": args.spec,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }
    _emit_json(args, payload)
    return 0


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
    payload = {
        "meta": _meta(args, "grassmann"),
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
    _emit_json(args, payload)
    return 0


def cmd_catalog(args):
    payload = {
        "meta": _meta(args, "catalog"),
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
    _emit_json(args, payload)
    return 0


def cmd_quartic(args):
    _check_dim(args.k * args.k, "quartic k")
    rho = classification.quartic_reference(args.k)
    payload = {
        "meta": _meta(args, "quartic"),
        "k": args.k,
        "size": rho.shape[0],
        "rank": args.k,
        "trace": float(np.trace(rho)),
        "matrix": rho,
    }
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low, kind):
    """An argparse type: integers >= ``low``, called ``kind`` in errors."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gptforge",
        description=(
            "Analyse transitive convex state spaces: Gelfand decisions, "
            "orbit samples, discrimination games, structure distances, and "
            "spherical-representation catalogs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = _default_seed()

    def common(p, samples=DEFAULT_SAMPLES):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="rng seed (default from GPTFORGE_SEED or 0)")
        p.add_argument("--samples", type=_positive_int, default=samples,
                       help=f"Monte-Carlo sample count (default {samples})")
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
    p.add_argument("--alpha", type=lambda s: tuple(float(x) for x in s.split(",")),
                   default=(0.5, 0.3, 0.2))
    p.add_argument("--family-size", type=_positive_int, default=8)
    common(p)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("distance", help="distance estimate between structures")
    p.add_argument("spec0")
    p.add_argument("spec1")
    p.add_argument("--family-size", type=_positive_int, default=8)
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sphere-check", help="hypersphere consistency of an orbit")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_sphere_check)

    p = sub.add_parser("schur-average", help="block-average identity checks")
    p.add_argument("spec")
    p.add_argument("--trials", type=_positive_int, default=5)
    common(p)
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
