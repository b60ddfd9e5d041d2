"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria cover the Gelfand decision against a brute-force oracle, the
non-Gelfand witness ranks, the hypersphere invariant, hexagon
distinguishability, the encoding game, the missing-block distance bound, the
deformation closeness window, the block-average identity, Grassmann
enumeration with the reality audit, the pure-state metric axioms, and CLI
determinism.
"""

import json
import time
from math import comb

import numpy as np
import pytest

from gptforge import classification as cl
from gptforge import compact_rep as cr
from gptforge import deformation as dm
from gptforge import discrimination as dc
from gptforge import finite_rep as fr
from gptforge import state_space as ss
from gptforge.cli import main as cli_main
from oracles import (gelfand_oracle, gelfand_tsetlin_count,
                     transform_structure)


def _report(criterion, description, ok):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


# ---------------------------------------------------------------------------
# criterion 1: Gelfand decisions match the fixed-vector oracle


def _all_cyclic_subgroups_of_order(group, order):
    seen = set()
    subs = []
    for i in group:
        members = {0}
        x = i
        while x != 0:
            members.add(x)
            x = group.compose(x, i)
        if len(members) == order and tuple(sorted(members)) not in seen:
            seen.add(tuple(sorted(members)))
            subs.append(fr.Subgroup(group, tuple(sorted(members))))
    return subs


def _test_pairs():
    pairs = []

    s3 = fr.symmetric_group(3)
    pairs += [(("S3", s3), h) for h in (
        fr.trivial_subgroup(s3),
        fr.subgroup_from_generators(s3, [(1, 0, 2)]),
        fr.subgroup_from_generators(s3, [(1, 2, 0)]),
        fr.Subgroup(s3, tuple(range(s3.order))),
    )]

    s4 = fr.symmetric_group(4)
    pairs += [(("S4", s4), h) for h in (
        fr.trivial_subgroup(s4),
        fr.subgroup_from_generators(s4, [(1, 0, 2, 3)]),
        fr.subgroup_from_generators(s4, [(1, 0, 3, 2)]),
        fr.subgroup_from_generators(s4, [(1, 2, 0, 3)]),
        fr.subgroup_from_generators(s4, [(1, 2, 3, 0)]),
        fr.subgroup_from_generators(s4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
        fr.subgroup_from_generators(s4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
        fr.subgroup_from_generators(s4, [(1, 0, 2, 3), (1, 2, 0, 3)]),
        fr.subgroup_from_generators(s4, [(1, 2, 3, 0), (2, 1, 0, 3)]),
        fr.subgroup_from_generators(s4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
        fr.Subgroup(s4, tuple(range(s4.order))),
    )]

    d4 = fr.dihedral_group(4)
    pairs += [(("D4", d4), h) for h in (
        fr.trivial_subgroup(d4),
        fr.subgroup_from_generators(d4, [(2, 3, 0, 1)]),
        fr.subgroup_from_generators(d4, [(0, 3, 2, 1)]),
        fr.subgroup_from_generators(d4, [(2, 1, 0, 3)]),
        fr.subgroup_from_generators(d4, [(1, 2, 3, 0)]),
        fr.subgroup_from_generators(d4, [(2, 3, 0, 1), (0, 3, 2, 1)]),
        fr.subgroup_from_generators(d4, [(2, 3, 0, 1), (1, 0, 3, 2)]),
        fr.Subgroup(d4, tuple(range(d4.order))),
    )]

    q8 = fr.quaternion_group()
    q8_subs = [fr.trivial_subgroup(q8)]
    q8_subs += _all_cyclic_subgroups_of_order(q8, 2)
    q8_subs += _all_cyclic_subgroups_of_order(q8, 4)
    q8_subs.append(fr.Subgroup(q8, tuple(range(q8.order))))
    pairs += [(("Q8", q8), h) for h in q8_subs]

    for n in range(2, 13):
        zn = fr.cyclic_group(n)
        for d in range(1, n + 1):
            if n % d == 0:
                step = n // d
                gen = zn.elements[0]
                one = zn.elements[1] if n > 1 else zn.elements[0]
                g = gen
                for _ in range(step):
                    g = fr.compose(g, one)
                pairs.append(
                    ((f"Z{n}", zn), fr.subgroup_from_generators(zn, [g]))
                )
    return pairs


def test_criterion_1_gelfand_oracle_sweep():
    start = time.monotonic()
    tables = {}
    checked = 0
    for (name, group), sub in _test_pairs():
        if name not in tables:
            tables[name] = fr.character_table(group)
        table = tables[name]
        got = fr.is_gelfand_pair(table, sub).gelfand
        want = gelfand_oracle(group, table, sub)
        assert got == want, f"{name}, |H| = {sub.order}: {got} != oracle {want}"
        checked += 1
    elapsed = time.monotonic() - start
    _report(1, f"{checked} subgroup pairs match the fixed-vector oracle "
               f"in {elapsed:.2f}s", checked >= 30 and elapsed < 10.0)


def test_criterion_2_non_gelfand_witness():
    start = time.monotonic()
    torus = cr.invariant_projector(cr.su_adjoint(3), cr.full_torus(),
                                   cr.MonteCarlo(2000, 0))
    ok = torus.rank == 2
    ok &= bool(np.all(torus.eigenvalues[:2] > 0.999))
    ok &= bool(np.all(torus.eigenvalues[2:] < 0.001))
    block = cr.invariant_projector(cr.su_adjoint(3), cr.block_subgroup(2, 1),
                                   cr.MonteCarlo(2000, 0))
    ok &= block.rank == 1
    ok &= not cr.invariant_projector(cr.su_adjoint(3),
                                     cr.full_torus()).rank < 2
    ok &= cr.invariant_projector(cr.su_adjoint(3),
                                 cr.block_subgroup(2, 1)).rank < 2
    elapsed = time.monotonic() - start
    _report(2, f"torus rank 2 with eigenvalue gap, block rank 1 "
               f"in {elapsed:.2f}s", ok and elapsed < 5.0)


def test_criterion_3_hypersphere_invariant():
    samples = [
        ss.bloch_structure(2000, 0),
        ss.deformable_structure([0.5, 0.3, 0.2], 2000, 0),
        ss.deformable_structure([0.6, 0.25, 0.15], 2000, 1),
        ss.deformable_structure([0.45, 0.35, 0.2], 2000, 2),
        ss.quartic_structure(2, 2000, 0),
    ]
    devs = [ss.sphere_check(s) for s in samples]
    _report(3, f"max radial deviation {max(devs):.2e} over {len(samples)} "
               "orbit samples", max(devs) < 1e-8)


def test_criterion_4_distinguishability_theorem():
    rng = np.random.default_rng(0)
    worst = 0.0
    ok = True
    for _ in range(10):
        while True:
            a = np.sort(rng.dirichlet([1, 1, 1]))[::-1]
            gaps = (a[0] - a[1], a[1] - a[2])
            if min(gaps) > 0.02:
                break
        start = time.monotonic()
        r = dc.max_distinguishable(dc.hexagon_vertices(a))
        worst = max(worst, time.monotonic() - start)
        ok &= r.n == 2
    start = time.monotonic()
    ok &= dc.max_distinguishable(dc.hexagon_vertices([1.0, 0.0, 0.0])).n == 3
    worst = max(worst, time.monotonic() - start)
    _report(4, f"n = 2 on ten generic triples, n = 3 on the quantum triple "
               f"(worst LP time {worst:.2f}s)", ok and worst < 2.0)


def test_criterion_5_encoding_game():
    generic = dc.encoding_game_value([0.5, 0.3, 0.2])
    quantum = dc.encoding_game_value([1.0, 0.0, 0.0])
    equal = dc.encoding_game_value([1 / 3, 1 / 3, 1 / 3])
    ok = generic.bit1_success == pytest.approx(1.0, abs=1e-9)
    ok &= quantum.bit1_success == pytest.approx(1.0, abs=1e-9)
    ok &= abs(quantum.bit2_success - 0.5) <= 1e-8
    ok &= abs(equal.bit2_success - 0.5) <= 1e-8
    ok &= generic.bit2_success > 0.55
    # regression constant frozen from the LP oracle's first run
    ok &= generic.bit2_success == pytest.approx(0.75, abs=1e-9)
    _report(5, "bit1 = 1 exactly; bit2 = 1/2 on degenerate triples and "
               f"{generic.bit2_success:.4f} generically", ok)


def test_criterion_6_missing_block_bound():
    start = time.monotonic()
    s0 = ss.bloch_structure(10_000, 0, via="so3")
    s1 = ss.spin2_structure(10_000, 0)
    r = dm.structure_distance_lower_bound(s0, s1)
    elapsed = time.monotonic() - start
    ok = r.bound == pytest.approx(1 / 12, abs=1e-15)
    ok &= r.mc_min >= r.bound - 3.0 * r.sigma
    _report(6, f"bound 1/12 reported; Haar-average {r.mc_min:.5f} >= "
               f"bound - 3 sigma ({r.bound - 3 * r.sigma:.5f}) "
               f"in {elapsed:.1f}s", ok and elapsed < 30.0)


def test_criterion_7_deformation_closeness():
    base = ss.deformable_structure([0.5, 0.3, 0.2], 2000, 0)
    path = dm.make_deformation_path(base)
    ok = True
    details = []
    for t in (0.02, 0.05, 0.1):
        st = dm.deform(path, t)
        r = dm.symmetrized_distance_estimate(base, st, rng=0)
        details.append(f"t={t}: {r.estimate:.4f}")
        ok &= 0.2 * t <= r.estimate <= 2.0 * t + 0.02
    _report(7, "; ".join(details) + " all inside [0.2 t, 2 t + 0.02]", ok)


def test_criterion_8_block_average_identity():
    # each effect averaged over its own 5,000-point orbit sample
    rng = np.random.default_rng(1)
    ok = True
    for build, dim in ((lambda g: ss.bloch_structure(5000, g), 3),
                       (lambda g: ss.deformable_structure([0.5, 0.3, 0.2],
                                                          5000, g), 8)):
        for trial in range(50):
            c0 = rng.uniform(0.3, 0.7)
            w = rng.standard_normal(dim)
            w *= rng.uniform(0.1, 1.0) * min(c0, 1 - c0) / np.linalg.norm(w)
            e = ss.Effect(np.concatenate([[c0], w]))
            r = dm.schur_average_check(build(rng), [e])[0]
            ok &= r.deviation <= 4.0 * r.sigma + 1e-12
    hand = dm.schur_average_check(
        ss.bloch_structure(5000, 0),
        [ss.Effect(np.array([0.5, 0.0, 0.0, 0.5]))])[0]
    ok &= hand.exact == pytest.approx(1 / 3, abs=1e-15)
    ok &= hand.deviation <= 4.0 * hand.sigma
    _report(8, "100 random effects and the hand value 1/3 inside 4 sigma", ok)


def test_criterion_9_grassmann_enumeration():
    start = time.monotonic()
    ok = True
    for m in range(1, 4):
        for n in range(m, 4):
            for b in range(5):
                parts = cl.spherical_partitions(m, n, b)
                ok &= len(parts) == comb(b + m, m)
                for lam in parts:
                    ok &= cl.reality_type(cl.partition_to_dynkin(lam)) == "real"
    ok &= cl.irrep_dimension((2, 1, 0)) == 8
    ok &= gelfand_tsetlin_count((2, 1, 0)) == 8
    elapsed = time.monotonic() - start
    _report(9, f"counts match C(B+m, m), all real, (2,1,0) has dim 8 twice "
               f"in {elapsed:.2f}s", ok and elapsed < 1.0)


def test_criterion_10_metric_axioms():
    s = ss.bloch_structure(160, 0)
    rng = np.random.default_rng(2)
    ok = True
    cache = {}

    def dist(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = dm.pure_state_distance(s, i, j)
        return cache[(i, j)]

    for _ in range(100):
        i, j, k = (int(x) for x in rng.integers(0, s.n_points, size=3))
        ok &= abs(dist(i, j) - dist(j, i)) <= 1e-6
        ok &= dist(i, k) <= dist(i, j) + dist(j, k) + 1e-6
    for g in cr.haar_samples(s.rep, 10, 3):
        moved = transform_structure(s, g)
        ok &= abs(dm.pure_state_distance(moved, 5, 21) - dist(5, 21)) <= 1e-6
    _report(10, "symmetry, triangle inequality, and group invariance "
                "within 1e-6 on 100 triples", ok)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    group = tmp_path / "s3.json"
    group.write_text(json.dumps(
        {"degree": 3, "generators": [[[0, 1]], [[0, 1, 2]]]}))
    sub = tmp_path / "h.json"
    sub.write_text(json.dumps({"generators": [[[0, 1]]]}))
    commands = [
        ("gelfand", str(group), str(sub)),
        ("hexagon", "0.5", "0.3", "0.2", "--game"),
        ("deform", "--t-grid", "0:0.04:0.02", "--samples", "300"),
        ("grassmann", "2", "2", "2"),
        ("distance", "bloch", "spin2", "--samples", "400"),
        ("sphere-check", "quartic:2", "--samples", "300"),
        ("schur-average", "deformable:0.5,0.3,0.2", "--samples", "500",
         "--trials", "3"),
        ("catalog",),
        ("quartic", "2"),
    ]
    ok = True
    for argv in commands:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        ok &= code1 == 0 and code2 == 0 and out1 == out2
    _report(11, f"all {len(commands)} subcommands byte-identical on rerun", ok)
