import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gptforge
from gptforge import deformation as dm
from gptforge import finite_rep as fr
from gptforge import state_space as ss
from gptforge import cli
from gptforge.cli import MAX_TRIALS, _t_grid, main
from gptforge.errors import DomainError

REF8 = [0, 0, 0, 0, 0, 0, 0.6, 0.8]  # a torus-fixed su(3)-adjoint reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(seed=None):
    """Environment of a fresh interpreter that imports this gptforge, with
    GPTFORGE_SEED set to ``seed`` or unset."""
    env = dict(os.environ, PYTHONPATH=str(Path(gptforge.__file__).parents[1]))
    env.pop("GPTFORGE_SEED", None)
    if seed is not None:
        env["GPTFORGE_SEED"] = seed
    return env


@pytest.fixture()
def s3_files(tmp_path):
    group = tmp_path / "s3.json"
    group.write_text(json.dumps(
        {"degree": 3, "generators": [[[0, 1]], [[0, 1, 2]]]}))
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"generators": [[[0, 1]]]}))
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({"generators": []}))
    return group, swap, trivial


def cyclic_files(tmp_path, n):
    """Group file of Z_n and the file of its trivial subgroup."""
    group = tmp_path / f"z{n}.json"
    group.write_text(json.dumps(
        {"degree": n, "generators": [[list(range(n))]]}))
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({"generators": []}))
    return group, trivial


class TestGelfandCommand:
    def test_s3_swap(self, capsys, s3_files):
        group, swap, _ = s3_files
        code, out, _ = run_cli(capsys, "gelfand", str(group), str(swap))
        assert code == 0
        data = json.loads(out)
        assert data["gelfand"] is True
        assert data["witness"] is None
        assert data["structures"] == [[0], [2], [0, 2]]

    def test_s3_trivial_witness(self, capsys, s3_files):
        group, _, trivial = s3_files
        code, out, _ = run_cli(capsys, "gelfand", str(group), str(trivial))
        assert code == 0
        data = json.loads(out)
        assert data["gelfand"] is False
        assert data["witness"]["dim"] == 2
        assert data["witness"]["multiplicity"] == 2

    def test_malformed_json_exit_2(self, capsys, tmp_path, s3_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "gelfand", str(bad), str(s3_files[1]))
        assert code == 2
        assert "malformed" in err

    def test_missing_file_exit_2(self, capsys, s3_files):
        code, _, _ = run_cli(capsys, "gelfand", "/nonexistent.json",
                             str(s3_files[1]))
        assert code == 2

    def test_order_cap_exit_3(self, capsys, tmp_path, s3_files):
        group = tmp_path / "s4.json"
        group.write_text(json.dumps(
            {"degree": 4, "generators": [[[0, 1]], [[0, 1, 2, 3]]]}))
        code, _, err = run_cli(capsys, "gelfand", str(group), str(s3_files[2]),
                               "--max-order", "5")
        assert code == 3
        assert "cap" in err

    def test_negative_dim_cap_exit_2(self, capsys, s3_files):
        group, swap, _ = s3_files
        with pytest.raises(SystemExit) as exc:
            main(["gelfand", str(group), str(swap), "--dim-cap", "-1"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_zero_dim_cap_no_structures(self, capsys, s3_files):
        group, swap, _ = s3_files
        code, out, _ = run_cli(capsys, "gelfand", str(group), str(swap),
                               "--dim-cap", "0")
        assert code == 0
        assert json.loads(out)["structures"] == []

    def test_degree_cap_refused_before_allocating(self, capsys, monkeypatch,
                                                  tmp_path, s3_files):
        def refuse(*args, **kwargs):
            raise AssertionError("a permutation of the capped degree built")

        monkeypatch.setattr(fr, "generate_group", refuse)
        monkeypatch.setattr(fr, "cycles_to_perm", refuse)
        huge = tmp_path / "huge.json"
        for generators in ([], [[[0, 1]]]):
            huge.write_text(json.dumps({"degree": 10**9,
                                        "generators": generators}))
            code, _, err = run_cli(capsys, "gelfand", str(huge),
                                   str(s3_files[2]))
            assert code == 2
            assert str(cli.MAX_DEGREE) in err

    @pytest.mark.parametrize("degree,code", [(3, 0), (4, 2), (2, 2),
                                             ("3", 2), (0, 2)])
    def test_subgroup_degree_must_match(self, capsys, tmp_path, s3_files,
                                        degree, code):
        sub = tmp_path / "h.json"
        sub.write_text(json.dumps({"degree": degree,
                                   "generators": [[[0, 1]]]}))
        got, out, err = run_cli(capsys, "gelfand", str(s3_files[0]), str(sub))
        assert got == code
        if code == 0:
            assert json.loads(out)["subgroup_order"] == 2
        else:
            assert "degree" in err

    def test_pair_decided_once(self, capsys, monkeypatch, tmp_path):
        group = tmp_path / "s4.json"
        group.write_text(json.dumps(
            {"degree": 4, "generators": [[[0, 1]], [[0, 1, 2, 3]]]}))
        point_stabilizer = tmp_path / "s3.json"
        point_stabilizer.write_text(json.dumps(
            {"generators": [[[0, 1]], [[0, 1, 2]]]}))
        decisions = []
        is_gelfand_pair = fr.is_gelfand_pair

        def counted(*args, **kwargs):
            decisions.append(args)
            return is_gelfand_pair(*args, **kwargs)

        monkeypatch.setattr(fr, "is_gelfand_pair", counted)
        code, out, _ = run_cli(capsys, "gelfand", str(group),
                               str(point_stabilizer))
        assert code == 0 and json.loads(out)["gelfand"] is True
        assert len(decisions) == 1

    def test_structure_cap_exit_3(self, capsys, tmp_path):
        # 17 units under the default cap of 32: 131,071 structures
        code, _, err = run_cli(capsys, "gelfand",
                               *map(str, cyclic_files(tmp_path, 32)))
        assert code == 3
        assert str(fr.MAX_STRUCTURES) in err

    def test_every_subset_below_structure_cap(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gelfand",
                               *map(str, cyclic_files(tmp_path, 24)))
        assert code == 0
        data = json.loads(out)
        # reference: every subset of units, filtered by the cap and sorted
        units = [(tuple(u["irreps"]), u["real_dim"])
                 for u in data["spherical_irreps"]]
        want = []
        for r in range(1, len(units) + 1):
            for combo in itertools.combinations(units, r):
                total = sum(dim for _, dim in combo)
                if total <= data["dim_cap"]:
                    want.append((total, sorted(i for u, _ in combo for i in u)))
        want.sort()
        assert len(want) == 8191
        assert data["structures"] == [idxs for _, idxs in want]

    def test_enumeration_grows_with_output(self, tmp_path):
        # 31 units, 90 of whose sums fit under the cap; a walk over all
        # 2^31 subsets would not finish, so the child runs under a timeout
        proc = subprocess.run(
            [sys.executable, "-m", "gptforge.cli", "gelfand",
             *map(str, cyclic_files(tmp_path, 60)), "--dim-cap", "3"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["structures"]) == 90


class TestHexagonCommand:
    def test_generic(self, capsys):
        code, out, _ = run_cli(capsys, "hexagon", "0.5", "0.3", "0.2")
        assert code == 0
        data = json.loads(out)
        assert data["n_distinguishable"] == 2
        assert len(data["vertices"]) == 6

    def test_quantum(self, capsys):
        code, out, _ = run_cli(capsys, "hexagon", "1", "0", "0")
        data = json.loads(out)
        assert data["n_distinguishable"] == 3

    def test_degenerate_game_warns(self, capsys):
        code, out, err = run_cli(capsys, "hexagon", "0.4", "0.4", "0.2",
                                 "--game")
        assert code == 0
        data = json.loads(out)
        assert data["game_degenerate"] is True
        assert data["bit2_success"] == 0.5
        assert "second bit" in err

    def test_near_equal_game(self, capsys):
        # a2 - a1 = 1e-8 lies between the check tolerance and HiGHS's own
        code, out, _ = run_cli(capsys, "hexagon", "0.4", "0.40000001", "0.2",
                               "--game")
        assert code == 0
        data = json.loads(out)
        assert data["n_distinguishable"] == 2
        effects = np.array(data["effects"])
        verts = np.array(data["vertices"])
        states = verts[data["states"]]
        assert np.max(np.abs(effects @ states.T - np.eye(2))) <= 1e-8

    def test_renormalization_warning(self, capsys):
        code, out, err = run_cli(capsys, "hexagon", "1.0", "0.6", "0.4")
        assert code == 0
        assert "renormalizing" in err
        data = json.loads(out)
        assert abs(sum(data["alpha"]) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha,code,err", [
        (("1e308", "1e308", "1e308"), 0,
         "warning: coefficients sum to 3e+308; renormalizing\n"),
        (("0.5", "0.3", "0.2"), 0, ""),
        (("1e13", "-1e13", "1"), 0, ""),
        # refused before any warning
        (("nan", "0.3", "0.2"), 2,
         "error: alpha needs exactly three finite components\n"),
    ])
    def test_warning_reads_the_exact_sum(self, capsys, alpha, code, err):
        got_code, _, got = run_cli(capsys, "hexagon", "--", *alpha)
        assert (got_code, got) == (code, err)

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(capsys, "hexagon", "0.5", "0.3", "0.2",
                             "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "vertex,c1,c2,c3,plane_x,plane_y"
        assert len(lines) == 7


class TestDeformCommand:
    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "deform", "--t-grid", "0:0.1:0.02",
                               "--samples", "400")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,d_sym_estimate,seed,n"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[1]) < 0.02
        estimates = [float(l.split(",")[1]) for l in lines[1:]]
        # nondecreasing within noise
        for a, b in zip(estimates, estimates[1:]):
            assert b >= a - 0.01

    def test_grid_validation(self, capsys):
        code, _, err = run_cli(capsys, "deform", "--t-grid", "0:2:0.5")
        assert code == 2

    @pytest.mark.parametrize("grid,rows", [
        ("0:0.1:0.035", [0.0, 0.035, 0.07]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0.5:1:0.3", [0.5, 0.8]),
        ("0:0.1:0.02", [i * 0.02 for i in range(6)]),
        ("0:0:0.1", [0.0]),
    ])
    def test_grid_rows_stop_at_stop(self, grid, rows):
        assert _t_grid(grid) == rows

    def test_grid_with_a_partial_last_step_runs(self, capsys):
        code, out, _ = run_cli(capsys, "deform", "--t-grid", "0.5:1:0.3",
                               "--samples", "50")
        assert code == 0
        assert [line.split(",")[0] for line in out.split()[1:]] == [
            "0.5", "0.8"]

    @pytest.mark.parametrize("argv", [
        ("deform", "--alpha", "x"),
        ("deform", "--alpha", "1,2"),
        ("deform", "--alpha", "1,2,3,4"),
        ("sphere-check", "deformable:1,2"),
        ("sphere-check", "deformable:1,2,3,4"),
    ])
    def test_alpha_names_its_format(self, capsys, argv):
        # deform --alpha and the deformable: spec share one parser
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "a1,a2,a3" in err

    def test_alpha_round_trips_repr(self):
        # the benchmark's distances workload joins repr() of each float
        values = (0.4987654321098765, 0.3100000000000001, 0.19123)
        assert cli._alpha_triple(",".join(map(repr, values))) == values


class TestGrassmannCommand:
    def test_qutrit_row(self, capsys):
        code, out, _ = run_cli(capsys, "grassmann", "1", "2", "1")
        data = json.loads(out)
        assert data["all_real"] is True
        entry = next(e for e in data["entries"] if e["lambda"] == [2, 1, 0])
        assert entry["dim"] == 8 and entry["type"] == "real"

    def test_two_two_count(self, capsys):
        code, out, _ = run_cli(capsys, "grassmann", "2", "2", "1")
        data = json.loads(out)
        assert len(data["entries"]) == 3

    def test_trivial_only(self, capsys):
        code, out, _ = run_cli(capsys, "grassmann", "1", "1", "0")
        data = json.loads(out)
        assert len(data["entries"]) == 1

    def test_swap_suggestion_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "grassmann", "2", "1", "1")
        assert code == 2
        assert "swap" in err


class TestDistanceCommand:
    def test_bloch_vs_spin2(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "bloch", "spin2",
                               "--samples", "2000")
        assert code == 0
        data = json.loads(out)
        assert data["lower_bound"] == pytest.approx(1 / 12)
        assert data["mc_verification"]["verified"] is True

    def test_identical_specs(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "bloch", "bloch",
                               "--samples", "500")
        data = json.loads(out)
        assert data["estimate"] < 0.02

    def test_deformable_pair(self, capsys):
        code, out, _ = run_cli(capsys, "distance",
                               "deformable:0.5,0.3,0.2:0",
                               "deformable:0.5,0.3,0.2:0.05",
                               "--samples", "1000")
        data = json.loads(out)
        assert data["estimate"] <= 0.12

    def test_deformable_pair_across_alphas(self, capsys):
        # one seed draws one SU(3) stream, whatever the alpha
        code, out, _ = run_cli(capsys, "distance",
                               "deformable:0.5,0.3,0.2",
                               "deformable:0.4,0.4,0.2:0.05",
                               "--samples", "300")
        assert code == 0
        assert "missing_blocks" not in json.loads(out)

    def test_incompatible_pair_exit_2(self, capsys):
        for specs in (("bloch", "quartic"), ("deformable", "quartic:2")):
            code, _, err = run_cli(capsys, "distance", *specs,
                                   "--samples", "50")
            assert code == 2
            assert err.startswith("error:")
            assert all(repr(spec) in err for spec in specs)

    def test_argument_order_irrelevant(self, capsys):
        keys = ("estimate", "lower_bound", "mc_verification")
        reports = []
        for specs in (("bloch", "spin2"), ("spin2", "bloch")):
            code, out, _ = run_cli(capsys, "distance", *specs,
                                   "--samples", "1000")
            assert code == 0
            reports.append({k: json.loads(out)[k] for k in keys})
        assert reports[0] == reports[1]
        assert reports[0]["lower_bound"] == pytest.approx(1 / 12)

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        from gptforge import compact_rep, state_space

        def refuse(*args, **kwargs):
            raise AssertionError("Haar samples drawn for a refused pair")

        for module in (compact_rep, state_space, dm):
            monkeypatch.setattr(module, "haar_samples", refuse, raising=False)

    @pytest.mark.parametrize("specs", [("quartic:4", "bloch:1"),
                                       ("bloch:1", "quartic:4"),
                                       ("deformable:0.5,0.3,0.2", "spin2:x")])
    def test_malformed_spec_refused_before_sampling(self, capsys, no_sampling,
                                                    specs):
        code, _, err = run_cli(capsys, "distance", *specs)
        assert code == 2
        assert err.startswith("error:") and "unknown structure spec" in err

    @pytest.mark.parametrize("argv", [
        ("sphere-check", "deformable:0.5,0.3,0.2:1.5"),
        ("distance", "deformable", "deformable:0.5,0.3,0.2:-0.1"),
        ("distance", "deformable", "deformable:0.5,0.3,0.2:nan"),
    ])
    def test_deformation_t_refused_before_sampling(self, capsys, no_sampling,
                                                   argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "[0, 1]" in err

    @pytest.mark.parametrize("specs", [
        ("bloch", "spin2", {"kind": "so_traceless_symmetric", "d": 3,
                            "subgroup": {"kind": "torus"},
                            "reference": [0, 0, 0, 0, 1]}),
        ("deformable", "deformable:0.4,0.35,0.25:0.3",
         {"kind": "su_adjoint", "d": 3, "subgroup": {"kind": "torus"},
          "reference": REF8}),
    ])
    def test_specs_on_one_group_align(self, tmp_path, specs):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(specs[-1]))
        parsed = [cli._structure(text) for text in (*specs[:-1], str(path))]
        assert len({group for group, _ in parsed}) == 1
        elements = [build(40, 3).elements for _, build in parsed]
        assert all(np.array_equal(e, elements[0]) for e in elements[1:])

    @pytest.mark.parametrize("specs", [("quartic:4", "bloch"),
                                       ("bloch", "quartic:4"),
                                       ("deformable", "spin2")])
    def test_group_mismatch_refused_before_sampling(self, capsys, no_sampling,
                                                    specs):
        code, _, err = run_cli(capsys, "distance", *specs)
        assert code == 2
        assert err.startswith("error:") and "fundamental groups" in err
        assert all(repr(spec) in err for spec in specs)


class TestOtherCommands:
    def test_sphere_check(self, capsys):
        code, out, _ = run_cli(capsys, "sphere-check", "quartic:2",
                               "--samples", "300")
        data = json.loads(out)
        assert data["max_radial_deviation"] < 1e-8

    def test_schur_average(self, capsys):
        code, out, _ = run_cli(capsys, "schur-average", "bloch",
                               "--samples", "2000", "--trials", "2")
        data = json.loads(out)
        assert data["all_ok"] is True

    def test_schur_average_one_haar_draw(self, capsys, monkeypatch):
        argv = ("schur-average", "deformable:0.5,0.3,0.2", "--samples", "300")
        draws = []
        haar_samples = ss.haar_samples

        def counted(*args, **kwargs):
            draws.append(args)
            return haar_samples(*args, **kwargs)

        monkeypatch.setattr(ss, "haar_samples", counted)
        _, out, _ = run_cli(capsys, *argv)
        assert len(draws) == 1  # the structure's, averaged for six effects
        # reference: each effect checked by its own call on the same sample
        check = dm.schur_average_check

        def one_call_per_effect(s, effects):
            return [check(s, [e])[0] for e in effects]

        monkeypatch.setattr(dm, "schur_average_check", one_call_per_effect)
        _, reference, _ = run_cli(capsys, *argv)
        assert len(draws) == 2
        assert out == reference

    def test_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        data = json.loads(out)
        assert len(data["entries"]) == 5
        assert all(e["gelfand"] for e in data["entries"])

    def test_quartic(self, capsys):
        code, out, _ = run_cli(capsys, "quartic", "2")
        data = json.loads(out)
        assert data["trace"] == 2.0
        assert data["matrix"][0][0] == 1.0 and data["matrix"][2][2] == 0.0

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GPTFORGE_SEED", "7")
        code, out, _ = run_cli(capsys, "sphere-check", "bloch",
                               "--samples", "50")
        data = json.loads(out)
        assert data["meta"]["seed"] == 7


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("sphere-check", "bloch", "--samples", "-1"),
        ("sphere-check", "bloch", "--samples", "x"),
        ("deform", "--t-grid", "0:0.1"),
        ("deform", "--t-grid", "a:b:c"),
        ("deform", "--t-grid", "0:0.1:-0.02"),
        ("deform", "--t-grid", "0:0.1:0"),
        ("deform", "--t-grid", "0:1:1e-6"),
        ("deform", "--t-grid", "0:1:1e-12"),
        ("deform", "--t-grid", "0:1:inf"),
        ("distance", "deformable:x,y,z", "bloch"),
        ("distance", "bloch", "spin2", "--family-size", "8"),
        ("sphere-check", "quartic:x"),
        ("sphere-check", "deformable:0.5,0.3,0.2:t"),
        ("schur-average", "bloch", "--trials", "-1"),
        ("grassmann", "2", "2", "200"),
        ("grassmann", "1", "1", "1000000000"),
        ("grassmann", "1", "1000", "1"),
        ("grassmann", "1", "64", "1"),
        ("sphere-check", "deformable:nan,0.3,0.2"),
        ("deform", "--alpha", "nan,0.3,0.2"),
        ("deform", "--alpha", "inf,0.3,0.2"),
        ("hexagon", "inf", "0.3", "0.2"),
        ("sphere-check", "quartic:5"),
        ("sphere-check", "quartic:3000"),
        ("quartic", "5"),
        ("quartic", "3000"),
        ("distance", "bloch", "spin2", "--seed", "-1"),
        ("deform", "--family-size", "8"),
        ("schur-average", "bloch", "--trials", str(MAX_TRIALS + 1)),
        ("schur-average", "bloch", "--trials", "1000000000"),
        ("distance", "bloch", "spin2", "--samples", "1"),
        ("sphere-check", "bloch", "--seed", "-1"),
        ("sphere-check", "bloch", "--seed", "x"),
        ("hexagon", "0.5", "0.3", "0.2", "--seed", "1"),
        ("catalog", "--samples", "10"),
        ("sphere-check", "deformableXYZ"),
        ("sphere-check", "quarticXYZ"),
        ("sphere-check", "bloch:1"),
        ("sphere-check", "spin2:"),
        ("sphere-check", "deformable:0.5,0.3,0.2:0.1:0"),
        ("sphere-check", "quartic:2:1"),
    ])
    def test_exit_2(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_infinite_step_refused_before_building(self):
        with pytest.raises(DomainError, match="finite"):
            _t_grid("0:1:inf")

    @pytest.mark.parametrize("command,content", [
        ("sphere-check", [1, 2]),
        ("sphere-check", {"kind": "su_adjoint", "reference": REF8}),
        ("sphere-check", {"kind": "su_adjoint", "d": "3", "reference": REF8}),
        ("sphere-check", {"kind": "su_adjoint", "d": 2.5, "reference": REF8}),
        ("sphere-check", {"kind": "su_adjoint", "d": 3,
                          "subgroup": {"kind": "block"}, "reference": REF8}),
        ("sphere-check", {"kind": "su_adjoint", "d": 3,
                          "reference": ["a"] + REF8[1:]}),
        ("gelfand", [1, 2]),
        ("gelfand", {"degree": 3, "generators": [[[0, "a"]]]}),
        ("sphere-check", {"kind": "su_adjoint", "d": 3,
                          "reference": [float("nan")] + REF8[1:]}),
        ("sphere-check", {"kind": "so_fundamental", "d": 17,
                          "reference": [1.0] + [0.0] * 16}),
    ])
    def test_malformed_file_exit_2(self, capsys, tmp_path, command, content):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(content))
        argv = [command, str(path)]
        if command == "gelfand":
            trivial = tmp_path / "trivial.json"
            trivial.write_text(json.dumps({"generators": []}))
            argv.append(str(trivial))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err


class TestInputCaps:
    """The largest inputs under each cap still run."""

    def test_quartic_k_4(self, capsys):
        code, out, _ = run_cli(capsys, "quartic", "4")
        assert code == 0 and json.loads(out)["size"] == 16

    def test_structure_file_d_16(self, capsys, tmp_path):
        path = tmp_path / "so16.json"
        path.write_text(json.dumps({"kind": "so_fundamental", "d": 16,
                                    "reference": [1.0] + [0.0] * 15}))
        code, out, _ = run_cli(capsys, "sphere-check", str(path),
                               "--samples", "20")
        assert code == 0 and json.loads(out)["n"] == 20

    def test_group_file_degree_at_cap(self, capsys, tmp_path, s3_files):
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"degree": cli.MAX_DEGREE,
                                    "generators": [[[0, 1]]]}))
        code, out, _ = run_cli(capsys, "gelfand", str(path), str(s3_files[2]))
        assert code == 0 and json.loads(out)["group_order"] == 2

    def test_grassmann_rank_64(self, capsys):
        code, out, _ = run_cli(capsys, "grassmann", "1", "63", "1")
        assert code == 0 and json.loads(out)["all_real"] is True

    def test_trials_at_cap_parses(self):
        # parsed only: a check at the cap is not run
        args = cli._PARSER.parse_args(["schur-average", "bloch", "--trials",
                                       str(MAX_TRIALS)])
        assert args.trials == MAX_TRIALS


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("hexagon", "0.5", "0.3", "0.2", "--game"),
        ("grassmann", "2", "3", "2"),
        ("catalog",),
        ("quartic", "3"),
        ("sphere-check", "deformable:0.5,0.3,0.2", "--samples", "200"),
        ("schur-average", "bloch", "--samples", "500", "--trials", "2"),
        ("deform", "--t-grid", "0:0.04:0.02", "--samples", "200"),
        ("distance", "bloch", "spin2", "--samples", "300"),
        ("distance", "deformable:0.5,0.3,0.2", "deformable:0.4,0.4,0.2:0.05",
         "--samples", "200"),
        ("sphere-check", "deformable:0.5,0.3,0.2:0.3", "--samples", "200"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestStaticParser:
    """One parser serves every call; the environment seed is read per call."""

    def test_in_process_sequence_matches_fresh_processes(
            self, capsys, monkeypatch, s3_files):
        group, swap, _ = s3_files
        sequence = [
            (None, ("hexagon", "0.5", "0.3", "0.2", "--game")),
            (None, ("hexagon", "0.5", "0.3", "0.2")),
            ("7", ("sphere-check", "bloch", "--samples", "50")),
            ("8", ("sphere-check", "bloch", "--samples", "50")),
            (None, ("gelfand", str(group), str(swap))),
        ]
        outputs = []
        for seed, argv in sequence:
            if seed is None:
                monkeypatch.delenv("GPTFORGE_SEED", raising=False)
            else:
                monkeypatch.setenv("GPTFORGE_SEED", seed)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            proc = subprocess.run(
                [sys.executable, "-m", "gptforge.cli", *argv],
                capture_output=True, timeout=60, env=child_env(seed))
            assert proc.returncode == 0, proc.stderr
            assert out.encode() == proc.stdout, argv
            outputs.append(json.loads(out))
        assert [o["meta"]["seed"] for o in outputs[2:4]] == [7, 8]
        assert "game_conventions" not in outputs[1]

    def test_parser_built_at_most_once(self, capsys, monkeypatch):
        builds = []
        build_parser = cli.build_parser

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in (("catalog",), ("quartic", "2"), ("catalog",)):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
        assert len(builds) <= 1

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_malformed_env_seed_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GPTFORGE_SEED", value)
        code, _, err = run_cli(capsys, "sphere-check", "bloch",
                               "--samples", "50")
        assert code == 2
        assert "error:" in err and "GPTFORGE_SEED" in err

    def test_env_seed_unread_by_seedless_command(self, capsys, monkeypatch):
        monkeypatch.setenv("GPTFORGE_SEED", "abc")
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["seed"] is None and meta["samples"] is None


class TestLazyLpImport:
    # a child process sets sys.modules["scipy"] = None before importing
    # gptforge, so any scipy import, scipy.optimize among them, raises

    def test_scipy_optimize_loaded_only_by_an_lp(self, s3_files):
        # every command, and sampled discrimination after them (an LP in the
        # package's own kernel), runs with scipy unimportable
        group, swap, _ = s3_files
        commands = [
            ["gelfand", str(group), str(swap)],
            ["catalog"],
            ["grassmann", "1", "2", "1"],
            ["quartic", "2"],
            ["sphere-check", "bloch", "--samples", "50"],
            ["schur-average", "bloch", "--samples", "50", "--trials", "1"],
            ["deform", "--t-grid", "0:0:0.1", "--samples", "50"],
            ["distance", "bloch", "spin2", "--samples", "50"],
            ["hexagon", "0.5", "0.3", "0.2", "--game"],
        ]
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import contextlib, io, json\n"
            "from gptforge import discrimination, state_space\n"
            "from gptforge.cli import main\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        seen.append(main(argv))\n"
            "s = state_space.deformable_structure([0.5, 0.3, 0.2], 200, 0)\n"
            "seen.append(discrimination.max_distinguishable_sampled(s, 2))\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(commands) + [True]

    def test_no_distances_op_imports_scipy_optimize(self):
        # one op of each kind of the benchmark's distances workload, at its
        # sizes, runs with scipy unimportable
        alpha, t = "0.55,0.3,0.15", 0.06
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import contextlib, io, json\n"
            "from gptforge import deformation, discrimination, state_space\n"
            "from gptforge.cli import main\n"
            "alpha, t = json.loads(sys.argv[1])\n"
            "seen = []\n"
            "for argv in (['deform', '--t-grid', '0:0.1:0.02', '--alpha',\n"
            "              alpha, '--samples', '2000', '--seed', '5'],\n"
            "             ['distance', 'deformable:' + alpha,\n"
            "              f'deformable:{alpha}:{t!r}', '--samples', '2000',\n"
            "              '--seed', '6']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        seen.append(main(argv))\n"
            "s = state_space.deformable_structure(\n"
            "    [float(a) for a in alpha.split(',')], 2000, 7)\n"
            "seen += [deformation.pure_state_distance(s, i, j) > 0\n"
            "         for i, j in ((42, 1999), (1999, 42))]\n"
            "seen += [discrimination.max_distinguishable_sampled(s, k)\n"
            "         for k in (2, 3)]\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([alpha, t])],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 0, True, True, True, False]


class TestStructureSpecFiles:
    def test_json_rep_spec(self, capsys, tmp_path):
        spec = tmp_path / "rep.json"
        spec.write_text(json.dumps({
            "kind": "su_adjoint",
            "d": 3,
            "subgroup": {"kind": "torus"},
            "reference": [0, 0, 0, 0, 0, 0, 0.6, 0.8],
        }))
        code, out, _ = run_cli(capsys, "sphere-check", str(spec),
                               "--samples", "200")
        assert code == 0
        data = json.loads(out)
        assert data["max_radial_deviation"] < 1e-8

    @pytest.mark.parametrize("blocks,code,message", [
        ([2, 1], 0, None),
        ([1, 2], 2, "not subgroup-invariant"),
        ([2, 2], 2, "do not sum to d"),
    ])
    def test_json_block_subgroup(self, capsys, tmp_path, blocks, code,
                                 message):
        # diag(1, 1, -2) is fixed by S(U(2) x U(1)), not by S(U(1) x U(2))
        ref = gptforge.su_adjoint(3).coordinates(np.diag([1.0, 1.0, -2.0]))
        spec = tmp_path / "rep.json"
        spec.write_text(json.dumps({
            "kind": "su_adjoint", "d": 3, "reference": ref.tolist(),
            "subgroup": {"kind": "block", "blocks": blocks}}))
        got, out, err = run_cli(capsys, "sphere-check", str(spec),
                                "--samples", "50")
        assert got == code
        if message is None:
            assert json.loads(out)["max_radial_deviation"] < 1e-8
        else:
            assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("j", [1000, -1000])
    def test_json_reference_scale_is_free(self, capsys, tmp_path, j):
        # the squared norm of 2^1000 REF8 overflows, of 2^-1000 REF8 vanishes
        runs = []
        for ref in (REF8, np.ldexp(REF8, j).tolist()):
            spec = tmp_path / "rep.json"
            spec.write_text(json.dumps({"kind": "su_adjoint", "d": 3,
                                        "subgroup": {"kind": "torus"},
                                        "reference": ref}))
            code, out, err = run_cli(capsys, "sphere-check", str(spec),
                                     "--samples", "50")
            assert code == 0, err
            runs.append(out)
        assert runs[0] == runs[1]
        assert 0 < json.loads(runs[0])["max_radial_deviation"] < 1e-8

    def test_deformable_alpha_scale_is_free(self, capsys):
        code, out, err = run_cli(capsys, "distance", "deformable:1e200,1e199,0",
                                 "deformable:1e-200,1e-201,0",
                                 "--samples", "200")
        assert code == 0, err
        data = json.loads(out)
        assert data["lower_bound"] is None and data["estimate"] < 0.02

    def test_json_rep_spec_missing_reference(self, capsys, tmp_path):
        spec = tmp_path / "rep.json"
        spec.write_text(json.dumps({"kind": "su_adjoint", "d": 3,
                                    "subgroup": {"kind": "torus"}}))
        code, _, err = run_cli(capsys, "sphere-check", str(spec))
        assert code == 2
        assert "reference" in err

    @pytest.mark.parametrize("name", ["quartic_missing.json",
                                      "deformable_missing.json"])
    def test_spec_like_missing_file(self, capsys, tmp_path, monkeypatch,
                                    name):
        monkeypatch.chdir(tmp_path)  # a bare name, as a user types it
        code, _, err = run_cli(capsys, "sphere-check", name)
        assert code == 2
        assert "error: no such file" in err

    def test_spec_like_file_name_is_a_file(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        content = {"kind": "su_adjoint", "d": 3,
                   "subgroup": {"kind": "torus"}, "reference": REF8}
        Path("quartic_x.json").write_text(json.dumps(content))
        read = []
        from_file = cli._structure_from_file

        def spy(data):
            read.append(data)
            return from_file(data)

        monkeypatch.setattr(cli, "_structure_from_file", spy)
        code, out, _ = run_cli(capsys, "sphere-check", "quartic_x.json",
                               "--samples", "50")
        assert code == 0 and read == [content]
        assert json.loads(out)["n"] == 50


class TestUnusablePaths:
    """A file the CLI cannot read or write is an input error (exit 2)."""

    @pytest.fixture()
    def bad_files(self, tmp_path):
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\x80" + np.random.default_rng(0).bytes(255))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        trivial = tmp_path / "trivial.json"
        trivial.write_text(json.dumps({"generators": []}))
        return binary, deep, trivial

    def check_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 2 and out == ""
        assert "error:" in err and message in err
        assert "Traceback" not in err

    def test_directory_read(self, capsys, tmp_path):
        self.check_exit_2(capsys, ("gelfand", tmp_path, tmp_path),
                          "cannot read")

    @pytest.mark.parametrize("command", ["gelfand", "sphere-check"])
    def test_undecodable_bytes(self, capsys, bad_files, command):
        binary, _, trivial = bad_files
        argv = [command, binary] + ([trivial] if command == "gelfand" else [])
        self.check_exit_2(capsys, argv, "malformed")

    def test_nesting_too_deep(self, capsys, bad_files):
        _, deep, trivial = bad_files
        self.check_exit_2(capsys, ("gelfand", deep, trivial), "malformed")

    def test_output_in_missing_directory(self, capsys, tmp_path):
        self.check_exit_2(capsys, ("catalog", "-o", tmp_path / "no" / "x.json"),
                          "cannot write")

    def test_output_is_a_directory(self, capsys, tmp_path):
        self.check_exit_2(capsys, ("catalog", "-o", tmp_path), "cannot write")

    def test_csv_in_missing_directory(self, capsys, tmp_path):
        self.check_exit_2(capsys, ("hexagon", "0.5", "0.3", "0.2", "--csv",
                                   tmp_path / "no" / "f.csv"), "cannot write")


class TestSingleWriter:
    """Commands return their results; ``main`` alone writes them."""

    @pytest.mark.parametrize("argv", [
        ("hexagon", "0.5", "0.3", "0.2", "--game"),
        ("deform", "--samples", "200"),
    ])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv, "-o", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == printed.encode()

    def test_commands_return_and_print_nothing(self, capsys, s3_files):
        group, swap, _ = s3_files
        argvs = [
            ("gelfand", str(group), str(swap)),
            ("hexagon", "0.5", "0.3", "0.2"),
            ("deform", "--t-grid", "0:0:0.1", "--samples", "50", "--seed", "0"),
            ("distance", "bloch", "spin2", "--samples", "50", "--seed", "0"),
            ("sphere-check", "bloch", "--samples", "50", "--seed", "0"),
            ("schur-average", "bloch", "--samples", "50", "--trials", "1",
             "--seed", "0"),
            ("grassmann", "1", "2", "1"),
            ("catalog",),
            ("quartic", "2"),
        ]
        commands = next(a for a in cli._PARSER._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert sorted(a[0] for a in argvs) == sorted(commands)
        for argv in argvs:
            args = cli._PARSER.parse_args(list(argv))
            result = args.func(args)
            if argv[0] == "deform":
                assert isinstance(result, str)
            else:
                assert isinstance(result, dict) and "meta" not in result
            assert capsys.readouterr().out == ""
