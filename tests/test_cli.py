import copy
import json

import numpy as np
import pytest

from gptforge import deformation as dm
from gptforge.cli import _t_grid, main
from gptforge.errors import DomainError

REF8 = [0, 0, 0, 0, 0, 0, 0.6, 0.8]  # a torus-fixed su(3)-adjoint reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_incompatible_pair_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "distance", "bloch", "quartic")
        assert code == 2

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
        haar_samples = dm.haar_samples

        def counted(*args, **kwargs):
            draws.append(args)
            return haar_samples(*args, **kwargs)

        monkeypatch.setattr(dm, "haar_samples", counted)
        _, out, _ = run_cli(capsys, *argv)
        assert len(draws) == 1  # one for six effects, not one per effect
        # reference: each effect checked by its own call on its own copy of
        # the stream, so every effect redraws the same Haar samples
        check = dm.schur_average_check

        def one_call_per_effect(s, effects, n, rng):
            return [check(s, [e], n, copy.deepcopy(rng))[0] for e in effects]

        monkeypatch.setattr(dm, "schur_average_check", one_call_per_effect)
        _, reference, _ = run_cli(capsys, *argv)
        assert len(draws) == 7
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
        ("distance", "bloch", "spin2", "--family-size", "0"),
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

    def test_grassmann_rank_64(self, capsys):
        code, out, _ = run_cli(capsys, "grassmann", "1", "63", "1")
        assert code == 0 and json.loads(out)["all_real"] is True


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
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


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

    def test_json_rep_spec_missing_reference(self, capsys, tmp_path):
        spec = tmp_path / "rep.json"
        spec.write_text(json.dumps({"kind": "su_adjoint", "d": 3,
                                    "subgroup": {"kind": "torus"}}))
        code, _, err = run_cli(capsys, "sphere-check", str(spec))
        assert code == 2
        assert "reference" in err
