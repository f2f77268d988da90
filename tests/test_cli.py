import json
import os

import numpy as np
import pytest

from choreocert.cli import main
from choreocert.loops import GeneratorSpectrum, SystemLoop, system_to_dict
from choreocert.symmetry import SymmetryParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARAMS4 = ["--n", "4", "--r", "7", "--d", "3", "--k1", "3", "--k2", "-4"]


class TestBounds:
    def test_table_contains_exact_constants(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", *PARAMS4)
        assert code == 0
        for token in ("144.6243", "138.9614", "170.7513", "139.2223"):
            assert token in out
        assert "threshold: 138.9614" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", *PARAMS4, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["threshold"] == min(c["bound"] for c in doc["cases"])
        assert [c["label"] for c in doc["cases"]] == ["1", "3", "4", "5"]

    def test_csv_format_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", *PARAMS4, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,pair_i,pair_j,lattice_sizes,bound"
        value = float(lines[1].split(",")[-1])
        assert abs(value - 144.624327) < 1e-5

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--n", "6", "--r", "7", "--d", "3", "--k1", "3", "--k2", "-6"
        )
        assert code == 2
        assert "gcd(N,3) != 1" in err

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 2
        assert "--n and --r" in err

    def test_out_file_written_atomically(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.json"
        code, _, _ = run_cli(
            capsys, "bounds", *PARAMS4, "--format", "json", "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert "threshold" in doc
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_n5_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "5", "--r", "8", "--d", "3", "--k1", "3", "--k2", "-5"
        )
        assert code == 0
        assert "threshold: 181.0341" in out
        assert "N odd" in out


class TestCertify:
    def test_certified_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", *PARAMS4, "--a", "0.23", "--b", "0.088"
        )
        assert code == 0
        assert "verdict: certified" in out
        assert "margin" in out

    def test_not_certified_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", *PARAMS4, "--a", "10", "--b", "0.001"
        )
        assert code == 1
        assert "not certified" in out

    def test_requires_radii(self, capsys):
        code, _, err = run_cli(capsys, "certify", *PARAMS4)
        assert code == 2
        assert "--a and --b" in err

    @pytest.mark.parametrize("radii", [("nan", "0.088"), ("0.23", "inf")])
    def test_non_finite_radii_exit_2(self, capsys, radii):
        code, _, err = run_cli(capsys, "certify", *PARAMS4, "--a", radii[0], "--b", radii[1])
        assert code == 2
        assert "radii must be positive and finite" in err

    @pytest.mark.parametrize("grid", ["0", "-84", "85"])
    def test_bad_grid_exit_2(self, capsys, grid):
        code, _, err = run_cli(
            capsys, "certify", *PARAMS4, "--a", "0.23", "--b", "0.088", "--grid", grid
        )
        assert code == 2
        assert "--grid must be a positive multiple of lcm(3, N, r) = 84" in err

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", *PARAMS4, "--a", "0.23", "--b", "0.088", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "certified"
        assert doc["params"] == {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": -4}

    def test_emit_plot(self, capsys, tmp_path):
        plot = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys,
            "certify", *PARAMS4, "--a", "0.23", "--b", "0.088",
            "--grid", "84", "--emit-plot", str(plot),
        )
        assert code == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "t,body,x,y,vx,vy"
        assert len(lines) == 1 + 84 * 7


class TestMinimize:
    def test_full_run_files_and_exit(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code, stdout, _ = run_cli(
            capsys,
            "minimize", *PARAMS4, "--a", "0.23", "--b", "0.088",
            "--modes", "24", "--grid", "1344", "--out", str(out),
        )
        assert code == 0
        assert stdout.startswith("action=")
        assert "windings=main:3,triple:-4" in stdout
        doc = json.loads(out.read_text())
        assert doc["termination"] == "converged"
        assert doc["action"] <= 135.5123
        assert (tmp_path / "res.traj.csv").exists()
        log_lines = (tmp_path / "res.iters.csv").read_text().strip().split("\n")
        assert log_lines[0] == "iter,action,gradnorm,minsep,step"
        assert len(log_lines) == 2 + doc["iterations"]

    def test_reruns_byte_identical(self, capsys, tmp_path):
        args = [
            "minimize", *PARAMS4, "--a", "0.23", "--b", "0.088",
            "--modes", "24", "--grid", "1344",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.traj.csv").read_bytes() == (tmp_path / "b.traj.csv").read_bytes()
        assert (tmp_path / "a.iters.csv").read_bytes() == (tmp_path / "b.iters.csv").read_bytes()

    def test_resume_from_result(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        run_cli(
            capsys,
            "minimize", *PARAMS4, "--a", "0.23", "--b", "0.088",
            "--modes", "24", "--grid", "1344", "--out", str(first),
        )
        second = tmp_path / "second.json"
        code, _, _ = run_cli(
            capsys,
            "minimize", "--loop-in", str(first),
            "--modes", "24", "--grid", "1344", "--out", str(second),
        )
        assert code == 0
        doc1 = json.loads(first.read_text())
        doc2 = json.loads(second.read_text())
        assert doc2["iterations"] <= 2
        assert abs(doc2["action"] - doc1["action"]) <= 1e-10

    def test_solver_failure_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "minimize", *PARAMS4, "--a", "0.1", "--b", "0.0995",
            "--modes", "24", "--grid", "672", "--out", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert "separation guard" in err

    def test_requires_start(self, capsys):
        code, _, err = run_cli(capsys, "minimize", *PARAMS4)
        assert code == 2
        assert "--a/--b or --loop-in" in err

    def test_non_finite_radius_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "minimize", *PARAMS4, "--a", "nan", "--b", "0.088")
        assert code == 2
        assert "radii must be positive and finite" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--gtol", "-1", "gtol must be positive"),
            ("--eps-sep", "0", "eps_sep must be at least"),
            ("--max-iter", "-1", "max_iterations must be nonnegative"),
            ("--grid", "0", "--grid must be a positive multiple of lcm(3, N, r) = 84"),
        ],
    )
    def test_bad_options_exit_2(self, capsys, tmp_path, flag, value, message):
        code, _, err = run_cli(
            capsys,
            "minimize", *PARAMS4, "--a", "0.23", "--b", "0.088",
            flag, value, "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert message in err

    @staticmethod
    def _stored_loop(tmp_path, main_freqs=(3,), main_coeffs=(0.23,)):
        loop = SystemLoop(
            SymmetryParams(4, 7, 3, 3, -4),
            GeneratorSpectrum("main", main_freqs, np.array(main_coeffs, dtype=complex)),
            GeneratorSpectrum("triple", (-4,), np.array([0.088 + 0j])),
        )
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(system_to_dict(loop)))
        return str(path)

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--r", "11", "--d", "5"], "--r"),
            (["--n", "5"], "--n"),
            (["--d", "5"], "--d"),
            (["--k1", "6"], "--k1"),
            (["--k2", "-8"], "--k2"),
        ],
    )
    def test_loop_in_conflicts_exit_2(self, capsys, tmp_path, flags, named):
        code, _, err = run_cli(
            capsys, "minimize", "--loop-in", self._stored_loop(tmp_path), *flags,
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert f"{named} conflicts with --loop-in" in err

    def test_loop_in_matching_flags_accepted(self, capsys, tmp_path):
        # d = 10 is d = 3 modulo r = 7, the stored value
        code, _, _ = run_cli(
            capsys, "minimize", "--loop-in", self._stored_loop(tmp_path), *PARAMS4,
            "--d", "10", "--modes", "5", "--grid", "672", "--out", str(tmp_path / "x.json"),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "malform, message",
        [
            (lambda doc: {**doc, "main": 5}, "'main' must be a list of [m, x, y] rows"),
            (lambda doc: {**doc, "main": [[3]]}, "'main' must be a list of [m, x, y] rows"),
            (lambda doc: {**doc, "params": [4]},
             "'params' must map n, r, d, k1 and k2 to integers"),
            (lambda doc: [doc], "a loop must be a JSON object, not list"),
        ],
        ids=["main-number", "main-short-row", "params-list", "top-level-list"],
    )
    def test_malformed_loop_in_exit_2(self, capsys, tmp_path, malform, message):
        path = self._stored_loop(tmp_path)
        with open(path) as handle:
            doc = malform(json.load(handle))
        with open(path, "w") as handle:
            json.dump(doc, handle)
        code, _, err = run_cli(
            capsys, "minimize", "--loop-in", path, "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert f"error reading --loop-in: {message}" in err

    def test_modes_below_stored_loop_exit_2(self, capsys, tmp_path):
        loop = self._stored_loop(tmp_path, (3, 24), (0.23, 0.001))
        code, _, err = run_cli(
            capsys, "minimize", "--loop-in", loop, "--modes", "12",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--modes 24" in err


class TestLemmas:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", *PARAMS4)
        assert code == 0
        assert out.count("PASS") == 5

    def test_negative_needs_force(self, capsys):
        args = ["lemmas", "--n", "4", "--r", "9", "--d", "3", "--k1", "3", "--k2", "-4"]
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "gcd(r,3) != 1" in err
        code, out, _ = run_cli(capsys, *args, "--force")
        assert code == 1
        assert "FAIL" in out and "coincide" in out

    @pytest.mark.parametrize("force", [(), ("--force",)], ids=["plain", "force"])
    @pytest.mark.parametrize("n, r", [("4", "0"), ("4", "-7"), ("-4", "7")])
    def test_nonpositive_n_or_r_exit_2(self, capsys, n, r, force):
        code, out, err = run_cli(capsys, "lemmas", "--n", n, "--r", r, *force)
        assert code == 2
        assert "N >= 1 and r >= 1" in err
        assert "PASS" not in out

    def test_force_scans_n_multiple_of_3(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--n", "6", "--r", "7", "--force")
        assert code == 1
        assert "FAIL" in out


class TestConfig:
    def test_config_file_supplies_flags(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n=4\nr=7\nd=3\nk1=3\nk2=-4\n# comment\nformat=json\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["threshold"] == pytest.approx(138.961356, abs=1e-5)

    def test_cli_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n=4\nr=7\nd=3\nk1=3\nk2=-4\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(conf), "--n", "5",
                               "--r", "8", "--k2", "-5")
        assert code == 0
        assert "181.0341" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("nope=1\n")
        code, _, err = run_cli(capsys, "bounds", "--config", str(conf))
        assert code == 2
        assert "nope" in err
