import dataclasses
import json
import os

import numpy as np
import pytest

from choreocert.cli import _winding_summary, main
from choreocert.loops import GeneratorSpectrum, SystemLoop, system_to_dict
from choreocert.solver import MinimizeOptions
from choreocert.symmetry import SymmetryParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARAMS4 = ["--n", "4", "--r", "7", "--d", "3", "--k1", "3", "--k2", "-4"]
RADII4 = ["--a", "0.23", "--b", "0.088"]
# gcd(N, r) = 2, a class every one of whose loops has coinciding main bodies
GCD2_CLASS = ["--n", "4", "--r", "2", "--d", "0", "--k1", "6", "--k2", "4"]


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

    @pytest.mark.parametrize("argv", [["bounds"], ["lemmas"], ["certify", *RADII4],
                                      ["minimize", *RADII4]], ids=lambda argv: argv[0])
    def test_coinciding_main_bodies_exit_2(self, capsys, argv):
        # gcd(N, r) = 2: bodies i and i+2 coincide in every loop of the class
        code, out, err = run_cli(capsys, *argv, *GCD2_CLASS)
        assert code == 2
        assert "gcd(N,r) = 2 != 1: main bodies i and i+2 coincide" in err
        assert "85.5470" not in out

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["certify", "minimize"])
    @pytest.mark.parametrize(
        "a, message",
        [
            # the kinetic action overflows
            ("1e300", "radii a=1e+300, b=0.088"),
            # the kinetic action is finite, but the node sums of the full-pair
            # breakdown and the cubes of pair_forces are not
            ("1e152", "coefficient moduli sum to R = 1e+152"),
            ("5e152", "coefficient moduli sum to R = 5e+152"),
        ],
    )
    def test_overflowing_radii_exit_2(self, capsys, tmp_path, command, a, message):
        out = ["--out", str(tmp_path / "m.json")] if command == "minimize" else []
        code, _, err = run_cli(capsys, command, *PARAMS4, "--a", a, "--b", "0.088", *out)
        assert code == 2
        assert message in err
        assert "NaN" not in err and "Warning" not in err
        assert not list(tmp_path.iterdir())

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
            ("--gtol", "inf", "gtol must be positive"),
            ("--gtol", "nan", "gtol must be positive"),
            ("--eps-sep", "0", "eps_sep must be at least"),
            ("--eps-sep", "inf", "eps_sep must be at least"),
            ("--eps-sep", "nan", "eps_sep must be at least"),
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

    @pytest.mark.parametrize(
        "flags, recorded",
        [
            ([], {}),
            (["--gtol", "1e-7"], {"gtol": 1e-7}),
        ],
        ids=["defaults", "gtol-given"],
    )
    def test_options_recorded(self, capsys, tmp_path, flags, recorded):
        out = tmp_path / "x.json"
        code, _, _ = run_cli(
            capsys,
            "minimize", *PARAMS4, "--a", "0.23", "--b", "0.088",
            "--modes", "5", "--grid", "672", *flags, "--out", str(out),
        )
        assert code == 0
        defaults = {f.name: f.default for f in dataclasses.fields(MinimizeOptions)}
        expected = {**defaults, "cutoff": 5, "m_samples": 672, **recorded}
        assert json.loads(out.read_text())["options"] == expected

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
            (lambda doc: {**doc, "main": [[3, 0.2, 0.0, 99]]},
             "'main' must be a list of [m, x, y] rows: row 0 is [3, 0.2, 0.0, 99]"),
            (lambda doc: {**doc, "main": [["x", 0.2, 0.0]]},
             "'main' must be a list of [m, x, y] rows: row 0 is ['x', 0.2, 0.0]"),
            (lambda doc: {**doc, "main": [[3, float("nan"), 0.0]]},
             "'main' must be a list of [m, x, y] rows: row 0 is [3, nan, 0.0]"),
        ],
        ids=["main-number", "main-short-row", "params-list", "top-level-list",
             "main-extra-field", "main-non-numeric", "main-nan-coefficient"],
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coefficient", [1e150, 1e200, 1e300])
    def test_overflowing_loop_in_exit_2(self, capsys, tmp_path, coefficient):
        # refused when read, before the start's separation scan or pair forces
        path = self._stored_loop(tmp_path)
        with open(path) as handle:
            doc = json.load(handle)
        doc["main"] = [[3, coefficient, 0.0]]
        with open(path, "w") as handle:
            json.dump(doc, handle)
        code, _, err = run_cli(
            capsys, "minimize", "--loop-in", path, "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        reach = coefficient + 0.088  # the triple coefficient adds to R
        assert f"error reading --loop-in: coefficient moduli sum to R = {reach:.6g}" in err
        assert "NaN" not in err and "Warning" not in err
        assert [entry.name for entry in tmp_path.iterdir()] == ["loop.json"]

    def test_modes_below_stored_loop_exit_2(self, capsys, tmp_path):
        loop = self._stored_loop(tmp_path, (3, 24), (0.23, 0.001))
        code, _, err = run_cli(
            capsys, "minimize", "--loop-in", loop, "--modes", "12",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--modes 24" in err

    def test_winding_summary(self):
        # one value per chain, or the sorted distinct values of a mixed chain
        windings = {"main": [[1, 2, 3], [1, 3, -4], [1, 4, 3]], "triple": [[5, 6, -4]]}
        assert _winding_summary(windings) == "main:mixed[-4, 3],triple:-4"

    def test_modes_help_states_default(self, capsys):
        # _cmd_minimize falls back to max(24, N), not 24, for N > 24
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--help"])
        assert exc.value.code == 0
        assert "frequency cutoff K (default max(24, N))" in " ".join(capsys.readouterr().out.split())


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

    def test_force_scans_coinciding_main_bodies(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", *GCD2_CLASS, "--force")
        assert code in (0, 1)
        assert out.count("PASS") + out.count("FAIL") == 5

    def test_force_scans_n_multiple_of_3(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--n", "6", "--r", "7", "--force")
        assert code == 1
        assert "FAIL" in out


class TestRenderingFlags:
    """--format and --out exist only where they are honoured: argparse exits 2
    naming any other use, and so does a --config key for such a flag."""

    CERTIFY = ("certify", *PARAMS4, "--a", "0.23", "--b", "0.088")
    MINIMIZE = ("minimize", *PARAMS4, "--a", "0.23", "--b", "0.088", "--modes", "24",
                "--grid", "1344")

    @pytest.mark.parametrize("argv, flag", [
        (("bounds", *PARAMS4, "--format", "yaml"), "--format"),
        ((*CERTIFY, "--format", "csv"), "--format"),
        (("lemmas", *PARAMS4, "--format", "json"), "--format json"),
        ((*MINIMIZE, "--format", "json"), "--format json"),
    ], ids=["bounds-yaml", "certify-csv", "lemmas-format", "minimize-format"])
    def test_unhonoured_format_exit_2(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_lemmas_out_exit_2_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "lemmas.txt"
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", *PARAMS4, "--out", str(out)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        pytest.param(("lemmas", *PARAMS4), "format=json", id="lemmas"),
        pytest.param(MINIMIZE, "format=json", id="minimize"),
        pytest.param(CERTIFY, "format=csv", id="certify-csv"),
        pytest.param(("bounds", *PARAMS4), "format=xml", id="bounds-xml"),
    ])
    def test_format_config_key_exit_2(self, capsys, tmp_path, monkeypatch, argv, line):
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(conf))
        assert code == 2
        assert "'format'" in err and out == ""
        assert list(tmp_path.iterdir()) == [conf]

    @pytest.mark.parametrize("fmt, marker",
                             [("table", "verdict: certified"), ("json", '"verdict"')])
    def test_certify_formats_written_to_out(self, capsys, tmp_path, fmt, marker):
        out = tmp_path / f"certificate.{fmt}"
        code, printed, _ = run_cli(capsys, *self.CERTIFY, "--format", fmt, "--out", str(out))
        assert code == 0
        assert marker in printed and out.read_text() == printed


class TestUnwritableOutput:
    """An output file that cannot be written exits 2 naming it, not 1 (a verdict)
    with a traceback, and leaves no temporary file behind."""

    CERTIFY = ("certify", *PARAMS4, "--a", "0.23", "--b", "0.088", "--grid", "84")
    MINIMIZE = ("minimize", *PARAMS4, "--a", "0.23", "--b", "0.088", "--modes", "24",
                "--grid", "84", "--max-iter", "2")

    @pytest.mark.parametrize("argv, path", [
        pytest.param(("bounds", *PARAMS4, "--out"), "missing/b.json", id="bounds-out"),
        pytest.param((*CERTIFY, "--emit-plot"), "missing/p.csv", id="certify-emit-plot"),
        pytest.param((*CERTIFY, "--out"), "adir", id="certify-out-directory"),
        pytest.param((*MINIMIZE, "--out"), "missing/m.json", id="minimize-out"),
        pytest.param((*MINIMIZE, "--out", "m.json", "--emit-plot"), "adir",
                     id="minimize-emit-plot"),
    ])
    def test_exit_2_naming_the_path(self, capsys, tmp_path, monkeypatch, argv, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        code, _, err = run_cli(capsys, *argv, path)
        assert code == 2
        assert f"error: cannot write {path}: " in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob(".tmp-*~"))

    def test_minimize_traj_csv_failure_after_result(self, capsys, tmp_path):
        (tmp_path / "m.traj.csv").mkdir()
        code, _, err = run_cli(capsys, *self.MINIMIZE, "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert f"error: cannot write {tmp_path / 'm.traj.csv'}: " in err
        assert (tmp_path / "m.json").is_file()
        assert not list(tmp_path.rglob(".tmp-*~"))


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

    def test_config_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("config=x\n")
        code, out, err = run_cli(capsys, "certify", *PARAMS4, "--a", "0.23", "--b", "0.088",
                                 "--config", str(conf))
        assert code == 2 and out == ""
        assert "'config'" in err

    @pytest.mark.parametrize("command, line, value", [
        ("bounds", "n=four", "'four'"),
        ("bounds", "r=7.0", "'7.0'"),
        ("certify", "a=wide", "'wide'"),
        ("certify", "grid=", "''"),
        ("lemmas", "force=maybe", "'maybe'"),
    ])
    def test_value_its_flag_refuses_exit_2(self, capsys, tmp_path, command, line, value):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(conf))
        assert code == 2 and out == ""
        assert f"'{line.split('=')[0]}' = {value}" in err

    def test_refused_value_exit_2_even_when_flag_given(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n=four\n")
        code, _, err = run_cli(capsys, "bounds", *PARAMS4, "--config", str(conf))
        assert code == 2
        assert "'n' = 'four'" in err

    @pytest.mark.parametrize("word, code", [("yes", 1), ("TRUE", 1), ("0", 2), ("no", 2)])
    def test_force_key(self, capsys, tmp_path, word, code):
        conf = tmp_path / "run.conf"
        conf.write_text(f"force={word}\n")
        argv = ["lemmas", "--n", "4", "--r", "9", "--config", str(conf)]
        assert run_cli(capsys, *argv)[0] == code
