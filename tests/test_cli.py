"""CLI behavior: subcommands, config precedence, exit codes, file outputs."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polylat import cli
from polylat.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


CONSTRUCT = [
    "construct", "--b", "2", "--m", "4", "--alpha", "2", "--s", "3",
    "--J", "1", "--p", "0.6", "--beta-c", "0.4", "--beta-theta", "2",
]


class TestConstruct:
    def test_writes_vector_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "vec.json"
        code, stdout, _ = run(CONSTRUCT + ["--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["q"]) == 6  # alpha * s polynomials
        assert doc["q"][0] == "1"
        side = json.loads((tmp_path / "vec.cbc.json").read_text())
        assert len(side["E_per_step"]) == 6
        assert side["J"] == 1
        assert side["bound_check"]["ok"] is True
        assert side["config"]["m"] == 4
        assert side["spod_order_cap"] is None and side["spod_rerun"] is False
        assert len(side["rescored"]) == 5  # steps 2..6; step 1 is q = 1

    def test_sidecar_name_strips_only_the_trailing_json(self, tmp_path, capsys):
        (tmp_path / "a.json.d").mkdir()
        out = tmp_path / "a.json.d" / "v.json"
        code, _, _ = run(CONSTRUCT + ["--out", str(out)], capsys)
        assert code == 0
        side = json.loads((tmp_path / "a.json.d" / "v.cbc.json").read_text())
        assert len(side["E_per_step"]) == 6
        assert side["bound_check"]["ok"] is True

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "vec.json"
        run(CONSTRUCT + ["--out", str(out)], capsys)
        first = out.read_bytes()
        run(CONSTRUCT + ["--out", str(out)], capsys)
        assert out.read_bytes() == first

    def test_crossover_derived_from_eps(self, tmp_path, capsys):
        out = tmp_path / "vec.json"
        argv = [
            "construct", "--b", "2", "--m", "4", "--alpha", "2", "--s", "3",
            "--p", "0.6", "--beta-c", "0.4", "--beta-theta", "2",
            "--eps", "0.8", "--out", str(out),
        ]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        side = json.loads((tmp_path / "vec.cbc.json").read_text())
        assert side["J"] >= 1  # derived and echoed
        assert side["config"]["J"] == side["J"]

    def test_failed_bound_check_keeps_the_vector(self, tmp_path, capsys):
        # 36 SPOD blocks are too many for the bound enumeration
        out = tmp_path / "vec.json"
        argv = [
            "construct", "--b", "2", "--m", "6", "--alpha", "2", "--s", "40",
            "--J", "4", "--p", "0.6", "--beta-c", "0.4", "--out", str(out),
        ]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "too large" in err
        assert len(json.loads(out.read_text())["q"]) == 80
        side = json.loads((tmp_path / "vec.cbc.json").read_text())
        assert len(side["E_per_step"]) == 80
        assert side["bound_check"]["ok"] is None
        assert "too large" in side["bound_check"]["error"]

    def test_base_without_digit_strings_rejected_before_search(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        argv = [
            "construct", "--b", "11", "--m", "2", "--alpha", "2", "--s", "2",
            "--J", "2", "--p", "0.6", "--beta-c", "0.4", "--out", str(out),
        ]
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert "field 'b'" in err and "single-character digit strings" in err
        assert "constructed" not in stdout
        assert list(tmp_path.iterdir()) == []

    def test_out_in_missing_directory_rejected_before_search(self, tmp_path, capsys, monkeypatch):
        def search(*_args, **_kwargs):
            raise AssertionError("the search must not start")

        monkeypatch.setattr(cli, "fast_cbc", search)
        code, stdout, err = run(CONSTRUCT + ["--out", str(tmp_path / "nodir" / "v.json")], capsys)
        assert code == 1
        assert "invalid config: field 'out'" in err and "nodir" in err
        assert "constructed" not in stdout
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", ["0.3,0.8", "0.8,1.5", ","])
    def test_lambda_grid_outside_range_rejected_before_search(
        self, tmp_path, capsys, monkeypatch, grid
    ):
        def search(*_args, **_kwargs):
            raise AssertionError("the search must not start")

        monkeypatch.setattr(cli, "fast_cbc", search)
        out = tmp_path / "v.json"
        code, stdout, err = run(CONSTRUCT + ["--lambda-grid", grid, "--out", str(out)], capsys)
        assert code == 1
        assert "invalid config: field 'lambda_grid'" in err
        assert "constructed" not in stdout
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message,shown", [("Unable to allocate 13.0 GiB", None),
                                               ("", "MemoryError")])
    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch, message, shown):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "fast_cbc", out_of_memory)
        out = tmp_path / "v.json"
        code, _, err = run(CONSTRUCT + ["--out", str(out)], capsys)
        assert code == 2
        assert f"polylat: computation failed: {shown or message}\n" in err
        assert not out.exists()

    def test_missing_m_is_usage_error(self, capsys):
        code, _, err = run(["construct", "--b", "2", "--alpha", "2", "--s", "2",
                            "--J", "0", "--p", "0.6"], capsys)
        assert code == 1
        assert "field 'm'" in err


class TestPoints:
    @pytest.fixture()
    def vector(self, tmp_path, capsys):
        out = tmp_path / "vec.json"
        run(CONSTRUCT + ["--out", str(out)], capsys)
        return out

    def test_csv_output(self, vector, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        code, stdout, _ = run(["points", "--gv", str(vector), "--out", str(pts)], capsys)
        assert code == 0
        lines = pts.read_text().splitlines()
        assert lines[0] == "y1,y2,y3"
        assert len(lines) == 17  # header + 2^4 points
        assert [float(v) for v in lines[1].split(",")] == [0.0, 0.0, 0.0]

    def test_digit_output_roundtrips(self, vector, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        code, _, _ = run(
            ["points", "--gv", str(vector), "--out", str(pts), "--format", "digits"],
            capsys,
        )
        assert code == 0
        rows = pts.read_text().splitlines()[1:]
        # exact digit strings: value of row 1 col 1 reconstructs from digits
        digits = rows[1].split(",")[0]
        assert set(digits) <= {"0", "1"} and len(digits) == 8  # alpha*m digits
        assert any(ch == "1" for ch in digits)

    def test_alpha_one_passthrough_is_classical(self, tmp_path, capsys):
        # alpha = 1: emitted points are the classical lattice points
        gv_doc = {
            "b": 2, "m": 3, "alpha": 1, "s": 2, "P": "1011", "q": ["1", "101"],
        }
        gv_path = tmp_path / "gv.json"
        gv_path.write_text(json.dumps(gv_doc))
        pts = tmp_path / "pts.csv"
        code, _, _ = run(["points", "--gv", str(gv_path), "--out", str(pts)], capsys)
        assert code == 0
        import numpy as np

        from polylat.pointgen import GeneratingVector, point_for_index

        gv = GeneratingVector.load(gv_path)
        want = np.array([[c.value() for c in point_for_index(gv, n).coords]
                         for n in range(gv.n_points)])
        got = np.loadtxt(pts, delimiter=",", skiprows=1)
        assert np.allclose(got, want, atol=1e-15)

    def test_out_in_missing_directory_rejected(self, vector, tmp_path, capsys):
        out = tmp_path / "nodir" / "p.csv"
        code, _, err = run(["points", "--gv", str(vector), "--out", str(out)], capsys)
        assert code == 1
        assert "invalid config: field 'out'" in err and "nodir" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("change", [
        {"q": [1, 2, 3, 4]}, {"q": "111111"}, {"P": 10011}, {"alpha": None}, {"b": True},
        {"m": 4.0}, {"b": 2**61 - 1}, "top-level list",
    ])
    def test_malformed_vector_rejected(self, vector, tmp_path, capsys, change):
        doc = json.loads(vector.read_text())
        doc = [doc] if change == "top-level list" else dict(doc, **change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        pts = tmp_path / "p.csv"
        code, _, err = run(["points", "--gv", str(bad), "--out", str(pts)], capsys)
        assert code == 1
        assert "invalid config: field 'gv'" in err
        assert not pts.exists()

    def test_malformed_json_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["points", "--gv", str(bad)], capsys)
        assert code == 1
        assert "field 'gv'" in err


class TestBounds:
    ARGS = ["bounds", "--b", "2", "--m", "5", "--alpha", "2", "--s", "3",
            "--J", "1", "--p", "0.6", "--beta-c", "0.4", "--beta-theta", "2"]

    def test_text_table(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        assert "cbc criterion bound" in out
        assert "truncation bound" in out

    def test_json_format(self, capsys):
        code, out, _ = run(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["cbc_bound"]) == 10
        bounds = [row["bound"] for row in doc["cbc_bound"]]
        assert all(isinstance(v, (int, float)) for v in bounds)

    def test_bound_decreases_with_m(self, capsys):
        _, out5, _ = run(self.ARGS + ["--format", "json"], capsys)
        args10 = list(self.ARGS)
        args10[args10.index("--m") + 1] = "10"
        _, out10, _ = run(args10 + ["--format", "json"], capsys)
        b5 = json.loads(out5)["cbc_bound"][-1]["bound"]
        b10 = json.loads(out10)["cbc_bound"][-1]["bound"]
        assert b10 < b5

    def test_lambda_grid_outside_range_is_usage_error(self, capsys):
        code, out, err = run(self.ARGS + ["--lambda-grid", "0.3,0.8"], capsys)
        assert code == 1
        assert "field 'lambda_grid'" in err and "0.3" in err
        assert out == ""

    @pytest.mark.parametrize("b", [2**61 - 1, 1 << 16, 4])
    def test_base_that_is_not_a_small_prime_is_usage_error(self, capsys, b):
        args = list(self.ARGS)
        args[args.index("--b") + 1] = str(b)
        start = time.perf_counter()
        code, out, err = run(args, capsys)
        assert time.perf_counter() - start < 1.0  # no trial division of a large b
        assert code == 1
        assert "invalid config: field 'b': base must be a small prime" in err
        assert out == ""

    @pytest.mark.parametrize("grid", [[True, 0.8], [0.8, False], ["0.8"], 0.8, {"0.8": 1}])
    def test_lambda_grid_in_a_config_file_needs_numbers(self, tmp_path, capsys, grid):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"lambda_grid": grid}))
        code, out, err = run(self.ARGS + ["--config", str(cfgfile)], capsys)
        assert code == 1
        assert "invalid config: field 'lambda_grid'" in err
        assert out == ""

    def test_lambda_grid_in_a_config_file_as_numbers(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"lambda_grid": [0.6, 1]}))
        code, out, _ = run(self.ARGS + ["--config", str(cfgfile), "--format", "json"], capsys)
        assert code == 0
        assert [row["lambda"] for row in json.loads(out)["cbc_bound"]] == [0.6, 1.0]

    def test_p_one_divergence_warns_but_succeeds(self, capsys):
        args = ["bounds", "--b", "2", "--m", "5", "--alpha", "2", "--s", "3",
                "--J", "1", "--p", "1.0", "--beta-c", "0.4", "--beta-theta", "2",
                "--format", "json"]
        code, out, _ = run(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["warnings"]  # divergence reported as warning, not failure
        assert any(row["constant"] == "inf" for row in doc["error_constant"])


class TestConverge:
    def test_quick_study(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        argv = ["converge", "--family", "product-exponential", "--s", "3",
                "--m-range", "4:8", "--alpha", "2", "--J", "3", "--p", "0.55",
                "--beta-c", "0.1", "--beta-theta", "2", "--out", str(out),
                "--mc-baseline", "--seed", "3"]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert "fitted slope" in stdout and "Monte Carlo" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "m,N,error,mc_error"
        assert len(lines) == 6
        meta = json.loads((tmp_path / "conv.csv.meta.json").read_text())
        assert meta["config"]["family"] == "product-exponential"
        assert meta["slope"] < -1.0

    def test_degenerate_zero_scale(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        argv = ["converge", "--family", "product-exponential", "--s", "2",
                "--m-range", "3:6", "--alpha", "2", "--J", "2", "--p", "0.55",
                "--beta-c", "0.1", "--beta-theta", "2", "--scale", "0.0",
                "--out", str(out)]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert "no slope" in stdout

    def test_rational_family(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        argv = ["converge", "--family", "rational-spod", "--s", "3",
                "--m-range", "4:7", "--alpha", "2", "--J", "0", "--p", "0.55",
                "--beta-c", "0.3", "--beta-theta", "3", "--c0", "2.0",
                "--out", str(out)]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert "fitted slope" in stdout


    def test_too_few_points_for_a_slope(self, tmp_path, capsys):
        # m = 3..5 leaves one point after the two pre-asymptotic ones are skipped
        out = tmp_path / "c.csv"
        argv = ["converge", "--s", "2", "--m-range", "3:5", "--alpha", "2", "--J", "2",
                "--p", "0.55", "--beta-c", "0.1", "--out", str(out)]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert "too few points" in stdout and "no slope" in stdout
        assert len(out.read_text().splitlines()) == 4
        assert json.loads((tmp_path / "c.csv.meta.json").read_text())["slope"] is None


class TestSelftest:
    def test_clean_pass(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # one perturbed omega value in every long-division column must be
        # caught; slow_cbc keeps the true columns, so only the direct
        # criterion sees the fault
        from polylat import oracle

        true_column, true_slow_cbc = oracle.pure_omega_column, oracle.slow_cbc

        def perturbed_column(modulus, q, alpha):
            col = true_column(modulus, q, alpha)
            col[1] += 0.05
            return col

        def slow_cbc(*args, **kwargs):
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "pure_omega_column", true_column)
                return true_slow_cbc(*args, **kwargs)

        monkeypatch.setattr(oracle, "pure_omega_column", perturbed_column)
        monkeypatch.setattr(oracle, "slow_cbc", slow_cbc)
        code, out, _ = run(["selftest"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        failing = [c for c in doc["checks"] if not c["ok"]]
        assert failing and all("direct-criterion" in c["name"] for c in failing)


def test_production_modules_do_not_load_the_oracle():
    # a fresh interpreter, so no other test has imported polylat.oracle yet
    script = (
        "import importlib, pkgutil, sys, polylat\n"
        "names = [m.name for m in pkgutil.iter_modules(polylat.__path__) if m.name != 'oracle']\n"
        "for name in names:\n"
        "    importlib.import_module('polylat.' + name)\n"
        "print(' '.join(sorted(names)), 'polylat.oracle' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    *names, loaded = proc.stdout.split()
    assert {"cbc", "cli", "gfpoly", "kernel", "pointgen", "quad", "weights"} <= set(names)
    assert loaded == "False"


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "b": 2, "m": 4, "alpha": 2, "s": 2, "J": 1, "p": 0.6,
            "beta_c": 0.4, "beta_theta": 2.0, "out": str(tmp_path / "v.json"),
        }))
        code, _, _ = run(["construct", "--config", str(cfgfile)], capsys)
        assert code == 0
        assert (tmp_path / "v.json").exists()

    def test_flags_override_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "b": 2, "m": 4, "alpha": 2, "s": 2, "J": 1, "p": 0.6,
            "beta_c": 0.4, "beta_theta": 2.0,
        }))
        out = tmp_path / "v.json"
        code, _, _ = run(
            ["construct", "--config", str(cfgfile), "--s", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["s"] == 3 and len(doc["q"]) == 6

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": 4, "nonsense": 1}))
        code, _, err = run(["construct", "--config", str(cfgfile)], capsys)
        assert code == 1
        assert "unknown keys" in err and "nonsense" in err

    def test_invalid_value_names_field(self, capsys):
        code, _, err = run(CONSTRUCT[:-2] + ["--beta-theta", "0.5"], capsys)
        assert code == 1
        assert "field 'beta'" in err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--frobnicate"])
        assert exc.value.code == 1


# the options each subcommand reads, besides --config
WEIGHT_OPTIONS = {"b", "alpha", "J", "p", "beta_c", "beta_theta", "eps", "b_hol",
                  "use_prime_constant", "s"}
OPTIONS = {
    "construct": WEIGHT_OPTIONS | {"m", "lambda_grid", "out"},
    "points": {"gv", "format", "out"},
    "bounds": WEIGHT_OPTIONS | {"m", "lambda_grid", "format"},
    "converge": WEIGHT_OPTIONS | {"m_range", "family", "scale", "c0", "mc_baseline", "out",
                                  "seed"},
    "selftest": {"seed"},
}


class TestFlagSets:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_command_takes_only_its_options(self, command):
        ns = vars(cli.build_parser().parse_args([command]))
        assert set(ns) == OPTIONS[command] | {"command", "config"}

    @pytest.mark.parametrize("argv", [
        ["points", "--gv", "v.json", "--b", "3"],
        ["selftest", "--p", "0.5"],
        TestBounds.ARGS + ["--out", "x"],
        CONSTRUCT + ["--seed", "1"],
    ])
    def test_option_of_another_command_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,bad", [
        ("construct", {"gv": "v.json"}, "gv"),
        ("construct", {"seed": 1}, "seed"),
        ("construct", {"family": "rational-spod"}, "family"),
        ("points", {"b": 3}, "b"),
        ("selftest", {"p": 0.5}, "p"),
        ("bounds", {"beta_values": [0.5], "out": "x"}, "out"),
    ])
    def test_config_key_of_another_command_rejected(self, tmp_path, capsys, command, doc, bad):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        code, _, err = run([command, "--config", str(cfgfile)], capsys)
        assert code == 1
        assert f"unknown keys ['{bad}']" in err

    def test_config_for_another_command_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fast_cbc", None)  # must not be reached
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"command": "bounds"}))
        code, _, err = run(CONSTRUCT + ["--config", str(cfgfile)], capsys)
        assert code == 1
        assert "field 'command'" in err and "'bounds'" in err

    def test_embedded_config_replays_the_construction(self, tmp_path, capsys):
        first = tmp_path / "vec.json"
        assert run(CONSTRUCT + ["--eps", "0.8", "--out", str(first)], capsys)[0] == 0
        doc = json.loads(first.read_text())
        config = doc["config"]
        assert set(config) == OPTIONS["construct"] | {"command", "beta_values"}
        side = json.loads((tmp_path / "vec.cbc.json").read_text())
        assert side["config"] == config
        cfgfile = tmp_path / "replay.json"
        cfgfile.write_text(json.dumps(config))
        other = tmp_path / "other.json"
        code, _, _ = run(["construct", "--config", str(cfgfile), "--out", str(other)], capsys)
        assert code == 0
        replay = json.loads(other.read_text())
        assert (replay["q"], replay["P"]) == (doc["q"], doc["P"])
        assert replay["config"] == dict(config, out=str(other))

    def test_converge_and_bounds_embed_their_own_options(self, tmp_path, capsys):
        _, out, _ = run(TestBounds.ARGS + ["--format", "json"], capsys)
        config = json.loads(out)["config"]
        assert set(config) == OPTIONS["bounds"] | {"command", "beta_values"}
        assert config["command"] == "bounds"
        conv = tmp_path / "conv.csv"
        argv = ["converge", "--s", "2", "--m-range", "3:6", "--alpha", "2", "--J", "2",
                "--p", "0.55", "--beta-c", "0.1", "--out", str(conv)]
        assert run(argv, capsys)[0] == 0
        config = json.loads((tmp_path / "conv.csv.meta.json").read_text())["config"]
        assert set(config) == OPTIONS["converge"] | {"command", "beta_values"}

    def test_readme_command_lines_parse(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```")[1]
        lines = [line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("polylat ")]
        assert {argv[0] for argv in commands} == set(OPTIONS)
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestConfigFileValues:
    """File values go through the same type and choices checks as flags."""

    def test_points_format_outside_choices(self, tmp_path, capsys):
        gv = tmp_path / "vec.json"
        assert run(CONSTRUCT + ["--out", str(gv)], capsys)[0] == 0
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"format": "xml"}))
        pts = tmp_path / "p.out"
        code, _, err = run(["points", "--gv", str(gv), "--out", str(pts), "--config",
                            str(cfgfile)], capsys)
        assert code == 1
        assert "invalid config: field 'format'" in err
        assert not pts.exists()

    def test_converge_family_outside_choices(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "convergence_study", None)  # must not be reached
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"family": "bogus"}))
        code, _, err = run(["converge", "--s", "2", "--m-range", "3:5", "--alpha", "2",
                            "--J", "2", "--p", "0.55", "--config", str(cfgfile)], capsys)
        assert code == 1
        assert "invalid config: field 'family'" in err

    @pytest.mark.parametrize("value,ok", [("4", True), (4, True), ("four", False),
                                          (4.5, False), (True, False), ([4], False)])
    def test_bounds_m_through_its_type(self, tmp_path, capsys, value, ok):
        i = TestBounds.ARGS.index("--m")
        args = TestBounds.ARGS[:i] + TestBounds.ARGS[i + 2 :] + ["--format", "json"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": value}))
        code, out, err = run(args + ["--config", str(cfgfile)], capsys)
        if ok:
            assert code == 0
            assert json.loads(out) == json.loads(run(args + ["--m", "4"], capsys)[1])
        else:
            assert code == 1
            assert "invalid config: field 'm'" in err


    CONVERGE = ["converge", "--s", "2", "--alpha", "2", "--J", "2", "--p", "0.55"]

    def test_converge_mc_baseline_takes_only_a_boolean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "convergence_study", None)  # must not be reached
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mc_baseline": "no"}))
        code, _, err = run(self.CONVERGE + ["--m-range", "3:5", "--config", str(cfgfile)],
                           capsys)
        assert code == 1
        assert "invalid config: field 'mc_baseline'" in err

    @pytest.mark.parametrize("value", [[3.5, 5], [True, 5], 5, [], [5, 3]])
    def test_converge_m_range_must_be_increasing_integers(self, tmp_path, capsys, monkeypatch,
                                                          value):
        monkeypatch.setattr(cli, "convergence_study", None)  # must not be reached
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m_range": value}))
        code, _, err = run(self.CONVERGE + ["--config", str(cfgfile)], capsys)
        assert code == 1
        assert "invalid config: field 'm_range'" in err

    @pytest.mark.parametrize("argv,doc", [
        (CONSTRUCT, {"out": 5}),
        (["points", "--gv", "v.json"], {"out": 5}),
        (CONVERGE + ["--m-range", "3:5"], {"out": 5}),
        (["points"], {"gv": ["v.json"]}),
        (["points"], {"gv": 5}),
    ])
    def test_path_values_must_be_strings(self, tmp_path, capsys, monkeypatch, argv, doc):
        monkeypatch.chdir(tmp_path)
        for name in ("fast_cbc", "convergence_study", "GeneratingVector"):
            monkeypatch.setattr(cli, name, None)  # must not be reached
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        code, _, err = run(argv + ["--config", str(cfgfile)], capsys)
        assert code == 1
        assert f"invalid config: field '{next(iter(doc))}': need a path string" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("value", [5, "0.5", [], ["a"], [0.5, None], [[0.5]], [True, 0.5],
                                       [0.5, float("nan")]])
    def test_beta_values_must_be_a_list_of_numbers(self, tmp_path, capsys, value):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"beta_values": value}))
        code, _, err = run(TestBounds.ARGS + ["--config", str(cfgfile)], capsys)
        assert code == 1
        assert "invalid config: field 'beta_values'" in err

    def test_beta_values_list_accepted(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"beta_values": [0.3, 1]}))
        code, out, _ = run(TestBounds.ARGS + ["--config", str(cfgfile), "--format", "json"],
                           capsys)
        assert code == 0
        assert json.loads(out)["config"]["beta_values"] == [0.3, 1]


class TestUsePrimeConstant:
    @pytest.mark.parametrize("value,want", [("on", True), ("off", False), (True, True),
                                            (False, False)])
    def test_accepted_values(self, tmp_path, capsys, value, want):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"use_prime_constant": value}))
        code, out, _ = run(TestBounds.ARGS + ["--config", str(cfgfile), "--format", "json"],
                           capsys)
        assert code == 0
        assert json.loads(out)["config"]["use_prime_constant"] is want

    @pytest.mark.parametrize("value", ["false", "maybe", "ON", 1, 0])
    def test_other_values_rejected(self, tmp_path, capsys, value):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"use_prime_constant": value}))
        code, _, err = run(TestBounds.ARGS + ["--config", str(cfgfile)], capsys)
        assert code == 1
        assert "field 'use_prime_constant'" in err
