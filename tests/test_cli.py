"""End-to-end runs of the command-line interface.

Most tests call cli.main in-process, in a temporary working directory,
reading stdout/stderr through capsys; one smoke test starts the real
`python -m graphnls.cli` entry point in a child process.
"""

import ast
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

import graphnls
from graphnls import cli

FAST = ["--points", "128", "--length", "20"]
# The directory that holds the graphnls this process imported, so the
# child runs the same copy whatever its cwd (src/ or site-packages).
PACKAGE_ROOT = str(Path(graphnls.__file__).resolve().parents[1])


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run(capsys, monkeypatch):
    """cli.main(args) with cwd as the working directory."""

    def _run(args, cwd):
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return _run


def run_child(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [PACKAGE_ROOT, env.get("PYTHONPATH")] if p)
    r = subprocess.run([sys.executable, "-m", "graphnls.cli"] + args, cwd=cwd,
                       env=env, capture_output=True, text=True)
    if r.returncode != 0 and "No module named 'graphnls" in r.stderr:
        pytest.fail(f"the CLI child could not import graphnls:\n{r.stderr}")
    return r


def read_table(path):
    """Header and float columns of a CLI CSV table."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


class TestScan:
    def test_writes_commented_csv(self, run, tmp_path):
        r = run(["scan", "sesqui", "--m1", "0.5,1.0"] + FAST, tmp_path)
        assert r.returncode == 0
        text = (tmp_path / "scan_sesqui.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# graphnls ")
        assert lines[1].startswith("# config: ")
        assert lines[2].startswith("# grid: h=")
        assert lines[3] == "param,closed_energy,discrete_energy,offset"
        assert len(lines) == 6

    def test_range_spec(self, run, tmp_path):
        r = run(["scan", "dilation", "--lambda", "0.8:1.2:5"] + FAST, tmp_path)
        assert r.returncode == 0
        rows = [l for l in (tmp_path / "scan_dilation.csv").read_text()
                .splitlines() if not l.startswith("#")]
        assert len(rows) == 6

    def test_json_format(self, run, tmp_path):
        r = run(["scan", "sesqui", "--m1", "1.0,2.0", "--format", "json"]
                + FAST, tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "scan_sesqui.json").read_text())
        assert doc["param_name"] == "m1"
        assert len(doc["data"]["param"]) == 2

    def test_bad_range_is_a_usage_error(self, run, tmp_path):
        r = run(["scan", "sesqui", "--m1", "a:b:c"] + FAST, tmp_path)
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_unknown_curve_is_a_usage_error(self, run, tmp_path):
        r = run(["scan", "bogus"] + FAST, tmp_path)
        assert r.returncode == 2


class TestProfile:
    def test_stationary_profile(self, run, tmp_path):
        r = run(["profile", "stationary"] + FAST, tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "profile_stationary.csv").exists()

    def test_inadmissible_masses_exit_2(self, run, tmp_path):
        r = run(["profile", "sesqui", "--m1", "3", "--m2", "1"] + FAST,
                tmp_path)
        assert r.returncode == 2
        assert "m2 >= 2*m1" in r.stderr

    def test_short_edge_warns_about_the_tail(self, run, tmp_path):
        r = run(["profile", "sesqui", "--m1", "1", "--m2", "5",
                 "--points", "64", "--length", "8"], tmp_path)
        assert r.returncode == 0
        assert "tail" in r.stderr


class TestFlow:
    def test_shift_descends_and_writes_summary(self, run, tmp_path):
        r = run(["flow", "--perturbation", "shift:0.01", "--max-iters", "400",
                 "--grad-tol", "1e-9"] + FAST, tmp_path)
        assert r.returncode == 0
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["final_energy"] < summary["stationary_energy"] + 1e-2
        assert summary["gap_to_infimum"] > 0
        assert not summary["stalled"]
        assert (tmp_path / "flow_trace.csv").exists()
        assert summary["stop_reason"] == "max_iters"
        assert summary["accepted_steps"] == summary["iterations"] == 400
        assert summary["rejected_steps"] >= 0
        assert 0 < summary["final_step"] <= 0.1

    def test_gather_escapes_and_stops_near_the_infimum(self, run, tmp_path):
        r = run(["flow", "--perturbation", "gather:0.01"] + FAST, tmp_path)
        assert r.returncode == 0
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["perturbation"] == "gather:0.01"
        assert summary["stop_reason"] == "near_infimum"
        assert summary["iterations"] < 40000
        assert 0 < summary["gap_to_infimum"] <= 0.01 * -summary["infimum"]

    def test_stall_reported_not_fatal(self, run, tmp_path):
        r = run(["flow", "--perturbation", "none", "--grad-tol", "0",
                 "--max-iters", "100"] + FAST, tmp_path)
        assert r.returncode == 0
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["stalled"] is True
        assert summary["stop_reason"] == "stalled"

    def test_unknown_perturbation_exit_2(self, run, tmp_path):
        r = run(["flow", "--perturbation", "wiggle:0.1"] + FAST, tmp_path)
        assert r.returncode == 2

    def test_json_trace_matches_csv(self, run, tmp_path):
        # every subcommand that writes a table: JSON "data" holds the
        # CSV columns bit for bit, and any summary is the same file
        cases = [
            (["scan", "sesqui"] + FAST, "scan_sesqui", None),
            (["scan", "dilation"] + FAST, "scan_dilation", None),
            (["scan", "minseq", "--m1", "1,0.5", "--points", "128", "--length", "60"],
             "scan_minseq", None),
            (["profile", "stationary"] + FAST, "profile_stationary", None),
            (["profile", "sesqui"] + FAST, "profile_sesqui", None),
            (["flow", "--max-iters", "40", "--grad-tol", "1e-9"] + FAST,
             "flow_trace", "flow_summary.json"),
            (["evolve", "--initial", "sesqui", "--t-final", "0.05"] + FAST,
             "evolve_trace", "evolve_summary.json"),
        ]
        for args, stem, summary in cases:
            assert run(args + ["--out", "csv"], tmp_path).returncode == 0
            assert run(args + ["--out", "json", "--format", "json"],
                       tmp_path).returncode == 0
            table = read_table(tmp_path / "csv" / f"{stem}.csv")
            doc = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
            assert doc["data"] == table, stem
            if summary is not None:
                assert ((tmp_path / "csv" / summary).read_bytes()
                        == (tmp_path / "json" / summary).read_bytes())
        assert list(read_table(tmp_path / "csv" / "flow_trace.csv")) == [
            "t", "mass", "energy", "phase", "edge_mass_1", "edge_mass_2",
            "edge_mass_3", "grad_norm", "peak_edge", "peak_coordinate"]
        assert list(read_table(tmp_path / "csv" / "profile_sesqui.csv")) == [
            "edge", "index", "x", "re", "im"]


class TestEvolve:
    def test_standing_wave_summary(self, run, tmp_path):
        r = run(["evolve", "--initial", "stationary", "--t-final", "0.05"]
                + FAST, tmp_path)
        assert r.returncode == 0
        summary = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert summary["measured_omega"] == pytest.approx(1.0, abs=5e-3)
        assert summary["mass_drift"] < 1e-12
        table = read_table(tmp_path / "evolve_trace.csv")
        assert list(table) == ["t", "mass", "energy", "phase", "edge_mass_1",
                               "edge_mass_2", "edge_mass_3", "fixed_point_iters"]
        iters = table["fixed_point_iters"]
        assert iters[0] == 0
        assert summary["fixed_point_iters_per_step"] == sum(iters) / summary["steps"]

    def test_diverging_step_fails_without_a_traceback(self, run, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(["evolve", "--mass", "1e3", "--points", "64", "--t-final", "0.02"],
                    tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("evolution failed: step 1: ")
        assert r.stderr.rstrip().endswith("try a smaller dt")

    def test_short_trace_is_rejected_before_the_run(self, run, tmp_path, monkeypatch):
        # 10 steps at --observe-every 10: rows at t = 0 and t = 0.01 only
        monkeypatch.setattr(cli, "evolve", lambda *a: pytest.fail("evolve ran"))
        r = run(["evolve", "--points", "64", "--t-final", "0.01"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert "--observe-every" in r.stderr
        assert not any(tmp_path.iterdir())
        monkeypatch.undo()
        r = run(["evolve", "--points", "64", "--t-final", "0.02"], tmp_path)
        assert r.returncode == 0
        assert len(read_table(tmp_path / "evolve_trace.csv")["t"]) == 3

    def test_bad_step_split_exit_2(self, run, tmp_path):
        r = run(["evolve", "--dt", "0.3", "--t-final", "1.0"] + FAST,
                tmp_path)
        assert r.returncode == 2


class TestVerify:
    def test_coarse_grid_reports_honestly(self, run, tmp_path):
        r = run(["verify", "--points", "64", "--length", "20",
                 "--t-final", "0.1"], tmp_path)
        assert r.returncode == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
        assert len(report["checks"]) > 20
        names = {c["name"] for c in report["checks"]}
        assert "csv_determinism" in names
        assert "PASS" in r.stdout and "FAIL" in r.stdout
        criteria = report["criteria"]
        assert [c["criterion"] for c in criteria] == list(range(1, 11))
        assert all(c["seconds"] >= 0.0 and c["grids"] for c in criteria)
        # below 256 points criterion 10 keeps the configured grid
        assert criteria[9]["grids"] == [
            {"edge_count": 3, "truncation_length": 20.0, "points_per_edge": 64}]
        assert r.stderr.count(" s on ") == 10


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ["profile", "stationary", "--length", "inf"],
        ["profile", "stationary", "--length", "nan"],
        ["scan", "dilation", "--mass", "inf"],
        ["evolve", "--dt", "nan"],
        ["evolve", "--dt", "inf"],
        ["evolve", "--t-final", "inf"],
        ["evolve", "--t-final", "nan"],
        ["flow", "--grad-tol", "nan"],
        ["flow", "--grad-tol", "inf"],
        ["flow", "--step", "inf"],
        ["flow", "--step", "nan"],
        ["flow", "--perturbation", "dilation:inf"],
        ["scan", "dilation", "--lambda", "1,inf"],
        ["scan", "dilation", "--lambda", "1,1e300"],
        ["flow", "--perturbation", "dilation:1e300"],
        ["verify", "--seed", "-1"],
        ["profile", "stationary", "--mass", "1e200"],
        ["scan", "sesqui", "--mass", "1e200"],
        ["evolve", "--mass", "1e100"],
        ["evolve", "--length", "1e-160"],
        # the sesquisoliton's peak lies beyond L = 30 (offsets 835.79, 33.9)
        ["profile", "sesqui", "--m1", "1e-308", "--m2", "3.4"],
        ["profile", "sesqui", "--m1", "1e-12", "--m2", "3.4"],
        ["scan", "minseq", "--m1", "1e-30"],
    ], ids="_".join)
    def test_exit_2_with_a_message(self, run, tmp_path, args):
        # a numpy warning on the way to the error would be printed
        # before it, so warnings fail the run here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(args + ["--points", "64"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_overflowing_dilation_is_named(self, run, tmp_path):
        r = run(["scan", "dilation", "--lambda", "1,1e300", "--points", "64"], tmp_path)
        assert r.returncode == 2
        assert "1e+300" in r.stderr

    @pytest.mark.parametrize("args", [
        ["scan", "dilation", "--lambda", "1,1000"],
        ["profile", "stationary", "--mass", "1000"],
    ], ids="_".join)
    def test_sech_underflow_is_silent(self, run, tmp_path, args):
        # cosh overflows far out on the edge, where amp/cosh is 0 anyway
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(args + ["--points", "64"], tmp_path)
        assert r.returncode == 0
        assert r.stderr == ""

    def test_overflowing_flow_trials_are_silent(self, run, tmp_path):
        # every trial from this start overflows and is rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(["flow", "--perturbation", "dilation:1e152", "--points", "64",
                     "--max-iters", "50"], tmp_path)
        assert r.returncode == 0
        assert r.stderr == ""

    def test_edges_flag_is_unrecognized(self, run, tmp_path):
        # the star has three edges; there is no --edges flag or key
        r = run(["verify", "--edges", "4", "--points", "64"], tmp_path)
        assert r.returncode == 2
        assert "unrecognized arguments: --edges 4" in r.stderr
        assert not any(tmp_path.iterdir())


class TestEntryPoint:
    def test_module_runs_in_a_child_process(self, tmp_path):
        r = run_child(["scan", "sesqui", "--m1", "1.0"] + FAST, tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "scan_sesqui.csv").exists()
        r = run_child(["evolve", "--dt", "nan"] + FAST, tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr

    def test_demo_imports_resolve(self):
        # the demos take seconds each and do not run here; their imports do
        demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
        names = [(demo.name, alias.name) for demo in demos
                 for node in ast.walk(ast.parse(demo.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "graphnls"
                 for alias in node.names]
        assert len({demo for demo, _ in names}) == len(demos) > 0
        assert [n for n in names if not hasattr(graphnls, n[1])] == []


class TestConfigPlumbing:
    def test_outputs_are_deterministic(self, run, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        args = ["scan", "sesqui", "--m1", "0.5:1.5:7"] + FAST
        assert run(args + ["--out", "a"], tmp_path).returncode == 0
        assert run(args + ["--out", "b"], tmp_path).returncode == 0
        assert ((tmp_path / "a" / "scan_sesqui.csv").read_bytes()
                == (tmp_path / "b" / "scan_sesqui.csv").read_bytes())

    def test_env_var_sets_output_dir(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHNLS_OUT", "envout")
        r = run(["scan", "sesqui", "--m1", "1.0"] + FAST, tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "envout" / "scan_sesqui.csv").exists()

    def test_flag_beats_env_var(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHNLS_OUT", "envout")
        r = run(["scan", "sesqui", "--m1", "1.0", "--out", "flagout"] + FAST,
                tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "flagout" / "scan_sesqui.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_config_file_and_flag_precedence(self, run, tmp_path):
        cfg = tmp_path / "settings.txt"
        cfg.write_text("mass = 4\npoints = 128\nlength = 20\n")
        r = run(["scan", "sesqui", "--m1", "0.5", "--config", str(cfg)],
                tmp_path)
        assert r.returncode == 0
        header = (tmp_path / "scan_sesqui.csv").read_text().splitlines()[1]
        assert "mass=4" in header
        r = run(["scan", "sesqui", "--m1", "0.5", "--config", str(cfg),
                 "--mass", "5"], tmp_path)
        assert "mass=5" in (tmp_path / "scan_sesqui.csv")\
            .read_text().splitlines()[1]

    def test_unknown_config_key_exit_2(self, run, tmp_path):
        cfg = tmp_path / "settings.txt"
        cfg.write_text("volume = 11\n")
        r = run(["scan", "sesqui", "--config", str(cfg)] + FAST, tmp_path)
        assert r.returncode == 2
        assert "unknown config key" in r.stderr

    def test_version_flag(self, run, tmp_path):
        r = run(["--version"], tmp_path)
        assert r.returncode == 0
        assert r.stdout.startswith("graphnls ")
