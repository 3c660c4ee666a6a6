"""End-to-end runs of the command-line interface.

Most tests call cli.main in-process, in a temporary working directory,
reading stdout/stderr through capsys; a few start child processes: the
real `python -m graphnls.cli` entry point, and the two demos that read
what hessian_probe and stationary_state return.
"""

import ast
import importlib
import inspect
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


def child_env():
    """os.environ with PACKAGE_ROOT first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [PACKAGE_ROOT, env.get("PYTHONPATH")] if p)
    return env


def run_child(args, cwd):
    r = subprocess.run([sys.executable, "-m", "graphnls.cli"] + args, cwd=cwd,
                       env=child_env(), capture_output=True, text=True)
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

    @pytest.mark.parametrize("curve, flags, param_name, metadata", [
        ("sesqui", ["--mass", "3", "--length", "20", "--points", "128", "--m1", "0.25,0.5"],
         "m1", {"M": 3.0, "edges": 3, "length": 20.0, "points": 128}),
        ("dilation", ["--length", "25", "--points", "256"],
         "lambda", {"M": 6.0, "edges": 3, "length": 25.0, "points": 256}),
        ("minseq", ["--length", "60", "--points", "512", "--m1", "1,0.5,0.1"],
         "m1", {"M": 6.0, "edges": 3, "length": 60.0, "points": 512}),
    ])
    def test_json_metadata_is_the_run_grid(self, run, tmp_path, curve, flags, param_name,
                                           metadata):
        r = run(["scan", curve, "--format", "json"] + flags, tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / f"scan_{curve}.json").read_text())
        assert doc["param_name"] == param_name
        assert doc["metadata"] == metadata

    def test_bad_range_is_a_usage_error(self, run, tmp_path):
        r = run(["scan", "sesqui", "--m1", "a:b:c"] + FAST, tmp_path)
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_unknown_curve_is_a_usage_error(self, run, tmp_path):
        r = run(["scan", "bogus"] + FAST, tmp_path)
        assert r.returncode == 2

    def test_minseq_on_a_coarse_grid_says_why(self, run, tmp_path):
        # at h = 60/255 the discrete energy at m1 = 0.02 lies 0.0093 below
        # -M^3/96: the discretization error exceeds the gap
        r = run(["scan", "minseq", "--points", "256", "--length", "60"], tmp_path)
        assert r.returncode == 1
        assert "m1 = 0.02" in r.stderr
        assert r.stderr.rstrip().endswith("the grid is too coarse for this scan")
        assert not any(tmp_path.iterdir())


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
        r = run(["flow", "--perturbation", "shift:0.01", "--max-iters", "50",
                 "--grad-tol", "1e-9"] + FAST, tmp_path)
        assert r.returncode == 0
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["final_energy"] < summary["stationary_energy"] + 1e-2
        assert summary["gap_to_infimum"] > 0
        assert not summary["stalled"]
        assert (tmp_path / "flow_trace.csv").exists()
        assert summary["stop_reason"] == "max_iters"
        assert summary["accepted_steps"] == summary["iterations"] == 50
        assert summary["rejected_steps"] >= 0
        # --step is the initial step; accepted steps grow up to 10x it
        assert 0 < summary["final_step"] <= 10 * 0.1

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
        # the kind is checked before the fraction
        for perturbation in ("wiggle", "wiggle:0.1", "wiggle:x", "wiggle:"):
            r = run(["flow", "--perturbation", perturbation] + FAST, tmp_path)
            assert r.returncode == 2
            assert r.stderr == "error: unknown perturbation kind: 'wiggle'\n"

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
        assert r.stderr.startswith("check failure: step 1: ")
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


@pytest.mark.parametrize("args", [
    ["flow"],
    ["evolve", "--t-final", "0.02"],
], ids="_".join)
def test_start_that_does_not_fit_warns(run, tmp_path, args):
    # at M = 0.1 the soliton (width ~6/M) does not fit on L = 30: the
    # flow stops after 0 iterations below the infimum, so say why
    r = run(args + ["--mass", "0.1", "--points", "64"], tmp_path)
    assert r.returncode == 0
    assert r.stderr.startswith("warning: tail ")
    assert "consider a larger --length" in r.stderr
    assert not any("warning" in p.read_text() for p in tmp_path.iterdir())


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
        # criterion 8's time grid is checked before the battery starts
        ["verify", "--dt", "0.3", "--t-final", "1"],
        ["verify", "--dt", "0"],
        ["verify", "--dt", "nan"],
        ["verify", "--t-final", "0.005"],
        ["profile", "stationary", "--mass", "1e200"],
        ["scan", "sesqui", "--mass", "1e200"],
        ["evolve", "--mass", "1e100"],
        ["evolve", "--length", "1e-160"],
        # the sesquisoliton's peak lies beyond L = 30 (offsets 835.79, 33.9)
        ["profile", "sesqui", "--m1", "1e-308", "--m2", "3.4"],
        ["profile", "sesqui", "--m1", "1e-12", "--m2", "3.4"],
        ["scan", "minseq", "--m1", "1e-30"],
        ["profile", "stationary", "--out", ""],
        # each scan value is checked by the family that builds its state
        ["scan", "dilation", "--lambda=-1,1"],
        ["scan", "dilation", "--lambda", "nan,1"],
        ["scan", "dilation", "--lambda", "0.5,0.8"],
        ["scan", "sesqui", "--m1", "3"],
        ["scan", "sesqui", "--m1", ","],
        # an empty range flag is not a request for the default range
        ["scan", "sesqui", "--m1", ""],
        ["scan", "minseq", "--m1", ""],
        ["scan", "dilation", "--lambda", ""],
        ["scan", "minseq", "--m1", "0.5,1"],
        ["scan", "minseq", "--m1", "3"],
        ["flow", "--perturbation", "wiggle:x"],
        # a colon asks for a fraction, and the none start reads none
        ["flow", "--perturbation", "shift:"],
        ["flow", "--perturbation", "none:0.5"],
        ["profile", "sesqui", "--m1", "inf", "--m2", "inf"],
        # a range flag the curve does not read
        ["scan", "dilation", "--m1", "0.5"],
        ["scan", "sesqui", "--lambda", "2"],
        ["scan", "minseq", "--lambda", "1"],
        # --m1 and --m2 shape only the sesquisoliton
        ["profile", "stationary", "--m1", "5", "--m2", "0.1"],
        ["evolve", "--initial", "stationary", "--m1", "nan", "--t-final", "0.02"],
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

    def test_out_naming_a_file_is_a_usage_error(self, run, tmp_path):
        (tmp_path / "taken").write_text("")
        r = run(["profile", "stationary", "--out", "taken", "--points", "64"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")

    def test_unwritable_out_fails_before_the_run(self, run, tmp_path):
        # the battery prints each criterion's seconds as it goes, so
        # none may show: the output is checked before the first one runs
        (tmp_path / "taken").write_text("")
        r = run(["verify", "--points", "64", "--t-final", "0.1", "--out", "taken"],
                tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert "criterion" not in r.stderr

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

    @pytest.mark.parametrize("kind", ["shift", "deposit", "gather"])
    @pytest.mark.parametrize("mass", ["1e-170", "1e-300"])
    def test_tiny_flow_mass_is_named(self, run, tmp_path, kind, mass):
        # the start's |psi|^2 underflows, so no rescale can give it the mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(["flow", "--mass", mass, "--perturbation", f"{kind}:0.01",
                     "--points", "64"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: mass {mass} is too small")
        assert not any(tmp_path.iterdir())

    def test_edges_flag_is_unrecognized(self, run, tmp_path):
        # the star has three edges; there is no --edges flag or key
        r = run(["verify", "--edges", "4", "--points", "64"], tmp_path)
        assert r.returncode == 2
        assert "unrecognized arguments: --edges 4" in r.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["verify", "--format", "json"],
        *([*cmd, flag, value] for cmd in (["scan", "sesqui"], ["profile", "stationary"],
                                          ["flow"])
          for flag, value in (("--dt", "0.01"), ("--t-final", "2"), ("--seed", "3"))),
        ["evolve", "--seed", "3"],
    ], ids="_".join)
    def test_unread_setting_is_unrecognized(self, run, tmp_path, args):
        # each subcommand takes only the settings its run reads
        r = run(args + ["--points", "64"], tmp_path)
        assert r.returncode == 2
        assert f"unrecognized arguments: {args[-2]} {args[-1]}" in r.stderr
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

    def test_import_loads_no_interpolate_or_optimize(self, tmp_path):
        # scipy.interpolate brings scipy.optimize and ~270 modules in all:
        # ~0.3 s and ~23 MiB in every process, for nothing the package uses
        code = ("import sys, graphnls; print(*(m for m in sys.modules if "
                "m.startswith(('scipy.interpolate', 'scipy.optimize'))))")
        r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                           env=child_env(), capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == []

    @pytest.mark.parametrize("demo, table", [("saddle_probes", "saddle_probes.csv"),
                                             ("profiles_gallery", "stationary.csv"),
                                             ("energy_landscape", "sesquisoliton.csv"),
                                             ("standing_wave", "standing_wave.csv"),
                                             ("gradient_descent_escape", "flow_shift.csv")])
    def test_demo_runs(self, tmp_path, demo, table):
        # the demos read the probes, states, scans and traces the package returns
        env = child_env()
        env["GRAPHNLS_OUT"] = str(tmp_path)
        path = Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py"
        r = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        assert (tmp_path / table).exists()

    def test_demo_imports_resolve(self):
        # every name a demo imports from graphnls exists
        demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
        names = [(demo.name, alias.name) for demo in demos
                 for node in ast.walk(ast.parse(demo.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "graphnls"
                 for alias in node.names]
        assert len({demo for demo, _ in names}) == len(demos) > 0
        assert [n for n in names if not hasattr(graphnls, n[1])] == []

    def test_package_modules_use_their_imports(self):
        # the project requires no linter, so this catches an import that a
        # deleted use left behind
        unused = []
        for module in sorted(Path(graphnls.__file__).parent.glob("*.py")):
            if module.name == "__init__.py":
                continue
            tree = ast.parse(module.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [(module.name, alias.name) for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and getattr(node, "module", None) != "__future__"
                       for alias in node.names
                       if (alias.asname or alias.name).split(".")[0] not in used]
        assert unused == []

    def test_module_containers_hold_no_package_callables(self):
        # perfbench's tracer patches module attributes, so a function or
        # class kept in a container built at import time escapes the patch
        def members(value):
            if isinstance(value, dict):
                value = [*value.keys(), *value.values()]
            if isinstance(value, (list, tuple, set, frozenset)):
                return [m for item in value for m in members(item)]
            return [value]

        held = []
        for module in sorted(Path(graphnls.__file__).parent.glob("*.py")):
            name = "graphnls" if module.stem == "__init__" else f"graphnls.{module.stem}"
            for attr, value in vars(importlib.import_module(name)).items():
                if attr.startswith("__") or not isinstance(value, (dict, list, tuple, set,
                                                                   frozenset)):
                    continue
                held += [(name, attr, m.__qualname__) for m in members(value)
                         if (inspect.isfunction(m) or inspect.isclass(m))
                         and m.__module__.startswith("graphnls")]
        assert held == []

    def test_every_error_class_is_raised(self):
        # an exception class that no module raises or constructs is the
        # leftover of a failure mode that went away
        package = Path(graphnls.__file__).parent
        defined = {node.name for node in ast.parse((package / "errors.py").read_text()).body
                   if isinstance(node, ast.ClassDef)}
        used = set()
        for module in package.glob("*.py"):
            for node in ast.walk(ast.parse(module.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    used.add(node.func.id)
                elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name):
                    used.add(node.exc.id)
        assert sorted(defined - used) == []

    def test_every_error_class_has_its_own_exit_code(self):
        # an error class that cli.main does not catch by name exits with
        # its base class's code, so it tells the caller nothing new
        package = Path(graphnls.__file__).parent
        defined = {node.name for node in ast.parse((package / "errors.py").read_text()).body
                   if isinstance(node, ast.ClassDef)}
        main = next(node for node in ast.walk(ast.parse((package / "cli.py").read_text()))
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
        codes = {}
        for handler in (h for node in ast.walk(main) if isinstance(node, ast.Try)
                        for h in node.handlers):
            returns = [node.value.value for node in ast.walk(handler)
                       if isinstance(node, ast.Return)]
            assert isinstance(handler.type, ast.Name) and len(returns) == 1
            codes[handler.type.id] = returns[0]
        assert sorted(codes) == sorted(defined)
        assert len(set(codes.values())) == len(codes)
        assert 0 not in codes.values()


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
