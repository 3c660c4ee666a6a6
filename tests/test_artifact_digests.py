"""The CLI's artifacts, pinned byte for byte.

Each run below goes through `cli.main` in-process, in an empty
temporary working directory, and is reduced to its exit code and the
SHA-256 of its stdout, its stderr and every file it writes.
`tests/artifact_digests.json` holds those digests with the numpy and
scipy versions they were made with.  Two parts of `verify` hold wall
times or the output path, so they are left out: its stderr, and the
report's `config.out` and each criterion's `seconds`.

A moved digest means an artifact changed.  A change that moves one says
which and why, and regenerates the manifest with

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
import scipy

from graphnls import cli

MANIFEST = Path(__file__).with_name("artifact_digests.json")
GRID = ["--points", "256", "--out", "out"]
RUNS = [
    ["profile", "stationary"],
    ["profile", "sesqui"],
    ["scan", "sesqui"],
    ["scan", "dilation"],
    # exits 1 at this grid: the grid is too coarse for this scan
    ["scan", "minseq", "--length", "60"],
    *(["flow", "--perturbation", start]
      for start in ("shift:0.01", "gather:0.01", "deposit:0.01", "dilation:0.01", "none")),
    ["evolve", "--t-final", "0.1"],
    ["evolve", "--initial", "sesqui", "--t-final", "0.1", "--format", "json"],
    ["verify", "--t-final", "0.1"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_digests(argv: list) -> dict:
    """The manifest entry of one run of `graphnls argv`."""
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        files = {}
        for path in sorted(Path(tmp).rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            if path.name == "verify_report.json":
                report = json.loads(data)
                del report["config"]["out"]
                for criterion in report["criteria"]:
                    del criterion["seconds"]
                data = json.dumps(report, indent=2, sort_keys=True).encode()
            files[path.relative_to(tmp).as_posix()] = _sha256(data)
    entry = {"argv": argv, "exit_code": code, "stdout": _sha256(out.getvalue().encode()),
             "files": files}
    if argv[0] != "verify":
        entry["stderr"] = _sha256(err.getvalue().encode())
    return entry


@pytest.mark.parametrize("run", RUNS, ids="_".join)
def test_run_matches_the_manifest(run):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["versions"] == versions(), (
        f"the manifest was made with {manifest['versions']}, this run has {versions()}")
    argv = run + GRID
    (expected,) = [entry for entry in manifest["runs"] if entry["argv"] == argv]
    assert run_digests(argv) == expected


if __name__ == "__main__":
    manifest = {"versions": versions(), "runs": [run_digests(run + GRID) for run in RUNS]}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(RUNS)} runs to {MANIFEST}", file=sys.stderr)
