"""No command imports scipy, multiprocessing or concurrent.

The normal law is computed with numpy alone (``distributions._erf`` and
``_ndtri``), so a truncated-normal command loads no scipy either, and
every experiment runs in the calling process, so nothing needs a process
pool. Each check runs in a fresh interpreter, because the test session
itself may have scipy loaded. The package namespace is lazy and the CLI
imports some engine modules only in the actions that use them, so the
import check loads every submodule itself and asserts that it did."""
import json
import os
import subprocess
import sys
from pathlib import Path

import spectrum_auction

SRC = str(Path(spectrum_auction.__file__).resolve().parents[1])
UNIFORM = {"kind": "uniform", "r_min": 50.0, "r_max": 200.0}
TN = {"kind": "truncated_normal", "r_min": 50.0, "r_max": 200.0, "mu": 125.0, "sigma": 50.0}

RUN = """
import json, sys
from spectrum_auction import cli
{preload}
codes = [cli.main(argv) for argv in {commands!r}]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
pools = sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
print(json.dumps([codes, len(loaded), pools]))
"""
# Loads every submodule: the oracle, and the package's public names, which
# include its engine modules.
EVERY_MODULE = "import spectrum_auction.oracle; from spectrum_auction import *"


def fresh_json(code, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_fresh(commands, cwd, preload=""):
    return tuple(fresh_json(RUN.format(commands=commands, preload=preload), cwd))


def write_config(tmp_path, dist):
    market = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0, "dist": dist}
    path = tmp_path / f"{dist['kind']}.json"
    path.write_text(json.dumps({"market": market, "c": 55.0}))
    return str(path)


def test_import_loads_no_scipy(tmp_path):
    assert run_fresh([], tmp_path, preload=EVERY_MODULE) == ([], 0, [])


def test_every_module_preload_loads_every_submodule(tmp_path):
    package = Path(spectrum_auction.__file__).parent
    every = sorted(f"spectrum_auction.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    probe = (f"import json, sys; {EVERY_MODULE}; import spectrum_auction.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('spectrum_auction.'))))")
    assert fresh_json(probe, tmp_path) == every


def test_uniform_verify_and_optimize_load_no_scipy(tmp_path):
    cfg = write_config(tmp_path, UNIFORM)
    commands = [["verify", "--config", cfg, "--samples", "2000", "--output", "v.json"],
                ["optimize", "--config", cfg, "--output", "o.json"]]
    assert run_fresh(commands, tmp_path) == ([0, 0], 0, [])
    assert json.loads((tmp_path / "v.json").read_text())["certified"] is True


def test_truncated_normal_verify_still_certifies(tmp_path):
    cfg = write_config(tmp_path, TN)
    commands = [["verify", "--config", cfg, "--samples", "2000", "--output", "v.json"]]
    assert run_fresh(commands, tmp_path) == ([0], 0, [])
    assert json.loads((tmp_path / "v.json").read_text())["certified"] is True
