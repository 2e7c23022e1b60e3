"""Start-up: the lazy package namespace and the CLI's thread default.

``import spectrum_auction`` loads no submodule and no numpy, a public
name loads the submodule that defines it, and a CLI action loads only
the modules it uses. The CLI sets ``OPENBLAS_NUM_THREADS`` to 1 unless
the caller set it, so numpy starts no OpenBLAS worker thread. Each
check that reads ``sys.modules``, the environment or the thread count
runs in a fresh interpreter, because the test session has loaded the
whole package."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectrum_auction

SRC = str(Path(spectrum_auction.__file__).resolve().parents[1])

# The package's public names by defining module, as the namespace
# exported them when every submodule was imported eagerly.
PUBLIC = {
    "auction": ["AuctionOutcome", "BidProfile", "Mode", "expected_apo_payoff", "lte_payoff",
                "realized_apo_payoffs", "resolve"],
    "distributions": ["TypeDistribution"],
    "equilibrium": ["ABSTAIN", "Bid", "EquilibriumStrategy", "MarketConfig", "RegimeKind",
                    "SellerMarket", "bid", "bid_values", "classify_regime", "solve_strategy",
                    "solve_threshold_mid", "solve_threshold_standard"],
    "errors": ["BracketingError", "CertificationFailed", "InfeasibleBid", "InvalidConfig",
               "InvalidDistribution", "InvalidProfile", "NonUniqueThreshold",
               "NoRootInInterval", "SpectrumAuctionError"],
    "multi_lte": ["MultiExperimentConfig", "MultiMarketConfig", "Origin", "VirtualBid",
                  "bid_alone", "bid_shared", "expected_payoff_multi", "optimize_reserve_multi",
                  "resolve_multi", "run_experiment_multi", "virtual_bid"],
    "provider": ["OptimalReserve", "PayoffCurvePoint", "expected_payment", "expected_payoff",
                 "optimize_reserve"],
    "rng": ["RngStream"],
    "simulation": ["ExperimentConfig", "ExperimentResult", "MetricsSummary",
                   "ReplicationResult", "run_experiment", "run_sweep", "social_welfare_max"],
}
SUBMODULES = [*PUBLIC, "numerics"]
NAMES = sorted(SUBMODULES + [name for names in PUBLIC.values() for name in names])

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "numpy" or m.startswith("spectrum_auction."))))
"""


def run_fresh(code: str, cwd, **env) -> str:
    """Standard output of ``code`` in a fresh interpreter on the package
    under test; ``env`` sets variables, and a value of None unsets one."""
    full = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    full.pop("OPENBLAS_NUM_THREADS", None)
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=full,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def test_the_pinned_names_are_the_public_names():
    assert len(NAMES) == 62
    assert spectrum_auction.__all__ == NAMES


def test_import_loads_no_numpy_and_no_submodule(tmp_path):
    assert last_json(run_fresh("import spectrum_auction" + LOADED, tmp_path)) == []


def test_every_public_name_is_the_object_its_module_defines(tmp_path):
    code = f"""
import importlib, json
same = {{}}
for module, names in {PUBLIC!r}.items():
    for name in names:
        exec(f"from spectrum_auction import {{name}} as got")
        same[name] = got is getattr(importlib.import_module("spectrum_auction." + module), name)
for module in {SUBMODULES!r}:
    exec(f"from spectrum_auction import {{module}} as got")
    same[module] = got is importlib.import_module("spectrum_auction." + module)
print(json.dumps(same))
"""
    assert last_json(run_fresh(code, tmp_path)) == dict.fromkeys(NAMES, True)


def test_a_star_import_binds_every_public_name(tmp_path):
    code = """
import json
ns = {}
exec("from spectrum_auction import *", ns)
print(json.dumps(sorted(set(ns) - {"__builtins__"})))
"""
    assert last_json(run_fresh(code, tmp_path)) == NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spectrum_auction.no_such_name
    assert not hasattr(spectrum_auction, "cmd_verify")
    with pytest.raises(ImportError):
        from spectrum_auction import no_such_name  # noqa: F401
    assert set(NAMES) <= set(dir(spectrum_auction))


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "appendixK", "--c", "55", "--samples", "2000"],
    ["equilibrium", "--preset", "appendixK", "--c", "55"],
])
def test_verify_and_equilibrium_load_only_their_modules(tmp_path, argv):
    code = f"from spectrum_auction import cli\nassert cli.main({argv!r}) == 0\n" + LOADED
    loaded = last_json(run_fresh(code, tmp_path))
    assert "spectrum_auction.equilibrium" in loaded
    for module in ("multi_lte", "simulation", "provider"):
        assert f"spectrum_auction.{module}" not in loaded


ACTION = """
import json, os, runpy, sys
sys.argv = ["spectrum-auction", "equilibrium", "--preset", "appendixK", "--c", "55"]
try:
    runpy.run_module("spectrum_auction.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def test_a_cli_action_runs_numpy_on_one_thread(tmp_path):
    value, threads = last_json(run_fresh(ACTION, tmp_path))
    assert value == "1"
    if sys.platform.startswith("linux"):
        assert threads == 1


def test_the_callers_thread_count_wins(tmp_path):
    value, _ = last_json(run_fresh(ACTION, tmp_path, OPENBLAS_NUM_THREADS="3"))
    assert value == "3"


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "fig8", "--replications", "50", "--seed", "1"],
    ["multi-lte", "simulate", "--preset", "fig12", "--replications", "200", "--seed", "1"],
])
def test_output_bytes_do_not_depend_on_the_thread_count(tmp_path, argv):
    outputs = []
    for threads in (None, "4"):
        run = tmp_path / f"threads_{threads}"
        run.mkdir()
        stdout = run_fresh(
            "from spectrum_auction.cli import main\n"
            f"assert main({[*argv, '--output', 'out.csv']!r}) == 0\n",
            run, OPENBLAS_NUM_THREADS=threads,
        )
        outputs.append((stdout, sorted((p.name, p.read_bytes()) for p in run.iterdir())))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]
