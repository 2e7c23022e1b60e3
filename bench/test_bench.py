"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest bench -q

They run tiny passes of the real program, so they take about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_runner(name: str, tmp_path, seed: int = workloads.DEFAULT_SEED) -> run.Runner:
    workload = workloads.generate(name, seed, scale="tiny")
    tmp_path.mkdir(exist_ok=True)
    workload.write_inputs(tmp_path)
    return run.Runner(workload, tmp_path)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert a.input_hash() == b.input_hash()
    assert a.files == b.files and a.commands == b.commands
    assert workloads.generate(name, 8).input_hash() != a.input_hash()


def test_generator_stratifies_every_seed():
    for seed in range(40):
        rs = workloads.generate("reserve-study", seed)
        eta, delta = rs.params["eta"], rs.params["delta"]
        cases = [workloads.optimum_case(k, eta, delta, r) for k, r in rs.params["markets"]]
        assert cases == [2, 2, 1, 2, 3]

        cert = workloads.generate("certify", seed)
        markets = [json.loads(text) for _, text in sorted(cert.files.items())]
        regimes = [checks.regime_of(m["market"]["k"], m["market"]["eta_apo"], m["c"])
                   for m in markets]
        assert tuple(regimes) == workloads.CERTIFY_REGIMES
        pairs = sorted((c["k"], c["kind"]) for c in cert.params["cases"])
        assert pairs == sorted(workloads.CERTIFY_PAIRS)


def _rewrite_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _shift_curve_payoff(path, delta):
    lines = path.read_text().splitlines()
    cells = lines[50].split(",")
    cells[1] = repr(float(cells[1]) + delta)
    lines[50] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _bump(key, amount):
    def edit(data):
        target = data[2]["summary"] if isinstance(data, list) else data
        target[key] += amount
    return edit


def _flip_abstention(csv_paths, reserves, k, first):
    """Move one non-winning seller (index >= first) of a cooperation row
    between abstention and the reserve: the row stays a valid auction
    outcome, but the bid no longer follows the abstention threshold."""
    for path, c in zip(csv_paths, reserves):
        lines = path.read_text().splitlines()
        for n, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[1 + 2 * k] != "cooperation":
                continue
            loser = next(j for j in range(first, k) if j != int(cells[2 + 2 * k]))
            cells[1 + k + loser] = "N" if cells[1 + k + loser] == f"{c:.9g}" else f"{c:.9g}"
            lines[n] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            return
    raise AssertionError("no cooperation row to perturb")


def _flip_sim(workdir):
    cells = json.loads((workdir / "sim.stdout").read_text())
    _flip_abstention([workdir / f"sim.csv.{i:03d}" for i in range(len(cells))],
                     [cell["summary"]["c_star"] for cell in cells], checks.FIG8["k"], 0)


def _flip_multi(workdir):
    c = json.loads((workdir / "multi.stdout").read_text())["c_star"]
    k_s = checks.FIG12["k_s"]
    _flip_abstention([workdir / "multi.csv"], [c], k_s + checks.FIG12["k_a"], k_s)


PERTURBATIONS = {
    "sim-fig8": [
        # c_star of the fig8 r_lte=190 cell moved by 25x its 1e-4 r_max tolerance
        (lambda d: _rewrite_json(d / "sim.stdout", _bump("c_star", 0.5)), "sim"),
        (_flip_sim, "sim"),
    ],
    "multi-fig12": [
        # Monte Carlo c_star moved by 5x its 1e-3 r_max tolerance
        (lambda d: _rewrite_json(d / "multi.stdout", _bump("c_star", 1.0)), "multi"),
        (_flip_multi, "multi"),
    ],
    # one payoff-curve value off by ~300x the quadrature budget
    "reserve-study": [(lambda d: _shift_curve_payoff(d / "curve.csv", 1e-3), "curve")],
    "certify": [(lambda d: _rewrite_json(d / "cert3.out.json",
                                         lambda r: r.update(max_gain=r["epsilon"] + 1.0)),
                 "cert3")],
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_is_checked_and_detects_a_result_outside_tolerance(name, tmp_path):
    runner = tiny_runner(name, tmp_path)
    result = runner.run_pass()
    assert not result.verdict.failed, result.verdict.messages
    pristine = {f: (tmp_path / f).read_bytes() for f in checks.output_files(runner.workload)}
    for perturb, command in PERTURBATIONS[name]:
        perturb(tmp_path)
        verdict = checks.check_pass(runner.workload, tmp_path, result.returncodes,
                                    runner.reference)
        assert verdict.failed == {command}, verdict.messages
        for fname, data in pristine.items():
            (tmp_path / fname).write_bytes(data)


def test_curve_shift_within_tolerance_is_not_a_failure(tmp_path):
    runner = tiny_runner("reserve-study", tmp_path)
    result = runner.run_pass()
    _shift_curve_payoff(tmp_path / "curve.csv", 1e-6)  # below 1e-8 * r_lte = 3e-6
    verdict = checks.check_pass(runner.workload, tmp_path, result.returncodes, runner.reference)
    assert not verdict.failed, verdict.messages
    assert verdict.digest_matches < len(verdict.digests)


def test_every_named_metric_is_emitted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES_PER_PASS", 1)
    metrics, attempted, failed = run.measured_run(tiny_runner("certify", tmp_path / "m"), 1)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert attempted == 6 and failed == 0
    assert all(v > 0 for v in metrics.values())

    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    metrics, attempted, failed, problems = run.traced_run(
        tiny_runner("multi-fig12", tmp_path / "t"), counts)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert problems == [] and failed == 0 and attempted == 4
    assert metrics["multi_lte.replications"] == 40
    assert metrics["rng.streams"] == 41  # one per replication plus the type pool


def test_layer_metrics_cover_the_spec():
    derived = set(tracer.LAYER_METRICS) | {"equilibrium.cache_hit_ratio"}
    added_by_run = {"cli.bytes_out", "digest_matches", "trace.overhead_s"}
    assert derived | added_by_run == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
