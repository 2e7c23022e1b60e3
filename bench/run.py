#!/usr/bin/env python3
"""Benchmark of the spectrum-auction engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One closed-loop client runs a workload's
commands back to back, each in a fresh interpreter so the engine's
caches start cold as they do for a user, against the sources in
``src/`` and ``scripts/`` of this checkout.

``--trace 0`` times passes of the workload until ``--seconds`` are
used (at least three), checks every pass's outputs and reports the
end-to-end metrics as medians over passes and set-up probes.
``--trace 1`` runs one untraced pass and two traced passes (plus one
traced ``--workers 1`` pass on multi-fig12), checks that outputs are
byte-identical with and without tracing and that count metrics repeat
exactly, and reports the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
# Set-up probes before the first pass and after each pass; with at least
# MIN_PASSES passes a run takes at least 8, spread over the whole run.
SETUP_PROBES_PER_PASS = 2
# Median time of calibrate.py on the machine the benchmark was sized on (a
# shared 2-vCPU KVM guest). End-to-end timings are scaled to this speed.
NOMINAL_CAL_S = 0.6
# Every run must end well inside the 180 s the benchmark contract allows.
DEADLINE_S = 170.0


@dataclass
class PassResult:
    wall: float
    cpu: float
    rss_mb: float
    returncodes: dict
    bytes_out: int
    verdict: checks.Verdict
    trace_files: list = field(default_factory=list)


class Runner:
    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SPECTRUM_AUCTION_WORKERS", None)
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text())

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], stdout, stderr) -> tuple[int, float, float, float]:
        """Run one process to completion; returns (exit code, wall s,
        user+system CPU s of it and every descendant it waited for,
        max RSS in MB). The process group is killed at the deadline."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=stdout,
                                stderr=stderr, start_new_session=True)
        timer = threading.Timer(max(self.remaining(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def command_argv(self, cmd: workloads.Command, trace_out: Path | None) -> list[str]:
        args = list(cmd.args)
        if cmd.kind == "script":
            args[0] = str(ROOT / args[0])
        if trace_out is not None:
            return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out), cmd.kind, *args]
        if cmd.kind == "cli":
            return [sys.executable, "-m", "spectrum_auction.cli", *args]
        return [sys.executable, *args]

    def run_pass(self, workload=None, trace_dir: Path | None = None) -> PassResult:
        workload = workload or self.workload
        for fname in checks.output_files(workload):
            (self.workdir / fname).unlink(missing_ok=True)
        if trace_dir is not None:
            trace_dir.mkdir()
        returncodes, cpu, rss = {}, 0.0, 0.0
        t0 = time.perf_counter()
        for cmd in workload.commands:
            trace_out = trace_dir / f"{cmd.name}.json" if trace_dir is not None else None
            with open(self.workdir / f"{cmd.name}.stdout", "wb") as out, \
                    open(self.workdir / f"{cmd.name}.stderr", "wb") as err:
                rc, _, c, m = self.spawn(self.command_argv(cmd, trace_out), out, err)
            returncodes[cmd.name] = rc
            cpu += c
            rss = max(rss, m)
        wall = time.perf_counter() - t0
        files = [self.workdir / f for f in checks.output_files(workload)]
        bytes_out = sum(f.stat().st_size for f in files if f.exists())
        verdict = checks.check_pass(workload, self.workdir, returncodes, self.reference)
        traces = sorted(trace_dir.iterdir()) if trace_dir is not None else []
        return PassResult(wall, cpu, rss, returncodes, bytes_out, verdict, traces)

    def setup_seconds(self) -> float:
        """Wall time of a fresh interpreter that imports the package and
        builds this workload's config objects."""
        params = self.workload.params
        plan = {"cli": [list(c.args) for c in self.workload.commands if c.kind == "cli"],
                "markets": [[k, params["eta"], params["delta"], r]
                            for k, r in params.get("markets", [])]}
        plan_path = self.workdir / "setup_plan.json"
        plan_path.write_text(json.dumps(plan))
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(plan_path)]
        return self.timed(argv, "setup_probe")

    def calibration_seconds(self) -> float:
        return self.timed([sys.executable, str(BENCH_DIR / "calibrate.py")], "calibrate")

    def timed(self, argv: list[str], label: str) -> float:
        with open(self.workdir / f"{label}.stderr", "wb") as err:
            rc, wall, _, _ = self.spawn(argv, subprocess.DEVNULL, err)
        if rc != 0:
            raise RuntimeError(f"{label} exited with {rc}; see {label}.stderr")
        return wall


def report_pass(label: str, p: PassResult) -> None:
    v = p.verdict
    print(f"{label}: wall {p.wall:.3f} s, cpu {p.cpu:.3f} s, peak rss {p.rss_mb:.1f} MB, "
          f"failed {len(v.failed)}/{len(p.returncodes)}, digest matches {v.digest_matches}")
    for message in v.messages[:5]:
        print(f"  FAIL {message}")


def single_worker(workload: workloads.Workload) -> workloads.Workload | None:
    """The workload with every ``--workers`` set to 1, or None when it
    already runs single-process."""
    commands = []
    for cmd in workload.commands:
        args = list(cmd.args)
        if "--workers" in args:
            args[args.index("--workers") + 1] = "1"
        commands.append(replace(cmd, args=tuple(args)))
    if all(a.args == b.args for a, b in zip(commands, workload.commands)):
        return None
    return replace(workload, commands=tuple(commands))


def measured_run(runner: Runner, seconds: int) -> tuple[dict, int, int]:
    """Passes until ``seconds`` are used, at least MIN_PASSES. Before the
    first pass and after each one come a calibration and
    SETUP_PROBES_PER_PASS set-up probes, so that both sample the whole
    run. Timings are medians scaled by NOMINAL_CAL_S over the run's
    median calibration time, so that drift in machine speed between runs
    cancels."""
    passes: list[PassResult] = []
    cals: list[float] = []
    probes: list[float] = []
    gaps: list[float] = []

    def interlude() -> None:
        t = time.perf_counter()
        cals.append(runner.calibration_seconds())
        probes.extend(runner.setup_seconds() for _ in range(SETUP_PROBES_PER_PASS))
        gaps.append(time.perf_counter() - t)

    t0 = time.perf_counter()
    interlude()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - t0 + statistics.median(p.wall for p in passes)
        + statistics.median(gaps) <= seconds
    ):
        p = runner.run_pass()
        passes.append(p)
        report_pass(f"pass {len(passes)}", p)
        interlude()
        if runner.remaining() < 2.0 * p.wall:
            break
    scale = NOMINAL_CAL_S / statistics.median(cals)
    print(f"calibrations: {' '.join(f'{c:.3f}' for c in cals)} s; timings scaled by {scale:.4f}")
    print(f"setup probes: {' '.join(f'{t:.3f}' for t in probes)} s")
    attempted = sum(len(p.returncodes) for p in passes)
    failed = sum(len(p.verdict.failed) for p in passes)
    units = runner.workload.work_units
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes) * scale,
        "work_per_s": statistics.median(units / p.wall for p in passes) / scale,
        "cpu_s": statistics.median(p.cpu for p in passes) * scale,
        "setup_s": statistics.median(probes) * scale,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


def traced_run(runner: Runner, counts: list[str]) -> tuple[dict, int, int, list[str]]:
    problems = []
    plain = runner.run_pass()
    report_pass("untraced pass", plain)
    traced = []
    for label in ("a", "b"):
        p = runner.run_pass(trace_dir=runner.workdir / f"trace-{label}")
        report_pass(f"traced pass {label}", p)
        traced.append(p)
    runs = [plain, *traced]
    layers = [tracer.layer_metrics(p.trace_files) for p in traced]
    serial = single_worker(runner.workload)
    if serial is not None:
        w1 = runner.run_pass(serial, runner.workdir / "trace-w1")
        report_pass("traced pass --workers 1", w1)
        runs.append(w1)
        layers.append(tracer.layer_metrics(w1.trace_files))
    if any(p.verdict.digests != plain.verdict.digests for p in runs[1:]):
        problems.append("output bytes differ between passes (traced, untraced, --workers 1)")
    for other in layers[1:]:
        diff = [m for m in counts if m in other and other[m] != layers[0][m]]
        if diff:
            problems.append(f"count metrics did not repeat exactly: {diff}")
    metrics = {m: statistics.median(layer[m] for layer in layers[:2]) for m in layers[0]}
    metrics.update({m: layers[0][m] for m in counts if m in layers[0]})
    metrics["cli.bytes_out"] = traced[0].bytes_out
    metrics["digest_matches"] = plain.verdict.digest_matches
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - plain.wall
    attempted = sum(len(p.returncodes) for p in runs)
    failed = sum(len(p.verdict.failed) for p in runs)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in ("src/spectrum_auction/cli.py", "scripts/reserve_study.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: program sources not found under {ROOT}: {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    workload = workloads.generate(args.workload, args.seed)
    workdir = BENCH_DIR / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.write_inputs(workdir)
    print(f"workload {workload.name} seed {workload.seed}: inputs sha256 {workload.input_hash()}, "
          f"{len(workload.commands)} commands, {workload.work_units} {workload.unit} per pass")
    runner = Runner(workload, workdir)
    problems = []
    if args.trace:
        counts = [m for m, u in units.items() if u == "count"] + ["equilibrium.cache_hit_ratio"]
        metrics, attempted, failed, problems = traced_run(runner, counts)
    else:
        metrics, attempted, failed = measured_run(runner, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    for problem in problems:
        print(f"FAIL {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
