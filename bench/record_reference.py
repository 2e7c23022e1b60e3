#!/usr/bin/env python3
"""Record reference.json: output digests and key numbers of one pass of
every workload at the default seed and the claim seed.

    python3 bench/record_reference.py [--workload NAME ...]

Re-record only for a change whose new outputs have been shown correct;
a change that claims a speed-up must leave reference.json alone.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
import workloads


def record(name: str, seed: int, reference: dict) -> dict:
    workload = workloads.generate(name, seed)
    workdir = run.BENCH_DIR / "_work" / f"record-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.write_inputs(workdir)
    runner = run.Runner(workload, workdir)
    runner.reference = reference
    result = runner.run_pass()
    run.report_pass(f"{name} seed {seed}", result)
    if result.verdict.failed:
        raise SystemExit(f"{name} seed {seed} failed its checks; nothing recorded")
    return {
        "input_hash": workload.input_hash(),
        "digests": result.verdict.digests,
        "numbers": checks.numbers(workload, workdir),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    path = run.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    for name in args.workload or workloads.WORKLOADS:
        seeds = reference.setdefault("workloads", {}).setdefault(name, {"seeds": {}})["seeds"]
        seeds.clear()
        for seed in (workloads.DEFAULT_SEED, workloads.CLAIM_SEED):
            seeds[str(seed)] = record(name, seed, reference)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
