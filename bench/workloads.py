"""Workload generator.

``generate(name, seed)`` turns a workload name and a seed into the
commands one closed-loop client runs back to back, plus the config
files those commands read. The program only ever sees these argv lists
and files. The same seed always yields the same inputs; ``input_hash``
fingerprints them so two commits can be shown to have run identical
inputs.

Seeded draws are stratified: every seed gets the same number of
markets per optimum case (reserve-study) and the same multiset of
(seller count, type law) pairs per regime list (certify), so the work
per pass does not swing with the seed.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sim-fig8", "reserve-study", "multi-fig12", "certify")

# Seed whose outputs are recorded in reference.json for development, and
# a second recorded seed that a performance claim can be checked on.
DEFAULT_SEED = 0
CLAIM_SEED = 1

# Work per pass. "full" is what the benchmark measures; "tiny" is for
# the benchmark's own tests.
SIM_REPLICATIONS = {"full": 400, "tiny": 4}
MULTI_REPLICATIONS = {"full": 2000, "tiny": 40}
VERIFY_SAMPLES = {"full": 100_000, "tiny": 20_000}

# Fig8 preset sweep; the checker compares cells against it.
FIG8_R_LTE = (30.0, 100.0, 190.0, 280.0, 370.0)

# Type law that scripts/reserve_study.py hard-codes (and the fig presets use).
TN_125_50 = {"kind": "truncated_normal", "r_min": 50.0, "r_max": 200.0, "mu": 125.0, "sigma": 50.0}
UNIFORM_50_200 = {"kind": "uniform", "r_min": 50.0, "r_max": 200.0}
R_MIN, R_MAX = 50.0, 200.0

# certify: one reserve per regime plus a second mid and standard one
# (the two regimes with abstention thresholds), each paired with one
# (k, type law) from a fixed multiset that the seed only permutes.
CERTIFY_REGIMES = ("low", "mid", "standard", "high", "mid", "standard")
CERTIFY_PAIRS = ((2, "uniform"), (3, "truncated_normal"), (4, "uniform"),
                 (5, "truncated_normal"), (3, "uniform"), (4, "truncated_normal"))


@dataclass(frozen=True)
class Command:
    """One program invocation.

    ``kind`` is ``cli`` (arguments to ``python -m spectrum_auction.cli``)
    or ``script`` (``args[0]`` is a script path relative to the repo
    root). ``outputs`` are the files it writes in the work directory;
    its standard output is captured to ``<name>.stdout``.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[Command, ...]
    files: dict  # config file name -> JSON text
    work_units: int
    unit: str
    params: dict  # generator draws the checker needs

    def input_hash(self) -> str:
        blob = json.dumps(
            {
                "name": self.name,
                "commands": [[c.kind, *c.args] for c in self.commands],
                "files": self.files,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def write_inputs(self, workdir: Path) -> None:
        for fname, text in self.files.items():
            (workdir / fname).write_text(text)


def capacity_threshold(k: int, eta: float, delta: float) -> float:
    """Buyer throughput at or below which the optimum is case 1."""
    return (k - 1 + eta) / k * R_MIN / (1.0 - delta)


def optimum_case(k: int, eta: float, delta: float, r_lte: float) -> int:
    if r_lte <= capacity_threshold(k, eta, delta):
        return 1
    return 2 if r_lte <= R_MAX else 3


def _sim_fig8(seed: int, scale: str) -> Workload:
    reps = SIM_REPLICATIONS[scale]
    args = ("simulate", "--preset", "fig8", "--seed", str(seed), "--workers", "1",
            "--replications", str(reps), "--output", "sim.csv")
    outputs = tuple(f"sim.csv.{i:03d}" for i in range(len(FIG8_R_LTE)))
    return Workload("sim-fig8", seed, (Command("sim", "cli", args, outputs),), {},
                    reps * len(FIG8_R_LTE), "replications", {"replications": reps})


def _reserve_study(seed: int, scale: str) -> Workload:
    rng = random.Random(f"reserve-study/{seed}")
    eta = round(rng.uniform(0.15, 0.5), 4)
    delta = round(rng.uniform(0.25, 0.55), 4)
    # fig5-style seller-count list: one small and one large k, both at a
    # case-2 throughput (above every k's capacity threshold, below r_max).
    k_values = [rng.choice((2, 3, 4)), rng.choice((5, 6, 7))]
    r_k = round(rng.uniform(150.0, 190.0), 3)
    # fig6-style throughput list: one throughput per optimum case.
    k_r = rng.choice((3, 4, 5))
    thr = capacity_threshold(k_r, eta, delta)
    r_values = [
        round(rng.uniform(0.4, 0.9) * thr, 3),
        round(thr + rng.uniform(0.3, 0.8) * (R_MAX - thr), 3),
        round(rng.uniform(230.0, 380.0), 3),
    ]
    common = ("--eta", repr(eta), "--delta", repr(delta))
    commands = (
        Command("kstudy", "script",
                ("scripts/reserve_study.py", *common, "--r-lte", repr(r_k),
                 "--k-values", *map(str, k_values), "--output", "kstudy.csv"),
                ("kstudy.csv",)),
        Command("rstudy", "script",
                ("scripts/reserve_study.py", *common, "--k", str(k_r),
                 "--r-values", *map(repr, r_values), "--output", "rstudy.csv"),
                ("rstudy.csv",)),
        Command("curve", "cli", ("payoff-curve", "--preset", "fig4", "--output", "curve.csv"),
                ("curve.csv",)),
    )
    markets = [(k, r_k) for k in k_values] + [(k_r, r) for r in r_values]
    params = {"eta": eta, "delta": delta, "markets": markets}
    return Workload("reserve-study", seed, commands, {}, len(markets),
                    "markets", params)


def _multi_fig12(seed: int, scale: str) -> Workload:
    reps = MULTI_REPLICATIONS[scale]
    args = ("multi-lte", "simulate", "--preset", "fig12", "--seed", str(seed),
            "--workers", "2", "--replications", str(reps), "--output", "multi.csv")
    return Workload("multi-fig12", seed, (Command("multi", "cli", args, ("multi.csv",)),),
                    {}, reps, "replications", {"replications": reps})


def _reserve_in_regime(rng: random.Random, regime: str, low_cap: float) -> float:
    if regime == "low":
        return round(rng.uniform(0.1, 0.9) * low_cap, 6)
    if regime == "mid":
        return round(low_cap + rng.uniform(0.05, 0.95) * (R_MIN - low_cap), 6)
    if regime == "standard":
        return round(rng.uniform(R_MIN + 1.0, R_MAX - 1.0), 6)
    return round(rng.uniform(R_MAX, 1.6 * R_MAX), 6)


def _certify(seed: int, scale: str) -> Workload:
    rng = random.Random(f"certify/{seed}")
    pairs = list(CERTIFY_PAIRS)
    rng.shuffle(pairs)
    samples = VERIFY_SAMPLES[scale]
    commands, files, cases = [], {}, []
    for i, (regime, (k, kind)) in enumerate(zip(CERTIFY_REGIMES, pairs)):
        eta = round(rng.uniform(0.1, 0.9), 6)
        low_cap = (k - 1 + eta) / k * R_MIN
        c = _reserve_in_regime(rng, regime, low_cap)
        market = {
            "k": k,
            "eta_apo": eta,
            "delta_lte": round(rng.uniform(0.2, 0.6), 6),
            "r_lte": round(rng.uniform(50.0, 400.0), 3),
            "dist": dict(UNIFORM_50_200 if kind == "uniform" else TN_125_50),
        }
        cfg_name = f"cert{i}.json"
        files[cfg_name] = json.dumps({"market": market, "c": c}, indent=2, sort_keys=True) + "\n"
        out = f"cert{i}.out.json"
        commands.append(Command(f"cert{i}", "cli",
                                ("verify", "--config", cfg_name, "--seed", str(seed),
                                 "--samples", str(samples), "--output", out),
                                (out,)))
        cases.append({"regime": regime, "k": k, "kind": kind, "c": c, "samples": samples})
    return Workload("certify", seed, tuple(commands), files, len(commands),
                    "reserves", {"cases": cases})


_GENERATORS = {
    "sim-fig8": _sim_fig8,
    "reserve-study": _reserve_study,
    "multi-fig12": _multi_fig12,
    "certify": _certify,
}


def generate(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return _GENERATORS[name](seed, scale)
