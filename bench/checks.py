"""Output checks for one pass of a workload.

Every pass is checked two ways:

* Invariants that hold for any seed: the auction rule row by row
  (payment between the winning bid and the reserve, payoff identities,
  every bid exactly the equilibrium bid of its type, with the abstention
  threshold solved from an independently coded residual), summaries
  that agree with their own CSV rows, optimum cases from the
  closed-form capacity threshold, printed thresholds that are sign
  changes of that residual, and certification reports that certify.
* Agreement with ``reference.json`` within the engine's own
  tolerances: 1e-12 r_max on thresholds, 1e-4 r_max on the closed-form
  ``c_star`` (1e-3 r_max, the multi-buyer optimizer's golden-section
  width, on the Monte Carlo one), the quadrature budget 1e-8 r_lte on
  payoff-curve values, each mean's reported half-width and each
  report's epsilon on ``max_gain``. Numbers read back from 9-digit
  output get one more unit in the last printed digit. Seed-independent
  numbers (fig8/fig12 reserves, the fig4 curve) are compared for every
  seed; summary means of an unrecorded seed must lie within four
  combined half-widths of the recorded seed's.

Only a command whose result is outside tolerance (or that exits
non-zero) fails. An exact byte match with the recorded outputs is
counted separately as a digest match.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, FIG8_R_LTE, R_MAX, R_MIN, optimum_case

# fig8 / fig12 preset markets.
FIG8 = {"k": 4, "eta": 0.3, "delta": 0.4}
FIG12 = {"k_s": 2, "k_a": 2, "eta": 0.3, "delta": 0.4, "theta": 0.5, "r_lte": 370.0}
FIG4 = {"k": 2, "eta": 0.3, "delta": 0.4, "r_lte": 300.0}
REL = 1e-7  # relative agreement of quantities recomputed from 9-digit output
# A type this close to a regime boundary or abstention threshold may bid
# as on either side of it (the reserve is read back from 9-digit output).
BAND = 1e-5 * R_MAX


@dataclass
class Verdict:
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    digest_matches: int = 0

    def fail(self, command: str, message: str) -> None:
        self.failed.add(command)
        self.messages.append(f"{command}: {message}")


class Bad(Exception):
    """A result outside tolerance."""


# What reading a missing, truncated or malformed output raises.
BAD_OUTPUT = (Bad, OSError, ValueError, KeyError, IndexError, TypeError)


def unit9(x: float) -> float:
    """One unit in the last digit of 9-significant-digit output."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 1e-300


def within(a: float, b: float, tol: float, what: str) -> None:
    if not abs(a - b) <= tol + unit9(max(abs(a), abs(b))):
        raise Bad(f"{what}: {a!r} vs {b!r} (tolerance {tol:.3g})")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def need(cond: bool, what: str) -> None:
    if not cond:
        raise Bad(what)


def num(s: str) -> float:
    return math.inf if s == "N" else float(s)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mean_hw(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var) / math.sqrt(n)


def _check_summary_against_rows(summary: dict, columns: dict) -> None:
    for key, values in columns.items():
        mean, hw = _mean_hw(values)
        for name, value in ((f"mean_{key}", mean), (f"hw_{key}", hw)):
            need(abs(summary[name] - value) <= 1e-6 * (1.0 + abs(value)),
                 f"summary {name}={summary[name]!r} but rows give {value!r}")


def _check_summary_against_reference(summary: dict, ref: dict, same_seed: bool) -> None:
    """Means agree within the reference's half-width for the recorded
    seed, within four combined half-widths for another seed."""
    if summary["replications"] != ref["replications"]:
        return
    for name in summary:
        if not name.startswith("mean_"):
            continue
        hw, hw_ref = summary["hw_" + name[5:]], ref["hw_" + name[5:]]
        tol = hw_ref if same_seed else 4.0 * math.hypot(hw, hw_ref)
        within(summary[name], ref[name], tol + 1e-9 * (1.0 + abs(ref[name])), name)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _tn_cdf(r: float) -> float:
    """CDF of the normal(125, 50) law truncated to [50, 200]."""
    lo, hi = _phi(-1.5), _phi(1.5)
    return min(1.0, max(0.0, (_phi((r - 125.0) / 50.0) - lo) / (hi - lo)))


def threshold_residual(k: int, eta: float, c: float, r: float, standard: bool) -> float:
    """Indifference residual of the abstention threshold (positive below
    the threshold type, negative above it)."""
    fr = _tn_cdf(r)
    surv = 1.0 - fr
    mass = fr - (_tn_cdf(c) if standard else 0.0)
    total = surv ** (k - 1) * (c - (k - 1 + eta) / k * r)
    for n in range(1, k):
        total += math.comb(k - 1, n) * mass ** n * surv ** (k - 1 - n) * (c - r) / (n + 1)
    return total


def regime_of(k: int, eta: float, c: float) -> str:
    if c <= (k - 1 + eta) / k * R_MIN:
        return "low"
    if c < R_MIN:
        return "mid"
    return "standard" if c < R_MAX else "high"


def abstention_threshold(k: int, eta: float, c: float, regime: str) -> float:
    """Type above which sellers abstain at reserve ``c`` in the mid or
    standard regime: the root of ``threshold_residual`` on (c, r_max)
    or (r_min, r_max), by bisection."""
    standard = regime == "standard"
    lo, hi = (c if standard else R_MIN), R_MAX
    need(threshold_residual(k, eta, c, lo, standard) > 0.0
         > threshold_residual(k, eta, c, hi, standard),
         f"threshold residual does not change sign at c={c}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if threshold_residual(k, eta, c, mid, standard) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilibrium_bids(t: float, c: float, regime: str, threshold: float | None) -> set:
    """Bids the single-buyer equilibrium allows a seller of type ``t``:
    its type up to the reserve (standard regime), the reserve up to the
    abstention threshold, abstention (inf) above it; every type abstains
    in the low regime and bids itself in the high one. A type within
    BAND of a boundary may bid as on either side."""
    if regime == "low":
        return {math.inf}
    if regime == "high":
        return {t}
    allowed = set()
    for x in (t - BAND, t + BAND):
        if regime == "standard" and x <= c:
            allowed.add(t)
        elif x <= threshold:
            allowed.add(c)
        else:
            allowed.add(math.inf)
    return allowed


def is_one_of(b: float, allowed: set) -> bool:
    return any(b == a if math.isinf(a) else close(b, a) for a in allowed)


# ---------------------------------------------------------------------------
# sim-fig8
# ---------------------------------------------------------------------------


def _sim_rows(path: Path, r_lte: float, c: float, reps: int) -> dict:
    k, eta, delta = FIG8["k"], FIG8["eta"], FIG8["delta"]
    regime = regime_of(k, eta, c)
    threshold = abstention_threshold(k, eta, c, regime) if regime in ("mid", "standard") else None
    header, rows = read_csv(path)
    need(header[: 1 + 2 * k] == ["rep"] + [f"r_{i+1}" for i in range(k)]
         + [f"bid_{i+1}" for i in range(k)], f"{path.name}: unexpected header")
    need(len(rows) == reps, f"{path.name}: {len(rows)} rows, expected {reps}")
    cols = {"rho_lte": [], "rho_apo": [], "welfare_auction": [], "welfare_bench": [],
            "welfare_max": []}
    for i, row in enumerate(rows):
        where = f"{path.name} row {i}"
        need(int(row[0]) == i, f"{where}: replication index {row[0]}")
        types = [float(x) for x in row[1: 1 + k]]
        bids = [num(x) for x in row[1 + k: 1 + 2 * k]]
        mode, winner = row[1 + 2 * k], row[2 + 2 * k]
        r_pay, a_lte, b_lte, a_apo, b_apo, w_a, w_b, w_max = map(float, row[3 + 2 * k:])
        need(all(R_MIN - 1e-9 <= t <= R_MAX + 1e-9 for t in types), f"{where}: type off support")
        for t, b in zip(types, bids):
            need(is_one_of(b, equilibrium_bids(t, c, regime, threshold)),
                 f"{where}: bid {b} is not the equilibrium bid of type {t} at c={c} "
                 f"({regime} regime, threshold {threshold})")
        total = sum(types)
        if mode == "cooperation":
            w = int(winner)
            need(bids[w] == min(bids), f"{where}: winner {w} does not hold the lowest bid")
            need(bids[w] * (1 - REL) <= r_pay <= c * (1 + REL),
                 f"{where}: payment {r_pay} outside [winning bid {bids[w]}, c {c}]")
            need(close(a_lte, r_lte - r_pay), f"{where}: buyer payoff {a_lte}")
            need(close(a_apo, total - types[w] + r_pay), f"{where}: seller payoff {a_apo}")
        else:
            need(mode == "competition" and winner == "" and r_pay == 0.0
                 and all(math.isinf(b) for b in bids), f"{where}: bad competition row")
            need(close(a_lte, delta * r_lte), f"{where}: competition payoff {a_lte}")
            need(any(close(a_apo, total - (1 - eta) * t) for t in types),
                 f"{where}: competition seller payoff {a_apo}")
        need(close(b_lte, delta * r_lte), f"{where}: benchmark buyer payoff {b_lte}")
        need(any(close(b_apo, total - (1 - eta) * t) for t in types),
             f"{where}: benchmark seller payoff {b_apo}")
        need(close(w_a, a_lte + a_apo) and close(w_b, b_lte + b_apo), f"{where}: welfare sum")
        need(w_max >= max(w_a, w_b) * (1 - REL), f"{where}: welfare bound {w_max} below a scheme")
        cols["rho_lte"].append((a_lte - b_lte) / b_lte)
        cols["rho_apo"].append((a_apo - b_apo) / b_apo)
        cols["welfare_auction"].append(w_a)
        cols["welfare_bench"].append(w_b)
        cols["welfare_max"].append(w_max)
    return cols


def _sim_fig8(workload, workdir: Path, ref, default_ref, verdict: Verdict) -> None:
    reps = workload.params["replications"]
    cells = json.loads((workdir / "sim.stdout").read_text())
    need(len(cells) == len(FIG8_R_LTE), f"{len(cells)} sweep cells")
    for i, (cell, r_lte) in enumerate(zip(cells, FIG8_R_LTE)):
        s = cell["summary"]
        need(cell["params"]["r_lte"] == r_lte, f"cell {i} has r_lte {cell['params']['r_lte']}")
        need(s["replications"] == reps, f"cell {i}: {s['replications']} replications")
        if default_ref:
            within(s["c_star"], default_ref["cells"][i]["c_star"], 1e-4 * R_MAX,
                   f"cell {i} c_star")
        cols = _sim_rows(workdir / f"sim.csv.{i:03d}", r_lte, s["c_star"], reps)
        _check_summary_against_rows(s, cols)
        if default_ref:
            source = ref or default_ref
            _check_summary_against_reference(s, source["cells"][i], ref is not None)


def _sim_numbers(workload, workdir: Path) -> dict:
    cells = json.loads((workdir / "sim.stdout").read_text())
    return {"cells": [c["summary"] for c in cells]}


# ---------------------------------------------------------------------------
# multi-fig12
# ---------------------------------------------------------------------------


def _multi_fig12(workload, workdir: Path, ref, default_ref, verdict: Verdict) -> None:
    p = FIG12
    k = p["k_s"] + p["k_a"]
    big_r, offset = p["r_lte"], (1.0 - p["theta"]) * p["r_lte"]
    s = json.loads((workdir / "multi.stdout").read_text())
    reps = workload.params["replications"]
    need(s["replications"] == reps, f"{s['replications']} replications")
    c = s["c_star"]
    if default_ref:
        within(c, default_ref["summary"]["c_star"], 1e-3 * R_MAX, "c_star")
    # Alone sellers play the single-buyer equilibrium among themselves;
    # shared sellers bid eta * type + offset up to their cutoff type.
    regime = regime_of(p["k_a"], p["eta"], c)
    threshold = (abstention_threshold(p["k_a"], p["eta"], c, regime)
                 if regime in ("mid", "standard") else None)
    cutoff = (c - offset) / p["eta"]
    header, rows = read_csv(workdir / "multi.csv")
    need(header[0] == "rep" and header[-1] == "identity_residual", "unexpected header")
    need(len(rows) == reps, f"{len(rows)} rows, expected {reps}")
    cols = {"rho_lte": [], "rho_apo": [], "welfare_auction": [], "welfare_bench": []}
    shared_wins, max_residual = 0, 0.0
    for i, row in enumerate(rows):
        where = f"multi.csv row {i}"
        types = [float(x) for x in row[1: 1 + k]]
        bids = [num(x) for x in row[1 + k: 1 + 2 * k]]
        mode, winner, origin = row[1 + 2 * k: 4 + 2 * k]
        r_pay, price, a_lte, b_lte, a_apo, b_apo, w_a, w_b, residual = map(float, row[4 + 2 * k:])
        need(int(row[0]) == i, f"{where}: replication index {row[0]}")
        for j, (t, b) in enumerate(zip(types, bids)):
            need(b <= c * (1 + REL) or math.isinf(b), f"{where}: virtual bid {b} above reserve {c}")
            if j < p["k_s"]:
                allowed = {p["eta"] * t + offset if x <= cutoff else math.inf
                           for x in (t - BAND, t + BAND)}
                need(is_one_of(b, allowed), f"{where}: shared bid {b} of type {t}")
            else:
                need(is_one_of(b, equilibrium_bids(t, c, regime, threshold)),
                     f"{where}: alone bid {b} of type {t} at c={c} "
                     f"({regime} regime, threshold {threshold})")
        if mode == "cooperation":
            w = int(winner)
            need(origin == ("S" if w < p["k_s"] else "A"), f"{where}: winner origin {origin}")
            need(bids[w] == min(bids), f"{where}: winner {w} does not hold the lowest bid")
            need(bids[w] * (1 - REL) <= price <= c * (1 + REL), f"{where}: virtual price {price}")
            need(close(r_pay, price - offset if origin == "S" else price), f"{where}: payment")
            need(close(a_lte, big_r - price), f"{where}: buyer payoff {a_lte}")
            shared_wins += origin == "S"
        else:
            need(mode == "competition" and winner == "" and origin == "" and r_pay == 0.0
                 and all(math.isinf(b) for b in bids), f"{where}: bad competition row")
            need(close(a_lte, p["delta"] * big_r), f"{where}: competition payoff {a_lte}")
        need(residual <= 1e-9 * big_r, f"{where}: identity residual {residual}")
        need(close(b_lte, p["delta"] * big_r), f"{where}: benchmark buyer payoff {b_lte}")
        need(close(w_a, a_lte + a_apo) and close(w_b, b_lte + b_apo), f"{where}: welfare sum")
        max_residual = max(max_residual, residual)
        cols["rho_lte"].append((a_lte - b_lte) / b_lte)
        cols["rho_apo"].append((a_apo - b_apo) / b_apo)
        cols["welfare_auction"].append(w_a)
        cols["welfare_bench"].append(w_b)
    need(s["shared_wins"] == shared_wins, f"shared_wins {s['shared_wins']} vs rows {shared_wins}")
    need(abs(s["max_identity_residual"] - max_residual) <= 1e-9 * big_r, "max_identity_residual")
    _check_summary_against_rows(s, cols)
    if default_ref:
        source = ref or default_ref
        _check_summary_against_reference(s, source["summary"], ref is not None)


def _multi_numbers(workload, workdir: Path) -> dict:
    return {"summary": json.loads((workdir / "multi.stdout").read_text())}


# ---------------------------------------------------------------------------
# reserve-study
# ---------------------------------------------------------------------------


def _study_rows(path: Path, markets, eta: float, delta: float, ref_rows) -> list:
    header, rows = read_csv(path)
    need(header == ["k", "r_lte", "c_star", "case", "expected_payoff", "regime", "threshold"],
         f"{path.name}: unexpected header")
    need(len(rows) == len(markets), f"{path.name}: {len(rows)} rows for {len(markets)} markets")
    for i, (row, (k, r_lte)) in enumerate(zip(rows, markets)):
        where = f"{path.name} row {i}"
        need(int(row[0]) == k and close(float(row[1]), r_lte), f"{where}: market {row[:2]}")
        c, case, payoff, regime, thr = float(row[2]), int(row[3]), float(row[4]), row[5], row[6]
        need(case == optimum_case(k, eta, delta, r_lte), f"{where}: case {case}")
        if case == 1:
            need(c == 0.0 and regime == "low" and thr == "", f"{where}: case-1 row {row}")
            need(close(payoff, delta * r_lte), f"{where}: case-1 payoff {payoff}")
        else:
            low_cap = (k - 1 + eta) / k * R_MIN
            need(low_cap < c <= min(r_lte, R_MAX) * (1 + REL), f"{where}: c_star {c} out of range")
            need(payoff >= delta * r_lte * (1 - REL), f"{where}: payoff {payoff} below coexistence")
            need(regime == regime_of(k, eta, c), f"{where}: regime {regime} at c={c}")
        if regime in ("mid", "standard"):
            t = float(thr)
            need((c if regime == "standard" else R_MIN) < t < R_MAX, f"{where}: threshold {t}")
            h = 1e-5 * R_MAX
            std = regime == "standard"
            need(threshold_residual(k, eta, c, t - h, std) > 0.0
                 > threshold_residual(k, eta, c, t + h, std),
                 f"{where}: threshold {t} is not a root of the indifference residual")
        else:
            need(thr == "", f"{where}: threshold {thr!r} in the {regime} regime")
        if ref_rows is not None:
            ref = ref_rows[i]
            within(c, float(ref[2]), 1e-4 * R_MAX, f"{where} c_star")
            within(payoff, float(ref[4]), 1e-6 * r_lte, f"{where} expected_payoff")
            if row[2] == ref[2] and thr:
                within(float(thr), float(ref[6]), 1e-12 * R_MAX, f"{where} threshold")
    return rows


def _curve_rows(path: Path, ref_rows) -> None:
    p = FIG4
    header, rows = read_csv(path)
    need(header == ["c", "expected_payoff", "regime", "expected_payment"], "curve.csv header")
    need(len(rows) == len(ref_rows), f"curve.csv: {len(rows)} rows")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        where = f"curve.csv row {i}"
        c, payoff, regime, payment = float(row[0]), float(row[1]), row[2], float(row[3])
        need(row[0] == ref[0], f"{where}: c {row[0]} vs {ref[0]}")
        need(regime == regime_of(p["k"], p["eta"], c) == ref[2], f"{where}: regime {regime}")
        need(payoff <= p["r_lte"] and 0.0 <= payment <= c * (1 + REL), f"{where}: out of range")
        tol = 1e-8 * p["r_lte"]
        within(payoff, float(ref[1]), tol, f"{where} expected_payoff")
        within(payment, float(ref[3]), tol, f"{where} expected_payment")


def _reserve_study(workload, workdir: Path, ref, default_ref, verdict: Verdict) -> None:
    eta, delta = workload.params["eta"], workload.params["delta"]
    markets = workload.params["markets"]
    ref_rows = ref["rows"] if ref else {}
    for name, part in (("kstudy", markets[:2]), ("rstudy", markets[2:])):
        try:
            _study_rows(workdir / f"{name}.csv", part, eta, delta, ref_rows.get(name))
        except BAD_OUTPUT as exc:
            verdict.fail(name, str(exc))
    if default_ref:
        try:
            _curve_rows(workdir / "curve.csv", default_ref["curve"])
        except BAD_OUTPUT as exc:
            verdict.fail("curve", str(exc))


def _reserve_numbers(workload, workdir: Path) -> dict:
    numbers = {"rows": {name: read_csv(workdir / f"{name}.csv")[1]
                        for name in ("kstudy", "rstudy")}}
    if workload.seed == DEFAULT_SEED:  # the fig4 curve does not depend on the seed
        numbers["curve"] = read_csv(workdir / "curve.csv")[1]
    return numbers


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify(workload, workdir: Path, ref, default_ref, verdict: Verdict) -> None:
    for i, case in enumerate(workload.params["cases"]):
        name = f"cert{i}"
        try:
            rep = json.loads((workdir / f"{name}.out.json").read_text())
            need(rep["certified"] is True, "not certified")
            need(rep["max_gain"] <= rep["epsilon"] + 1e-12, f"max_gain {rep['max_gain']} > epsilon")
            need(rep["types_checked"] == 50 and rep["deviations_checked"] == 102
                 and rep["samples"] == case["samples"], "grid or sample counts")
            need(close(rep["c"], case["c"]), f"reserve {rep['c']} vs {case['c']}")
            need(R_MIN <= rep["worst_type"] <= R_MAX, f"worst type {rep['worst_type']}")
            if ref:
                r = ref["reports"][i]
                within(rep["max_gain"], r["max_gain"], r["epsilon"] + 1e-9 * R_MAX, "max_gain")
        except BAD_OUTPUT as exc:
            verdict.fail(name, str(exc))


def _certify_numbers(workload, workdir: Path) -> dict:
    return {"reports": [json.loads((workdir / f"cert{i}.out.json").read_text())
                        for i in range(len(workload.commands))]}


# ---------------------------------------------------------------------------


# Checks of the multi-command workloads attribute failures to their
# commands; anything escaping a check fails the workload's first command.
_CHECKS = {"sim-fig8": _sim_fig8, "multi-fig12": _multi_fig12,
           "reserve-study": _reserve_study, "certify": _certify}
_NUMBERS = {"sim-fig8": _sim_numbers, "multi-fig12": _multi_numbers,
            "reserve-study": _reserve_numbers, "certify": _certify_numbers}


def output_files(workload) -> list[str]:
    files = []
    for cmd in workload.commands:
        files.append(f"{cmd.name}.stdout")
        files.extend(cmd.outputs)
    return files


def numbers(workload, workdir: Path) -> dict:
    """Key numbers of a pass, in the form reference.json records them."""
    return _NUMBERS[workload.name](workload, workdir)


def check_pass(workload, workdir: Path, returncodes: dict, reference: dict) -> Verdict:
    """Check one pass; ``returncodes`` maps command name to exit code."""
    verdict = Verdict()
    seeds = reference.get("workloads", {}).get(workload.name, {}).get("seeds", {})
    entry = seeds.get(str(workload.seed))
    if entry and (entry["input_hash"] != workload.input_hash()):
        entry = None  # recorded for other inputs (another scale)
    default = seeds.get(str(DEFAULT_SEED))
    default_ref = default["numbers"] if default else None
    for fname in output_files(workload):
        path = workdir / fname
        if path.exists():
            verdict.digests[fname] = sha256(path)
    if entry:
        verdict.digest_matches = sum(
            verdict.digests.get(f) == d for f, d in entry["digests"].items())
    for cmd in workload.commands:
        if returncodes[cmd.name] != 0:
            verdict.fail(cmd.name, f"exit code {returncodes[cmd.name]}")
    ref = entry["numbers"] if entry else None
    try:
        _CHECKS[workload.name](workload, workdir, ref, default_ref, verdict)
    except BAD_OUTPUT as exc:
        verdict.fail(workload.commands[0].name, repr(exc))
    return verdict
