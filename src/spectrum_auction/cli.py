"""Command-line interface: config ingestion, subcommand dispatch, and
bit-stable CSV/JSON emission.

The CLI owns the JSON shape and the exit codes, and no value rule:
``_parse_block`` reads the ``market``, ``multi_market`` and ``dist``
blocks by the fields of the class each one builds, the engine's
constructors and ``require_*`` functions check the values, and a value
they refuse is a config error. ``load_config`` sets each given flag
over its config key (``seed`` is one for ``simulate`` and ``verify``
alike); ``--config`` and ``--preset`` exclude each other.
``main`` is the one dispatch path: it loads the config, builds the
action's market (``parse_market``, or ``parse_multi_market`` for
``multi-lte``) and calls the action with both.

Exit codes: 0 success, 2 config error or a count whose arrays do not
fit in memory, 3 refusal (non-unique threshold or failed
certification). Errors print one machine-readable JSON line to stderr.
All numeric output carries 9 significant digits. Each action accepts
only the flags it reads; an unknown flag is a usage error (exit 2).
``--workers`` is still checked (an integer >= 1) but has no effect:
every experiment runs in this process.

Start-up: importing this module sets ``OPENBLAS_NUM_THREADS`` to 1,
unless the caller set it, before it imports numpy. No action calls a
BLAS routine, and the worker thread that OpenBLAS otherwise starts at
import spins, costing CPU time in every process. ``python -m
spectrum_auction.cli`` and the ``spectrum-auction`` script reach that
line before numpy loads because the package namespace is lazy. The
import, not only a command, sets the variable, so any program that
imports this module sets it for its process and its child processes;
a program that imports the package without this module keeps numpy's
default. The engine modules that only some actions use (``oracle``,
``provider``, ``simulation``, ``multi_lte``) are imported by those
actions when they run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields
from enum import Enum

# Must run before numpy loads (see "Start-up" in the module docstring).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .distributions import TypeDistribution
from .equilibrium import MarketConfig, RegimeKind, require_count, require_reserve, solve_strategy
from .errors import InvalidConfig, InvalidDistribution, SpectrumAuctionError
from .numerics import is_finite, is_number
from .presets import PRESETS, preset
from .rng import RngStream

_TOP_KEYS = {
    "market",
    "multi_market",
    "replications",
    "seed",
    "c",
    "c_min",
    "c_max",
    "steps",
    "sweep",
}


def fmt9(x: float) -> str:
    """Fixed 9-significant-digit rendering used for all emitted numbers."""
    if isinstance(x, float) and math.isinf(x):
        return "N"
    return f"{x:.9g}"


def _round9(obj):
    """Recursively round floats for JSON emission."""
    if isinstance(obj, float):
        return float(fmt9(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path: str | None) -> None:
    _write_text(path, json.dumps(_round9(obj), indent=2, sort_keys=True) + "\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidConfig(message)


def _integer(value, name: str) -> int:
    """A count from a flag or a config: an int or an integral float;
    bools, fractions and non-numbers are config errors."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _require(type(value) is int, f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A real value from a flag or a config: an int or a float, stored
    as a float; bools, text and other values are config errors. An int
    too large for a float stays an int, which the engine's finiteness
    rule refuses."""
    _require(is_number(value), f"{name} must be a number, got {value!r}")
    return float(value) if is_finite(value) else value


def load_config(args) -> dict:
    """The run config, with every flag that is given set over its key:
    a flag beats the config, which beats each command's default."""
    if getattr(args, "preset", None):
        try:
            cfg = preset(args.preset)
        except KeyError:
            raise InvalidConfig(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
    elif getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    else:
        raise InvalidConfig("provide --config PATH or --preset NAME")
    _require(isinstance(cfg, dict), "config root must be an object")
    unknown = set(cfg) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _parse_block(block, cls, label: str) -> dict:
    """The ``label`` block, an object whose keys are fields of ``cls``
    and which holds every field that has no default."""
    _require(isinstance(block, dict), f"{label} must be an object")
    unknown = set(block) - {f.name for f in fields(cls)}
    _require(not unknown, f"unknown {label} keys: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(block)
    _require(not missing, f"missing {label} keys: {sorted(missing)}")
    return block


def _built(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a refused input reported as a
    config error."""
    try:
        return make(*args, **kwargs)
    except (InvalidDistribution, ValueError, TypeError) as exc:
        raise InvalidConfig(str(exc))


def _parse_market_block(cfg: dict, label: str, cls):
    """Build ``cls`` from the ``label`` block: ``int`` fields are counts,
    ``dist`` a ``TypeDistribution`` block (whose values the type law
    checks itself), every other field a number."""
    _require(label in cfg, f"config needs a '{label}' block")
    block = _parse_block(cfg[label], cls, label)
    values = {
        f.name: (_integer if f.type == "int" else _number)(block[f.name], f.name)
        for f in fields(cls)
        if f.name != "dist"
    }
    dist = _built(TypeDistribution, **_parse_block(block["dist"], TypeDistribution, "dist"))
    return _built(cls, dist=dist, **values)


def parse_market(cfg: dict) -> MarketConfig:
    return _parse_market_block(cfg, "market", MarketConfig)


def parse_multi_market(cfg: dict) -> MultiMarketConfig:
    from .multi_lte import MultiMarketConfig

    return _parse_market_block(cfg, "multi_market", MultiMarketConfig)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _reserve_arg(args, cfg: dict) -> float:
    """The reserve ``c``, from ``--c`` or the config."""
    c = cfg.get("c")
    _require(c is not None, f"{args.command} needs --c or a 'c' config key")
    return _built(require_reserve, "c", c)


def cmd_equilibrium(args, cfg: dict, market: MarketConfig) -> None:
    strat = solve_strategy(market, _reserve_arg(args, cfg))
    out = {"regime": strat.regime.value, "c": strat.c}
    inner = []
    if strat.regime is RegimeKind.MID:
        inner = [strat.cutoff]
        out["r_x"] = strat.cutoff
    elif strat.regime is RegimeKind.STANDARD:
        inner = [strat.c, strat.cutoff]
        out["r_t"] = strat.cutoff
    out["breakpoints"] = [market.dist.r_min, *inner, market.dist.r_max]
    _emit_json(out, args.output)


def _curve_grid(cfg: dict) -> np.ndarray:
    c_min, c_max = cfg.get("c_min"), cfg.get("c_max")
    _require(c_min is not None and c_max is not None, "payoff-curve needs --c-min and --c-max")
    c_min, c_max = _built(require_reserve, "c_min", c_min), _built(require_reserve, "c_max", c_max)
    _require(c_min < c_max, "need c_min < c_max")
    steps = _integer(cfg.get("steps", 100), "steps")
    _built(require_count, "steps", steps, 2)
    return np.linspace(c_min, c_max, steps)


def _write_rows(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def cmd_payoff_curve(args, cfg: dict, market: MarketConfig) -> None:
    from . import provider

    rows = []
    for c in _curve_grid(cfg):
        point = provider.curve_point(market, float(c))
        rows.append(
            (
                fmt9(point.c),
                fmt9(point.expected_payoff),
                point.regime.value,
                fmt9(point.expected_payment),
            )
        )
    _write_rows(args.output, ["c", "expected_payoff", "regime", "expected_payment"], rows)


def cmd_optimize(args, cfg: dict, market: MarketConfig) -> None:
    from . import provider

    _emit_json(asdict(provider.optimize_reserve(market)), args.output)


def _experiment_config(args, cfg: dict, market, **kwargs) -> ExperimentConfig:
    """Either simulate command's config; the config checks replications
    and seed. ``--workers`` has no effect on the run but must be >= 1."""
    from .simulation import ExperimentConfig

    xcfg = _built(
        ExperimentConfig,
        market,
        replications=_integer(cfg.get("replications", 5000), "replications"),
        master_seed=_integer(cfg.get("seed", 0), "seed"),
        sweep=cfg.get("sweep"),
        **kwargs,
    )
    _require(args.workers is None or args.workers >= 1, f"workers must be >= 1, got {args.workers}")
    return xcfg


# Per-replication CSV columns after the types and bids, and the result
# field behind each header where the two names differ.
_SINGLE_COLUMNS = (
    "mode", "winner", "r_pay", "pi_a_lte", "pi_b_lte", "pi_a_apo", "pi_b_apo", "w_a", "w_b",
    "w_max",
)
_MULTI_COLUMNS = (
    "mode", "winner", "winner_origin", "r_pay", "virtual_price", "pi_a_lte", "pi_b_lte",
    "pi_a_apo", "pi_b_apo", "w_a", "w_b", "identity_residual",
)
_COLUMN_FIELDS = {
    "pi_a_lte": "auction_lte",
    "pi_b_lte": "bench_lte",
    "pi_a_apo": "auction_apo_total",
    "pi_b_apo": "bench_apo_total",
    "w_a": "welfare_auction",
    "w_b": "welfare_bench",
    "w_max": "welfare_max",
}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    return fmt9(value)


def _rows(k: int, reps, columns):
    """CSV header and rows: rep, K types, K bids, then ``columns``."""
    header = (
        ["rep"]
        + [f"r_{i+1}" for i in range(k)]
        + [f"bid_{i+1}" for i in range(k)]
        + list(columns)
    )
    attrs = [_COLUMN_FIELDS.get(name, name) for name in columns]
    rows = [
        [str(r.rep)]
        + [fmt9(t) for t in r.types]
        + [fmt9(b) for b in r.bids]
        + [_cell(getattr(r, attr)) for attr in attrs]
        for r in reps
    ]
    return header, rows


def _replication_rows(market: MarketConfig, reps):
    return _rows(market.k, reps, _SINGLE_COLUMNS)


def _multi_replication_rows(market: MultiMarketConfig, reps):
    return _rows(market.k_s + market.k_a, reps, _MULTI_COLUMNS)


def cmd_simulate(args, cfg: dict, market: MarketConfig) -> None:
    from . import simulation

    xcfg = _experiment_config(args, cfg, market)
    cells = simulation.sweep_cells(xcfg)
    summaries = []
    for idx, cell in enumerate(cells):
        result = simulation.run_experiment(cell)
        summaries.append(
            {
                "params": {key: getattr(cell.market, key) for key in simulation.SWEEP_KEYS},
                "summary": asdict(result.summary),
            }
        )
        if args.output:
            path = args.output if len(cells) == 1 else f"{args.output}.{idx:03d}"
            header, rows = _replication_rows(cell.market, result.replications)
            _write_rows(path, header, rows)
    _emit_json(summaries if xcfg.sweep else summaries[0], args.summary)


def cmd_verify(args, cfg: dict, market: MarketConfig) -> None:
    from . import oracle

    c = _reserve_arg(args, cfg)
    _built(oracle.require_grids, args.samples, args.type_grid, args.bid_grid)
    report = oracle.best_response_check(
        market,
        c,
        type_grid=args.type_grid,
        bid_grid=args.bid_grid,
        samples=args.samples,
        rng=_built(RngStream, _integer(cfg.get("seed", 0), "seed"), 0),
    )
    out = asdict(report)
    out["c"] = c
    _emit_json(out, args.output)


def cmd_multi_optimize(args, cfg: dict, market: MultiMarketConfig) -> None:
    from . import multi_lte

    _built(multi_lte.require_samples, args.samples)
    _emit_json(asdict(multi_lte.optimize_reserve_multi(market, n=args.samples)), args.output)


def cmd_multi_payoff_curve(args, cfg: dict, market: MultiMarketConfig) -> None:
    from . import multi_lte

    _built(multi_lte.require_samples, args.samples)
    rows = []
    for c in _curve_grid(cfg):
        mean, se = multi_lte.expected_payoff_multi(market, float(c), n=args.samples)
        rows.append((fmt9(float(c)), fmt9(mean), fmt9(se)))
    _write_rows(args.output, ["c", "expected_payoff", "se"], rows)


def cmd_multi_simulate(args, cfg: dict, market: MultiMarketConfig) -> None:
    from . import multi_lte

    xcfg = _experiment_config(args, cfg, market, reserve=args.reserve)
    result = multi_lte.run_experiment_multi(xcfg)
    if args.output:
        header, rows = _multi_replication_rows(market, result.replications)
        _write_rows(args.output, header, rows)
    _emit_json(asdict(result.summary), args.summary)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Flag groups, each defined once; an action lists the groups it reads.
    config = argparse.ArgumentParser(add_help=False)
    source = config.add_mutually_exclusive_group()
    source.add_argument("--config", help="path to a JSON run config")
    source.add_argument("--preset", help=f"bundled preset name ({', '.join(sorted(PRESETS))})")
    config.add_argument("--output", help="output path (default: stdout)")
    reserve = argparse.ArgumentParser(add_help=False)
    reserve.add_argument("--c", type=float, help="reserve rate (Mbps)")
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--c-min", dest="c_min", type=float)
    curve.add_argument("--c-max", dest="c_max", type=float)
    curve.add_argument("--steps", type=int)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--replications", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--workers", type=int, help="no longer has any effect; still checked (>= 1)")
    run.add_argument("--summary", help="summary JSON path (default: stdout)")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=int, default=100_000)

    # ``read_market`` builds the action's market from the config; the
    # name is not a config key, which ``load_config`` would copy.
    def add(sub, name, func, text, *groups, read_market=parse_market):
        p = sub.add_parser(name, parents=[config, *groups], help=text)
        p.set_defaults(func=func, read_market=read_market)
        return p

    parser = argparse.ArgumentParser(
        prog="spectrum-auction",
        description="Reverse-auction engine for buying channel access from Wi-Fi operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add(sub, "equilibrium", cmd_equilibrium,
        "bidding-strategy thresholds at a reserve rate", reserve)
    add(sub, "payoff-curve", cmd_payoff_curve, "expected payoff across reserve rates (CSV)", curve)
    add(sub, "optimize", cmd_optimize, "optimal reserve rate (JSON)")
    add(sub, "simulate", cmd_simulate, "Monte Carlo experiment vs. the benchmark", run)
    p = add(sub, "verify", cmd_verify, "best-response certification (JSON)", reserve, samples)
    p.add_argument("--type-grid", dest="type_grid", type=int, default=50)
    p.add_argument("--bid-grid", dest="bid_grid", type=int, default=101)
    p.add_argument("--seed", type=int)

    multi = sub.add_parser("multi-lte", help="multi-buyer variant")
    actions = multi.add_subparsers(dest="action", required=True)
    add(actions, "optimize", cmd_multi_optimize, "optimal reserve rate (JSON)", samples,
        read_market=parse_multi_market)
    add(actions, "payoff-curve", cmd_multi_payoff_curve,
        "Monte Carlo expected payoff across reserve rates (CSV)", curve, samples,
        read_market=parse_multi_market)
    p = add(actions, "simulate", cmd_multi_simulate,
            "Monte Carlo experiment vs. the benchmark", run, read_market=parse_multi_market)
    p.add_argument("--reserve", type=float, help="force a reserve instead of optimizing")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        args.func(args, cfg, args.read_market(cfg))
        return 0
    except InvalidConfig as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 2
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array of more than 2**63 bytes with a ValueError.
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        sys.stderr.write(json.dumps({"error": "memory", "message": str(exc)}) + "\n")
        return 2
    except SpectrumAuctionError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
