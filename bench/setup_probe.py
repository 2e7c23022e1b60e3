"""Set-up probe: what a command pays before its real work starts.

Starts as a fresh interpreter, imports the package and builds the
config objects of every command in one workload, then exits. The
benchmark times the whole process as ``setup_s``.

    python3 bench/setup_probe.py PLAN.json

PLAN.json holds ``{"cli": [argv, ...], "markets": [[k, eta, delta, r_lte], ...]}``;
the markets are those a reserve-study script run builds.
"""
import json
import sys

from spectrum_auction import MarketConfig, TypeDistribution, cli, simulation


def main(plan_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    parser = cli.build_parser()
    for argv in plan["cli"]:
        args = parser.parse_args(argv)
        cfg = cli.load_config(args)
        if args.command == "multi-lte":
            cli.parse_multi_market(cfg)
            continue
        market = cli.parse_market(cfg)
        if args.command == "simulate":
            simulation.sweep_cells(simulation.ExperimentConfig(market, sweep=cfg.get("sweep")))
    dist = TypeDistribution.truncated_normal(125, 50, 50, 200)
    for k, eta, delta, r_lte in plan["markets"]:
        MarketConfig(k, dist, eta, delta, float(r_lte))


if __name__ == "__main__":
    main(sys.argv[1])
