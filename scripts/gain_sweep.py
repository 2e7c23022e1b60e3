#!/usr/bin/env python3
"""Sweep the buyer throughput across discount-factor pairs and record
the mean relative gains of the auction over the coexistence benchmark.

Emits one CSV row per (delta, eta, R) cell; plot-ready.
"""
import argparse
import sys

from spectrum_auction import ExperimentConfig, MarketConfig, TypeDistribution, run_experiment
from spectrum_auction.cli import fmt9

PAIRS = [(0.4, 0.1), (0.4, 0.3), (0.4, 0.7), (0.6, 0.3)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--replications", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--r-values", type=float, nargs="+",
                    default=[30, 100, 190, 280, 370])
    ap.add_argument("--output", default=None)
    args = ap.parse_args()

    dist = TypeDistribution.truncated_normal(125, 50, 50, 200)
    out = open(args.output, "w") if args.output else sys.stdout
    print("delta_lte,eta_apo,r_lte,c_star,mean_rho_lte,hw_rho_lte,"
          "mean_rho_apo,hw_rho_apo,mean_w_auction,mean_w_bench,mean_w_max", file=out)
    for delta, eta in PAIRS:
        for r_lte in args.r_values:
            market = MarketConfig(args.k, dist, eta, delta, float(r_lte))
            xcfg = ExperimentConfig(market, args.replications, args.seed)
            s = run_experiment(xcfg).summary
            print(",".join([
                fmt9(delta), fmt9(eta), fmt9(float(r_lte)), fmt9(s.c_star),
                fmt9(s.mean_rho_lte), fmt9(s.hw_rho_lte),
                fmt9(s.mean_rho_apo), fmt9(s.hw_rho_apo),
                fmt9(s.mean_welfare_auction), fmt9(s.mean_welfare_bench),
                fmt9(s.mean_welfare_max),
            ]), file=out)
    if args.output:
        out.close()


if __name__ == "__main__":
    main()
