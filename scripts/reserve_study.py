#!/usr/bin/env python3
"""Optimal reserve rate against the seller count or the buyer
throughput; emits a CSV with the active threshold type per optimum."""
import argparse
import math
import sys

from spectrum_auction import (
    MarketConfig,
    TypeDistribution,
    optimize_reserve,
    solve_strategy,
)
from spectrum_auction.cli import fmt9


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=0.4)
    ap.add_argument("--eta", type=float, default=0.3)
    ap.add_argument("--r-lte", type=float, default=95.0)
    ap.add_argument("--k", type=int, default=4)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--k-values", type=int, nargs="+")
    group.add_argument("--r-values", type=float, nargs="+")
    ap.add_argument("--output", default=None)
    args = ap.parse_args()

    dist = TypeDistribution.truncated_normal(125, 50, 50, 200)
    out = open(args.output, "w") if args.output else sys.stdout
    print("k,r_lte,c_star,case,expected_payoff,regime,threshold", file=out)
    cells = (
        [(k, args.r_lte) for k in args.k_values]
        if args.k_values
        else [(args.k, r) for r in args.r_values]
    )
    for k, r_lte in cells:
        market = MarketConfig(k, dist, args.eta, args.delta, float(r_lte))
        opt = optimize_reserve(market)
        strat = solve_strategy(market, opt.c_star)
        threshold = strat.cutoff
        print(",".join([
            str(k), fmt9(float(r_lte)), fmt9(opt.c_star), str(opt.case),
            fmt9(opt.expected_payoff), strat.regime.value,
            fmt9(threshold) if math.isfinite(threshold) else "",
        ]), file=out)
    if args.output:
        out.close()


if __name__ == "__main__":
    main()
