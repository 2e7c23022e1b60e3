"""Traced run of one command, and the per-layer metrics derived from it.

As a program it wraps the engine's layer entry points in spans, runs
one CLI command or script in-process, and writes the spans out at exit:

    python3 bench/tracer.py OUT cli <spectrum-auction arguments...>
    python3 bench/tracer.py OUT script <script path> <script arguments...>

A wrapper replaces the original object in every ``spectrum_auction``
namespace that imported it (``solve_threshold_standard`` lives in both
``equilibrium`` and ``provider``), and methods are replaced on their
class. Spans stay in memory. The process pool forks, so workers inherit
the wrappers; the wrapped block runners write each block's spans to
``OUT.w<pid>.<n>`` so they can be merged with the parent's ``OUT``.

A span is ``[id, parent_id, name, start, end, self_seconds, extra]``;
self time is the span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter


class Tracer:
    def __init__(self, out: str):
        self.out = out
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []  # open frames: [id, start, child_seconds, extra]
        self.next_id = 0
        self.blocks = 0
        self.golden_calls = 0
        self.simpson_evals: list = []
        self.caches: list = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, enter=None, leave=None):
        """Span wrapper. ``enter()`` returns state handed to
        ``leave(state, args, kwargs, result, exc)``, whose return value is
        stored as the span's extra counts."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            frame = [tr.next_id, _perf(), 0.0]
            tr.next_id += 1
            stack.append(frame)
            state = enter() if enter else None
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = _perf()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                extra = leave(state, args, kwargs, result, exc) if leave else None
                tr.spans.append([frame[0], parent[0] if parent else -1, name,
                                 frame[1], end, dur - frame[2], extra])

        return wrapper

    def wrap_block(self, name, fn):
        """Block runner wrapper: in a pool worker the block's spans and
        cache counts are written to their own file."""
        tr = self
        span = self.wrap(name, fn)

        @functools.wraps(fn)
        def block(*args, **kwargs):
            if os.getpid() == tr.pid:
                return span(*args, **kwargs)
            saved = tr.spans, tr.stack
            tr.spans, tr.stack = [], []
            caches0 = tr.cache_counts()
            try:
                return span(*args, **kwargs)
            finally:
                tr.blocks += 1
                tr.write(f"{tr.out}.w{os.getpid()}.{tr.blocks}", caches0)
                tr.spans, tr.stack = saved

        return block

    # -- equilibrium caches ------------------------------------------------

    def cache_counts(self) -> list[int]:
        hits = misses = 0
        for cached in self.caches:
            info = cached.cache_info()
            hits += info.hits
            misses += info.misses
        return [hits, misses]

    def write(self, path: str, caches0: list[int]) -> None:
        hits, misses = self.cache_counts()
        # json.dumps uses the C encoder; json.dump would stream through the
        # pure-Python one, several times slower on tens of thousands of spans.
        text = json.dumps({"spans": self.spans,
                           "cache_hits": hits - caches0[0],
                           "cache_misses": misses - caches0[1]})
        with open(path, "w") as fh:
            fh.write(text)


def _replace_everywhere(orig, new) -> None:
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if name == "spectrum_auction" or name.startswith("spectrum_auction."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are made of."""
    import numpy as np

    import spectrum_auction.cli as cli
    from spectrum_auction import (auction, distributions, equilibrium, multi_lte, numerics,
                                  oracle, provider, rng, simulation)
    from spectrum_auction.errors import NonUniqueThreshold

    def fn(module, attr, name, **hooks):
        orig = getattr(module, attr)
        _replace_everywhere(orig, tr.wrap(name, orig, **hooks))

    def method(cls, attr, name, **hooks):
        setattr(cls, attr, tr.wrap(name, getattr(cls, attr), **hooks))

    def block(module, attr, name):
        orig = getattr(module, attr)
        _replace_everywhere(orig, tr.wrap_block(name, orig))

    def inverse_cdf_elements(state, args, kwargs, result, exc):
        return {"elements": int(np.size(args[1]))}

    def scan_points(state, args, kwargs, result, exc):
        return {"points": len(args[0])}

    def refusal(state, args, kwargs, result, exc):
        return {"refusals": 1} if isinstance(exc, NonUniqueThreshold) else None

    def golden_enter():
        tr.golden_calls += 1

    def simpson_enter():
        tr.simpson_evals = []

    def simpson_pass(state, args, kwargs, result, exc):
        panels = args[3] + (args[3] % 2)
        tr.simpson_evals.append((panels, result))

    def simpson_leave(state, args, kwargs, result, exc):
        evals = tr.simpson_evals
        if not evals:
            return None
        budget = kwargs.get("budget", 1e-12)
        cap_hit = len(evals) >= 2 and abs(evals[-1][1] - evals[-2][1]) / 15.0 > budget
        return {"panels": evals[-1][0], "cap_hits": int(cap_hit)}

    def optimize_enter():
        return tr.golden_calls

    def optimize_leave(golden_before, args, kwargs, result, exc):
        # A searched case (2 or 3) that never ran golden section took the
        # grid fallback after a failed unimodality guard.
        if result is not None and result.case != 1 and tr.golden_calls == golden_before:
            return {"guard_fallbacks": 1}
        return None

    def resolve_leave(state, args, kwargs, result, exc):
        values = args[0]
        m = values.min()
        if np.isinf(m):
            return {"competitions": 1}
        if int((values == m).sum()) > 1:
            return {"tie_breaks": 1}
        return None

    method(rng.RngStream, "__init__", "rng.stream")
    for attr in ("uniform", "uniforms", "pick"):
        method(rng.RngStream, attr, "rng.draw")
    method(distributions.TypeDistribution, "inverse_cdf", "distributions.inverse_cdf",
           leave=inverse_cdf_elements)

    fn(numerics, "sign_change_brackets", "numerics.scan", leave=scan_points)
    fn(numerics, "bisect_root", "numerics.bisect")
    fn(numerics, "composite_simpson", "numerics.simpson.pass", leave=simpson_pass)
    fn(numerics, "simpson_with_doubling", "numerics.simpson",
       enter=simpson_enter, leave=simpson_leave)
    fn(numerics, "golden_section_max", "numerics.golden", enter=golden_enter)

    tr.caches = [equilibrium.solve_threshold_standard, equilibrium.solve_threshold_mid,
                 equilibrium.solve_strategy]
    fn(equilibrium, "_solve_threshold", "equilibrium.solve", leave=refusal)
    for attr in ("solve_threshold_standard", "solve_threshold_mid", "solve_strategy"):
        fn(equilibrium, attr, "equilibrium.lookup")
    fn(equilibrium, "bid_values", "equilibrium.bid_values")

    fn(provider, "expected_payoff", "provider.payoff")
    fn(provider, "expected_payment", "provider.payment")
    fn(provider, "optimize_reserve", "provider.optimize",
       enter=optimize_enter, leave=optimize_leave)

    fn(auction, "_resolve_values", "auction.resolve", leave=resolve_leave)
    fn(multi_lte, "_resolve_virtual_values", "auction.resolve", leave=resolve_leave)
    fn(auction, "lte_payoff", "auction.payoff")
    fn(auction, "realized_apo_payoffs", "auction.payoff")

    fn(simulation, "_run_replication", "simulation.replication")
    for attr in ("run_auction_replication", "run_benchmark_replication", "social_welfare_max"):
        fn(simulation, attr, "simulation.kernel")
    block(simulation, "_run_block", "simulation.kernel")
    fn(simulation, "summarize", "simulation.summarize")
    fn(simulation, "run_experiment", "simulation.experiment")

    fn(multi_lte, "expected_payoff_multi", "multi_lte.payoff")
    fn(multi_lte, "_type_pool", "multi_lte.type_pool")
    fn(multi_lte, "optimize_reserve_multi", "multi_lte.optimize",
       enter=optimize_enter, leave=optimize_leave)
    fn(multi_lte, "_run_replication_multi", "multi_lte.replication")
    for attr in ("run_auction_replication_multi", "run_benchmark_replication_multi"):
        fn(multi_lte, attr, "multi_lte.kernel")
    block(multi_lte, "_run_block_multi", "multi_lte.kernel")
    fn(multi_lte, "summarize_multi", "multi_lte.summarize")
    fn(multi_lte, "run_experiment_multi", "multi_lte.experiment")

    fn(oracle, "best_response_check", "oracle.certify")
    fn(oracle, "sample_type_matrix", "oracle.sample")
    method(oracle._OpponentPool, "payoff_samples", "oracle.exact_recheck")

    for attr in ("_emit_json", "_write_rows", "_replication_rows", "_multi_replication_rows"):
        fn(cli, attr, "cli.emit")


def main(argv: list[str]) -> int:
    out, kind, rest = argv[0], argv[1], argv[2:]
    tr = Tracer(out)
    install(tr)
    caches0 = tr.cache_counts()
    try:
        if kind == "cli":
            import spectrum_auction.cli as cli

            return cli.main(rest)
        import runpy

        sys.argv = rest
        runpy.run_path(rest[0], run_name="__main__")
        return 0
    finally:
        tr.write(out, caches0)


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of one traced pass
# ---------------------------------------------------------------------------

# metric -> (aggregate, span names); aggregate is "calls", "self" (summed
# self time), "total" (summed duration) or the name of an extra count.
LAYER_METRICS = {
    "rng.streams": ("calls", ("rng.stream",)),
    "rng.busy_s": ("self", ("rng.stream", "rng.draw")),
    "distributions.inverse_cdf.calls": ("calls", ("distributions.inverse_cdf",)),
    "distributions.inverse_cdf.elements": ("elements", ("distributions.inverse_cdf",)),
    "distributions.inverse_cdf.busy_s": ("self", ("distributions.inverse_cdf",)),
    "numerics.scan.calls": ("calls", ("numerics.scan",)),
    "numerics.scan.points": ("points", ("numerics.scan",)),
    "numerics.scan.busy_s": ("self", ("numerics.scan",)),
    "numerics.bisect.calls": ("calls", ("numerics.bisect",)),
    "numerics.bisect.busy_s": ("self", ("numerics.bisect",)),
    "numerics.simpson.calls": ("calls", ("numerics.simpson",)),
    "numerics.simpson.panels": ("panels", ("numerics.simpson",)),
    "numerics.simpson.cap_hits": ("cap_hits", ("numerics.simpson",)),
    "numerics.simpson.busy_s": ("self", ("numerics.simpson", "numerics.simpson.pass")),
    "numerics.golden.calls": ("calls", ("numerics.golden",)),
    "numerics.golden.busy_s": ("self", ("numerics.golden",)),
    "equilibrium.threshold_solves": ("calls", ("equilibrium.solve",)),
    "equilibrium.refusals": ("refusals", ("equilibrium.solve",)),
    "equilibrium.busy_s": ("self", ("equilibrium.solve", "equilibrium.lookup",
                                    "equilibrium.bid_values")),
    "provider.payoff_evals": ("calls", ("provider.payoff",)),
    "provider.payoff_busy_s": ("self", ("provider.payoff", "provider.payment")),
    "provider.optimize.calls": ("calls", ("provider.optimize",)),
    "provider.optimize.busy_s": ("self", ("provider.optimize",)),
    "provider.guard_fallbacks": ("guard_fallbacks", ("provider.optimize",)),
    "auction.resolves": ("calls", ("auction.resolve",)),
    "auction.tie_breaks": ("tie_breaks", ("auction.resolve",)),
    "auction.competitions": ("competitions", ("auction.resolve",)),
    "auction.busy_s": ("self", ("auction.resolve", "auction.payoff")),
    "simulation.replications": ("calls", ("simulation.replication",)),
    "simulation.kernel_busy_s": ("self", ("simulation.replication", "simulation.kernel")),
    "simulation.summarize_s": ("total", ("simulation.summarize",)),
    "multi_lte.payoff_evals": ("calls", ("multi_lte.payoff",)),
    "multi_lte.payoff_busy_s": ("self", ("multi_lte.payoff",)),
    "multi_lte.type_pool_s": ("total", ("multi_lte.type_pool",)),
    "multi_lte.optimize_s": ("total", ("multi_lte.optimize",)),
    "multi_lte.guard_fallbacks": ("guard_fallbacks", ("multi_lte.optimize",)),
    "multi_lte.replications": ("calls", ("multi_lte.replication",)),
    "multi_lte.kernel_busy_s": ("self", ("multi_lte.replication", "multi_lte.kernel")),
    "multi_lte.pool_wait_s": ("self", ("multi_lte.experiment",)),
    "oracle.certify_s": ("total", ("oracle.certify",)),
    "oracle.sample_s": ("total", ("oracle.sample",)),
    "oracle.exact_rechecks": ("calls", ("oracle.exact_recheck",)),
    "cli.emit_s": ("total", ("cli.emit",)),
}


def layer_metrics(paths) -> dict:
    """Sum the spans of every file in ``paths`` into the per-layer
    metrics of ``LAYER_METRICS`` plus ``equilibrium.cache_hit_ratio``
    (hits over lookups of the three equilibrium caches)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    extras = defaultdict(lambda: defaultdict(int))
    hits = misses = 0
    for path in paths:
        data = json.loads(Path(path).read_text())
        hits += data["cache_hits"]
        misses += data["cache_misses"]
        for _id, _parent, name, start, end, self_seconds, extra in data["spans"]:
            calls[name] += 1
            self_s[name] += self_seconds
            total_s[name] += end - start
            if extra:
                for key, value in extra.items():
                    extras[name][key] += value
    metrics = {}
    for metric, (agg, names) in LAYER_METRICS.items():
        if agg == "calls":
            metrics[metric] = sum(calls[n] for n in names)
        elif agg == "self":
            metrics[metric] = sum(self_s[n] for n in names)
        elif agg == "total":
            metrics[metric] = sum(total_s[n] for n in names)
        else:
            metrics[metric] = sum(extras[n][agg] for n in names)
    lookups = hits + misses
    metrics["equilibrium.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
