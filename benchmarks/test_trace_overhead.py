"""Acceptance: disabled tracing costs <= 2 % wall time.

A ``TraceConfig(enabled=False)`` produces no bus, so every emission site
reduces to a single ``if self.tracer is not None`` guard — the same guard
a traceless system evaluates.  This benchmark pins that contract.  The
variants run interleaved, round after round, so drift (thermal,
scheduler) hits all of them alike, and each round gives one paired
disabled/traceless ratio.  The gate is the upper bound of a 95 %
bootstrap confidence interval of the median paired ratio: an estimate
that can fail, where the minimum paired ratio is biased low (it once
recorded a -66 % "overhead").  For context it also reports the cost of
*enabled* tracing, which is allowed to be expensive.
"""

import os
import time

import numpy as np
from scipy.stats import bootstrap

from benchmarks.bench_util import emit
from repro.analysis.report import format_table
from repro.bench import INFO, record
from repro.core.designs import make_system
from repro.trace import TraceConfig
from repro.workloads.base import WorkloadParams, make_workload

#: Each run takes about 60 ms, so one paired ratio is noisy.  At 15
#: rounds the CI's upper bound read 2.5-4.3% around medians of -0.8 to
#: 0.0% (2-vCPU Xeon, Python 3.11.7): too wide to decide against 2%.
#: At 60 it read 0.4-1.4%.
ROUNDS = 60
TRANSACTIONS = 200
THREADS = 2
#: The acceptance bar.  ``TRACE_OVERHEAD_MAX`` relaxes it for CI, where
#: shared-runner scheduling makes even paired wall-clock ratios noisy;
#: the 2 % bar applies to local runs (the default).
MAX_DISABLED_OVERHEAD = float(os.environ.get("TRACE_OVERHEAD_MAX", "0.02"))
#: Seed of the bootstrap's resampling, so a run's CI is reproducible
#: from its recorded ratios.
BOOTSTRAP_SEED = 2020


def _run(trace):
    system = make_system("MorLog-SLDE", trace=trace)
    workload = make_workload(
        "hash", WorkloadParams(initial_items=64, key_space=128, seed=7)
    )
    start = time.perf_counter()
    result = system.run(workload, TRANSACTIONS, THREADS)
    elapsed = time.perf_counter() - start
    return elapsed, result


def median_ratio_ci(ratios):
    """Median of ``ratios`` with a 95 % percentile-bootstrap CI."""
    data = np.asarray(ratios, dtype=float)
    ci = bootstrap(
        (data,), np.median, n_resamples=2000, confidence_level=0.95,
        method="percentile", random_state=np.random.default_rng(BOOTSTRAP_SEED),
    ).confidence_interval
    return float(np.median(data)), float(ci.low), float(ci.high)


def test_disabled_tracing_overhead(benchmark):
    variants = {
        "traceless": None,
        "disabled": TraceConfig(enabled=False),
        "enabled": TraceConfig(enabled=True),
    }
    times = {name: [] for name in variants}
    stats = {}

    def measure():
        # One unrecorded warmup round charges module import and
        # allocator growth to nobody.
        for trace in variants.values():
            _run(trace)
        for _ in range(ROUNDS):
            for name, trace in variants.items():
                elapsed, result = _run(trace)
                times[name].append(elapsed)
                stats[name] = result.stats
        return {name: float(np.median(samples)) for name, samples in times.items()}

    median_s = benchmark.pedantic(measure, rounds=1, iterations=1)

    def paired(name):
        """(median, CI low, CI high) of the per-round ratio to traceless."""
        return median_ratio_ci(
            [t / base for t, base in zip(times[name], times["traceless"])]
        )

    disabled = paired("disabled")
    enabled = paired("enabled")

    def overhead_record(metric, ratios):
        mid, low, high = ratios
        return record(
            "trace_overhead",
            metric,
            100.0 * (mid - 1.0),
            unit="percent",
            direction=INFO,  # wall clock: host-dependent, never gates
            attachments={
                "rounds": ROUNDS,
                "statistic": "median paired ratio to traceless",
                "ci95_low_percent": 100.0 * (low - 1.0),
                "ci95_high_percent": 100.0 * (high - 1.0),
            },
        )

    emit(
        "trace_overhead",
        format_table(
            ["variant", "median of %d (s)" % ROUNDS, "overhead (%)",
             "95% CI low (%)", "95% CI high (%)"],
            [["traceless", median_s["traceless"], 0.0, 0.0, 0.0]] + [
                [name, median_s[name]] + [100.0 * (r - 1.0) for r in ratios]
                for name, ratios in (("disabled", disabled), ("enabled", enabled))
            ],
            "Tracing overhead (median paired ratio over %d rounds, bootstrap "
            "CI), MorLog-SLDE hash x%d tx" % (ROUNDS, TRANSACTIONS),
            float_format="%.4f",
        ),
        records=[
            overhead_record("disabled_overhead_percent", disabled),
            overhead_record("enabled_overhead_percent", enabled),
        ],
    )

    # Observation must also be inert here, not just cheap.
    assert stats["disabled"] == stats["traceless"]
    assert stats["enabled"] == stats["traceless"]
    ci_high = disabled[2] - 1.0
    assert ci_high <= MAX_DISABLED_OVERHEAD, (
        "disabled tracing costs up to %.2f%% (95%% CI upper bound of the "
        "median paired ratio; budget %.0f%%)"
        % (100.0 * ci_high, 100.0 * MAX_DISABLED_OVERHEAD)
    )
