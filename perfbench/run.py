"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload direct-macro --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``
(measured with tracing off); ``--trace 1`` runs the workload again under
span shims and prints every per-layer metric instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, provenance and
per-design simulated values are written to ``.perfbench_out/``.

The simulator is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def overhead(ratios, seed: int):
    """Median traced/plain host-time ratio with a 95% bootstrap CI."""
    import numpy as np
    from scipy.stats import bootstrap

    data = np.asarray(ratios, dtype=float)
    mid = float(np.median(data))
    if data.size < 2:
        return mid, mid, mid
    ci = bootstrap(
        (data,), np.median, n_resamples=2000, confidence_level=0.95,
        method="percentile", batch=100, random_state=np.random.default_rng(seed),
    ).confidence_interval
    return mid, float(ci.low), float(ci.high)


def end_to_end(outcome):
    """Host metrics from each item's median repeat; simulated ones exact."""
    return dict(outcome.sim, **outcome.host_metrics(), peak_rss_mb=peak_rss_mb())


def per_layer(outcome, names, seed, percentile):
    # A layer this workload does not exercise reads 0.
    values = dict.fromkeys(names, 0.0)
    values.update(outcome.span_layers())
    values.update(outcome.layers)
    values.update(outcome.sim)
    # Every scaled repeat of the plain (untraced) copies.
    values["core.tx_host_ms_p99"] = percentile(
        [s for times in outcome.tx.values() for s in times], 0.99) * 1e3
    ratio, low, high = overhead(outcome.overhead_pairs, seed)
    values.update({"trace.overhead_ratio": ratio, "trace.overhead_ci_lo": low,
                   "trace.overhead_ci_hi": high})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: simulator sources not found under %s" % src,
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    import numpy

    from perfbench.workloads import REFERENCE_NOMINAL_S, WHY, WORKLOADS, percentile

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    traced = bool(args.trace)
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, traced, OUT_DIR)
    if traced:
        values = per_layer(
            outcome, [m["name"] for m in wanted], args.seed, percentile)
    else:
        values = end_to_end(outcome)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    # p50/p90 rank each transaction's median; the p99 pools every repeat.
    samples = sum(len(times) for times in outcome.tx.values())
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    provenance = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "rounds": outcome.n_rounds,
        "reference_loop_s": {
            "readings": len(outcome.reference_s),
            "min": min(outcome.reference_s),
            "median": median(outcome.reference_s),
            "max": max(outcome.reference_s),
            "nominal": REFERENCE_NOMINAL_S,
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "tx_per_round": len(outcome.tx),
        "tx_host_samples": samples,
        "tx_host_samples_beyond_p99": samples - math.ceil(0.99 * samples),
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:50],
        "simulated_per_design": outcome.attachments,
        "workload_layers": outcome.layers,
        "spans": outcome.tracer.as_dict() if traced else {},
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as handle:
        json.dump(provenance, handle, indent=1, sort_keys=True)

    for problem in outcome.problems[:20]:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    print("%s  seed=%d  %s" % (args.workload, args.seed, WHY[args.workload]))
    print("rounds: %d; transactions per round: %d; host-time samples: %d "
          "(%d beyond p99); host times scaled by %.3f (median)"
          % (outcome.n_rounds, len(outcome.tx), samples,
             provenance["tx_host_samples_beyond_p99"],
             REFERENCE_NOMINAL_S / median(outcome.reference_s)))
    for name, metric in metrics.items():
        print("  %-30s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
