#!/usr/bin/env python3
"""Record a workload's store stream and reproduce the paper's motivation stats.

Records one cell of the baseline design, saves the trace to disk, loads
it back, and prints the Figure 3 / Figure 5 / Table II statistics for
that exact store stream: the PIN-style workflow of the paper's sections
II-B and II-C.  The loaded trace then replays on MorLog-SLDE, which
scores the same stream on the paper's design.

Run with:  python examples/trace_analysis.py [workload]
"""

import os
import sys
import tempfile

from repro.analysis.motivation import motivation_stats
from repro.analysis.report import format_table
from repro.core import make_system
from repro.experiments.runner import default_config
from repro.replay import load_trace, record_trace, replay_trace, save_trace
from repro.workloads.base import WorkloadParams


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "redis"
    params = WorkloadParams(initial_items=256, key_space=512)
    config = default_config()

    # 1. Record and save.
    trace, recorded, _system = record_trace(
        "FWB-CRADE", workload_name, config=config, params=params,
        n_transactions=150, n_threads=2,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "%s.mltr" % workload_name)
        digest = save_trace(path, trace)
        print("recorded %d ops in %d transactions from %s (digest %s...)"
              % (trace.n_ops, trace.n_transactions, workload_name, digest[:12]))

        # 2. Load, and read the paper's motivation numbers off the stream.
        trace = load_trace(path)
    stats = motivation_stats(trace, config.nvmm_base)
    print(format_table(
        ["bucket", "% of writes"],
        [[k, 100 * v] for k, v in stats.write_distance.items()],
        "Write distance (Figure 3 analysis)",
        float_format="%.1f",
    ))
    print()
    print("clean bytes (Figure 5): %.1f%%" % (100 * stats.clean_byte_fraction))
    print("stores rewriting a word already written in the same tx: %.1f%%"
          % (100 * stats.rewrite_fraction))
    print()
    print(format_table(
        ["DLDC pattern", "% of dirty stores"],
        [[k, 100 * v] for k, v in stats.pattern_fractions.items()],
        "Table II analysis",
        float_format="%.1f",
    ))

    # 3. The same stream, replayed on the paper's design.
    replayed = replay_trace(make_system("MorLog-SLDE", config), trace)
    print()
    print("throughput: FWB-CRADE (recorded) %.0f tx/s, MorLog-SLDE (replayed) "
          "%.0f tx/s" % (recorded.throughput_tx_per_s,
                         replayed.throughput_tx_per_s))


if __name__ == "__main__":
    main()
