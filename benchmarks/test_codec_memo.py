"""Acceptance: codec memoization gives >= 1.5x on the Fig-13 encoding path.

Figure 13 of the paper is NVMM write traffic; in the simulator every bit
of that traffic funnels through the SLDE size comparator (alternative
codec + DLDC pattern search per log word).  Workload word values repeat
heavily, so the memo layer should turn most encodes into LRU hits.  The
memo cannot be switched off, so the "memo-off" arm runs the same
``SldeCodec`` with ``clear_memos()`` before every word: every decision
is computed.  This benchmark pins the speedup with the same interleaved
paired-min methodology as ``test_trace_overhead.py`` — per-round ratios
cancel interference that a ratio of global minima cannot — and, while
it is at it, re-checks that both arms produce bit-identical encodings.

``CODEC_MEMO_BENCH_SCALE`` (a float) shrinks the stream for smoke runs
in CI, and ``CODEC_MEMO_MIN_SPEEDUP`` lowers the pass threshold there —
shared runners are noisy and the reduced stream amortizes warmup misses
less, so a wall-clock assertion at the full 1.5x bar would flake.  The
acceptance bar itself is unchanged: run unscaled (the default) to check
it.
"""

import os
import random
import time

from benchmarks.bench_util import emit
from repro.analysis.report import format_table
from repro.bench import INFO, record
from repro.common.bitops import dirty_byte_mask
from repro.encoding import LogWriteContext, SldeCodec

ROUNDS = 5
BASE_PAIRS = 6000
#: Distinct (old, new) value pairs in the stream; real workloads (SPS
#: swaps, B-tree keys) cluster similarly.
POOL_SIZE = 96
#: The acceptance bar; CI overrides it downward because shared-runner
#: timing at reduced scale is noisy (see module docstring).
MIN_SPEEDUP = float(os.environ.get("CODEC_MEMO_MIN_SPEEDUP", "1.5"))


def _scale() -> float:
    return float(os.environ.get("CODEC_MEMO_BENCH_SCALE", "1.0"))


def make_stream(seed=1234, n_pairs=None):
    """A log-word stream shaped like Fig-13 traffic: repetitious, sparse
    diffs, with an occasional fresh value (a cold miss)."""
    rng = random.Random(seed)
    if n_pairs is None:
        n_pairs = max(int(BASE_PAIRS * _scale()), 200)
    pool = []
    for _ in range(POOL_SIZE):
        base = rng.getrandbits(64)
        flip = rng.getrandbits(8) << (8 * rng.randrange(8))
        pool.append((base, base ^ flip))
    stream = []
    for i in range(n_pairs):
        if rng.random() < 0.95:
            old, new = pool[rng.randrange(POOL_SIZE)]
        else:
            old = rng.getrandbits(64)
            new = old ^ (rng.getrandbits(16) << (8 * rng.randrange(7)))
        stream.append((old, new, dirty_byte_mask(old, new), i % 3 == 0))
    return stream


def encode_stream(codec, stream, clear=False):
    """Run the stream through the codec: pairs plus single log words.

    With ``clear`` the codec's memos are emptied before every word (or
    pair), so each of its decisions is computed, not recalled.
    """
    out = []
    for old, new, mask, as_pair in stream:
        if clear:
            codec.clear_memos()
        if as_pair:
            out.append(codec.encode_undo_redo_pair(old, new, mask))
        else:
            ctx = LogWriteContext(old_word=old, dirty_mask=mask)
            out.append(codec.encode_log(new, ctx))
    return out


#: Arm name -> whether it clears the memos before every word.  Each
#: round builds a fresh codec, so the memo-on arm pays its cold misses
#: inside the measurement.
VARIANTS = {"memo-off": True, "memo-on": False}


def test_memoized_encoding_speedup(benchmark):
    stream = make_stream()
    times = {name: [] for name in VARIANTS}
    outputs = {}

    def measure():
        for clear in VARIANTS.values():  # unrecorded warmup round
            encode_stream(SldeCodec(), stream, clear)
        for _ in range(ROUNDS):
            for name, clear in VARIANTS.items():
                codec = SldeCodec()
                start = time.perf_counter()
                out = encode_stream(codec, stream, clear)
                times[name].append(time.perf_counter() - start)
                outputs[name] = out
        return {name: min(samples) for name, samples in times.items()}

    best = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Memoization must be invisible in the results...
    assert outputs["memo-on"] == outputs["memo-off"]

    # ...and visible in the wall clock.  Judge by the *worst* paired
    # round: even with maximal interference against the memoized variant
    # the speedup must clear the bar.
    paired = [
        off / on for off, on in zip(times["memo-off"], times["memo-on"])
    ]
    speedup = min(paired)

    # One more memoized pass over the stream to capture the steady-state
    # hit/miss picture the timing rounds ran under (wall-clock speedups
    # are host-dependent, so the record is informational; the assertion
    # below still enforces the bar in-run).
    stats_codec = SldeCodec()
    encode_stream(stats_codec, stream)
    emit(
        "codec_memo_speedup",
        format_table(
            ["variant", "best of %d (s)" % ROUNDS, "speedup (x)"],
            [
                ["memo-off", best["memo-off"], 1.0],
                ["memo-on", best["memo-on"], speedup],
            ],
            "SLDE encoding speedup (worst paired round of %d), "
            "%d log words" % (ROUNDS, len(stream)),
            float_format="%.4f",
        ),
        records=[
            record(
                "codec_memo_speedup",
                "paired_min_speedup",
                speedup,
                unit="x",
                direction=INFO,  # wall clock: host-dependent, never gates
                attachments={"memo": stats_codec.memo_stats()},
            ),
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        "memoized encoding is only %.2fx faster (need %.1fx)"
        % (speedup, MIN_SPEEDUP)
    )
