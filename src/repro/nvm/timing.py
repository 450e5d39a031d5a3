"""Channel/bank occupancy and the FRFCFS-WQF write-queue model.

The paper's memory controller is FRFCFS-WQF with a 64-entry write queue and
an 80 % drain watermark (Table III).  We approximate it:

- Addresses interleave across channels, then banks, at cache-line
  granularity.
- Each bank has a ``busy_until`` time; a request begins service at
  ``max(arrival, busy_until)`` and occupies the bank for its latency.
- Writes are *posted*: the producer only waits until the write is accepted
  into the channel's write queue (full queue => stall).  Acceptance is the
  ADR persistence point (section III-A): once in the controller the data
  survive power loss.
- Reads contend with in-flight writes through bank occupancy; while the
  queue is above the drain watermark, reads additionally wait for the
  queue to drain back to the watermark (the WQF "write drain" phase).
"""

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.common.config import NVMConfig
from repro.common.frozen import slot_init
from repro.common.stats import StatGroup


@slot_init()
@dataclass(frozen=True, slots=True)
class WriteSchedule:
    """Outcome of posting one write."""

    accept_ns: float   # when the write entered the queue (persistence point)
    finish_ns: float   # when the cells finished programming
    stall_ns: float    # how long the producer waited for queue space


class WriteQueue:
    """One channel's bounded write queue."""

    def __init__(self, capacity: int, watermark: float) -> None:
        if capacity <= 0:
            raise ValueError("write queue needs at least one entry")
        self.capacity = capacity
        self.watermark_entries = max(1, int(capacity * watermark))
        self._service_ends: Deque[float] = deque()

    def _prune(self, now_ns: float) -> None:
        while self._service_ends and self._service_ends[0] <= now_ns:
            self._service_ends.popleft()

    def occupancy(self, now_ns: float) -> int:
        self._prune(now_ns)
        return len(self._service_ends)

    def accept_time(self, now_ns: float) -> float:
        """Earliest time a new write can enter the queue."""
        self._prune(now_ns)
        if len(self._service_ends) < self.capacity:
            return now_ns
        # Wait for the oldest in-flight write to finish.
        overflow = len(self._service_ends) - self.capacity + 1
        return self._service_ends[overflow - 1]

    def drain_time_to_watermark(self, now_ns: float) -> float:
        """Time at which occupancy falls back to the watermark."""
        self._prune(now_ns)
        excess = len(self._service_ends) - self.watermark_entries
        if excess <= 0:
            return now_ns
        return self._service_ends[excess - 1]

    def push(self, service_end_ns: float) -> None:
        # Service ends are monotone per channel because banks serialize,
        # but cross-bank writes may complete out of order; keep sorted so
        # drain queries stay correct.
        ends = self._service_ends
        if ends and service_end_ns < ends[-1]:
            insort(ends, service_end_ns)
        else:
            ends.append(service_end_ns)


class BankTiming:
    """Per-bank occupancy plus per-channel write queues."""

    def __init__(self, config: NVMConfig, stats: StatGroup, line_bytes: int = 64) -> None:
        self._config = config
        self._line_bytes = line_bytes
        self._channels = config.channels
        self._banks = config.banks * config.ranks
        self._overhead_ns = config.access_overhead_ns
        self._busy_until: Dict[Tuple[int, int], float] = {}
        self._queues: List[WriteQueue] = [
            WriteQueue(config.write_queue_entries, config.drain_watermark)
            for _ in range(config.channels)
        ]
        self.stats = stats

    def location(self, addr: int) -> Tuple[int, int]:
        """Map an address to (channel, bank) by line interleaving."""
        line = addr // self._line_bytes
        return line % self._channels, (line // self._channels) % self._banks

    def read(self, addr: int, now_ns: float) -> float:
        """Schedule a read; returns its completion time."""
        channel, bank = self.location(addr)
        queue = self._queues[channel]
        start = now_ns
        if queue.occupancy(now_ns) > queue.watermark_entries:
            # Write-drain phase: reads wait for the queue to fall back.
            drain = queue.drain_time_to_watermark(now_ns)
            if drain > start:
                self.stats.add("read_drain_stall_ns", drain - start)
                start = drain
        duration = self._config.read_latency_ns + self._overhead_ns
        end = max(start, self._busy_until.get((channel, bank), 0.0)) + duration
        self._busy_until[(channel, bank)] = end
        self.stats.add("reads")
        return end

    def write(self, addr: int, now_ns: float, latency_ns: float) -> WriteSchedule:
        """Post a write; the producer resumes at ``accept_ns``.

        :meth:`location` and :meth:`WriteQueue.accept_time` inlined, with
        the same arithmetic; a bank serves requests back to back.
        """
        line = addr // self._line_bytes
        channels = self._channels
        channel = line % channels
        key = (channel, (line // channels) % self._banks)
        queue = self._queues[channel]
        ends = queue._service_ends
        while ends and ends[0] <= now_ns:
            ends.popleft()
        overflow = len(ends) - queue.capacity
        # A full queue: wait for the oldest in-flight write to finish.
        accept = now_ns if overflow < 0 else ends[overflow]
        stall = accept - now_ns
        if stall > 0:
            self.stats.add("write_queue_stall_ns", stall)
        busy = self._busy_until
        end = max(accept, busy.get(key, 0.0)) + (latency_ns + self._overhead_ns)
        busy[key] = end
        queue.push(end)
        self.stats.add("writes")
        return WriteSchedule(accept, end, stall)

    def reset(self) -> None:
        self._busy_until.clear()
        for queue in self._queues:
            queue._service_ends.clear()
