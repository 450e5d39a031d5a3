"""Open-loop traffic engine: arrivals, admission queues, SLO metrics.

The closed-loop harness (``System.run``) issues the next transaction the
instant a core goes idle, so offered load always equals throughput and
queueing delay is identically zero.  This engine breaks that loop: a
seeded arrival process (:mod:`repro.traffic.arrivals`) produces
timestamps independent of the machine's speed, a Zipf-skewed tenant
table (:mod:`repro.traffic.tenancy`) routes each arrival to its home
core and blend component, and a bounded per-core admission queue either
holds the transaction until its core frees up — charging the wait
against its commit latency — or sheds it under overload.

Commit latency here is *arrival → commit-persist* on the simulated
clock, i.e. queueing delay plus the usual simulated execution, which is
what an SLO actually promises a client.  Everything is deterministic
under a fixed seed: same config → bit-identical TrafficResult.
"""

import math
import random
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.designs import make_system
from repro.core.system import CrashInjected, System
from repro.faultinject.plan import CrashAtTxPoint
from repro.traffic.arrivals import ARRIVAL_PROCESSES, make_arrivals
from repro.traffic.tenancy import TenantTable
from repro.workloads.base import WorkloadParams
from repro.workloads.mixture import DEFAULT_BLEND, MixtureWorkload, normalize_blend

DROP_POLICIES = ("shed", "drop-oldest")

# Seed-stream offsets: one independent rng per concern, derived from the
# single user-facing seed with the same multiplier the workloads use.
_SEED_ARRIVALS = 101
_SEED_TENANTS = 202
_SEED_DRAWS = 303


@dataclass(frozen=True)
class TrafficConfig:
    """One open-loop traffic scenario (everything the seed drives)."""

    offered_tx_per_s: float = 200_000.0
    arrivals: int = 400
    process: str = "poisson"
    burst_on_fraction: float = 0.25
    burst_cycle_ns: float = 200_000.0
    n_tenants: int = 16
    zipf_theta: float = 0.9
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_BLEND
    n_threads: int = 4
    queue_capacity: int = 16
    drop_policy: str = "shed"
    seed: int = 42
    # Workload sizing: traffic cells run many (design, load) points, so
    # the per-component structures default smaller than the grid's.
    initial_items: int = 64
    key_space: int = 256

    def validate(self) -> None:
        if self.offered_tx_per_s <= 0:
            raise ValueError("offered_tx_per_s must be positive")
        if self.arrivals < 1:
            raise ValueError("arrivals must be >= 1")
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                "unknown arrival process %r (choose from %s)" % (
                    self.process, ", ".join(ARRIVAL_PROCESSES)))
        if not 0.0 < self.burst_on_fraction < 1.0:
            raise ValueError("burst_on_fraction must be in (0, 1)")
        if self.burst_cycle_ns <= 0:
            raise ValueError("burst_cycle_ns must be positive")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(
                "unknown drop policy %r (choose from %s)" % (
                    self.drop_policy, ", ".join(DROP_POLICIES)))
        normalize_blend(self.mix)

    def workload_params(self) -> WorkloadParams:
        return WorkloadParams(
            initial_items=self.initial_items,
            key_space=self.key_space,
            seed=self.seed,
        )


def traffic_config_to_dict(config: TrafficConfig) -> Dict[str, Any]:
    """JSON-safe dict (canonical: blend normalized, lists not tuples)."""
    data = asdict(config)
    data["mix"] = [[name, weight] for name, weight in normalize_blend(config.mix)]
    return data


def traffic_config_from_dict(data: Dict[str, Any]) -> TrafficConfig:
    """Inverse of :func:`traffic_config_to_dict`."""
    fields = dict(data)
    fields["mix"] = tuple(
        (str(name), float(weight)) for name, weight in fields["mix"])
    return TrafficConfig(**fields)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(math.ceil(fraction * len(ordered))), 1)
    return ordered[rank - 1]


@dataclass(frozen=True)
class TrafficResult:
    """SLO-style outcome of one open-loop run (all times simulated ns)."""

    design: str
    offered_tx_per_s: float
    arrivals: int
    admitted: int
    completed: int
    dropped: int
    crashed: bool
    makespan_ns: float
    last_arrival_ns: float
    mean_latency_ns: float
    p50_latency_ns: float
    p99_latency_ns: float
    p999_latency_ns: float
    max_latency_ns: float
    mean_queue_ns: float
    p50_queue_ns: float
    p99_queue_ns: float
    p999_queue_ns: float
    max_queue_depth: int
    drops_by_core: Tuple[int, ...]
    completions_by_tenant: Tuple[int, ...]
    drops_by_tenant: Tuple[int, ...]
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def goodput_tx_per_s(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.completed / (self.makespan_ns * 1e-9)

    @property
    def drop_rate(self) -> float:
        if self.arrivals <= 0:
            return 0.0
        return self.dropped / self.arrivals

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["drops_by_core"] = list(self.drops_by_core)
        data["completions_by_tenant"] = list(self.completions_by_tenant)
        data["drops_by_tenant"] = list(self.drops_by_tenant)
        data["stats"] = dict(sorted(self.stats.items()))
        return data


def traffic_result_from_dict(data: Dict[str, Any]) -> TrafficResult:
    fields = dict(data)
    fields["drops_by_core"] = tuple(fields["drops_by_core"])
    fields["completions_by_tenant"] = tuple(fields["completions_by_tenant"])
    fields["drops_by_tenant"] = tuple(fields["drops_by_tenant"])
    return TrafficResult(**fields)


def run_traffic_system(
    design: str,
    traffic: TrafficConfig,
    config=None,
    crash_at_arrival: Optional[int] = None,
) -> Tuple[TrafficResult, System]:
    """Drive one open-loop scenario; returns (result, system).

    With ``crash_at_arrival`` set, a :class:`CrashAtTxPoint` plan is
    installed once that many arrivals have come in: the next
    transactional store or commit raises :class:`CrashInjected`,
    execution stops, and the returned system is
    left un-drained so callers can inspect log occupancy and run
    recovery — the crash-under-peak-load composition.
    """
    traffic.validate()
    if config is None:
        from repro.experiments.runner import default_config

        config = default_config()
    system = make_system(design, config)
    mixture = MixtureWorkload(
        params=traffic.workload_params(), blend=traffic.mix)
    system.start_run(
        traffic.n_threads, lambda: mixture.setup(system, traffic.n_threads))

    seed = traffic.seed * 1_000_003
    arrivals = make_arrivals(
        traffic.process,
        traffic.offered_tx_per_s,
        traffic.arrivals,
        random.Random(seed + _SEED_ARRIVALS),
        on_fraction=traffic.burst_on_fraction,
        cycle_ns=traffic.burst_cycle_ns,
    )
    tenants = TenantTable(
        traffic.n_tenants,
        traffic.zipf_theta,
        traffic.n_threads,
        normalize_blend(traffic.mix),
        random.Random(seed + _SEED_TENANTS),
    )
    draw_rng = random.Random(seed + _SEED_DRAWS)

    queues: List[deque] = [deque() for _ in range(traffic.n_threads)]
    latencies: List[float] = []
    queue_delays: List[float] = []
    completions_by_tenant = [0] * traffic.n_tenants
    drops_by_tenant = [0] * traffic.n_tenants
    drops_by_core = [0] * traffic.n_threads
    dropped = 0
    completed = 0
    max_queue_depth = 0
    crashed = False

    def execute(core: int, arrival_ns: float, tenant: int, component: int) -> None:
        nonlocal completed
        body = mixture.component_transaction(component, core)
        start_ns, finish_ns = system.dispatch_transaction(
            core, body, arrival_ns=arrival_ns)
        queue_delays.append(start_ns - arrival_ns)
        latencies.append(finish_ns - arrival_ns)
        completions_by_tenant[tenant] += 1
        completed += 1

    try:
        for index, arrival_ns in enumerate(arrivals):
            if (crash_at_arrival is not None and index >= crash_at_arrival
                    and system.crash_plan is None):
                system.install_crash_plan(CrashAtTxPoint(1))
            tenant = tenants.draw(draw_rng)
            core = tenants.home_core[tenant]
            component = tenants.component[tenant]
            queue = queues[core]
            # The core works through its backlog until the new arrival.
            while queue and system.core_time_ns[core] <= arrival_ns:
                execute(core, *queue.popleft())
            if not queue and system.core_time_ns[core] <= arrival_ns:
                execute(core, arrival_ns, tenant, component)
            elif len(queue) >= traffic.queue_capacity:
                if traffic.drop_policy == "drop-oldest":
                    _, old_tenant, _ = queue.popleft()
                    drops_by_tenant[old_tenant] += 1
                    drops_by_core[core] += 1
                    dropped += 1
                    queue.append((arrival_ns, tenant, component))
                else:  # shed the newcomer
                    drops_by_tenant[tenant] += 1
                    drops_by_core[core] += 1
                    dropped += 1
            else:
                queue.append((arrival_ns, tenant, component))
            max_queue_depth = max(max_queue_depth, len(queue))
        # No more arrivals: drain every backlog to completion.
        for core, queue in enumerate(queues):
            while queue:
                execute(core, *queue.popleft())
    except CrashInjected:
        crashed = True

    admitted = traffic.arrivals - dropped
    measured = system.measured(completed)
    makespan = measured.elapsed_ns if completed else 0.0
    if not crashed:
        # Drain as System.run does, but only on clean completion — a
        # crashed machine must keep its persistence domain exactly as
        # the power cut left it for recovery.
        system.drain(makespan)

    result = TrafficResult(
        design=design,
        offered_tx_per_s=traffic.offered_tx_per_s,
        arrivals=traffic.arrivals,
        admitted=admitted,
        completed=completed,
        dropped=dropped,
        crashed=crashed,
        makespan_ns=makespan,
        last_arrival_ns=arrivals[-1],
        mean_latency_ns=(sum(latencies) / len(latencies)) if latencies else 0.0,
        p50_latency_ns=percentile(latencies, 0.50),
        p99_latency_ns=percentile(latencies, 0.99),
        p999_latency_ns=percentile(latencies, 0.999),
        max_latency_ns=max(latencies) if latencies else 0.0,
        mean_queue_ns=(sum(queue_delays) / len(queue_delays)) if queue_delays else 0.0,
        p50_queue_ns=percentile(queue_delays, 0.50),
        p99_queue_ns=percentile(queue_delays, 0.99),
        p999_queue_ns=percentile(queue_delays, 0.999),
        max_queue_depth=max_queue_depth,
        drops_by_core=tuple(drops_by_core),
        completions_by_tenant=tuple(completions_by_tenant),
        drops_by_tenant=tuple(drops_by_tenant),
        stats=measured.stats,
    )
    return result, system


def run_traffic(
    design: str,
    traffic: TrafficConfig,
    config=None,
    crash_at_arrival: Optional[int] = None,
) -> TrafficResult:
    """Like :func:`run_traffic_system`, without keeping the machine."""
    result, _system = run_traffic_system(
        design, traffic, config=config, crash_at_arrival=crash_at_arrival)
    return result
