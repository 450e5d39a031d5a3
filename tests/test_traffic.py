"""Tests for the open-loop traffic layer (``repro.traffic``).

Covers the arrival processes, the workload mixture, the dispatch seam
in :class:`~repro.core.system.System`, the admission-queue engine
(determinism, conservation, drop policies), tail-latency behaviour
under overload, knee detection, the cached/parallel sweep, and the
crash-under-load composition with the fault injector.

Engine tests use a single-component ``hash`` blend (the cheapest
transaction body, ~0.5 us simulated) so open-loop scenarios stay fast;
the real 70/20/10 blend is exercised once end-to-end.
"""

import json
import random

import pytest

from repro.bench.records import BenchRecord
from repro.core.designs import make_system
from repro.experiments.cache import PayloadCache
from repro.traffic import (
    TrafficConfig,
    TrafficResult,
    bursty_arrivals,
    find_knee,
    make_arrivals,
    percentile,
    poisson_arrivals,
    resolve_traffic_cell,
    run_crash_under_load,
    run_load_sweep,
    run_traffic,
    run_traffic_system,
    sweep_records,
    traffic_config_from_dict,
    traffic_config_to_dict,
    traffic_result_from_dict,
)
from repro.workloads.base import WorkloadParams, make_workload
from repro.workloads.mixture import (
    MixtureWorkload,
    blend_slug,
    normalize_blend,
    parse_blend,
)
from tests.conftest import tiny_config

#: Cheap single-component blend for engine tests.
HASH_MIX = (("hash", 1.0),)


def fast_traffic(**overrides):
    """A small, fast scenario; override fields per test."""
    base = dict(
        offered_tx_per_s=400_000.0,
        arrivals=120,
        n_tenants=8,
        n_threads=2,
        queue_capacity=4,
        mix=HASH_MIX,
        initial_items=32,
        key_space=64,
        seed=7,
    )
    base.update(overrides)
    return TrafficConfig(**base)


class TestArrivals:
    def test_poisson_deterministic_and_monotone(self):
        a = poisson_arrivals(1e-3, 200, random.Random(11))
        b = poisson_arrivals(1e-3, 200, random.Random(11))
        assert a == b
        assert all(later > earlier for earlier, later in zip(a, a[1:]))
        assert a[0] > 0

    def test_poisson_mean_rate(self):
        rate = 2e-3  # tx/ns
        a = poisson_arrivals(rate, 4000, random.Random(3))
        empirical = len(a) / a[-1]
        assert empirical == pytest.approx(rate, rel=0.1)

    def test_bursty_long_run_rate_matches_offered(self):
        rate = 1e-3
        a = bursty_arrivals(rate, 4000, random.Random(5),
                            on_fraction=0.25, cycle_ns=50_000.0)
        empirical = len(a) / a[-1]
        assert empirical == pytest.approx(rate, rel=0.25)
        assert all(later > earlier for earlier, later in zip(a, a[1:]))

    def test_bursty_is_burstier_than_poisson(self):
        # Squared coefficient of variation of inter-arrivals: 1 for
        # Poisson, > 1 for the on/off MMPP.
        def cv2(times):
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / (mean * mean)

        p = poisson_arrivals(1e-3, 4000, random.Random(9))
        b = bursty_arrivals(1e-3, 4000, random.Random(9),
                            on_fraction=0.2, cycle_ns=100_000.0)
        assert cv2(b) > 1.5 * cv2(p)

    def test_make_arrivals_rejects_unknown_process(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrivals("uniform", 1e5, 10, random.Random(1))

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10, random.Random(1))
        with pytest.raises(ValueError):
            bursty_arrivals(-1.0, 10, random.Random(1))


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 0.999) == 100
        assert percentile(values, 1.0) == 100
        assert percentile([], 0.5) == 0.0
        assert percentile([42.0], 0.999) == 42.0


class TestBlend:
    def test_normalize_scales_to_one(self):
        blend = normalize_blend((("ycsb", 7), ("tpcc", 2), ("echo", 1)))
        assert sum(w for _, w in blend) == pytest.approx(1.0)
        assert blend[0] == ("ycsb", pytest.approx(0.7))

    def test_normalize_rejects_bad_blends(self):
        with pytest.raises(ValueError, match="at least one"):
            normalize_blend(())
        with pytest.raises(ValueError, match="nest"):
            normalize_blend((("mix", 1.0),))
        with pytest.raises(ValueError, match="positive"):
            normalize_blend((("ycsb", 0.0),))

    def test_parse_blend(self):
        blend = parse_blend("ycsb:0.7, tpcc:0.2, echo:0.1")
        assert [name for name, _ in blend] == ["ycsb", "tpcc", "echo"]
        with pytest.raises(ValueError, match="name:weight"):
            parse_blend("ycsb=1")
        with pytest.raises(ValueError, match="not a number"):
            parse_blend("ycsb:heavy")

    def test_blend_slug(self):
        assert blend_slug(normalize_blend(
            (("ycsb", 0.7), ("tpcc", 0.2), ("echo", 0.1)))
        ) == "ycsb70+tpcc20+echo10"

    def test_mixture_runs_closed_loop(self):
        # "mix" drops into System.run unchanged (registered workload).
        system = make_system("MorLog-SLDE", tiny_config())
        workload = make_workload(
            "mix", WorkloadParams(initial_items=16, key_space=64))
        assert isinstance(workload, MixtureWorkload)
        result = system.run(workload, 30, n_threads=2)
        assert result.transactions == 30

    def test_mixture_slices_heap_disjointly(self):
        system = make_system("MorLog-SLDE", tiny_config())
        workload = MixtureWorkload(
            WorkloadParams(initial_items=16, key_space=64))
        workload.setup(system, 2)
        # Each component draws one distinct seed.
        seeds = [c.params.seed for c in workload.components]
        assert len(set(seeds)) == len(seeds)

    def test_component_draw_follows_weights(self):
        workload = MixtureWorkload(
            WorkloadParams(initial_items=16, key_space=64),
            blend=(("hash", 0.9), ("queue", 0.1)))
        rng = random.Random(17)
        draws = [workload.component_index(rng) for _ in range(2000)]
        share = draws.count(0) / len(draws)
        assert share == pytest.approx(0.9, abs=0.05)


class TestDispatchSeam:
    def _system(self):
        system = make_system("MorLog-SLDE", tiny_config())
        workload = make_workload(
            "hash", WorkloadParams(initial_items=16, key_space=64))
        system.start_run(2, lambda: workload.setup(system, 2))
        return system, workload

    def test_idle_core_starts_at_arrival(self):
        system, workload = self._system()
        arrival = system.core_time_ns[0] + 5_000.0
        start, finish = system.dispatch_transaction(
            0, workload.transaction(0), arrival_ns=arrival)
        assert start == arrival
        assert finish > start

    def test_busy_core_queues_the_arrival(self):
        system, workload = self._system()
        system.dispatch_transaction(
            0, workload.transaction(0), arrival_ns=0.0)
        busy_until = system.core_time_ns[0]
        # Arrival in the past: starts when the core frees up, and the
        # difference is exactly the queueing delay the engine charges.
        start, _finish = system.dispatch_transaction(
            0, workload.transaction(0), arrival_ns=busy_until / 2)
        assert start == busy_until
        assert start - busy_until / 2 > 0


class TestEngineDeterminism:
    def test_same_seed_bit_identical(self):
        traffic = fast_traffic()
        a = run_traffic("MorLog-SLDE", traffic, config=tiny_config())
        b = run_traffic("MorLog-SLDE", traffic, config=tiny_config())
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_the_run(self):
        a = run_traffic("MorLog-SLDE", fast_traffic(), config=tiny_config())
        b = run_traffic("MorLog-SLDE", fast_traffic(seed=8),
                        config=tiny_config())
        assert a.to_dict() != b.to_dict()

    def test_result_round_trips(self):
        result = run_traffic("MorLog-SLDE", fast_traffic(),
                             config=tiny_config())
        data = json.loads(json.dumps(result.to_dict()))
        assert traffic_result_from_dict(data) == result

    def test_config_round_trips(self):
        traffic = fast_traffic(process="bursty", drop_policy="drop-oldest")
        data = json.loads(json.dumps(traffic_config_to_dict(traffic)))
        restored = traffic_config_from_dict(data)
        assert traffic_config_to_dict(restored) == traffic_config_to_dict(traffic)


class TestEngineAccounting:
    def test_conservation_across_loads(self):
        for load in (50_000.0, 400_000.0, 3_200_000.0):
            traffic = fast_traffic(offered_tx_per_s=load)
            result = run_traffic("MorLog-SLDE", traffic, config=tiny_config())
            assert result.arrivals == traffic.arrivals
            assert result.completed + result.dropped == result.arrivals
            assert result.admitted == result.completed
            assert sum(result.drops_by_core) == result.dropped
            assert sum(result.drops_by_tenant) == result.dropped
            assert sum(result.completions_by_tenant) == result.completed
            assert result.max_queue_depth <= traffic.queue_capacity

    def test_light_load_sees_no_queueing(self):
        result = run_traffic(
            "MorLog-SLDE", fast_traffic(offered_tx_per_s=10_000.0),
            config=tiny_config())
        assert result.dropped == 0
        assert result.p99_queue_ns == 0.0
        assert result.p50_latency_ns > 0

    def test_overload_fills_queues_and_drops(self):
        result = run_traffic(
            "MorLog-SLDE", fast_traffic(offered_tx_per_s=20_000_000.0),
            config=tiny_config())
        assert result.dropped > 0
        assert result.max_queue_depth == 4  # hit the configured bound
        assert result.p99_queue_ns > 0

    def test_drop_policies_differ_in_who_they_drop(self):
        shed = run_traffic(
            "MorLog-SLDE",
            fast_traffic(offered_tx_per_s=20_000_000.0, drop_policy="shed"),
            config=tiny_config())
        oldest = run_traffic(
            "MorLog-SLDE",
            fast_traffic(offered_tx_per_s=20_000_000.0,
                         drop_policy="drop-oldest"),
            config=tiny_config())
        assert shed.dropped > 0 and oldest.dropped > 0
        # Same arrivals, same capacity — same drop *count*, different
        # victims, so the completed-transaction mix differs.
        assert shed.dropped == oldest.dropped
        assert shed.completions_by_tenant != oldest.completions_by_tenant

    def test_bursty_queues_deeper_than_poisson_at_same_rate(self):
        poisson = run_traffic(
            "MorLog-SLDE",
            fast_traffic(offered_tx_per_s=800_000.0, queue_capacity=64),
            config=tiny_config())
        bursty = run_traffic(
            "MorLog-SLDE",
            fast_traffic(offered_tx_per_s=800_000.0, queue_capacity=64,
                         process="bursty", burst_on_fraction=0.2,
                         burst_cycle_ns=100_000.0),
            config=tiny_config())
        assert bursty.max_queue_depth > poisson.max_queue_depth

    def test_validate_rejects_bad_scenarios(self):
        for bad in (
            dict(offered_tx_per_s=0.0),
            dict(arrivals=0),
            dict(process="uniform"),
            dict(burst_on_fraction=1.0),
            dict(n_tenants=0),
            dict(n_threads=0),
            dict(queue_capacity=0),
            dict(drop_policy="random"),
            dict(mix=()),
        ):
            with pytest.raises(ValueError):
                fast_traffic(**bad).validate()

    def test_more_threads_than_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            run_traffic("MorLog-SLDE", fast_traffic(n_threads=16),
                        config=tiny_config())


class TestTailLatency:
    def test_p99_diverges_before_goodput_collapses(self):
        """The SLO story: tail latency blows up while goodput still holds.

        At ~2x saturation the queues are persistently deep, so p99 commit
        latency (arrival → persist) has grown several-fold over the
        lightly loaded point, yet the machine is still completing work at
        (near) its service capacity — goodput has not fallen with it.
        """
        light = run_traffic(
            "MorLog-SLDE", fast_traffic(offered_tx_per_s=100_000.0,
                                        queue_capacity=32),
            config=tiny_config())
        heavy = run_traffic(
            "MorLog-SLDE", fast_traffic(offered_tx_per_s=20_000_000.0,
                                        queue_capacity=32),
            config=tiny_config())
        assert heavy.p99_latency_ns >= 3.0 * light.p99_latency_ns
        assert heavy.goodput_tx_per_s >= light.goodput_tx_per_s


def synthetic_point(offered, p99_ns, goodput):
    """A TrafficResult with just the fields knee detection reads."""
    makespan_ns = 1e9
    completed = int(goodput)  # completed / 1 s
    return TrafficResult(
        design="synthetic", offered_tx_per_s=offered, arrivals=completed,
        admitted=completed, completed=completed, dropped=0, crashed=False,
        makespan_ns=makespan_ns, last_arrival_ns=makespan_ns,
        mean_latency_ns=p99_ns / 2, p50_latency_ns=p99_ns / 2,
        p99_latency_ns=p99_ns, p999_latency_ns=p99_ns * 2,
        max_latency_ns=p99_ns * 3, mean_queue_ns=0.0, p50_queue_ns=0.0,
        p99_queue_ns=0.0, p999_queue_ns=0.0, max_queue_depth=0,
        drops_by_core=(), completions_by_tenant=(), drops_by_tenant=())


class TestFindKnee:
    def test_detects_the_decoupling_point(self):
        points = [
            synthetic_point(1e5, 1_000.0, 1e5),   # light: follows load
            synthetic_point(4e5, 1_500.0, 4e5),   # still linear
            synthetic_point(1.6e6, 9_000.0, 4.5e5),  # p99 9x, goodput flat
        ]
        assert find_knee(points) == pytest.approx(1.6e6)

    def test_no_knee_when_goodput_keeps_scaling(self):
        points = [
            synthetic_point(1e5, 1_000.0, 1e5),
            synthetic_point(4e5, 4_000.0, 4e5),  # p99 up, but goodput 4x too
        ]
        assert find_knee(points) is None

    def test_no_knee_when_latency_stays_flat(self):
        points = [
            synthetic_point(1e5, 1_000.0, 1e5),
            synthetic_point(4e5, 1_100.0, 1e5),  # goodput flat, p99 fine
        ]
        assert find_knee(points) is None

    def test_needs_two_points(self):
        assert find_knee([synthetic_point(1e5, 1_000.0, 1e5)]) is None
        assert find_knee([]) is None


class TestSweep:
    LOADS = (100_000.0, 4_000_000.0)

    def test_serial_and_parallel_sweeps_are_bit_identical(self):
        traffic = fast_traffic(arrivals=60)
        serial = run_load_sweep(
            ["MorLog-SLDE", "FWB-CRADE"], self.LOADS, traffic,
            config=tiny_config(), jobs=1)
        parallel = run_load_sweep(
            ["MorLog-SLDE", "FWB-CRADE"], self.LOADS, traffic,
            config=tiny_config(), jobs=4)
        for design in serial.designs:
            assert [r.to_dict() for r in serial.results[design]] == \
                [r.to_dict() for r in parallel.results[design]]

    def test_cache_round_trip(self, tmp_path):
        traffic = fast_traffic(arrivals=60)
        cache = PayloadCache(tmp_path / "cache")
        cold = run_load_sweep(["MorLog-SLDE"], self.LOADS, traffic,
                              config=tiny_config(), jobs=1, cache=cache)
        assert cold.report.misses == 2 and cold.report.hits == 0
        warm = run_load_sweep(["MorLog-SLDE"], self.LOADS, traffic,
                              config=tiny_config(), jobs=1, cache=cache)
        assert warm.report.hits == 2 and warm.report.misses == 0
        for a, b in zip(cold.results["MorLog-SLDE"],
                        warm.results["MorLog-SLDE"]):
            assert a.to_dict() == b.to_dict()

    def test_cell_key_separates_scenarios(self):
        spec_a = resolve_traffic_cell(
            "MorLog-SLDE", fast_traffic(), config=tiny_config())
        spec_b = resolve_traffic_cell(
            "MorLog-SLDE", fast_traffic(seed=8), config=tiny_config())
        spec_c = resolve_traffic_cell(
            "FWB-CRADE", fast_traffic(), config=tiny_config())
        assert len({spec_a.key(), spec_b.key(), spec_c.key()}) == 3
        assert spec_a.key_fields()["kind"] == "traffic"

    def test_duplicate_traffic_cells_simulate_once(self, tmp_path):
        from repro.traffic.sweep import run_traffic_cells

        spec = resolve_traffic_cell(
            "MorLog-SLDE", fast_traffic(arrivals=60), config=tiny_config())
        cache = PayloadCache(str(tmp_path / "cache"))
        results, report = run_traffic_cells(
            [spec, spec], jobs=2, cache=cache)
        assert report.simulated_cells == 1
        assert cache.stats.stores == 1
        assert results[0].to_dict() == results[1].to_dict()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_non_positive_jobs_raise(self, jobs):
        from repro.traffic.sweep import run_traffic_cells

        spec = resolve_traffic_cell(
            "MorLog-SLDE", fast_traffic(arrivals=60), config=tiny_config())
        with pytest.raises(ValueError, match="jobs must be a positive int"):
            run_traffic_cells([spec], jobs=jobs)

    def test_cli_reports_zero_jobs(self, capsys):
        from repro.cli import main

        assert main([
            "traffic", "--designs", "MorLog-SLDE", "--loads", "100000",
            "--arrivals", "20", "--mix", "hash:1.0", "--tenants", "4",
            "--no-cache", "--jobs", "0",
        ]) == 2
        assert "traffic: jobs must be a positive int, got 0" in (
            capsys.readouterr().out)

    def test_failing_traffic_cell_raises_not_drops(self, tmp_path):
        import dataclasses

        from repro.experiments.megagrid import GridAssemblyError
        from repro.traffic.sweep import run_traffic_cells

        spec = resolve_traffic_cell(
            "MorLog-SLDE", fast_traffic(arrivals=60), config=tiny_config())
        bad = dataclasses.replace(spec, design="no-such-design")
        with pytest.raises(Exception) as excinfo:
            run_traffic_cells([spec, bad], jobs=1)
        # fail-fast surfaces the worker error as a typed engine error.
        from repro.experiments.megagrid import CellExecutionError

        assert isinstance(excinfo.value, CellExecutionError)

    def test_fail_soft_traffic_keeps_positions(self, tmp_path):
        import dataclasses

        from repro.traffic.sweep import run_traffic_cells

        good = resolve_traffic_cell(
            "MorLog-SLDE", fast_traffic(arrivals=60), config=tiny_config())
        bad = dataclasses.replace(good, design="no-such-design")
        results, report = run_traffic_cells(
            [bad, good], jobs=1, fail_soft=True)
        assert results[0] is None
        assert results[1] is not None
        assert len(report.failures) == 1
        assert report.failures[0].design == "no-such-design"

    def test_sweep_records_are_schema_valid(self):
        traffic = fast_traffic(arrivals=60)
        outcome = run_load_sweep(["MorLog-SLDE"], self.LOADS, traffic,
                                 config=tiny_config(), jobs=1)
        records = sweep_records(outcome, config=tiny_config())
        # one goodput + three latency + one drop record per point, plus
        # one knee marker per design.
        assert len(records) == len(self.LOADS) * 5 + 1
        for rec in records:
            data = json.loads(json.dumps(rec.to_dict()))
            assert BenchRecord.from_dict(data) == rec
            assert rec.benchmark.startswith("traffic/MorLog-SLDE")
        digests = {rec.config_digest for rec in records}
        assert len(digests) == 1  # one scenario, one digest


class TestCrashUnderLoad:
    def test_crash_composition_profiles_recovery(self):
        point = run_crash_under_load(
            "MorLog-SLDE", fast_traffic(offered_tx_per_s=2_000_000.0),
            config=tiny_config(), crash_fraction=0.8)
        assert point.crashed is True
        assert 0 < point.completed < point.crash_at_arrival + 1
        profile = point.profile
        assert profile.used_slots > 0
        assert 0.0 < profile.occupancy_fraction <= 1.0
        assert profile.log_records > 0
        assert profile.estimated_recovery_ns > 0
        data = json.loads(json.dumps(point.to_dict()))
        assert data["profile"]["used_slots"] == profile.used_slots

    def test_crashed_run_reports_partial_completion(self):
        traffic = fast_traffic(offered_tx_per_s=2_000_000.0)
        result, system = run_traffic_system(
            "MorLog-SLDE", traffic, config=tiny_config(),
            crash_at_arrival=int(0.5 * traffic.arrivals))
        assert result.crashed is True
        assert 0 < result.completed < traffic.arrivals
        # Un-drained on purpose: recovery must see the cut state.
        state = system.recover()
        assert state.redone_words + state.undone_words >= 0

    def test_crash_fraction_validated(self):
        with pytest.raises(ValueError, match="crash_fraction"):
            run_crash_under_load(
                "MorLog-SLDE", fast_traffic(), config=tiny_config(),
                crash_fraction=0.0)

    def test_crash_point_deterministic(self):
        traffic = fast_traffic(offered_tx_per_s=2_000_000.0)
        a = run_crash_under_load("MorLog-SLDE", traffic,
                                 config=tiny_config(), crash_fraction=0.7)
        b = run_crash_under_load("MorLog-SLDE", traffic,
                                 config=tiny_config(), crash_fraction=0.7)
        assert a.to_dict() == b.to_dict()
