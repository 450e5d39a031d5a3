"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_designs_listed(capsys):
    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "FWB-CRADE" in out and "MorLog-DP" in out


def test_run_command(capsys):
    assert main(["run", "--workload", "queue", "--transactions", "20",
                 "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out


def test_overhead_command(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "log_registers_bytes" in out


def test_record_and_replay_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "trace.mltr")
    assert main(["record", path, "--workload", "queue",
                 "--transactions", "10", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "trace digest:" in out
    assert main(["replay", path, "--design", "FWB-CRADE"]) == 0
    out = capsys.readouterr().out
    assert "replayed transactions" in out


def test_grid_command_cold_then_warm(tmp_path, capsys):
    argv = ["grid", "--designs", "FWB-CRADE,MorLog-SLDE",
            "--workloads", "queue", "--transactions", "12", "--threads", "1",
            "--jobs", "2", "--cache-dir", str(tmp_path), "--timing"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "grid throughput" in cold
    assert "per-cell timing" in cold
    assert "2 simulated" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 simulated, 2 cache hits" in warm
    assert "hits=2 misses=0" in warm


def test_grid_interrupt_then_resume_cli(tmp_path, capsys):
    """Kill-and-resume through the CLI: exactly-once across invocations."""
    manifest = str(tmp_path / "sweep.json")
    base = ["--transactions", "12", "--threads", "1",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
    assert main(
        ["grid", "--designs", "FWB-CRADE,MorLog-SLDE",
         "--workloads", "hash,queue", "--manifest", manifest,
         "--interrupt-after", "2"] + base
    ) == 130
    out = capsys.readouterr().out
    assert "resume with: repro grid --resume" in out
    assert main(["grid", "--resume", manifest] + base) == 0
    resumed = capsys.readouterr().out
    assert "2 simulated, 2 cache hits" in resumed
    assert "[resumed]" in resumed
    # A second resume is a full warm run: nothing left to simulate.
    assert main(["grid", "--resume", manifest] + base) == 0
    assert "0 simulated, 4 cache hits" in capsys.readouterr().out


def test_grid_figures_dir_emits_valid_spec(tmp_path, capsys):
    import json

    from repro.experiments.vega import validate_vega_lite

    figures_dir = str(tmp_path / "figs")
    assert main(
        ["grid", "--designs", "FWB-CRADE", "--workloads", "queue",
         "--transactions", "10", "--threads", "1", "--jobs", "1",
         "--no-cache", "--figures-dir", figures_dir]
    ) == 0
    with open(figures_dir + "/grid_throughput.vl.json") as handle:
        assert validate_vega_lite(json.load(handle)) == 1


def test_grid_command_no_cache(capsys):
    assert main(["grid", "--designs", "FWB-CRADE", "--workloads", "queue",
                 "--transactions", "10", "--threads", "1", "--jobs", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "1 simulated, 0 cache hits" in out
    assert "hits=" not in out


def test_grid_command_rejects_unknown_names(capsys):
    assert main(["grid", "--designs", "NoSuchDesign", "--no-cache"]) == 2
    assert main(["grid", "--workloads", "nosuchworkload", "--no-cache"]) == 2


def test_traffic_command_cold_then_warm(tmp_path, capsys):
    argv = ["traffic", "--designs", "MorLog-SLDE",
            "--loads", "100000,8000000", "--arrivals", "40",
            "--mix", "hash:1.0", "--threads", "2", "--queue-capacity", "4",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--bench", "--bench-dir", str(tmp_path / "bench"),
            "--out", str(tmp_path / "slo.txt")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "offered/s" in cold and "overload knee" in cold
    assert "record(s) appended" in cold
    slo = (tmp_path / "slo.txt").read_text()
    assert "MorLog-SLDE" in slo and "p999(us)" in slo
    bench_files = list((tmp_path / "bench").glob("*.json"))
    assert bench_files and "traffic/MorLog-SLDE" in bench_files[0].read_text()
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "hits=2 misses=0" in warm


def test_traffic_crash_composition(capsys):
    assert main(["traffic", "--designs", "MorLog-SLDE",
                 "--loads", "2000000", "--arrivals", "40",
                 "--mix", "hash:1.0", "--threads", "2",
                 "--jobs", "1", "--no-cache",
                 "--crash-fraction", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "recovery vs log occupancy" in out
    assert "est recovery (us)" in out


def test_traffic_rejects_bad_arguments(capsys):
    assert main(["traffic", "--designs", "NoSuchDesign", "--no-cache"]) == 2
    assert main(["traffic", "--mix", "hash:-1", "--no-cache"]) == 2
    assert main(["traffic", "--loads", "", "--no-cache"]) == 2


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
