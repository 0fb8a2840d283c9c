"""Tests for the benchmark tooling in ``scripts/``."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_a_missing_layer_script_before_any_run(tmp_path, monkeypatch,
                                                                  capsys):
    bench_pairs = _load("bench_pairs")

    def no_run(checkout, argv):
        raise AssertionError(f"ran {argv} in {checkout}")

    monkeypatch.setattr(bench_pairs, "_run", no_run)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(ROOT), str(ROOT), "--out", str(out),
                          "--layers", "scripts/check_layers.py"])
    assert exc.value.code == 2
    assert "--layers: no such file" in capsys.readouterr().err
    assert not out.exists()


def test_timed_ms_is_the_median_of_21_runs_with_its_spread(monkeypatch):
    timing = _load("timing")
    clock = [0.0]
    monkeypatch.setattr(timing, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    # 21 calls in a shuffled order: 1..20 ms and one slow outlier of 300 ms
    durations = iter(1e-3 * k for k in [7, 19, 2, 11, 300, 5, 13, 17, 1, 9, 20, 3, 15,
                                         8, 12, 4, 18, 6, 14, 10, 16])

    def stub():
        clock[0] += next(durations)

    row = timing.timed_ms(stub)
    assert next(durations, None) is None
    assert row == {"ms": 11.0, "iqr_ms": 11.0}
