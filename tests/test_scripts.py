"""Tests for the benchmark tooling in ``scripts/``."""

import importlib.util
from pathlib import Path

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
