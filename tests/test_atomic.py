import os
import re
from pathlib import Path

import numpy as np
import pytest

import covdenoise
from covdenoise import atomic
from covdenoise.atomic import atomic_write
from covdenoise.backtest import BacktestReport, write_report_files
from covdenoise.denoiser import DenoiserConfig, init_weights, save_weights
from covdenoise.ingest import PricePanel, ReturnsPanel, write_prices, write_returns
from covdenoise.portfolio import WeightVector, portfolio_metrics


def _failing_replace(monkeypatch):
    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(atomic.os, "replace", fail)


def test_writes_text_and_bytes(tmp_path):
    atomic_write(tmp_path / "a.txt", "héllo\n")
    atomic_write(tmp_path / "sub" / "b.bin", b"\x00\x01")
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "héllo\n"
    assert (tmp_path / "sub" / "b.bin").read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.txt", "b.bin", "sub"]


def test_file_mode_matches_a_plain_write(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    atomic_write(tmp_path / "atomic.txt", "x")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode


def test_failed_replace_keeps_previous_file_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    atomic_write(target, "old")
    _failing_replace(monkeypatch)
    with pytest.raises(OSError, match="simulated"):
        atomic_write(target, "new")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_concurrent_writers_use_distinct_temp_files(tmp_path, monkeypatch):
    # A second write to the same path starts while the first one's temp file
    # still exists; with a shared temp name the first rename would fail.
    target = tmp_path / "out.csv"
    sources = []
    real_replace = os.replace

    def replace(src, dst):
        sources.append(src)
        if len(sources) == 1:
            atomic_write(target, "inner")
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", replace)
    atomic_write(target, "outer")
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
    assert target.read_text() == "outer"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _price_panel():
    return PricePanel(("2024-01-01", "2024-01-02"), ("A", "B"), np.array([[1.0, 2.0], [1.5, 2.5]]))


def _returns_panel():
    return ReturnsPanel(("2024-01-02",), ("A", "B"), np.array([[0.1], [0.2]]))


def _weights():
    return init_weights(DenoiserConfig(input_size=3, num_blocks=1, num_filters=2))


def _report(daily=(0.01, -0.02)):
    weights = WeightVector(np.array([0.5, 0.5]))
    metrics = portfolio_metrics(np.array(daily), [weights.weights])
    return BacktestReport(
        ["2024-01-01"], [weights], ["2024-01-01", "2024-01-02"], np.array(daily),
        metrics, ("A", "B"),
    )


def _write_report_files(report, target):
    # the report's files go next to the target; the first one to be replaced fails
    return write_report_files(report, target.parent)


@pytest.mark.parametrize(
    "write,make",
    [
        (write_prices, _price_panel),
        (write_returns, _returns_panel),
        (save_weights, _weights),
        pytest.param(_write_report_files, _report, id="write_report_files-_report"),
    ],
)
def test_writers_go_through_the_atomic_helper(tmp_path, monkeypatch, write, make):
    target = tmp_path / "file"
    target.write_text("previous")
    _failing_replace(monkeypatch)
    with pytest.raises(OSError, match="simulated"):
        write(make(), target)
    assert target.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_report_files_keep_the_old_metrics_when_a_later_file_fails(tmp_path, monkeypatch):
    write_report_files(_report(), tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    real_replace = atomic.os.replace
    calls = []

    def fail_third(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError("simulated rename failure")
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", fail_third)
    with pytest.raises(OSError, match="simulated"):
        write_report_files(_report(daily=(0.05, 0.03)), tmp_path)
    # files replaced before the failure are new, but metrics.json, the last
    # one written, still describes the first report
    assert (tmp_path / "metrics.json").read_bytes() == before["metrics.json"]
    assert (tmp_path / "daily_returns.csv").read_bytes() != before["daily_returns.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(before)


_FILE_WRITE = re.compile(r"\bopen\(|\bfdopen\(|\.write_text\(|\.write_bytes\(")


def test_only_the_atomic_module_opens_files():
    # every output file goes through atomic_write, so no other module of the
    # package opens or writes a file itself
    package = Path(covdenoise.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert _FILE_WRITE.search((package / "atomic.py").read_text())
    offenders = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in modules
        if path != package / "atomic.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _FILE_WRITE.search(line)
    ]
    assert len(modules) > 10 and offenders == []
