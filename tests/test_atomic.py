import os
import re
from pathlib import Path

import numpy as np
import pytest

import covdenoise
from covdenoise import atomic
from covdenoise.atomic import atomic_write, text_lines
from covdenoise.backtest import BacktestReport, write_report_files
from covdenoise.denoiser import DenoiserConfig, init_weights, save_weights
from covdenoise.errors import DataError
from covdenoise.ingest import PricePanel, ReturnsPanel, write_prices, write_returns, write_table
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


def test_writes_text_pieces_as_utf8(tmp_path):
    atomic_write(tmp_path / "t.csv", iter(["date,A€\n", "", "2024-01-01,1.5\n"]))
    assert (tmp_path / "t.csv").read_bytes() == "date,A€\n2024-01-01,1.5\n".encode("utf-8")


def test_pieces_that_raise_midway_keep_the_previous_file_and_no_temp(tmp_path):
    target = tmp_path / "t.csv"
    write_table(target, ("date", "A"), [("2024-01-01", 1.0)])
    before = target.read_bytes()

    def rows():
        for day in range(1, 1000):
            if day == 700:
                raise ValueError("row source failed")
            yield (f"2024-01-{day:04d}", 1.0 / day)

    with pytest.raises(ValueError, match="row source failed"):
        write_table(target, ("date", "A"), rows())
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "a",
        "a\nb",
        "a\n\nb\n",
        "a\r\nb\r\n\r\n",
        "a\rb\r\rc",
        "a\r\r\nb",
        "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i\n",
        "\ufeffdate,A€\r\n2024-01-01,1\n",
        "x" * 20000 + "\ny",
    ],
)
def test_text_lines_are_the_lines_of_the_whole_text(tmp_path, text):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    assert list(text_lines(path)) == path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "data,line",
    [
        (b"\xff", 1),
        (b"a\nb\xffc\n", 2),
        (b"a\rb\r\xff\n", 3),
        (b"a\r\n\r\nb\x85\xe2\x82", 3),
        (b"a\xc2\x85b\xff", 2),
    ],
)
def test_text_lines_name_the_line_of_an_undecodable_byte(tmp_path, data, line):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with pytest.raises(DataError, match=rf": line {line} is not UTF-8 text"):
        list(text_lines(path))


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
