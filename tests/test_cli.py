import dataclasses
import datetime as dt
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import covdenoise
from covdenoise.backtest import WalkForwardConfig
from covdenoise.cli import cli
from covdenoise.denoiser import DenoiserConfig
from covdenoise.ingest import PricePanel, load_returns, write_prices


@pytest.fixture
def runner():
    return CliRunner()


def make_price_csv(path, p=4, days=240, seed=11, gap_symbol=None):
    rng = np.random.default_rng(seed)
    symbols = [f"C{i:02d}" for i in range(p)]
    prices = 100.0 * np.exp(np.cumsum(rng.standard_normal((days, p)) * 0.02, axis=0))
    start = dt.date(2023, 1, 1)
    lines = ["date," + ",".join(symbols)]
    for i in range(days):
        cells = []
        for j in range(p):
            if gap_symbol == j and 10 <= i < 10 + int(days * 0.05):
                cells.append("")
            else:
                cells.append(repr(float(prices[i, j])))
        lines.append((start + dt.timedelta(days=i)).isoformat() + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return symbols


def test_simulate_writes_report_with_one_row_per_estimator(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["simulate", "--model", "block", "--block-sizes", "3,3", "--gamma", "0.2",
         "--n", "40", "--m", "3", "--estimators", "naive,lp", "--seed", "42",
         "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["estimators"] == ["naive", "lp"]


def test_simulate_identity_population_smoke(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["simulate", "--model", "powerlaw", "--alpha", "0", "--p", "10", "--m", "1",
         "--n", "30", "--estimators", "naive", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "naive" in result.output


def test_simulate_is_deterministic(runner, tmp_path):
    args = ["simulate", "--model", "nested", "--p", "12", "--gamma", "0.1", "--n", "30",
            "--m", "4", "--estimators", "naive,alca", "--seed", "7"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert runner.invoke(cli, args + ["--out-dir", str(first)]).exit_code == 0
    assert runner.invoke(cli, args + ["--out-dir", str(second)]).exit_code == 0
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


def test_simulate_diagnostics_files(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["simulate", "--model", "block", "--block-sizes", "4,4", "--gamma", "0.3",
         "--n", "30", "--m", "1", "--estimators", "naive", "--out-dir", str(tmp_path),
         "--diagnostics"],
    )
    assert result.exit_code == 0, result.output
    scree = (tmp_path / "scree.csv").read_text().strip().splitlines()
    assert scree[0] == "rank,eigenvalue"
    assert len(scree) == 9
    dendro = (tmp_path / "dendrogram.csv").read_text().strip().splitlines()
    assert dendro[0] == "left,right,height,size"
    assert len(dendro) == 8  # p - 1 merges


def test_simulate_rejects_unknown_estimator(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["simulate", "--model", "nested", "--p", "5", "--gamma", "0.1", "--m", "1",
         "--estimators", "oracle", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 2


def test_clean_reports_drop_summary(runner, tmp_path):
    source = tmp_path / "prices.csv"
    make_price_csv(source, p=5, gap_symbol=2)
    out_prices = tmp_path / "cleaned.csv"
    out_returns = tmp_path / "returns.csv"
    result = runner.invoke(
        cli,
        ["clean", "--input", str(source), "--output-prices", str(out_prices),
         "--output-returns", str(out_returns), "--volatility-quantile", "0"],
    )
    assert result.exit_code == 0, result.output
    assert "1 (missing rule)" in result.output
    assert "0 (volatility rule)" in result.output
    header = out_returns.read_text().splitlines()[0]
    assert header.count(",") == 4  # date + 4 surviving symbols


def test_clean_zero_quantile_drops_nothing_by_volatility(runner, tmp_path):
    source = tmp_path / "prices.csv"
    make_price_csv(source, p=4)
    result = runner.invoke(
        cli,
        ["clean", "--input", str(source), "--output-prices", str(tmp_path / "p.csv"),
         "--output-returns", str(tmp_path / "r.csv"), "--volatility-quantile", "0"],
    )
    assert result.exit_code == 0
    assert "0 (volatility rule)" in result.output


def test_clean_exclusion_file(runner, tmp_path):
    source = tmp_path / "prices.csv"
    symbols = make_price_csv(source, p=4)
    exclude = tmp_path / "exclude.txt"
    exclude.write_text(symbols[0] + "\n")
    out_returns = tmp_path / "r.csv"
    result = runner.invoke(
        cli,
        ["clean", "--input", str(source), "--output-prices", str(tmp_path / "p.csv"),
         "--output-returns", str(out_returns), "--volatility-quantile", "0",
         "--exclude-file", str(exclude)],
    )
    assert result.exit_code == 0, result.output
    assert symbols[0] not in out_returns.read_text().splitlines()[0]


def test_clean_missing_input_exits_2(runner, tmp_path):
    result = runner.invoke(cli, ["clean", "--input", str(tmp_path / "absent.csv")])
    assert result.exit_code == 2


def make_crypto_price_csv(path, days=120, seed=7):
    """Seeded prices with every case the cleaning rules handle: one missing
    day in each of six symbols, a gappy symbol, a late listing, and two flat
    stablecoins."""
    rng = np.random.default_rng(seed)
    risky = 8
    scale = rng.uniform(0.01, 0.08, risky)
    log_prices = rng.uniform(-2.0, 6.0, risky) + np.cumsum(
        rng.standard_normal((days, risky)) * scale, axis=0
    )
    prices = np.exp(log_prices)
    prices[rng.integers(1, days, risky - 2), np.arange(2, risky)] = np.nan
    prices[rng.random(days) < 0.1, 0] = np.nan
    prices[:20, 1] = np.nan
    prices = np.column_stack([prices, np.ones((days, 2))])
    symbols = tuple(f"C{i}-USD" for i in range(risky)) + ("USDT-USD", "USDC-USD")
    dates = tuple((dt.date(2021, 1, 1) + dt.timedelta(days=d)).isoformat() for d in range(days))
    write_prices(PricePanel(dates, symbols, prices), path)


# sha256 of the files `covdenoise clean` writes from make_crypto_price_csv,
# recorded while the rules walked the panel one symbol and one day at a time.
GOLDEN_CLEAN_FILES = {
    "cleaned.csv": "6070ade84ab49c3884187eb8580aa3885813c00d190d14ede3e3061a6475350f",
    "returns.csv": "d4180838aeab2b32db08521767a889434dbcaa7b2b57623dc6d711d1b7221baa",
}


def test_clean_keeps_its_bytes(runner, tmp_path):
    make_crypto_price_csv(tmp_path / "prices.csv")
    (tmp_path / "exclude.txt").write_text("# stablecoins\nUSDT-USD\nUSDC-USD\n")
    result = runner.invoke(
        cli,
        ["clean", "--input", str(tmp_path / "prices.csv"),
         "--output-prices", str(tmp_path / "cleaned.csv"),
         "--output-returns", str(tmp_path / "returns.csv"),
         "--missing-threshold", "0.02", "--exclude-file", str(tmp_path / "exclude.txt")],
    )
    assert result.exit_code == 0, result.output
    assert (
        "dropped: 2 (missing rule), 1 (volatility rule), 2 (exclusion list); kept 5 symbols\n"
        in result.output
    )
    assert _digests(tmp_path, GOLDEN_CLEAN_FILES) == GOLDEN_CLEAN_FILES


def test_train_simulation_loss_curve(runner, tmp_path):
    import time

    weights = tmp_path / "w.cdnw"
    curve = tmp_path / "loss.csv"
    started = time.monotonic()
    result = runner.invoke(
        cli,
        ["train", "--source", "simulation", "--model", "block", "--block-sizes", "5,5",
         "--gamma", "0.3", "--n", "30", "--count", "12", "--net-blocks", "1",
         "--filters", "4", "--epochs", "3", "--seed", "3",
         "--weights-out", str(weights), "--loss-curve-out", str(curve)],
    )
    assert time.monotonic() - started < 60.0
    assert result.exit_code == 0, result.output
    rows = curve.read_text().strip().splitlines()
    assert rows[0] == "epoch,train_mse,validation_mse"
    assert len(rows) == 4
    values = [float(line.split(",")[1]) for line in rows[1:]]
    assert values[-1] < values[0]
    assert weights.exists()


def test_train_zero_learning_rate_flat_curve(runner, tmp_path):
    curve = tmp_path / "loss.csv"
    result = runner.invoke(
        cli,
        ["train", "--source", "simulation", "--model", "block", "--block-sizes", "4,4",
         "--gamma", "0.2", "--n", "25", "--count", "8", "--net-blocks", "1",
         "--filters", "2", "--epochs", "3", "--lr", "0",
         "--weights-out", str(tmp_path / "w.cdnw"), "--loss-curve-out", str(curve)],
    )
    assert result.exit_code == 0, result.output
    values = [float(line.split(",")[1]) for line in curve.read_text().strip().splitlines()[1:]]
    assert np.allclose(values, values[0], rtol=1e-12, atol=0.0)


def test_train_same_seed_same_weights_file(runner, tmp_path):
    args = ["train", "--source", "simulation", "--model", "nested", "--p", "6",
            "--gamma", "0.1", "--n", "20", "--count", "6", "--net-blocks", "1",
            "--filters", "2", "--epochs", "2", "--seed", "9"]
    first = tmp_path / "a.cdnw"
    second = tmp_path / "b.cdnw"
    assert runner.invoke(cli, args + ["--weights-out", str(first),
                                      "--loss-curve-out", str(tmp_path / "l1.csv")]).exit_code == 0
    assert runner.invoke(cli, args + ["--weights-out", str(second),
                                      "--loss-curve-out", str(tmp_path / "l2.csv")]).exit_code == 0
    assert first.read_bytes() == second.read_bytes()


def test_train_divergence_exits_3(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["train", "--source", "simulation", "--model", "block", "--block-sizes", "4,4",
         "--gamma", "0.2", "--n", "25", "--count", "8", "--net-blocks", "1",
         "--filters", "2", "--epochs", "8", "--lr", "1e150",
         "--weights-out", str(tmp_path / "w.cdnw"),
         "--loss-curve-out", str(tmp_path / "l.csv")],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("rate, code", [("nan", 2), ("inf", 2), ("1e300", 3)])
def test_train_with_a_non_finite_rate_or_validation_loss_writes_nothing(
    runner, tmp_path, rate, code
):
    # 1e300 passes the config; one Adam step then makes the validation loss non-finite
    weights, curve = tmp_path / "w.cdnw", tmp_path / "l.csv"
    result = runner.invoke(
        cli,
        ["train", "--source", "simulation", "--model", "block", "--block-sizes", "3,3,4",
         "--count", "5", "--epochs", "1", "--net-blocks", "1", "--filters", "4",
         "--lr", rate, "--weights-out", str(weights), "--loss-curve-out", str(curve)],
    )
    assert result.exit_code == code, result.output
    assert not weights.exists() and not curve.exists()


def _returns_csv(tmp_path, runner, p=3, days=320):
    source = tmp_path / "prices.csv"
    make_price_csv(source, p=p, days=days, seed=5)
    returns = tmp_path / "returns.csv"
    assert runner.invoke(
        cli,
        ["clean", "--input", str(source), "--output-prices", str(tmp_path / "cp.csv"),
         "--output-returns", str(returns), "--volatility-quantile", "0"],
    ).exit_code == 0
    return returns


def test_train_on_returns_needs_no_model(runner, tmp_path):
    returns = _returns_csv(tmp_path, runner)
    weights = tmp_path / "w.cdnw"
    curve = tmp_path / "loss.csv"
    result = runner.invoke(
        cli,
        ["train", "--source", "returns", "--returns", str(returns), "--window-length", "30",
         "--count", "6", "--stride", "5", "--net-blocks", "1", "--filters", "2", "--epochs", "1",
         "--weights-out", str(weights), "--loss-curve-out", str(curve)],
    )
    assert result.exit_code == 0, result.output
    assert weights.exists()
    assert len(curve.read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "args, message",
    [(["simulate", "--p", "5", "--m", "1"], "Missing option '--model'"),
     (["train", "--count", "2"], "--source simulation requires --model"),
     (["train", "--source", "simulation", "--count", "2"], "--source simulation requires --model")],
    ids=["simulate", "train-default-source", "train-simulation"],
)
def test_a_simulated_model_without_model_exits_2_naming_it(runner, tmp_path, args, message):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert f"Error: {message}" in result.output


def test_train_on_returns_without_a_returns_file_exits_2(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["train", "--source", "returns", "--count", "2"])
    assert result.exit_code == 2
    assert "Error: --source returns requires --returns" in result.output


def test_backtest_metrics_row(runner, tmp_path):
    returns = _returns_csv(tmp_path, runner)
    result = runner.invoke(
        cli,
        ["backtest", "--returns", str(returns), "--split-date", "2023-04-01",
         "--t-in", "30", "--t-out", "30", "--delta-t", "30", "--estimator", "naive",
         "--out-dir", str(tmp_path / "bt")],
    )
    assert result.exit_code == 0, result.output
    metrics = json.loads((tmp_path / "bt" / "metrics.json").read_text())
    assert 0.0 <= metrics["turnover"] <= 2.0
    assert (tmp_path / "bt" / "wealth.csv").exists()


def test_backtest_golden_determinism(runner, tmp_path):
    returns = _returns_csv(tmp_path, runner)
    args = ["backtest", "--returns", str(returns), "--split-date", "2023-04-01",
            "--t-in", "30", "--t-out", "30", "--delta-t", "30", "--estimator", "lp"]
    first = tmp_path / "bt1"
    second = tmp_path / "bt2"
    assert runner.invoke(cli, args + ["--out-dir", str(first)]).exit_code == 0
    assert runner.invoke(cli, args + ["--out-dir", str(second)]).exit_code == 0
    for name in ("metrics.json", "weights.csv", "daily_returns.csv", "wealth.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_backtest_uniform_single_asset_equals_buy_and_hold(runner, tmp_path):
    returns = _returns_csv(tmp_path, runner, p=1)
    shared = ["--returns", str(returns), "--split-date", "2023-04-01",
              "--t-in", "30", "--t-out", "30", "--delta-t", "30"]
    a = tmp_path / "uniform"
    b = tmp_path / "bh"
    assert runner.invoke(cli, ["backtest", *shared, "--strategy", "uniform",
                               "--out-dir", str(a)]).exit_code == 0
    assert runner.invoke(cli, ["backtest", *shared, "--strategy", "buy-and-hold",
                               "--symbol", "C00", "--out-dir", str(b)]).exit_code == 0
    assert (a / "metrics.json").read_text() == (b / "metrics.json").read_text()


def test_an_estimator_failing_in_a_window_exits_3(runner, tmp_path, monkeypatch):
    # the estimate of a window is a numeric result, whatever error its
    # validation raised: a non-PSD estimate is not a usage error
    from covdenoise import estimators
    from covdenoise.errors import ParameterError

    def not_psd(s, n):
        raise ParameterError("covariance not positive semidefinite (min eig -6.4e-06)")

    monkeypatch.setattr(estimators, "estimate_lp", not_psd)
    returns = _returns_csv(tmp_path, runner)
    result = runner.invoke(
        cli,
        ["backtest", "--returns", str(returns), "--split-date", "2023-04-01",
         "--t-in", "30", "--t-out", "30", "--delta-t", "30", "--estimator", "lp",
         "--out-dir", str(tmp_path / "bt")],
    )
    assert result.exit_code == 3
    assert ("estimator 'lp' failed at rebalance window 0 (2023-04-01): covariance not "
            "positive semidefinite (min eig -6.4e-06)") in result.output
    assert not (tmp_path / "bt" / "metrics.json").exists()


@pytest.mark.parametrize("command", ["simulate", "backtest"])
def test_an_eigenvalue_computation_that_does_not_converge_exits_3(
    runner, tmp_path, monkeypatch, command
):
    # the validation's LAPACK failure is a numeric error, not an uncaught LinAlgError
    from covdenoise import _blas

    def failing(values):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    if command == "simulate":
        args = ["simulate", "--model", "block", "--block-sizes", "3,3", "--n", "20", "--m", "2",
                "--estimators", "naive"]
    else:
        args = ["backtest", "--returns", str(_returns_csv(tmp_path, runner)),
                "--split-date", "2023-04-01", "--t-in", "30", "--t-out", "30", "--delta-t", "30",
                "--estimator", "naive"]
    monkeypatch.setattr(_blas, "_lookup", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    result = runner.invoke(cli, args + ["--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    assert "failed to converge: Eigenvalues did not converge" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["powerlaw", "--alpha=inf"], "power-law model requires alpha >= 0 and finite, got inf"),
    (["powerlaw", "--alpha=nan"], "power-law model requires alpha >= 0 and finite, got nan"),
    (["nested", "--gamma=inf"], "nested model requires gamma > 0 and finite, got inf"),
    (["nested", "--gamma=nan"], "nested model requires gamma > 0 and finite, got nan"),
], ids=["alpha-inf", "alpha-nan", "gamma-inf", "gamma-nan"])
def test_a_non_finite_model_parameter_exits_2_naming_it(runner, tmp_path, args, message):
    result = runner.invoke(cli, ["simulate", "--model", *args, "--p", "6", "--n", "20", "--m", "2",
                                 "--estimators", "naive", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "out").exists()


def test_backtest_requires_symbol_for_buy_and_hold(runner, tmp_path):
    returns = _returns_csv(tmp_path, runner)
    result = runner.invoke(
        cli,
        ["backtest", "--returns", str(returns), "--split-date", "2023-04-01",
         "--strategy", "buy-and-hold"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "strategy",
    [["estimator"], ["uniform"], ["buy-and-hold", "--symbol", "C00"]],
    ids=["estimator", "uniform", "buy-and-hold"],
)
@pytest.mark.parametrize("t_out, delta_t", [("30", "25"), ("25", "30")])
def test_backtest_rejects_a_hold_unequal_to_the_rebalance_step(
    runner, tmp_path, strategy, t_out, delta_t
):
    returns = _returns_csv(tmp_path, runner)
    result = runner.invoke(
        cli,
        ["backtest", "--returns", str(returns), "--split-date", "2023-04-01",
         "--t-in", "30", "--t-out", t_out, "--delta-t", delta_t, "--strategy", *strategy,
         "--out-dir", str(tmp_path / "bt")],
    )
    assert result.exit_code == 2
    assert f"delta_t ({delta_t}) must equal t_out ({t_out})" in result.output
    assert not (tmp_path / "bt").exists()


# "2023-04-1" sorts between the panel's 2023-04-09 and 2023-04-10, so a raw
# string comparison would silently split on the wrong day
@pytest.mark.parametrize(
    "value", ["2021-11-9", "2021-13-01", "2023-04-1", "2023-02-30", "20230401"]
)
def test_backtest_rejects_malformed_split_date(runner, tmp_path, value):
    returns = _returns_csv(tmp_path, runner)
    result = runner.invoke(
        cli,
        ["backtest", "--returns", str(returns), "--split-date", value,
         "--t-in", "30", "--t-out", "30", "--delta-t", "30",
         "--out-dir", str(tmp_path / "bt")],
    )
    assert result.exit_code == 2
    assert repr(value) in result.output
    assert not (tmp_path / "bt").exists()


def test_config_file_precedence(runner, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("m=2\nestimators=naive\nseed=5\n")
    out = tmp_path / "out"
    result = runner.invoke(
        cli,
        ["simulate", "--model", "nested", "--p", "6", "--gamma", "0.1", "--n", "20",
         "--m", "4", "--config", str(config), "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "report.json").read_text())
    assert payload["m"] == 4  # explicit flag beats the config file
    assert payload["seed"] == 5  # config beats the default


def test_config_file_rejects_unknown_key(runner, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("bogus_flag=1\n")
    result = runner.invoke(
        cli,
        ["simulate", "--model", "nested", "--p", "6", "--gamma", "0.1", "--m", "1",
         "--config", str(config), "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "bogus_flag" in result.output


def _cli_in_the_c_locale(*args):
    """Run the CLI in a fresh interpreter whose locale encoding is ASCII."""
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C",
               PYTHONPATH=str(Path(covdenoise.__file__).parents[1]))
    code = "import sys; from covdenoise.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _utf8_inputs(tmp_path, bad=None):
    """A price CSV, an exclusion list and a config file holding non-ASCII
    text; ``bad`` names the one whose third line gets an undecodable byte."""
    make_price_csv(tmp_path / "prices.csv", p=3, days=40)
    texts = {
        "prices.csv": (tmp_path / "prices.csv").read_text().replace("C00,C01", "A€,B€", 1),
        "exclude.txt": "# stable coins\nB€\nUSD€\n",
        "run.cfg": "# seuil €\nvolatility-quantile=0\nmissing-threshold=0.5\n",
    }
    for name, text in texts.items():
        data = text.encode("utf-8")
        if name == bad:
            lines = data.split(b"\n")
            lines[2] = b"\xff" + lines[2]
            data = b"\n".join(lines)
        (tmp_path / name).write_bytes(data)
    return ["clean", "--input", str(tmp_path / "prices.csv"),
            "--exclude-file", str(tmp_path / "exclude.txt"), "--config", str(tmp_path / "run.cfg"),
            "--output-prices", str(tmp_path / "clean.csv"),
            "--output-returns", str(tmp_path / "returns.csv")]


def test_inputs_are_read_as_utf8_in_an_ascii_locale(tmp_path):
    result = _cli_in_the_c_locale(*_utf8_inputs(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "kept 2 symbols" in result.stdout
    assert load_returns(tmp_path / "returns.csv").symbols == ("A€", "C02")


@pytest.mark.parametrize("bad", ["prices.csv", "exclude.txt", "run.cfg"])
def test_an_undecodable_input_exits_2_naming_the_file_and_line(tmp_path, bad):
    result = _cli_in_the_c_locale(*_utf8_inputs(tmp_path, bad))
    assert result.returncode == 2, result.stderr
    assert f"{tmp_path / bad}: line 3 is not UTF-8 text" in result.stderr
    assert not (tmp_path / "returns.csv").exists()


def test_help_advertises_documented_defaults(runner):
    backtest_help = runner.invoke(cli, ["backtest", "--help"]).output
    for token in ("182", "282"):
        assert token in backtest_help
    train_help = runner.invoke(cli, ["train", "--help"]).output
    for token in ("0.001", "16", "10", "100", "0.2", "64", "3"):
        assert token in train_help


def test_train_mode_choices_are_the_network_modes(runner):
    train_help = runner.invoke(cli, ["train", "--help"]).output
    assert "[covariance|eigenvectors]" in train_help
    result = runner.invoke(cli, ["train", "--mode", "magic"])
    assert result.exit_code == 2
    assert "'magic' is not one of 'covariance', 'eigenvectors'" in result.output


def test_simulate_with_trained_estimator(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["simulate", "--model", "block", "--block-sizes", "4,4", "--gamma", "0.3",
         "--n", "24", "--m", "2", "--estimators", "naive,cnn", "--seed", "2",
         "--train-count", "6", "--net-blocks", "1", "--filters", "2", "--epochs", "1",
         "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[2].startswith("cnn,")


def test_simulate_threads_do_not_change_results(runner, tmp_path):
    base = ["simulate", "--model", "nested", "--p", "10", "--gamma", "0.1", "--n", "30",
            "--m", "6", "--estimators", "naive,lp", "--seed", "3"]
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert runner.invoke(cli, base + ["--out-dir", str(serial)]).exit_code == 0
    assert runner.invoke(cli, base + ["--threads", "2", "--out-dir", str(threaded)]).exit_code == 0
    assert (serial / "report.csv").read_bytes() == (threaded / "report.csv").read_bytes()


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


# sha256 of each file.  The report digests were recorded when the lp estimate
# came to take its shrunk values as its eigenvalues, which moved the lp row's
# MV columns by rounding (mean 1.7e-16, se 1.6e-15 relative;
# test_simulate_rows_match_the_reference_loss bounds the move); the
# diagnostics digests date from before the CSV writers shared one codec.  With
# p=60 and n=200 every alca and 2s-lp realization fails, so their rows are
# all nan.
GOLDEN_SIMULATE_FILES = {
    "report.csv": "39e3c5516bc1df046575cbd710d108a5fcf0d31f3f545c2211f76df0ff8e8e4f",
    "report.json": "0f804824f1119e4ac398880cd28bfc05c1ec9f24740cb61b7bdd0832961998d6",
    "scree.csv": "d766928bb29032a57a82e43c20138490e7121dbf1570f83c27dabc6d068e6e32",
    "dendrogram.csv": "fa624b028adc37c5837bf80aac3b221367d25c434a79f5c52ca051d03cb615b8",
}


def test_simulate_files_keep_their_bytes(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["simulate", "--model", "powerlaw", "--p", "60", "--n", "200", "--m", "3",
         "--estimators", "naive,lp,alca,2s-lp", "--seed", "5", "--diagnostics",
         "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "alca,nan,nan,nan,nan,3\n" in (tmp_path / "report.csv").read_text()
    assert _digests(tmp_path, GOLDEN_SIMULATE_FILES) == GOLDEN_SIMULATE_FILES


def test_simulate_rows_match_the_reference_loss(runner, tmp_path):
    from covdenoise import ModelSpec, frobenius_loss, make_estimator, sample_covariance
    from covdenoise.errors import CovDenoiseError
    from covdenoise.randomness import STREAM_REALIZATION, child_seed
    from conftest import reference_mv_loss

    result = runner.invoke(
        cli,
        ["simulate", "--model", "powerlaw", "--p", "60", "--n", "200", "--m", "3",
         "--estimators", "naive,lp,alca,2s-lp", "--seed", "5", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "report.json").read_text())
    sigma = ModelSpec.from_config(payload["model"]).build()
    for name, row in payload["rows"].items():
        f_vals, mv_vals = [], []
        for index in range(3):
            sample = sample_covariance(sigma, 200, child_seed(5, STREAM_REALIZATION, index)).sample
            try:
                estimate = make_estimator(name, 200)(sample)
            except CovDenoiseError:
                continue
            f_vals.append(frobenius_loss(estimate, sigma))
            mv_vals.append(reference_mv_loss(estimate, sigma))
        assert row["failures"] == 3 - len(mv_vals)
        if not mv_vals:
            assert all(np.isnan(row[key]) for key in ("mean_f", "se_f", "mean_mv", "se_mv"))
            continue
        se = 1.0 / np.sqrt(len(mv_vals))
        assert row["mean_f"] == np.mean(f_vals) and row["se_f"] == np.std(f_vals, ddof=1) * se
        for key, expected in (("mean_mv", np.mean(mv_vals)),
                              ("se_mv", np.std(mv_vals, ddof=1) * se)):
            assert abs(row[key] - expected) <= 1e-12 * abs(expected), (name, key)


# The "0.2" digest was recorded when one-channel convolutions became one GEMM
# each, the "0" digest when batches became in-order sums of one-sample losses;
# test_loss_curve_stays_at_the_recorded_values bounds each move.
GOLDEN_LOSS_CURVES = {
    "0.2": "5db4d322db8ccde46eb285969093601546b5ed7748e19e06641011a19bec5f38",
    "0": "52a3536f5744bf969c7494aea5335663ff5e02ed2c10f4dbfd22889c665b30ac",
}

# (train_mse, validation_mse) per epoch, as written before that change.
RECORDED_LOSS_CURVES = {
    "0.2": [(1.9280390937032668, 0.5725589920157329), (1.7600683043598977, 0.5386578251491206)],
    "0": [(1.8483603581290813, None), (1.694990557742452, None)],
}


def _train_loss_curve(runner, tmp_path, fraction):
    curve = tmp_path / "loss_curve.csv"
    result = runner.invoke(
        cli,
        ["train", "--model", "nested", "--p", "6", "--n", "20", "--count", "6",
         "--net-blocks", "1", "--filters", "2", "--epochs", "2", "--batch-size", "2",
         "--validation-fraction", fraction, "--weights-out", str(tmp_path / "w.cdnw"),
         "--loss-curve-out", str(curve)],
    )
    assert result.exit_code == 0, result.output
    return curve


@pytest.mark.parametrize("fraction", ["0.2", "0"])
def test_loss_curve_stays_at_the_recorded_values(runner, tmp_path, fraction):
    rows = _train_loss_curve(runner, tmp_path, fraction).read_text().splitlines()[1:]
    assert len(rows) == len(RECORDED_LOSS_CURVES[fraction])
    for row, recorded in zip(rows, RECORDED_LOSS_CURVES[fraction]):
        _, *values = row.split(",")
        for value, expected in zip(values, recorded):
            if expected is None:
                assert value == ""
            else:
                assert abs(float(value) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("fraction", ["0.2", "0"])
def test_loss_curve_keeps_its_bytes(runner, tmp_path, fraction):
    curve = _train_loss_curve(runner, tmp_path, fraction)
    rows = curve.read_text().splitlines()
    assert len(rows) == 3 and all(row.endswith(",") == (fraction == "0") for row in rows[1:])
    assert _digests(tmp_path, ["loss_curve.csv"]) == {"loss_curve.csv": GOLDEN_LOSS_CURVES[fraction]}


def _sample_values(param, tmp_path):
    """Two command-line values of ``param`` that parse apart, the first not
    its default."""
    if param.name == "block_sizes":
        return "4,5", "6"
    if param.name == "estimators":
        return "naive,lp", "alca"
    if isinstance(param.type, click.Choice):
        others = [choice for choice in param.type.choices if choice != param.default]
        return others[0], [*others, param.default][1]
    if isinstance(param.type, click.Path):
        paths = tmp_path / f"{param.name}-a", tmp_path / f"{param.name}-b"
        if param.type.exists:
            for path in paths:
                path.write_text("")
        return tuple(map(str, paths))
    if param.type is click.INT:
        return "7", "8"
    if param.type is click.FLOAT:
        return "0.25", "0.5"
    return "2023-04-01", "2024-01-01"


def _required_args(command, tmp_path, skip=None):
    args = []
    for param in command.params:
        if param.required and param is not skip:
            args += [param.opts[0], _sample_values(param, tmp_path)[0]]
    return args


def _parse(command, *args):
    """The option values ``command`` takes from ``args``, without running it."""
    return command.make_context(command.name, list(args)).params


def _flag_name(param):
    return param.opts[0].lstrip("-").replace("-", "_")


def _option_cases():
    for command in cli.commands.values():
        for param in command.params:
            if param.name != "config":
                yield pytest.param(command, param, id=f"{command.name}-{_flag_name(param)}")


@pytest.mark.parametrize("command, param", _option_cases())
def test_every_option_loads_from_a_config_file_by_its_flag_name(tmp_path, command, param):
    required = _required_args(command, tmp_path, skip=param)
    config = tmp_path / "run.cfg"
    key = param.opts[0].lstrip("-")
    if param.is_flag:
        config.write_text(f"{key}={str(not param.default).lower()}\n")
        assert _parse(command, *required, "--config", str(config))[param.name] is not param.default
        if param.secondary_opts:  # the flag restoring the default still wins
            restore = param.opts[0] if param.default else param.secondary_opts[0]
            parsed = _parse(command, *required, restore, "--config", str(config))
            assert parsed[param.name] is param.default
        return
    from_file, from_flag = _sample_values(param, tmp_path)
    config.write_text(f"{key}={from_file}\n")
    loaded = _parse(command, *required, "--config", str(config))[param.name]
    assert loaded == _parse(command, *required, param.opts[0], from_file)[param.name]
    if not param.required:
        assert loaded != _parse(command, *required)[param.name]
    flagged = _parse(command, *required, param.opts[0], from_flag)[param.name]
    assert flagged != loaded
    parsed = _parse(command, *required, param.opts[0], from_flag, "--config", str(config))
    assert parsed[param.name] == flagged


@pytest.mark.parametrize(
    "command, key",
    [("simulate", "block_sizes"), ("backtest", "split_date"), ("backtest", "returns_path"),
     ("train", "returns_path"), ("clean", "input_path"), ("train", "num_blocks"),
     ("backtest", "learning_rate"), ("backtest", "pre_history_days")],
)
def test_config_keys_take_underscores_and_parameter_names(tmp_path, command, key):
    command = cli.commands[command]
    param = next(param for param in command.params if param.name == key)
    required = _required_args(command, tmp_path, skip=param)
    value = _sample_values(param, tmp_path)[0]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    loaded = _parse(command, *required, "--config", str(config))[key]
    assert loaded == _parse(command, *required, param.opts[0], value)[key]


def test_required_options_can_come_from_the_config_file(runner, tmp_path):
    returns = _returns_csv(tmp_path, runner)
    config = tmp_path / "bt.cfg"
    config.write_text(f"returns={returns}\nsplit-date=2023-04-01\nt-in=30\nt_out=30\ndelta-t=30\n")
    by_file = runner.invoke(cli, ["backtest", "--config", str(config),
                                  "--out-dir", str(tmp_path / "file")])
    assert by_file.exit_code == 0, by_file.output
    by_flags = runner.invoke(
        cli,
        ["backtest", "--returns", str(returns), "--split-date", "2023-04-01", "--t-in", "30",
         "--t-out", "30", "--delta-t", "30", "--out-dir", str(tmp_path / "flags")],
    )
    assert by_flags.exit_code == 0, by_flags.output
    for name in ("metrics.json", "weights.csv", "daily_returns.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    config.write_text("model=nested\np=6\nestimators=naive\n")
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--n", "20", "--m", "2",
                                 "--out-dir", str(tmp_path / "sim")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "sim" / "report.json").read_text())["model"]["kind"] == "nested"


@pytest.mark.parametrize(
    "text, message",
    [("seed=1\nseed=2\n", ":2: repeated config key 'seed'"),
     ("block-sizes=3\n# note\nblock_sizes=4\n", ":3: repeated config key 'block_sizes'"),
     ("m=1\nconfig=other.cfg\n", ": unknown config key 'config'"),
     ("m=1\n\nseed 4\n", ":3: expected key=value, got 'seed 4'")],
    ids=["same-spelling", "two-spellings", "config-key", "no-equals"],
)
def test_config_file_errors_name_the_file_and_the_line_or_key(runner, tmp_path, text, message):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    result = runner.invoke(cli, ["simulate", "--model", "nested", "--config", str(config),
                                 "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"Error: {config}{message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", [["simulate"], ["train", "--source", "simulation"]], ids=["simulate", "train"]
)
def test_a_bad_block_size_exits_2_naming_the_token(runner, tmp_path, command):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, [*command, "--model", "block", "--block-sizes", "3,x"])
    assert result.exit_code == 2
    assert "Invalid value for '--block-sizes': 'x' is not a valid integer." in result.output


@pytest.mark.parametrize(
    "option, raw, expected",
    [("--block-sizes", " 3, ,4,", (3, 4)), ("--estimators", " naive , lp,", ("naive", "lp")),
     ("--estimators", ",", ())],
)
def test_comma_lists_strip_tokens_and_skip_empty_ones(option, raw, expected):
    parsed = _parse(cli.commands["simulate"], "--model", "block", option, raw)
    assert parsed[option[2:].replace("-", "_")] == expected


@pytest.mark.parametrize(
    "extra, message",
    [(["--estimators", ","], "no estimators given"),
     (["--estimators", "naive,lp,naive"], "estimators ['naive'] are listed more than once"),
     (["--threads", "0"], "threads must be >= 1, got 0")],
    ids=["empty", "repeated", "threads"],
)
def test_simulate_exits_2_on_estimator_lists_and_threads_the_harness_rejects(
    runner, tmp_path, extra, message
):
    result = runner.invoke(cli, ["simulate", "--model", "nested", "--p", "5", "--m", "1", *extra,
                                 "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "out").exists()


def _config_fields(config_class, *excluded):
    return {field.name: field for field in dataclasses.fields(config_class)
            if field.name not in excluded}


CONFIG_FIELDS = _config_fields(DenoiserConfig) | _config_fields(WalkForwardConfig)
FILLING_COMMANDS = ("simulate", "train", "backtest")


def _default_cases():
    for command in FILLING_COMMANDS:
        for param in cli.commands[command].params:
            if param.name in CONFIG_FIELDS:
                yield pytest.param(param, CONFIG_FIELDS[param.name],
                                   id=f"{command}-{_flag_name(param)}")


@pytest.mark.parametrize("param, field", _default_cases())
def test_cli_defaults_are_the_config_field_defaults(param, field):
    if field.default is dataclasses.MISSING:
        assert param.required
    else:
        assert param.default == field.default


@pytest.mark.parametrize("command", FILLING_COMMANDS)
def test_cli_options_named_after_config_fields_are_the_fields_the_command_fills(command):
    # every command fills the denoiser's fields but input_size; only train
    # sets its mode, and backtest also fills WalkForwardConfig
    filled = _config_fields(DenoiserConfig, "input_size", *([] if command == "train" else ["mode"]))
    if command == "backtest":
        filled |= _config_fields(WalkForwardConfig, "denoiser_config")
    named = {param.name for param in cli.commands[command].params if param.name in CONFIG_FIELDS}
    assert named == filled.keys()


@pytest.mark.parametrize("command", ["simulate", "clean"])
def test_unwritable_output_paths_exit_2_naming_the_path(runner, tmp_path, command):
    # a regular file where an output directory should be
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    if command == "simulate":
        args = ["simulate", "--model", "nested", "--p", "5", "--m", "2", "--estimators", "naive",
                "--out-dir", str(blocker / "out")]
    else:
        make_price_csv(tmp_path / "prices.csv")
        args = ["clean", "--input", str(tmp_path / "prices.csv"),
                "--output-prices", str(blocker / "x.csv"),
                "--output-returns", str(tmp_path / "returns.csv")]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert "Error: " in result.output and str(blocker) in result.output


def _computing(*args, **kwargs):
    pytest.fail("the command computed before it checked its output paths")


@pytest.mark.parametrize("command", ["simulate", "clean", "train", "backtest"])
def test_an_unwritable_output_exits_2_before_the_command_computes(
    runner, tmp_path, monkeypatch, command
):
    # train once trained in full, and backtest ran its whole walk-forward,
    # before either reached an output path under a regular file
    import covdenoise.cli as cli_module

    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    make_price_csv(tmp_path / "prices.csv")
    returns = _returns_csv(tmp_path, runner)
    for compute in ("run_monte_carlo", "clean_panel_report", "train", "walk_forward"):
        monkeypatch.setattr(cli_module, compute, _computing)
    args = {
        "simulate": ["simulate", "--model", "nested", "--p", "5", "--m", "2",
                     "--estimators", "naive", "--out-dir", str(blocker / "out")],
        "clean": ["clean", "--input", str(tmp_path / "prices.csv"),
                  "--output-prices", str(tmp_path / "cp2.csv"),
                  "--output-returns", str(blocker / "r.csv")],
        "train": ["train", "--model", "nested", "--p", "5", "--n", "20", "--count", "4",
                  "--net-blocks", "1", "--filters", "2", "--epochs", "1",
                  "--weights-out", str(blocker / "w.cdnw"),
                  "--loss-curve-out", str(tmp_path / "loss.csv")],
        "backtest": ["backtest", "--returns", str(returns), "--split-date", "2023-04-01",
                     "--t-in", "30", "--t-out", "30", "--delta-t", "30",
                     "--out-dir", str(blocker / "bt")],
    }[command]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert "Error: " in result.output and str(blocker) in result.output


@pytest.mark.parametrize("failing", ["under a file", "on write"])
def test_train_with_an_unwritable_loss_curve_leaves_no_weights_file(
    runner, tmp_path, monkeypatch, failing
):
    # the weights file was written first, so a failed loss curve left it behind
    import covdenoise.cli as cli_module

    curve = tmp_path / "loss.csv"
    if failing == "under a file":
        (tmp_path / "blocker").write_text("a regular file\n")
        curve = tmp_path / "blocker" / "loss.csv"
    else:
        def full_disk(path, *args):
            raise OSError(f"{path}: no space left on device")

        monkeypatch.setattr(cli_module, "write_table", full_disk)
    weights = tmp_path / "w.cdnw"
    result = runner.invoke(
        cli,
        ["train", "--model", "nested", "--p", "5", "--n", "20", "--count", "4",
         "--net-blocks", "1", "--filters", "2", "--epochs", "1",
         "--weights-out", str(weights), "--loss-curve-out", str(curve)],
    )
    assert result.exit_code == 2, result.output
    assert str(curve) in result.output
    assert not weights.exists()
