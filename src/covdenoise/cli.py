"""Command-line interface: simulate, clean, train, backtest.

Exit codes: 0 success, 2 configuration/usage problems, 3 numeric failures.
Every output file is written atomically (temp file + rename).  A flat
``key=value`` config file can pre-set any option of a command; explicit
flags always win over the file, which wins over built-in defaults.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import click

from .atomic import atomic_write
from .backtest import (
    WalkForwardConfig,
    buy_and_hold,
    uniform_portfolio,
    walk_forward,
    write_report_files,
)
from .denoiser import (
    DenoiserConfig,
    build_training_set_rolling,
    build_training_set_simulation,
    save_weights,
    train,
)
from .denoiser.network import MODES
from .errors import DataError, NumericError, ParameterError
from .estimators import ESTIMATOR_NAMES, network_mode
from .evaluation import run_monte_carlo
from .hierarchy import Merge, correlation_distance, linkage
from .ingest import (
    clean_panel_report,
    load_prices,
    load_returns,
    log_returns,
    read_exclusions,
    write_prices,
    write_returns,
    write_table,
)
from .models import ModelKind, ModelSpec
from .spectral import cov_to_corr, eigendecompose_sym

DEFAULT_BLOCK_SIZES = "3,3,4,5,6,7,7,9,11,13,15,17"


def _numeric_failure(message: str) -> click.ClickException:
    failure = click.ClickException(message)
    failure.exit_code = 3
    return failure


def _guarded(fn):
    """Map package errors to the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParameterError, DataError) as exc:
            raise click.UsageError(str(exc)) from exc
        except NumericError as exc:
            raise _numeric_failure(str(exc)) from exc

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _apply_config(ctx: click.Context, options: dict) -> dict:
    """Overlay key=value file entries onto options still at their defaults."""
    config_path = options.get("config")
    if not config_path:
        return options
    entries: dict[str, str] = {}
    for number, line in enumerate(Path(config_path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise click.UsageError(f"{config_path}:{number}: expected key=value, got {line!r}")
        entries[key.strip()] = value.strip()
    by_name = {param.name: param for param in ctx.command.params}
    for key, raw in entries.items():
        name = key.replace("-", "_")
        if name == "config" or name not in by_name:
            raise click.UsageError(f"{config_path}: unknown config key {key!r}")
        if ctx.get_parameter_source(name) is click.core.ParameterSource.DEFAULT:
            options[name] = by_name[name].type.convert(raw, by_name[name], ctx)
    return options


def _model_spec(options: dict) -> ModelSpec:
    kind = ModelKind(options["model"])
    p = options["p"]
    if kind is ModelKind.BLOCK:
        sizes = tuple(int(tok) for tok in str(options["block_sizes"]).split(",") if tok.strip())
        return ModelSpec(kind=kind, p=sum(sizes), block_sizes=sizes, gamma=options["gamma"])
    if kind is ModelKind.NESTED:
        return ModelSpec(kind=kind, p=p, gamma=options["gamma"])
    return ModelSpec(kind=kind, p=p, alpha=options["alpha"], seed=options["model_seed"])


def _denoiser_config(options: dict, input_size: int) -> DenoiserConfig:
    return DenoiserConfig(
        input_size=input_size,
        num_blocks=options["net_blocks"],
        num_filters=options["filters"],
        kernel=options["kernel_size"],
        learning_rate=options["lr"],
        batch_size=options["batch_size"],
        epochs=options["epochs"],
        validation_fraction=options["validation_fraction"],
        seed=options["seed"],
    )


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Flat key=value file pre-setting any option of this command.",
)

_denoiser_options = [
    click.option("--net-blocks", type=int, default=10, show_default=True,
                 help="Residual blocks in the denoiser."),
    click.option("--filters", type=int, default=64, show_default=True,
                 help="Convolution filters per layer."),
    click.option("--kernel-size", type=int, default=3, show_default=True,
                 help="Convolution kernel size (odd)."),
    click.option("--lr", type=float, default=1e-3, show_default=True,
                 help="Adam learning rate."),
    click.option("--batch-size", type=int, default=16, show_default=True),
    click.option("--epochs", type=int, default=10, show_default=True),
    click.option("--validation-fraction", type=float, default=0.2, show_default=True),
]

_model_options = [
    click.option("--model", type=click.Choice([k.value for k in ModelKind]), required=True),
    click.option("--p", type=int, default=100, show_default=True,
                 help="Dimension (ignored for block models: sizes define it)."),
    click.option("--block-sizes", type=str, default=DEFAULT_BLOCK_SIZES, show_default=True),
    click.option("--gamma", type=float, default=0.3, show_default=True),
    click.option("--alpha", type=float, default=1.5, show_default=True),
    click.option("--model-seed", type=int, default=0, show_default=True,
                 help="Seed of the power-law orthogonal draw."),
]


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@click.group()
def cli() -> None:
    """Covariance denoising toolkit."""


@cli.command()
@_add_options(_model_options)
@click.option("--n", type=int, default=200, show_default=True, help="Observations per draw.")
@click.option("--m", type=int, default=1000, show_default=True, help="Monte Carlo realizations.")
@click.option("--estimators", type=str, default="naive,lp,alca,2s-lp", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--train-count", type=int, default=100, show_default=True,
              help="Training samples for learned estimators.")
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
@click.option("--diagnostics", is_flag=True, default=False,
              help="Also emit scree-plot and dendrogram data for the population model.")
@_add_options(_denoiser_options)
@_config_option
@click.pass_context
@_guarded
def simulate(ctx: click.Context, **options) -> None:
    """Monte Carlo loss evaluation of estimators on a population model."""
    options = _apply_config(ctx, options)
    spec = _model_spec(options)
    names = [tok.strip() for tok in options["estimators"].split(",") if tok.strip()]
    denoiser = None
    if any(network_mode(name) for name in names):
        denoiser = _denoiser_config(options, spec.p)
    report = run_monte_carlo(
        spec,
        n=options["n"],
        m=options["m"],
        estimators=names,
        seed=options["seed"],
        denoiser_config=denoiser,
        train_count=options["train_count"],
        threads=options["threads"],
    )
    out = Path(options["out_dir"])
    atomic_write(out / "report.csv", report.to_csv_text())
    atomic_write(out / "report.json", report.to_json_text())
    click.echo(f"{'estimator':<12}{'mean_f':>14}{'se_f':>12}{'mean_mv':>14}{'se_mv':>12}{'failures':>10}")
    for name in report.estimators:
        row = report.rows[name]
        click.echo(
            f"{name:<12}{row.mean_f:>14.6f}{row.se_f:>12.6f}"
            f"{row.mean_mv:>14.6f}{row.se_mv:>12.6f}{row.failures:>10d}"
        )
    if options["diagnostics"]:
        _write_diagnostics(spec, out)
    click.echo(f"report written to {out / 'report.csv'} and {out / 'report.json'}")


def _write_diagnostics(spec: ModelSpec, out: Path) -> None:
    sigma = spec.build()
    eigenvalues = eigendecompose_sym(sigma).eigenvalues.tolist()
    write_table(out / "scree.csv", ("rank", "eigenvalue"), enumerate(eigenvalues, start=1))
    corr, _ = cov_to_corr(sigma)
    merges = linkage(correlation_distance(corr), "single")
    header = [column.name for column in fields(Merge)]
    write_table(out / "dendrogram.csv", header, map(astuple, merges))


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--output-prices", type=click.Path(dir_okay=False), default="cleaned_prices.csv",
              show_default=True)
@click.option("--output-returns", type=click.Path(dir_okay=False), default="returns.csv",
              show_default=True)
@click.option("--missing-threshold", type=float, default=0.01, show_default=True)
@click.option("--volatility-quantile", type=float, default=0.10, show_default=True)
@click.option("--exclude-file", type=click.Path(exists=True, dir_okay=False), default=None)
@_config_option
@click.pass_context
@_guarded
def clean(ctx: click.Context, **options) -> None:
    """Clean a price CSV and emit filled prices plus log returns."""
    options = _apply_config(ctx, options)
    panel = load_prices(options["input_path"])
    exclusions = read_exclusions(options["exclude_file"]) if options["exclude_file"] else []
    cleaned, summary = clean_panel_report(
        panel,
        missing_threshold=options["missing_threshold"],
        volatility_quantile=options["volatility_quantile"],
        exclusions=exclusions,
    )
    returns = log_returns(cleaned)
    write_prices(cleaned, options["output_prices"])
    write_returns(returns, options["output_returns"])
    click.echo(
        f"dropped: {summary['missing']} (missing rule), {summary['volatility']} (volatility rule), "
        f"{summary['excluded']} (exclusion list); kept {len(cleaned.symbols)} symbols"
    )
    click.echo(f"wrote {options['output_prices']} and {options['output_returns']}")


@cli.command(name="train")
@click.option("--source", type=click.Choice(["simulation", "returns"]), default="simulation",
              show_default=True)
@_add_options(_model_options)
@click.option("--n", type=int, default=200, show_default=True,
              help="Observations per simulated draw.")
@click.option("--returns", "returns_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Returns CSV for rolling-window training.")
@click.option("--window-length", type=int, default=182, show_default=True)
@click.option("--count", type=int, default=100, show_default=True, help="Training samples.")
@click.option("--stride", type=int, default=1, show_default=True)
@click.option("--mode", type=click.Choice(list(MODES)), default="covariance",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--weights-out", type=click.Path(dir_okay=False), default="denoiser.cdnw",
              show_default=True)
@click.option("--loss-curve-out", type=click.Path(dir_okay=False), default="loss_curve.csv",
              show_default=True)
@_add_options(_denoiser_options)
@_config_option
@click.pass_context
@_guarded
def train_command(ctx: click.Context, **options) -> None:
    """Train the denoiser on simulated draws or a rolling returns panel."""
    options = _apply_config(ctx, options)
    if options["source"] == "simulation":
        spec = _model_spec(options)
        data = build_training_set_simulation(
            spec, options["n"], options["count"], options["seed"], mode=options["mode"]
        )
        input_size = spec.p
    else:
        if not options["returns_path"]:
            raise click.UsageError("--source returns requires --returns")
        panel = load_returns(options["returns_path"])
        data = build_training_set_rolling(
            panel,
            window_length=options["window_length"],
            count=options["count"],
            stride=options["stride"],
            mode=options["mode"],
        )
        input_size = len(panel.symbols)
    config = replace(_denoiser_config(options, input_size), mode=options["mode"])
    weights, history = train(config, data)
    save_weights(weights, options["weights_out"])
    # without a validation split the third column is empty
    validation = history.validation_mse or [""] * len(history.train_mse)
    write_table(
        options["loss_curve_out"],
        ("epoch", "train_mse", "validation_mse"),
        zip(range(len(history.train_mse)), history.train_mse, validation, strict=True),
    )
    final = history.train_mse[-1] if history.train_mse else float("nan")
    click.echo(f"saved weights to {options['weights_out']} (final training MSE {final:.6g})")


@cli.command(name="backtest")
@click.option("--returns", "returns_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--strategy", type=click.Choice(["estimator", "uniform", "buy-and-hold"]),
              default="estimator", show_default=True)
@click.option("--estimator", type=click.Choice(list(ESTIMATOR_NAMES)), default="naive",
              show_default=True)
@click.option("--symbol", type=str, default=None, help="Asset for buy-and-hold.")
@click.option("--split-date", type=str, required=True, help="First out-of-sample date (ISO).")
@click.option("--t-in", type=int, default=182, show_default=True)
@click.option("--t-out", type=int, default=182, show_default=True,
              help="Days each allocation is held; must equal --delta-t.")
@click.option("--delta-t", type=int, default=182, show_default=True,
              help="Days between rebalances; must equal --t-out, so holds run back to back.")
@click.option("--pre-history", type=int, default=282, show_default=True)
@click.option("--train-count", type=int, default=100, show_default=True)
@click.option("--train-stride", type=int, default=1, show_default=True)
@click.option("--return-mode", type=click.Choice(["simple", "log"]), default="simple",
              show_default=True)
@click.option("--seriation/--no-seriation", default=True, show_default=True,
              help="Reorder assets spectrally before denoising.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default="backtest_out",
              show_default=True)
@_add_options(_denoiser_options)
@_config_option
@click.pass_context
@_guarded
def backtest_command(ctx: click.Context, **options) -> None:
    """Walk-forward backtest of a covariance estimator (or a benchmark)."""
    options = _apply_config(ctx, options)
    panel = load_returns(options["returns_path"])
    needs_net = network_mode(options["estimator"]) is not None
    config = WalkForwardConfig(
        split_date=options["split_date"],
        estimator=options["estimator"],
        t_in=options["t_in"],
        t_out=options["t_out"],
        delta_t=options["delta_t"],
        return_mode=options["return_mode"],
        denoiser_config=_denoiser_config(options, len(panel.symbols)) if needs_net else None,
        train_window_count=options["train_count"],
        train_stride=options["train_stride"],
        pre_history_days=options["pre_history"],
        seriation_per_window=options["seriation"],
    )
    if options["strategy"] == "uniform":
        report = uniform_portfolio(panel, config)
        label = "uniform"
    elif options["strategy"] == "buy-and-hold":
        if not options["symbol"]:
            raise click.UsageError("--strategy buy-and-hold requires --symbol")
        report = buy_and_hold(panel, options["symbol"], config)
        label = f"buy-and-hold {options['symbol']}"
    else:
        report = walk_forward(panel, config)
        label = options["estimator"]
    paths = write_report_files(report, options["out_dir"])
    m = report.metrics
    click.echo(f"{'strategy':<22}{'cumulative':>12}{'annual':>10}{'volatility':>12}"
               f"{'sharpe':>9}{'drawdown':>11}{'turnover':>10}")
    click.echo(
        f"{label:<22}{m.cumulative_return:>12.4f}{m.annual_return:>10.2%}"
        f"{m.annual_volatility:>12.2%}{m.sharpe:>9.2f}{m.max_drawdown:>11.2%}{m.turnover:>10.4f}"
    )
    click.echo(f"report files in {Path(options['out_dir']).resolve()}")


def main() -> int:
    try:
        cli.main(args=sys.argv[1:], standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
