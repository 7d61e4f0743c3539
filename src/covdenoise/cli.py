"""Command-line interface: simulate, clean, train, backtest.

Exit codes: 0 success, 2 configuration/usage problems, 3 numeric failures.
Every output file is written atomically (temp file + rename).  A flat
``key=value`` config file can pre-set any option of a command; it fills
click's ``default_map``, so explicit flags win over the file, which wins over
built-in defaults.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import click

from .atomic import atomic_write
from .backtest import (
    RETURN_MODES,
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


def _load_config(ctx: click.Context, _param: click.Parameter, path: str | None) -> None:
    """Read a flat key=value file into ``ctx.default_map``.

    A key is an option's flag name without dashes, spelled with ``-`` or
    ``_``, or its parameter name.  Click then reads a value from the command
    line first, then from the file, then the default.
    """
    if path is None:
        return
    names = {
        spelling.replace("-", "_"): param.name
        for param in ctx.command.params if param.name != "config"
        for spelling in (param.name, *(opt.lstrip("-") for opt in param.opts))
    }
    entries: dict[str, str] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        key = key.strip()
        if not sep:
            raise click.UsageError(f"{path}:{number}: expected key=value, got {line!r}", ctx)
        name = names.get(key.replace("-", "_"))
        if name is None:
            raise click.UsageError(f"{path}: unknown config key {key!r}", ctx)
        if name in entries:
            raise click.UsageError(f"{path}:{number}: repeated config key {key!r}", ctx)
        entries[name] = value.strip()
    ctx.default_map = entries


class _Command(click.Command):
    """A command with ``--config``, mapping package errors to the exit codes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(
            ["--config"], type=click.Path(exists=True, dir_okay=False), is_eager=True,
            expose_value=False, callback=_load_config,
            help="Flat key=value file pre-setting any option of this command.",
        ))

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ParameterError, DataError) as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except NumericError as exc:
            failure = click.ClickException(str(exc))
            failure.exit_code = 3
            raise failure from exc


class _Group(click.Group):
    command_class = _Command


class _CommaList(click.types.StringParamType):
    """Comma-separated tokens, stripped, empty ones skipped, each converted
    by ``item``."""

    def __init__(self, item: click.ParamType) -> None:
        self.item = item

    def convert(self, value, param, ctx) -> tuple:
        tokens = (token.strip() for token in super().convert(value, param, ctx).split(","))
        return tuple(self.item(token, param, ctx) for token in tokens if token)


def _model_spec(options: dict) -> ModelSpec:
    kind = ModelKind(options["model"])
    p = options["p"]
    if kind is ModelKind.BLOCK:
        sizes = options["block_sizes"]
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


_denoiser_options = [
    click.option("--net-blocks", type=int, default=DenoiserConfig.num_blocks,
                 help="Residual blocks in the denoiser."),
    click.option("--filters", type=int, default=DenoiserConfig.num_filters,
                 help="Convolution filters per layer."),
    click.option("--kernel-size", type=int, default=DenoiserConfig.kernel,
                 help="Convolution kernel size (odd)."),
    click.option("--lr", type=float, default=DenoiserConfig.learning_rate,
                 help="Adam learning rate."),
    click.option("--batch-size", type=int, default=DenoiserConfig.batch_size),
    click.option("--epochs", type=int, default=DenoiserConfig.epochs),
    click.option("--validation-fraction", type=float, default=DenoiserConfig.validation_fraction),
]

_MODEL_KINDS = click.Choice([k.value for k in ModelKind])
# the population model's parameters; each command declares --model itself
_model_options = [
    click.option("--p", type=int, default=100,
                 help="Dimension (ignored for block models: sizes define it)."),
    click.option("--block-sizes", type=_CommaList(click.INT), default=DEFAULT_BLOCK_SIZES),
    click.option("--gamma", type=float, default=0.3),
    click.option("--alpha", type=float, default=1.5),
    click.option("--model-seed", type=int, default=0,
                 help="Seed of the power-law orthogonal draw."),
]


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@click.group(cls=_Group, context_settings={"show_default": True})
def cli() -> None:
    """Covariance denoising toolkit."""


@cli.command()
@click.option("--model", type=_MODEL_KINDS, required=True)
@_add_options(_model_options)
@click.option("--n", type=int, default=200, help="Observations per draw.")
@click.option("--m", type=int, default=1000, help="Monte Carlo realizations.")
@click.option("--estimators", type=_CommaList(click.STRING), default="naive,lp,alca,2s-lp")
@click.option("--seed", type=int, default=0)
@click.option("--train-count", type=int, default=100,
              help="Training samples for learned estimators.")
@click.option("--threads", type=int, default=1)
@click.option("--out-dir", type=click.Path(file_okay=False), default=".")
@click.option("--diagnostics", is_flag=True,
              help="Also emit scree-plot and dendrogram data for the population model.")
@_add_options(_denoiser_options)
def simulate(**options) -> None:
    """Monte Carlo loss evaluation of estimators on a population model."""
    spec = _model_spec(options)
    denoiser = None
    if any(network_mode(name) for name in options["estimators"]):
        denoiser = _denoiser_config(options, spec.p)
    report = run_monte_carlo(
        spec,
        n=options["n"],
        m=options["m"],
        estimators=options["estimators"],
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
@click.option("--output-prices", type=click.Path(dir_okay=False), default="cleaned_prices.csv")
@click.option("--output-returns", type=click.Path(dir_okay=False), default="returns.csv")
@click.option("--missing-threshold", type=float, default=0.01)
@click.option("--volatility-quantile", type=float, default=0.10)
@click.option("--exclude-file", type=click.Path(exists=True, dir_okay=False))
def clean(**options) -> None:
    """Clean a price CSV and emit filled prices plus log returns."""
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
@click.option("--source", type=click.Choice(["simulation", "returns"]), default="simulation")
@click.option("--model", type=_MODEL_KINDS,
              help="Population model; required with --source simulation.")
@_add_options(_model_options)
@click.option("--n", type=int, default=200, help="Observations per simulated draw.")
@click.option("--returns", "returns_path", type=click.Path(exists=True, dir_okay=False),
              help="Returns CSV for rolling-window training.")
@click.option("--window-length", type=int, default=182)
@click.option("--count", type=int, default=100, help="Training samples.")
@click.option("--stride", type=int, default=1)
@click.option("--mode", type=click.Choice(list(MODES)), default="covariance")
@click.option("--seed", type=int, default=0)
@click.option("--weights-out", type=click.Path(dir_okay=False), default="denoiser.cdnw")
@click.option("--loss-curve-out", type=click.Path(dir_okay=False), default="loss_curve.csv")
@_add_options(_denoiser_options)
def train_command(**options) -> None:
    """Train the denoiser on simulated draws or a rolling returns panel."""
    if options["source"] == "simulation":
        if options["model"] is None:
            raise click.UsageError("--source simulation requires --model")
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
              default="estimator")
@click.option("--estimator", type=click.Choice(list(ESTIMATOR_NAMES)),
              default=WalkForwardConfig.estimator)
@click.option("--symbol", type=str, help="Asset for buy-and-hold.")
@click.option("--split-date", type=str, required=True, help="First out-of-sample date (ISO).")
@click.option("--t-in", type=int, default=WalkForwardConfig.t_in)
@click.option("--t-out", type=int, default=WalkForwardConfig.t_out,
              help="Days each allocation is held; must equal --delta-t.")
@click.option("--delta-t", type=int, default=WalkForwardConfig.delta_t,
              help="Days between rebalances; must equal --t-out, so holds run back to back.")
@click.option("--pre-history", type=int, default=WalkForwardConfig.pre_history_days)
@click.option("--train-count", type=int, default=WalkForwardConfig.train_window_count)
@click.option("--train-stride", type=int, default=WalkForwardConfig.train_stride)
@click.option("--return-mode", type=click.Choice(RETURN_MODES),
              default=WalkForwardConfig.return_mode)
@click.option("--seriation/--no-seriation", default=WalkForwardConfig.seriation_per_window,
              help="Reorder assets spectrally before denoising.")
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", type=click.Path(file_okay=False), default="backtest_out")
@_add_options(_denoiser_options)
def backtest_command(**options) -> None:
    """Walk-forward backtest of a covariance estimator (or a benchmark)."""
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
