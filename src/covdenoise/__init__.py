"""Covariance-matrix denoising toolkit.

Generative covariance models with a Gaussian sampling process, classical and
neural denoising estimators, Monte Carlo loss evaluation, long-only
minimum-variance allocation, and a walk-forward backtester over price data.
"""

from .backtest import (
    BacktestReport,
    WalkForwardConfig,
    buy_and_hold,
    uniform_portfolio,
    walk_forward,
    write_report_files,
)
from .covariance import CovarianceMatrix
from .errors import (
    ChecksumError,
    CovDenoiseError,
    DataError,
    NumericError,
    ParameterError,
    SingularMatrixError,
    SolverError,
    WeightsFormatError,
)
from .estimators import (
    ESTIMATOR_NAMES,
    assemble_hybrid,
    estimate_alca,
    estimate_cnn,
    estimate_hybrid,
    estimate_lp,
    estimate_naive,
    estimate_two_step,
    make_estimator,
    network_mode,
    shrink_eigenvalues,
)
from .evaluation import MonteCarloReport, frobenius_loss, mv_loss, run_monte_carlo
from .ingest import (
    PricePanel,
    ReturnsPanel,
    clean_panel,
    clean_panel_report,
    load_prices,
    load_returns,
    log_returns,
    read_exclusions,
    write_prices,
    write_returns,
)
from .models import (
    ModelKind,
    ModelSpec,
    SampleDraw,
    build_block_model,
    build_nested_model,
    build_powerlaw_model,
    sample_covariance,
)
from .portfolio import (
    PerformanceMetrics,
    WeightVector,
    mvp_plus_weights,
    mvp_weights,
    portfolio_metrics,
)
from .spectral import (
    SpectralDecomposition,
    cov_to_corr,
    corr_to_cov,
    eigendecompose_sym,
    psd_project,
    spectral_seriation,
    stieltjes,
)

__version__ = "0.1.0"
