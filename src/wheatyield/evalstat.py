"""Temporal evaluation protocol and significance statistics.

The experiment trains every configured model once per configured feature
mode (soil-only columns, soil+weather columns of the same instances, or
both), scores each fit with MAE on the held-out year, compares models
within a mode by z-scores against the panel mean, and, when both modes
run, compares them per model with a one-tailed paired t-test on absolute
errors. The (model, mode) fits are independent, so they run on a pool of
worker processes, one per usable core by default.

The normal CDF comes from math.erf; the Student-t upper tail is computed
from the regularized incomplete beta function via its continued-fraction
expansion (Lentz's method), accurate to well below 1e-9 over the df range
used here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .features import (
    DEFAULT_FEATURE_PARAMS,
    FeatureParams,
    MODE_SOIL,
    MODE_SOIL_WEATHER,
    DesignMatrix,
    build_matrix,
    feature_names,
)
from .learners import MODEL_KINDS, ModelParams, predict, train_on_matrix

B_LESS_THAN_A = "b_less_than_a"
A_LESS_THAN_B = "a_less_than_b"
PAIRED_ALTERNATIVES = (B_LESS_THAN_A, A_LESS_THAN_B)


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Upper-tail probability P(T > t) for Student-t with df degrees."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    p = 0.5 * incomplete_beta(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


def temporal_split(
    instances: DesignMatrix,
    test_year: int,
    train_start: int | None = None,
    train_end: int | None = None,
) -> tuple[DesignMatrix, DesignMatrix]:
    """Train on years before test_year (clamped to the configured range),
    test on test_year exactly. Raises when either side is empty."""
    years = np.fromiter((year for _, year in instances.meta), np.int64, len(instances.meta))
    train = years < test_year
    if train_start is not None:
        train &= years >= train_start
    if train_end is not None:
        train &= years <= train_end
    test = years == test_year
    if not train.any():
        raise ValueError(f"empty training set for test year {test_year}")
    if not test.any():
        raise ValueError(f"no instances in test year {test_year}")
    return instances.take(np.flatnonzero(train)), instances.take(np.flatnonzero(test))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute error in t/ha."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("mae of empty vectors")
    return float(np.mean(np.abs(y_true - y_pred)))


def zscore_panel(maes: dict[str, float]) -> dict[str, tuple[float, float]]:
    """Per-model (z, p) against the panel of MAEs.

    z uses the population standard deviation of the panel; p is the
    upper-tail normal probability 1 - Phi(z). When every MAE is equal the
    convention is z = 0, p = 0.5 for all models.
    """
    if len(maes) < 2:
        raise ValueError("zscore_panel needs at least two models")
    values = np.array(list(maes.values()), dtype=np.float64)
    mean = float(values.mean())
    std = float(values.std())  # population std
    # a panel of identical values can still show a rounding-level std
    if std <= 1e-12 * max(1.0, abs(mean)):
        std = 0.0
    out: dict[str, tuple[float, float]] = {}
    for name, value in maes.items():
        z = 0.0 if std == 0.0 else (value - mean) / std
        out[name] = (z, 1.0 - normal_cdf(z))
    return out


def paired_t_one_tailed(
    err_a: np.ndarray,
    err_b: np.ndarray,
    alternative: str = B_LESS_THAN_A,
) -> tuple[float, float]:
    """One-tailed paired t-test on per-instance error vectors.

    With the default alternative, a small p supports "b has smaller
    errors than a". Zero-variance conventions: mean 0 -> (0, 0.5);
    nonzero mean -> (+-inf, 0 or 1) by sign.
    """
    err_a = np.asarray(err_a, dtype=np.float64)
    err_b = np.asarray(err_b, dtype=np.float64)
    if err_a.shape != err_b.shape or err_a.ndim != 1:
        raise ValueError("paired vectors must have identical shape")
    n = err_a.size
    if n < 2:
        raise ValueError("paired t-test needs n >= 2")
    if alternative not in PAIRED_ALTERNATIVES:
        raise ValueError(f"unknown alternative: {alternative!r}")
    d = err_a - err_b if alternative == B_LESS_THAN_A else err_b - err_a
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 0.5
        t = math.inf if mean > 0 else -math.inf
        return t, student_t_sf(t, n - 1)
    t = mean / (sd / math.sqrt(n))
    return t, student_t_sf(t, n - 1)


@dataclass(frozen=True)
class ReportRow:
    model: str
    mae_soil: float | None = None
    mae_sw: float | None = None
    z_soil: float | None = None
    p_soil: float | None = None
    z_sw: float | None = None
    p_sw: float | None = None
    t_paired: float | None = None
    p_paired: float | None = None


@dataclass
class Report:
    rows: list[ReportRow]
    train_years: tuple[int, ...]
    test_year: int
    seed: int
    config_digest: str
    n_train: int = 0
    n_test: int = 0

    def row(self, model: str) -> ReportRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


@dataclass
class ExperimentConfig:
    """Everything run_experiment needs besides the instances; ``modes`` are
    the feature modes to fit (``features.MODE_*``), widest first whatever
    their order here."""

    models: list[str]
    model_params: dict[str, ModelParams]
    test_year: int = 2018
    train_start: int | None = 2013
    train_end: int | None = 2017
    seed: int = 0
    modes: tuple[str, ...] = (MODE_SOIL, MODE_SOIL_WEATHER)
    paired_alternative: str = B_LESS_THAN_A
    feature_params: FeatureParams = field(default_factory=lambda: DEFAULT_FEATURE_PARAMS)
    n_jobs: int = 0  # worker processes; 0 = one per usable core
    config_digest: str = ""


def check_models(models: list[str]) -> None:
    """Refuse an unknown or repeated model kind."""
    for i, kind in enumerate(models):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if kind in models[:i]:
            raise ValueError(f"duplicate model kind {kind!r}")


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_predict(
    kind: str, params: ModelParams, train_dm: DesignMatrix, test_dm: DesignMatrix
) -> np.ndarray:
    """One cell of the (model, mode) grid: the test-year predictions."""
    return predict(train_on_matrix(kind, train_dm, params), test_dm)


def _fit_grid(tasks: list[tuple], n_jobs: int) -> list[np.ndarray]:
    """``_fit_predict(*task)`` for every task, results in task order.

    Each fit is seeded from its own ModelParams, so where it runs does not
    change its bits. One worker runs the fits here, in this process;
    more run them on spawned processes (never more than there are fits).
    """
    width = min(n_jobs or _usable_cores(), len(tasks))
    if width <= 1:
        return [_fit_predict(*task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=width, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        futures = [pool.submit(_fit_predict, *task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_experiment(instances: DesignMatrix, cfg: ExperimentConfig) -> Report:
    """Train every configured model in every configured mode and assemble
    the report.

    Instances must carry weather columns when a weather mode is
    requested; soil-only matrices are cut from the same instances so the
    paired comparison is over identical zone-years. The widest mode is
    fitted first, so its long fits start early. Each mode with two models
    or more gets a z-panel; the paired test runs when both modes do.
    """
    if not cfg.models:
        raise ValueError("no models configured")
    check_models(cfg.models)
    if cfg.paired_alternative not in PAIRED_ALTERNATIVES:
        raise ValueError(f"unknown alternative: {cfg.paired_alternative!r}")
    if not cfg.modes:
        raise ValueError("no feature modes configured")
    train_insts, test_insts = temporal_split(
        instances, cfg.test_year, cfg.train_start, cfg.train_end
    )
    modes = sorted(cfg.modes, key=lambda mode: len(feature_names(mode, cfg.feature_params)),
                   reverse=True)
    matrices = {
        mode: (
            build_matrix(train_insts, mode, cfg.feature_params),
            build_matrix(test_insts, mode, cfg.feature_params),
        )
        for mode in modes
    }
    grid = [(kind, mode) for mode in modes for kind in cfg.models]
    preds = _fit_grid(
        [(kind, cfg.model_params[kind], *matrices[mode]) for kind, mode in grid], cfg.n_jobs
    )
    # every dict below is keyed by (kind, mode)
    errors = {(kind, mode): np.abs(matrices[mode][1].target - pred)
              for (kind, mode), pred in zip(grid, preds)}
    maes = {cell: float(np.mean(err)) for cell, err in errors.items()}
    z_scores: dict[tuple[str, str], tuple[float, float]] = {}
    if len(cfg.models) >= 2:
        for mode in modes:
            panel = zscore_panel({kind: maes[kind, mode] for kind in cfg.models})
            z_scores.update(((kind, mode), zp) for kind, zp in panel.items())

    rows: list[ReportRow] = []
    for kind in cfg.models:
        t_paired = p_paired = None
        if MODE_SOIL in modes and MODE_SOIL_WEATHER in modes:
            t_paired, p_paired = paired_t_one_tailed(
                errors[kind, MODE_SOIL], errors[kind, MODE_SOIL_WEATHER], cfg.paired_alternative
            )
        rows.append(ReportRow(
            kind, maes.get((kind, MODE_SOIL)), maes.get((kind, MODE_SOIL_WEATHER)),
            *z_scores.get((kind, MODE_SOIL), (None, None)),
            *z_scores.get((kind, MODE_SOIL_WEATHER), (None, None)), t_paired, p_paired,
        ))
    return Report(
        rows=rows,
        train_years=tuple(sorted({year for _, year in train_insts.meta})),
        test_year=cfg.test_year,
        seed=cfg.seed,
        config_digest=cfg.config_digest,
        n_train=len(train_insts),
        n_test=len(test_insts),
    )
