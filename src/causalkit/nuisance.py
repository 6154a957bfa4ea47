"""Nuisance learners: ridge logistic propensity, ridge linear outcome, cross-fitting.

Both learners work on an expanded feature matrix (see :func:`apply_feature_map`)
with an intercept prepended internally; the ridge penalty never touches it.
Cross-fitting produces out-of-fold predictions: unit i's nuisance values come
from models trained on every fold except fold(i), all folds fitted together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ObservationalDataset
from .errors import ConfigError, FoldError, RankDeficiencyError, SeparationError, ValidationError
from .rng import stream

__all__ = [
    "FEATURE_MAPS",
    "PropensityModel",
    "OutcomeModel",
    "FoldAssignment",
    "NuisanceFit",
    "apply_feature_map",
    "fit_logistic",
    "fit_linear",
    "make_folds",
    "cross_fit",
]

FEATURE_MAPS = ("linear", "linear_plus_quadratic")

# Logits beyond this round the probability to exactly 0 or 1 in double
# precision; clamping keeps predictions strictly inside (0, 1).
_MAX_LOGIT = 30.0

# Units per block of the stacked fits' sums, which bounds their (problems x
# columns x units) temporaries at any n; 2000 units make one block.
_BLOCK_ROWS = 2048


def apply_feature_map(x: np.ndarray, features: str) -> np.ndarray:
    """Expand raw covariates: identity, or squares appended column-wise."""
    if features not in FEATURE_MAPS:
        raise ConfigError(f"unknown feature map '{features}', expected one of {FEATURE_MAPS}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"covariate matrix must be 2-dimensional, got shape {x.shape}")
    if features == "linear":
        return x
    return np.hstack([x, x * x])


def _design(x: np.ndarray, features: str) -> np.ndarray:
    """The (p, n) design, one row per column: the intercept, then the features."""
    f = apply_feature_map(x, features)
    design = np.ones((1 + f.shape[1], f.shape[0]))
    design[1:] = f.T
    return design


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -_MAX_LOGIT, _MAX_LOGIT)))


@dataclass(frozen=True)
class PropensityModel:
    """Ridge-logistic propensity fit.  Predictions are strictly in (0, 1)."""

    coefficients: np.ndarray
    ridge_lambda: float
    features: str = "linear"
    converged: bool = True
    iterations: int = 0

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.coefficients @ _design(x, self.features))


@dataclass(frozen=True)
class OutcomeModel:
    """Ridge-linear outcome regression for one treatment arm."""

    coefficients: np.ndarray
    ridge_lambda: float
    features: str = "linear"

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.coefficients @ _design(x, self.features)


def _blocks(n: int):
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n, _BLOCK_ROWS))


def _grams(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_i w[j, i] d[:, i] d[:, i]^T for every row j of w, as one matrix product."""
    p, b = d.shape
    return ((w[:, None, :] * d).reshape(-1, b) @ d.T).reshape(len(w), p, p)


def _logistic_ll(d: np.ndarray, a: np.ndarray, w: np.ndarray, beta: np.ndarray, lam: float) -> np.ndarray:
    """Penalized Bernoulli log-likelihood of each row of beta over the units its row of 0/1 w marks."""
    ll = np.zeros(len(beta))
    for rows in _blocks(d.shape[1]):
        eta = np.clip(beta @ d[:, rows], -_MAX_LOGIT, _MAX_LOGIT)
        # log(1 + e^eta), stable on both tails
        softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        ll += np.sum(w[:, rows] * (a[rows] * eta - softplus), axis=1)
    return ll - 0.5 * lam * np.sum(beta[:, 1:] ** 2, axis=1)


def _irls(
    design: np.ndarray, a: np.ndarray, masks: np.ndarray, lam: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit one ridge-logistic model to the units of each row of `masks`, by IRLS.

    The problems take their Newton steps together, each with its own step
    halving, convergence test and iteration count, which it returns.
    """
    if lam < 0:
        raise ConfigError("ridge_lambda must be >= 0")
    k, p = len(masks), design.shape[0]
    pen = lam * (np.arange(p) > 0)  # the intercept is not penalized
    beta = np.zeros((k, p))
    ll = _logistic_ll(design, a, masks, beta, lam)
    converged, iterations, live = np.zeros(k, dtype=bool), np.zeros(k, dtype=np.int64), np.arange(k)
    for it in range(max_iter + 1):
        b, w = beta[live], masks[live].astype(float)
        grad, hess = -pen * b, np.zeros((live.size, p, p)) + np.diag(pen)
        for rows in _blocks(design.shape[1]):
            d, w_rows = design[:, rows], w[:, rows]
            prob = _sigmoid(b @ d)
            grad += (w_rows * (a[rows] - prob)) @ d.T
            hess += _grams(w_rows * np.maximum(prob * (1.0 - prob), 1e-10), d)
        done = np.max(np.abs(grad), axis=1) < tol
        converged[live[done]] = True
        live, grad, hess, w = live[~done], grad[~done], hess[~done], w[~done]
        if live.size == 0 or it == max_iter:
            break
        try:
            step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "singular IRLS system; increase ridge_lambda or drop collinear covariates"
            ) from None
        base, floor = beta[live], ll[live] - 1e-12 * np.maximum(1.0, np.abs(ll[live]))
        scale, cand = np.ones(live.size), base + step
        cand_ll = _logistic_ll(design, a, w, cand, lam)
        short = cand_ll < floor
        while short.any():
            scale[short] *= 0.5
            cand[short] = base[short] + scale[short, None] * step[short]
            cand_ll[short] = _logistic_ll(design, a, w[short], cand[short], lam)
            short = (cand_ll < floor) & (scale > 1e-12)
        beta[live], ll[live], iterations[live] = cand, cand_ll, it + 1
    return beta, converged, iterations


def _ridge(design: np.ndarray, y: np.ndarray, masks: np.ndarray, lam: float) -> np.ndarray:
    """Solve the ridge normal equations over the units of every row of `masks` in one call."""
    if lam < 0:
        raise ConfigError("ridge_lambda must be >= 0")
    p = design.shape[0]
    gram = np.zeros((len(masks), p, p)) + np.diag(lam * (np.arange(p) > 0))
    rhs = np.zeros((len(masks), p))
    for rows in _blocks(design.shape[1]):
        d, m = design[:, rows], masks[:, rows]
        gram += _grams(m, d)
        rhs += (m * y[rows]) @ d.T
    if lam == 0.0 and any(np.linalg.matrix_rank(design[:, m]) < p for m in masks):
        raise RankDeficiencyError(
            "design matrix is rank deficient; set ridge_lambda > 0 or remove redundant columns"
        )
    try:
        return np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("normal equations are singular; set ridge_lambda > 0") from None


def fit_logistic(
    x: np.ndarray,
    a: np.ndarray,
    ridge_lambda: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 100,
    features: str = "linear",
) -> PropensityModel:
    """Maximize the ridge-penalized Bernoulli log-likelihood by IRLS.

    Newton steps are halved until the penalized log-likelihood does not fall
    by more than 1e-12 of its magnitude (at least 1e-12): the rounding noise
    of a sum over many units exceeds any fixed threshold, which would halve
    away every step near the optimum.  Convergence means every gradient
    component is below `tol` in absolute value.  Non-convergence is flagged
    on the model, not fatal.  A single-class response with no penalty has no
    maximizer and raises SeparationError.  This is the one-problem case of
    the stacked IRLS that :func:`cross_fit` runs over all its folds.
    """
    a = np.asarray(a, dtype=float)
    design = _design(x, features)
    n = design.shape[1]
    if a.shape != (n,):
        raise ValidationError(f"treatment vector has shape {a.shape}, expected ({n},)")
    if ridge_lambda == 0.0 and (np.all(a == 1) or np.all(a == 0)):
        raise SeparationError(
            "treatment is constant; the unpenalized likelihood has no maximizer "
            "(set ridge_lambda > 0 or supply both arms)"
        )
    beta, converged, iterations = _irls(design, a, np.ones((1, n), dtype=bool), ridge_lambda, tol, max_iter)
    beta.setflags(write=False)
    return PropensityModel(coefficients=beta[0], ridge_lambda=float(ridge_lambda), features=features,
                           converged=bool(converged[0]), iterations=int(iterations[0]))


def fit_linear(
    x: np.ndarray,
    y: np.ndarray,
    ridge_lambda: float = 0.0,
    features: str = "linear",
) -> OutcomeModel:
    """Solve the ridge-penalized normal equations (penalty off the intercept).

    With ridge_lambda=0 this is exact least squares; a singular unpenalized
    system raises RankDeficiencyError advising a positive penalty.  This is
    the one-problem case of the stacked solve that :func:`cross_fit` makes.
    """
    y = np.asarray(y, dtype=float)
    design = _design(x, features)
    n = design.shape[1]
    if y.shape != (n,):
        raise ValidationError(f"outcome vector has shape {y.shape}, expected ({n},)")
    beta = _ridge(design, y, np.ones((1, n), dtype=bool), ridge_lambda)[0]
    beta.setflags(write=False)
    return OutcomeModel(coefficients=beta, ridge_lambda=float(ridge_lambda), features=features)


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of n units into k folds whose sizes differ by at most one."""

    fold_index: np.ndarray
    k: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.fold_index, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "fold_index", idx)
        if idx.ndim != 1:
            raise ValidationError("fold_index must be a vector")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        counts = np.bincount(idx, minlength=self.k)
        if idx.size and (idx.min() < 0 or idx.max() >= self.k):
            raise ValidationError("fold labels must lie in [0, k)")
        if counts.max() - counts.min() > 1:
            raise ValidationError("fold sizes must differ by at most one")

    @property
    def n(self) -> int:
        return int(self.fold_index.size)

    def indices(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.fold_index == j)

    def complement(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.fold_index != j)


def make_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Randomly partition n units into k folds, deterministically in seed.

    The first n mod k folds get the extra unit, so n=10, k=3 gives sizes
    4, 3, 3.
    """
    if k < 2 or k > n:
        raise ConfigError(f"k must satisfy 2 <= k <= n, got k={k} with n={n}")
    perm = stream(seed).permutation(n)
    fold_index = np.empty(n, dtype=np.int64)
    for j, block in enumerate(np.array_split(perm, k)):
        fold_index[block] = j
    return FoldAssignment(fold_index=fold_index, k=k)


@dataclass(frozen=True)
class NuisanceFit:
    """Out-of-fold nuisance predictions with clipping and IRLS bookkeeping.

    irls_converged and irls_iterations hold one entry per fold's propensity
    fit, in fold order; they are empty for fits not made by cross_fit.
    """

    pi_hat: np.ndarray
    mu0_hat: np.ndarray
    mu1_hat: np.ndarray
    folds: FoldAssignment
    clip_lo: float
    clip_hi: float
    clip_count: int = 0
    irls_converged: tuple[bool, ...] = ()
    irls_iterations: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("pi_hat", "mu0_hat", "mu1_hat"):
            v = np.asarray(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            if v.shape != (self.folds.n,):
                raise ValidationError(f"{name} must have one value per unit")
        if not (0.0 < self.clip_lo < self.clip_hi < 1.0):
            raise ValidationError("clip bounds must satisfy 0 < lo < hi < 1")
        if self.pi_hat.size and (self.pi_hat.min() < self.clip_lo or self.pi_hat.max() > self.clip_hi):
            raise ValidationError("pi_hat outside clip bounds after clipping")


def cross_fit(
    dataset: ObservationalDataset,
    k: int = 5,
    *,
    clip: tuple[float, float] = (0.01, 0.99),
    propensity_lambda: float = 1e-6,
    outcome_lambda: float = 1e-8,
    propensity_features: str = "linear",
    outcome_features: str = "linear",
    tol: float = 1e-8,
    max_iter: int = 100,
    seed: int = 0,
) -> NuisanceFit:
    """Produce out-of-fold propensity and per-arm outcome predictions.

    For each fold j, all three models are fitted on the other folds and
    evaluated on fold j only: the k propensity fits run as one stacked IRLS
    and the 2k outcome fits as one stacked solve, on designs built once.
    Propensities are then clipped to `clip` and the number of clipped units
    recorded, along with each fold's IRLS convergence flag and iteration count.
    """
    clip_lo, clip_hi = float(clip[0]), float(clip[1])
    if not (0.0 < clip_lo < clip_hi < 1.0):
        raise ConfigError(f"clip bounds must satisfy 0 < lo < hi < 1, got {clip!r}")
    n = dataset.n
    folds = make_folds(n, k, seed)
    fold = folds.fold_index
    train = fold != np.arange(k)[:, None]  # row j: the units fold j's models are fitted on
    treated = dataset.a == 1
    n_treated = np.count_nonzero(train & treated, axis=1)
    empty = np.flatnonzero((n_treated == 0) | (n_treated == n - np.bincount(fold, minlength=k)))
    if empty.size:
        missing = "treated" if n_treated[empty[0]] == 0 else "control"
        raise FoldError(f"training complement of fold {empty[0]} contains no {missing} units")
    design = _design(dataset.x, propensity_features)
    beta, converged, iterations = _irls(design, treated.astype(float), train, propensity_lambda, tol, max_iter)
    pi_raw = _sigmoid(np.einsum("ij,ji->i", beta[fold], design))
    if outcome_features != propensity_features:
        design = _design(dataset.x, outcome_features)
    # rows 0..k-1 fit the treated units of each fold's complement, rows k..2k-1 the controls
    coef = _ridge(design, dataset.y, np.concatenate([train & treated, train & ~treated]), outcome_lambda)
    return NuisanceFit(
        pi_hat=np.clip(pi_raw, clip_lo, clip_hi),
        mu0_hat=np.einsum("ij,ji->i", coef[k + fold], design),
        mu1_hat=np.einsum("ij,ji->i", coef[fold], design),
        folds=folds,
        clip_lo=clip_lo,
        clip_hi=clip_hi,
        clip_count=int(np.sum((pi_raw < clip_lo) | (pi_raw > clip_hi))),
        irls_converged=tuple(bool(c) for c in converged),
        irls_iterations=tuple(int(i) for i in iterations),
    )
