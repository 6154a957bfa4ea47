"""Nuisance learners: ridge logistic propensity, ridge linear outcome, cross-fitting.

Both learners work on an expanded feature matrix (see :func:`apply_feature_map`)
with an intercept column prepended internally.  The ridge penalty never touches
the intercept.  Cross-fitting produces out-of-fold predictions: unit i's
nuisance values come from models trained on every fold except fold(i).
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
    f = apply_feature_map(x, features)
    return np.hstack([np.ones((f.shape[0], 1)), f])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    eta = np.clip(eta, -_MAX_LOGIT, _MAX_LOGIT)
    return np.where(eta >= 0, 1.0 / (1.0 + np.exp(-eta)), np.exp(eta) / (1.0 + np.exp(eta)))


@dataclass(frozen=True)
class PropensityModel:
    """Ridge-logistic propensity fit.  Predictions are strictly in (0, 1)."""

    coefficients: np.ndarray
    ridge_lambda: float
    features: str = "linear"
    converged: bool = True
    iterations: int = 0

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(_design(x, self.features) @ self.coefficients)


@dataclass(frozen=True)
class OutcomeModel:
    """Ridge-linear outcome regression for one treatment arm."""

    coefficients: np.ndarray
    ridge_lambda: float
    features: str = "linear"
    arm: int | None = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _design(x, self.features) @ self.coefficients


def _penalized_ll(design: np.ndarray, a: np.ndarray, beta: np.ndarray, lam: float) -> float:
    eta = np.clip(design @ beta, -_MAX_LOGIT, _MAX_LOGIT)
    # log(1 + e^eta) computed stably on both tails
    ll = float(np.sum(a * eta - np.logaddexp(0.0, eta)))
    return ll - 0.5 * lam * float(beta[1:] @ beta[1:])


def fit_logistic(
    x: np.ndarray,
    a: np.ndarray,
    ridge_lambda: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 100,
    features: str = "linear",
) -> PropensityModel:
    """Maximize the ridge-penalized Bernoulli log-likelihood by IRLS.

    Newton steps with step-halving keep the penalized log-likelihood
    non-decreasing.  Convergence means every gradient component is below
    `tol` in absolute value.  Non-convergence is flagged on the model, not
    fatal.  A single-class response with no penalty has no maximizer and
    raises SeparationError.
    """
    if ridge_lambda < 0:
        raise ConfigError("ridge_lambda must be >= 0")
    a = np.asarray(a, dtype=float)
    design = _design(x, features)
    n, p = design.shape
    if a.shape != (n,):
        raise ValidationError(f"treatment vector has shape {a.shape}, expected ({n},)")
    if ridge_lambda == 0.0 and (np.all(a == 1) or np.all(a == 0)):
        raise SeparationError(
            "treatment is constant; the unpenalized likelihood has no maximizer "
            "(set ridge_lambda > 0 or supply both arms)"
        )
    penalty_mask = np.ones(p)
    penalty_mask[0] = 0.0
    beta = np.zeros(p)
    ll = _penalized_ll(design, a, beta, ridge_lambda)
    converged = False
    iterations = 0
    for it in range(max_iter):
        prob = _sigmoid(design @ beta)
        grad = design.T @ (a - prob) - ridge_lambda * penalty_mask * beta
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            break
        w = np.clip(prob * (1.0 - prob), 1e-10, None)
        hess = design.T @ (design * w[:, None]) + ridge_lambda * np.diag(penalty_mask)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "singular IRLS system; increase ridge_lambda or drop collinear covariates"
            ) from None
        scale = 1.0
        candidate = beta + step
        cand_ll = _penalized_ll(design, a, candidate, ridge_lambda)
        while cand_ll < ll - 1e-12 and scale > 1e-12:
            scale *= 0.5
            candidate = beta + scale * step
            cand_ll = _penalized_ll(design, a, candidate, ridge_lambda)
        beta = candidate
        ll = cand_ll
        iterations = it + 1
    else:
        prob = _sigmoid(design @ beta)
        grad = design.T @ (a - prob) - ridge_lambda * penalty_mask * beta
        converged = bool(np.max(np.abs(grad)) < tol)
    beta.setflags(write=False)
    return PropensityModel(
        coefficients=beta,
        ridge_lambda=float(ridge_lambda),
        features=features,
        converged=converged,
        iterations=iterations,
    )


def fit_linear(
    x: np.ndarray,
    y: np.ndarray,
    ridge_lambda: float = 0.0,
    features: str = "linear",
    arm: int | None = None,
) -> OutcomeModel:
    """Solve the ridge-penalized normal equations (penalty off the intercept).

    With ridge_lambda=0 this is exact least squares; a singular unpenalized
    system raises RankDeficiencyError advising a positive penalty.
    """
    if ridge_lambda < 0:
        raise ConfigError("ridge_lambda must be >= 0")
    y = np.asarray(y, dtype=float)
    design = _design(x, features)
    n, p = design.shape
    if y.shape != (n,):
        raise ValidationError(f"outcome vector has shape {y.shape}, expected ({n},)")
    penalty = ridge_lambda * np.eye(p)
    penalty[0, 0] = 0.0
    gram = design.T @ design + penalty
    rhs = design.T @ y
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(design) < p:
        raise RankDeficiencyError(
            "design matrix is rank deficient; set ridge_lambda > 0 or remove redundant columns"
        )
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "normal equations are singular; set ridge_lambda > 0"
        ) from None
    beta.setflags(write=False)
    return OutcomeModel(coefficients=beta, ridge_lambda=float(ridge_lambda), features=features, arm=arm)


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
    evaluated on fold j only.  Propensities are then clipped to `clip` and
    the number of clipped units recorded, along with each fold's IRLS
    convergence flag and iteration count.
    """
    clip_lo, clip_hi = float(clip[0]), float(clip[1])
    if not (0.0 < clip_lo < clip_hi < 1.0):
        raise ConfigError(f"clip bounds must satisfy 0 < lo < hi < 1, got {clip!r}")
    n = dataset.n
    folds = make_folds(n, k, seed)
    pi_raw = np.empty(n)
    mu0 = np.empty(n)
    mu1 = np.empty(n)
    props = []
    for j in range(k):
        test = folds.indices(j)
        train = folds.complement(j)
        a_tr = dataset.a[train]
        n_treated = int(a_tr.sum())
        if n_treated == 0 or n_treated == train.size:
            missing = "treated" if n_treated == 0 else "control"
            raise FoldError(f"training complement of fold {j} contains no {missing} units")
        x_tr, x_te = dataset.x[train], dataset.x[test]
        prop = fit_logistic(
            x_tr, a_tr, propensity_lambda, tol=tol, max_iter=max_iter, features=propensity_features
        )
        m1 = fit_linear(
            x_tr[a_tr == 1], dataset.y[train][a_tr == 1], outcome_lambda, features=outcome_features, arm=1
        )
        m0 = fit_linear(
            x_tr[a_tr == 0], dataset.y[train][a_tr == 0], outcome_lambda, features=outcome_features, arm=0
        )
        props.append(prop)
        pi_raw[test] = prop.predict_proba(x_te)
        mu1[test] = m1.predict(x_te)
        mu0[test] = m0.predict(x_te)
    clip_count = int(np.sum((pi_raw < clip_lo) | (pi_raw > clip_hi)))
    pi_hat = np.clip(pi_raw, clip_lo, clip_hi)
    return NuisanceFit(
        pi_hat=pi_hat,
        mu0_hat=mu0,
        mu1_hat=mu1,
        folds=folds,
        clip_lo=clip_lo,
        clip_hi=clip_hi,
        clip_count=clip_count,
        irls_converged=tuple(p.converged for p in props),
        irls_iterations=tuple(p.iterations for p in props),
    )
