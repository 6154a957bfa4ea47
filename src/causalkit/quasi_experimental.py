"""Quasi-experimental estimators: DID, RD local-linear, IV, fixed effects.

These designs trade the unconfoundedness-plus-positivity route for structural
assumptions: parallel trends (DID), continuity at a threshold (RD), exclusion
and relevance of an instrument (IV), or time-invariant unit heterogeneity
(FE).  Each returns an :class:`Estimate`, which sets its own interval from
the standard error the estimator chose, as the ATE estimators do.  DID, RD,
the Wald ratio and two-stage least squares build per-unit influence values
and take their standard error from :func:`eif_se`; DID's units are panel
units, so its se is clustered by unit.  The within estimator keeps the
homoskedastic standard error of the dummy-variable regression.  This module
reads data and draws none: Monte Carlo studies of these estimators, the
weak-instrument sweep among them, run in :mod:`causalkit.montecarlo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ate_estimators import eif_se
from .data_model import Estimate, IvDataset, ObservationalDataset, PanelDataset
from .errors import (
    BandwidthError,
    CellError,
    IdentificationError,
    InstrumentError,
    InsufficientDataError,
    RankDeficiencyError,
    ValidationError,
    check_fields,
)

__all__ = [
    "RdSpec",
    "did",
    "did_placebo",
    "rd_local_linear",
    "iv_wald",
    "tsls",
    "fe_within",
]

KERNELS = ("rectangular", "triangular")

# First-stage differences below this flag the instrument as weak.  Heuristic,
# reported rather than enforced.
WEAK_IV_THRESHOLD = 0.05


def _did_cells(panel: PanelDataset, pre: int, post: int, placebo: bool, level: float) -> Estimate:
    """Double difference of the four group-by-period cell means.

    The estimate is always (m11 - m10) - (m01 - m00) computed from the
    reported cell means, so it can be reproduced from them bit-for-bit.
    Unit u among the U units with a record in either period has the
    influence value U * sum over its records i of s_c (y_i - m_c) / n_c,
    where c is the record's cell, s_c is +1 for (treated, post) and
    (control, pre) and -1 otherwise, and n_c counts the cell's records.
    The se is None unless both groups have at least 2 such units.
    """
    masks, means = {}, {}
    for g in (0, 1):
        for t in (pre, post):
            mask = (panel.group == g) & (panel.period_id == t)
            if not mask.any():
                raise CellError(f"empty cell (group={g}, period={t})")
            masks[g, t] = mask
            means[g, t] = float(panel.y[mask].mean())
    m00, m01, m10, m11 = means[0, pre], means[0, post], means[1, pre], means[1, post]
    estimate = (m11 - m10) - (m01 - m00)
    record_terms = np.zeros(panel.n)
    for (g, t), mask in masks.items():
        sign = 1.0 if (g == 1) == (t == post) else -1.0
        record_terms[mask] = sign * (panel.y[mask] - means[g, t]) / mask.sum()
    window = (panel.period_id == pre) | (panel.period_id == post)
    _, unit_of = np.unique(panel.unit_id[window], return_inverse=True)
    n_units = int(unit_of.max()) + 1
    eif = n_units * np.bincount(unit_of, weights=record_terms[window], minlength=n_units)
    eif -= eif.mean()  # zero up to rounding; exact so the centering check holds
    n_treated = int(np.count_nonzero(np.bincount(unit_of, weights=panel.group[window])))
    two_per_group = min(n_treated, n_units - n_treated) >= 2
    se = eif_se(eif) if two_per_group else None
    return Estimate(
        estimate, "did", panel.n, eif=eif, se=se,
        diagnostics={
            "cell_means": [m00, m01, m10, m11],
            "cell_counts": [int(masks[c].sum()) for c in ((0, pre), (0, post), (1, pre), (1, post))],
            "pre_period": int(pre),
            "post_period": int(post),
            "placebo": placebo,
        },
        level=level,
    )


def did(panel: PanelDataset, level: float = 0.95) -> Estimate:
    """Difference-in-differences on a two-group panel.

    With more than two periods the comparison collapses to the first and
    last period.  The standard error comes from unit-level influence values,
    so it allows any correlation between a unit's records.
    """
    periods = np.unique(panel.period_id)
    if periods.size < 2:
        raise InsufficientDataError("DID needs at least 2 periods")
    return _did_cells(panel, int(periods[0]), int(periods[-1]), placebo=False, level=level)


def did_placebo(panel: PanelDataset, level: float = 0.95) -> Estimate:
    """Pre-trend placebo: DID on the last two pre-treatment periods.

    A period counts as pre-treatment when no record in it is treated.
    Values far from zero are evidence against parallel trends.
    """
    periods = np.unique(panel.period_id)
    pre_periods = [int(t) for t in periods if not panel.a[panel.period_id == t].any()]
    if len(pre_periods) < 2:
        raise InsufficientDataError(
            f"placebo test needs at least 2 pre-treatment periods, found {len(pre_periods)}"
        )
    return _did_cells(panel, pre_periods[-2], pre_periods[-1], placebo=True, level=level)


@dataclass(frozen=True)
class RdSpec:
    cutoff: float = 0.0
    bandwidth: float = 1.0
    kernel: str = "rectangular"

    def __post_init__(self) -> None:
        check_fields(self, inf=("bandwidth",), bandwidth="> 0", kernel=KERNELS)


def _wls_line(u: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares of y on (1, u).

    Returns the coefficients and each point's term [(X'WX)^-1 x_i w_i r_i]_0
    in the intercept; the normal equations make these terms sum to zero.
    """
    design = np.column_stack([np.ones(u.size), u])
    gram = design.T @ (design * w[:, None])
    rhs = design.T @ (w * y)
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise BandwidthError(
            "degenerate local fit: in-bandwidth running-variable values are not distinct"
        ) from None
    row0 = np.linalg.solve(gram, np.array([1.0, 0.0]))  # first row of the symmetric inverse
    return beta, (design @ row0) * w * (y - design @ beta)


def rd_local_linear(dataset: ObservationalDataset, spec: RdSpec, level: float = 0.95) -> Estimate:
    """Sharp regression discontinuity by local-linear fits on each side.

    The running variable is the first covariate column.  Within the
    bandwidth (inclusive), y is regressed on (1, x - cutoff) separately for
    x < cutoff and x >= cutoff; the jump is the difference of intercepts.
    The rectangular kernel weights all in-window points equally, so each
    side reduces to plain OLS on the window.  Each in-window unit's influence
    value is +-n times its term in its side's intercept (+ on the right),
    and 0 outside the window, which gives the heteroskedasticity-robust
    sandwich se for either kernel.  With only 2 points on a side the line
    fits exactly and the se is None.
    """
    if dataset.d < 1:
        raise ValidationError("RD needs a running variable as the first covariate column")
    x = dataset.x[:, 0]
    u = x - spec.cutoff
    if spec.kernel == "rectangular":
        w = (np.abs(u) <= spec.bandwidth).astype(float)
    else:
        w = np.maximum(0.0, 1.0 - np.abs(u) / spec.bandwidth)
    left = (u < 0) & (w > 0)
    right = (u >= 0) & (w > 0)
    n_left, n_right = int(left.sum()), int(right.sum())
    if n_left < 2 or n_right < 2:
        raise BandwidthError(
            f"need at least 2 in-bandwidth points per side, got left={n_left}, right={n_right}"
        )
    beta_l, terms_l = _wls_line(u[left], dataset.y[left], w[left])
    beta_r, terms_r = _wls_line(u[right], dataset.y[right], w[right])
    estimate = float(beta_r[0] - beta_l[0])
    eif = np.zeros(dataset.n)
    eif[left] = -dataset.n * terms_l
    eif[right] = dataset.n * terms_r
    eif -= eif.mean()  # zero up to rounding; exact so the centering check holds
    se = eif_se(eif) if n_left > 2 and n_right > 2 else None
    return Estimate(
        estimate, "rd", dataset.n, eif=eif, se=se,
        diagnostics={
            "intercept_left": float(beta_l[0]),
            "intercept_right": float(beta_r[0]),
            "slope_left": float(beta_l[1]),
            "slope_right": float(beta_r[1]),
            "n_left": n_left,
            "n_right": n_right,
        },
        level=level,
    )


def _iv_diagnostics(first_stage: float, reduced_form: float) -> dict:
    return {
        "first_stage": first_stage,
        "reduced_form": reduced_form,
        "weak_flag": bool(abs(first_stage) < WEAK_IV_THRESHOLD),
    }


def iv_wald(iv: IvDataset, level: float = 0.95) -> Estimate:
    """Binary-instrument Wald ratio.

    late = (E[y|z=1] - E[y|z=0]) / (E[a|z=1] - E[a|z=0]), and
    late = reduced_form / first_stage exactly.  The weak flag fires when the
    first-stage difference is below WEAK_IV_THRESHOLD in magnitude.  A zero
    first stage means the instrument is irrelevant.
    """
    z1 = iv.z == 1
    n1, n0 = int(z1.sum()), int((~z1).sum())
    if n1 == 0 or n0 == 0:
        raise InstrumentError("instrument takes a single value; both z=0 and z=1 are required")
    y1, y0 = iv.y[z1], iv.y[~z1]
    a1, a0 = iv.a[z1].astype(float), iv.a[~z1].astype(float)
    reduced_form = float(y1.mean()) - float(y0.mean())
    first_stage = float(a1.mean()) - float(a0.mean())
    if first_stage == 0.0:
        raise InstrumentError("zero first stage: instrument is unrelated to treatment")
    late = reduced_form / first_stage
    # delta-method se via the ratio estimator's influence function
    p = n1 / iv.n
    resid1 = (iv.y - float(y1.mean())) - late * (iv.a - float(a1.mean()))
    resid0 = (iv.y - float(y0.mean())) - late * (iv.a - float(a0.mean()))
    phi = (np.where(z1, resid1, 0.0) / p - np.where(z1, 0.0, resid0) / (1.0 - p)) / first_stage
    # phi's mean is the rounding error of the arm means of y and late*a,
    # divided by the first stage
    scale = (float(np.max(np.abs(iv.y))) + abs(late)) / abs(first_stage)
    return Estimate(
        late, "iv", iv.n, eif=phi, se=eif_se(phi),
        diagnostics=_iv_diagnostics(first_stage, reduced_form), input_scale=scale, level=level,
    )


def tsls(iv: IvDataset, level: float = 0.95) -> Estimate:
    """Just-identified two-stage least squares.

    With instruments Z = (1, z, covariates) and regressors X = (1, a,
    covariates), the coefficients solve (Z'X) beta = Z'y, which is stage 2's
    regression of y on (1, fitted a, covariates) after stage 1 regresses a on
    Z.  The effect is the coefficient on a, first_stage is stage 1's
    coefficient on z, and reduced_form is late * first_stage.  With a binary
    instrument and no covariates this equals the Wald ratio.  Unit i's
    influence value is n [(Z'X)^-1]_1 z_i r_i with r_i = y_i - x_i beta,
    which gives the heteroskedasticity-robust 2SLS sandwich se; with no
    residual degrees of freedom the se is None.
    """
    covariates = iv.x if iv.x is not None else np.empty((iv.n, 0))
    instruments = np.column_stack([np.ones(iv.n), iv.z.astype(float), covariates])
    k = instruments.shape[1]
    if np.linalg.matrix_rank(instruments) < k:
        raise RankDeficiencyError("collinear design in first stage")
    beta1, *_ = np.linalg.lstsq(instruments, iv.a.astype(float), rcond=None)
    first_stage = float(beta1[1])
    regressors = instruments.copy()
    regressors[:, 1] = iv.a
    # With Z = QR and R invertible, Z'X beta = Z'y is Q'X beta = Q'y, and Q'X
    # has the singular values of (1, fitted a, covariates), unlike Z'X, whose
    # condition number is about the square of theirs; the rank test takes
    # the threshold of that n-row design
    q = np.linalg.qr(instruments)[0]
    cross = q.T @ regressors
    if np.linalg.matrix_rank(cross, rtol=iv.n * np.finfo(float).eps) < k:
        raise RankDeficiencyError(
            "collinear second stage: fitted treatment is collinear with covariates"
        )
    beta = np.linalg.solve(cross, q.T @ iv.y)
    late = float(beta[1])
    # row 1 of (Z'X)^-1 Z' is row 1 of (Q'X)^-1 Q'
    eif = iv.n * (q @ np.linalg.inv(cross)[1]) * (iv.y - regressors @ beta)
    eif -= eif.mean()  # zero up to rounding; exact so the centering check holds
    se = eif_se(eif) if iv.n > k else None
    diagnostics = _iv_diagnostics(first_stage, late * first_stage)
    return Estimate(late, "tsls", iv.n, eif=eif, se=se, diagnostics=diagnostics, level=level)


def fe_within(panel: PanelDataset, level: float = 0.95) -> Estimate:
    """Fixed-effects slope via the within transform.

    Outcome and treatment are demeaned within unit and the pooled slope is
    sum(a~ * y~) / sum(a~^2).  Units whose treatment never varies have a
    demeaned treatment of zero, so they contribute nothing to either sum;
    they are counted but not dropped.  The se is the homoskedastic one of
    the dummy-variable regression.
    """
    units, inverse = np.unique(panel.unit_id, return_inverse=True)
    counts = np.bincount(inverse).astype(float)
    y_mean = np.bincount(inverse, weights=panel.y) / counts
    a_mean = np.bincount(inverse, weights=panel.a.astype(float)) / counts
    y_t = panel.y - y_mean[inverse]
    a_t = panel.a.astype(float) - a_mean[inverse]
    denom = float(a_t @ a_t)
    if denom == 0.0:
        raise IdentificationError(
            "treatment never varies within any unit; the within transform removes it entirely"
        )
    slope = float(a_t @ y_t) / denom
    identifying = int(np.sum(np.bincount(inverse, weights=a_t * a_t) > 0))
    resid = y_t - slope * a_t
    df = panel.n - units.size - 1
    se = float(np.sqrt((resid @ resid) / df / denom)) if df > 0 else None
    return Estimate(
        slope, "fe", panel.n, se=se,
        diagnostics={"n_units": int(units.size), "n_units_identifying": identifying}, level=level,
    )
