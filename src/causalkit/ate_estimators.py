"""Average-treatment-effect estimators: naive, IPW, g-formula, matching, AIPW.

Every estimator is a pure function returning an :class:`Estimate`, which
sets its own interval from the point estimate, the standard error the
estimator chose and the level.  Where a per-unit influence-function vector
has a standard closed form it is stored on the estimate (centered, mean
zero) and gives the standard error through :func:`eif_se`.  The
doubly-robust estimator consumes out-of-fold nuisances from
:func:`causalkit.nuisance.cross_fit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Estimate, ObservationalDataset, require_both_arms
from .errors import (
    ConfigError,
    EmptyMatchError,
    InsufficientDataError,
    PositivityError,
    ValidationError,
    check_fields,
)
from .nuisance import NuisanceFit

__all__ = [
    "MatchSpec",
    "naive_dim",
    "ipw",
    "g_formula",
    "psm_att",
    "aipw",
    "eif_se",
]


def eif_se(eif: np.ndarray) -> float:
    """Standard error sd(eif)/sqrt(n), with the n-1 divisor, of a centered eif vector."""
    eif = np.asarray(eif, dtype=float)
    if eif.ndim != 1 or eif.size == 0:
        raise ValidationError("eif must be a non-empty vector")
    if eif.size < 2:
        raise InsufficientDataError("need at least 2 observations for a variance estimate")
    return float(np.sqrt(np.var(eif, ddof=1) / eif.size))


def naive_dim(dataset: ObservationalDataset, level: float = 0.95) -> Estimate:
    """Difference in arm means, with the two-sample standard error."""
    require_both_arms(dataset, "naive_dim")
    treated = dataset.a == 1
    y1, y0 = dataset.y[treated], dataset.y[~treated]
    n1, n0 = y1.size, y0.size
    m1, m0 = float(y1.mean()), float(y0.mean())
    psi = m1 - m0
    rho = n1 / dataset.n
    eif = np.where(
        treated,
        (dataset.y - m1) / rho,
        -(dataset.y - m0) / (1.0 - rho),
    )
    se = float(np.sqrt(np.var(y1, ddof=1) / n1 + np.var(y0, ddof=1) / n0)) if min(n1, n0) >= 2 else None
    return Estimate(
        psi, "naive", dataset.n, eif=eif, se=se,
        diagnostics={"treated_mean": m1, "control_mean": m0, "n_treated": n1, "n_control": n0},
        input_scale=float(np.max(np.abs(dataset.y))), level=level,
    )


def ipw(
    dataset: ObservationalDataset,
    pi_hat: np.ndarray,
    normalization: str = "hajek",
    level: float = 0.95,
) -> Estimate:
    """Inverse-propensity weighting.

    horvitz_thompson: psi = mean(a*y/pi) - mean((1-a)*y/(1-pi)).
    hajek: the same weights renormalized to sum to one within each arm,
    which makes the estimate invariant to constant rescaling of weights.
    """
    if normalization not in ("horvitz_thompson", "hajek"):
        raise ConfigError(f"unknown normalization '{normalization}'")
    require_both_arms(dataset, "ipw")
    pi_hat = np.asarray(pi_hat, dtype=float)
    if pi_hat.shape != (dataset.n,):
        raise ValidationError(f"pi_hat must have shape ({dataset.n},), got {pi_hat.shape}")
    if not np.all((pi_hat > 0.0) & (pi_hat < 1.0)):  # NaN fails too
        raise PositivityError("propensities must lie strictly inside (0, 1)")
    a = dataset.a.astype(float)
    y = dataset.y
    w1 = a / pi_hat
    w0 = (1.0 - a) / (1.0 - pi_hat)
    if normalization == "horvitz_thompson":
        psi1 = float(np.mean(w1 * y))
        psi0 = float(np.mean(w0 * y))
        eif = w1 * y - w0 * y - (psi1 - psi0)
    else:
        psi1 = float(np.sum(w1 * y) / np.sum(w1))
        psi0 = float(np.sum(w0 * y) / np.sum(w0))
        # linearized ratio-estimator influence function, arm by arm
        eif = w1 * (y - psi1) / float(np.mean(w1)) - w0 * (y - psi0) / float(np.mean(w0))
    psi = psi1 - psi0
    return Estimate(
        psi, "ipw", dataset.n, eif=eif, se=eif_se(eif),
        diagnostics={"normalization": normalization, "psi1_hat": psi1, "psi0_hat": psi0},
        input_scale=float(np.max(np.abs(y))), level=level,
    )


def g_formula(
    dataset: ObservationalDataset,
    mu0_hat: np.ndarray,
    mu1_hat: np.ndarray,
    level: float = 0.95,
) -> Estimate:
    """Outcome-regression (standardization) estimator: mean(mu1 - mu0)."""
    mu0_hat = np.asarray(mu0_hat, dtype=float)
    mu1_hat = np.asarray(mu1_hat, dtype=float)
    for name, v in (("mu0_hat", mu0_hat), ("mu1_hat", mu1_hat)):
        if v.shape != (dataset.n,):
            raise ValidationError(f"{name} must have shape ({dataset.n},), got {v.shape}")
    contrast = mu1_hat - mu0_hat
    psi = float(contrast.mean())
    eif = contrast - psi
    se = eif_se(eif) if dataset.n >= 2 else None
    return Estimate(psi, "gformula", dataset.n, eif=eif, se=se, level=level)


@dataclass(frozen=True)
class MatchSpec:
    """One-to-one propensity matching options.  caliper=None or +inf means unbounded."""

    caliper: float | None = None
    with_replacement: bool = False

    def __post_init__(self) -> None:
        check_fields(self, inf=("caliper",), caliper=">= 0")


def _find(parent: list[int], p: int) -> int:
    """Root of p in a pointer forest, halving the path on the way."""
    while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
    return p


def _greedy_match(
    pi_hat: np.ndarray,
    treated_idx: np.ndarray,
    control_idx: np.ndarray,
    caliper: float,
    with_replacement: bool,
) -> list[tuple[int, int]]:
    """Greedy nearest-propensity matching in O(n log n).

    Controls are sorted once by (propensity, index).  Available controls
    are found through two pointer forests over sorted positions: nxt[p] is
    p while position p is available and later positions otherwise (m is the
    sentinel), prv[p + 1] likewise towards earlier positions (0 is the
    sentinel).  Consuming a control unlinks it from both in O(1).

    Computed distances |pi_c - pi_t| never decrease moving away from the
    treated unit's insertion point, so the nearest available control lies
    next to it on one side, and all controls at the same rounded distance
    lie in consecutive groups of equal propensity on each side.  The lowest
    available index of a group is its first available sorted position.
    """
    pi_c = pi_hat[control_idx]
    order = np.argsort(pi_c, kind="stable")  # equal propensities stay in index order
    sorted_pi = pi_c[order]
    m = sorted_pi.size
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = sorted_pi[1:] != sorted_pi[:-1]
    starts = np.flatnonzero(new_group)
    group_of = np.cumsum(new_group) - 1
    group_start = starts[group_of].tolist()
    group_end = np.append(starts[1:], m)[group_of].tolist()
    insert = np.searchsorted(sorted_pi, pi_hat[treated_idx], side="left").tolist()
    values = sorted_pi.tolist()
    ids = control_idx[order].tolist()
    nxt = list(range(m + 1))
    prv = list(range(m + 1))
    matches: list[tuple[int, int]] = []
    for t, x, at in zip(treated_idx.tolist(), pi_hat[treated_idx].tolist(), insert):
        right = _find(nxt, at)  # first available position >= at
        left = _find(prv, at) - 1  # last available position < at
        if right == m and left < 0:
            continue  # every control is consumed
        d_right = abs(values[right] - x) if right < m else np.inf
        d_left = abs(values[left] - x) if left >= 0 else np.inf
        best = min(d_right, d_left)
        if best > caliper:
            continue  # a caliper miss consumes nothing
        pick = m
        p = right
        while p < m and abs(values[p] - x) == best:
            if pick == m or ids[p] < ids[pick]:
                pick = p
            p = _find(nxt, group_end[p])
        p = left
        while p >= 0:
            first = _find(nxt, group_start[p])
            if abs(values[first] - x) != best:
                break
            if pick == m or ids[first] < ids[pick]:
                pick = first
            p = _find(prv, group_start[p]) - 1
        matches.append((t, ids[pick]))
        if not with_replacement:
            nxt[pick] = pick + 1
            prv[pick + 1] = pick
    return matches


def psm_att(
    dataset: ObservationalDataset,
    pi_hat: np.ndarray,
    spec: MatchSpec = MatchSpec(),
    level: float = 0.95,
) -> tuple[Estimate, list[tuple[int, int]]]:
    """Greedy one-to-one propensity-score matching; reports the ATT.

    Treated units are visited in index order.  Each is matched to the
    control with the nearest propensity (distance <= caliper, inclusive);
    ties in the computed distance go to the lowest control index.  Without
    replacement a control is consumed by its first match.  Unmatched treated
    units are counted and excluded.  Returns the estimate and the match
    table as (treated_index, control_index) pairs.  Propensities must lie
    in [0, 1].  Matching takes O(n log n) time.

    Two limits apply.  The reported se is the standard error of the mean
    paired difference: it ignores both the matching step and the estimation
    of the propensities, so it is not the Abadie-Imbens (2006) variance.
    Greedy matching without replacement is biased when controls run short
    near the treated units' propensities: late treated units take distant
    controls.  The diagnostics report the mean and the largest absolute
    propensity gap over the matched pairs.
    """
    require_both_arms(dataset, "psm_att")
    pi_hat = np.asarray(pi_hat, dtype=float)
    if pi_hat.shape != (dataset.n,):
        raise ValidationError(f"pi_hat must have shape ({dataset.n},), got {pi_hat.shape}")
    if not np.all((pi_hat >= 0.0) & (pi_hat <= 1.0)):
        raise ValidationError("pi_hat must lie in [0, 1]")
    treated_idx = np.flatnonzero(dataset.a == 1)
    control_idx = np.flatnonzero(dataset.a == 0)
    caliper = np.inf if spec.caliper is None else float(spec.caliper)
    matches = _greedy_match(pi_hat, treated_idx, control_idx, caliper, spec.with_replacement)
    if not matches:
        raise EmptyMatchError("no treated unit found a control within the caliper")
    t_ids = np.array([m[0] for m in matches])
    c_ids = np.array([m[1] for m in matches])
    diffs = dataset.y[t_ids] - dataset.y[c_ids]
    gaps = np.abs(pi_hat[t_ids] - pi_hat[c_ids])
    psi = float(diffs.mean())
    se = float(np.sqrt(np.var(diffs, ddof=1) / diffs.size)) if diffs.size >= 2 else None
    estimate = Estimate(
        psi, "psm", dataset.n, se=se,
        diagnostics={
            "estimand": "att",
            "n_pairs": len(matches),
            "unmatched_count": int(treated_idx.size - len(matches)),
            "with_replacement": spec.with_replacement,
            "mean_match_distance": float(gaps.mean()),
            "max_match_distance": float(gaps.max()),
        },
        level=level,
    )
    return estimate, matches


def _aipw_terms(
    dataset: ObservationalDataset, pi: np.ndarray, mu0: np.ndarray, mu1: np.ndarray
) -> np.ndarray:
    a = dataset.a.astype(float)
    y = dataset.y
    return a * (y - mu1) / pi - (1.0 - a) * (y - mu0) / (1.0 - pi) + mu1 - mu0


def aipw(dataset: ObservationalDataset, nuisance: NuisanceFit, level: float = 0.95) -> Estimate:
    """Cross-fitted augmented IPW (doubly robust) estimator of the ATE.

    psi_hat is the full-sample mean of the per-unit doubly-robust terms;
    the centered terms are the estimated efficient influence function and
    give the standard error.  Fold-wise term means are reported alongside:
    with equal fold sizes their average equals psi_hat.
    """
    if nuisance.folds.n != dataset.n:
        raise ValidationError(
            f"nuisance fit covers {nuisance.folds.n} units, dataset has {dataset.n}"
        )
    pi = nuisance.pi_hat
    terms = _aipw_terms(dataset, pi, nuisance.mu0_hat, nuisance.mu1_hat)
    psi = float(terms.mean())
    eif = terms - psi
    se = eif_se(eif) if dataset.n >= 2 else None
    a = dataset.a.astype(float)
    arm1 = a * (dataset.y - nuisance.mu1_hat) / pi + nuisance.mu1_hat
    arm0 = (1.0 - a) * (dataset.y - nuisance.mu0_hat) / (1.0 - pi) + nuisance.mu0_hat
    fold_means = [float(terms[nuisance.folds.indices(j)].mean()) for j in range(nuisance.folds.k)]
    return Estimate(
        psi, "aipw", dataset.n, eif=eif, se=se,
        diagnostics={
            "psi1_hat": float(arm1.mean()),
            "psi0_hat": float(arm0.mean()),
            "fold_means": fold_means,
            "psi_hat_fold_avg": float(np.mean(fold_means)),
            "clip_count": nuisance.clip_count,
            "k": nuisance.folds.k,
        },
        level=level,
    )
