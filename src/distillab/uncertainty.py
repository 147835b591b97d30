"""Uncertainty scores computed from a stochastic ensemble of token distributions.

An ensemble is an (M, V) array of M >= 2 probability rows for the same token,
e.g. repeated stochastic forward passes. From it we score:

* mean predictive entropy  -- average row entropy;
* mutual information       -- entropy of the mean row minus mean entropy
  (epistemic spread; 0 when every member agrees);
* Dirichlet precision      -- moment-matched concentration kappa of a
  Dirichlet fit to the members. Low precision = wide spread. Reported on the
  log scale after flooring at epsilon, since the moment estimate can be
  negative or infinite at desk-scale M.
"""
from __future__ import annotations

import math

import numpy as np

from .dists import as_rows, entropy, row_entropies
from .errors import InvalidInputError

DIRICHLET_EPSILON = 1e-6


def mean_predictive_entropy(members) -> float:
    """Average Shannon entropy of the ensemble members."""
    return score_ensemble(members, 0.0)["mean_entropy"]


def mutual_information(members) -> float:
    """Entropy of the mean distribution minus mean member entropy.

    Non-negative by Jensen; floating-point residue below zero is clamped to 0.
    """
    return score_ensemble(members, 0.0)["mutual_information"]


def dirichlet_precision(members, epsilon: float = DIRICHLET_EPSILON) -> tuple[float, float]:
    """Moment-matched Dirichlet concentration (kappa_hat, log_kappa).

    With mean row p_bar and S = sum over coordinates of the unbiased (M - 1)
    across-member variance,

        kappa_hat = (1 - ||p_bar||^2) / S - 1.

    kappa_hat is returned raw (it may be negative); log_kappa is
    ln(max(kappa_hat, epsilon)). Identical members give S = 0, reported as
    kappa_hat = +inf with log_kappa capped at ln(1 / epsilon).
    """
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise InvalidInputError(f"epsilon must be positive and finite, got {epsilon!r}")
    arr = np.asarray(members, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise InvalidInputError(
            f"ensemble must be (M >= 2, vocab) probability rows, got shape {arr.shape}"
        )
    arr = as_rows(arr, "members")
    p_bar = arr.mean(axis=0)
    spread = float(arr.var(axis=0, ddof=1).sum())
    if spread == 0.0:
        return math.inf, math.log(1.0 / epsilon)
    kappa_hat = (1.0 - float((p_bar**2).sum())) / spread - 1.0
    log_kappa = math.log(max(kappa_hat, epsilon))
    return kappa_hat, log_kappa


def score_ensemble(members, truncated_entropy_value: float, epsilon: float = DIRICHLET_EPSILON) -> dict[str, float]:
    """The three ensemble scores and a precomputed truncated entropy, keyed
    mean_entropy, mutual_information, log_kappa, truncated_entropy. One set
    of row entropies serves both the mean entropy and the mutual information."""
    _, log_kappa = dirichlet_precision(members, epsilon)  # checks epsilon, then the members
    arr = np.asarray(members, dtype=float)
    mean_entropy = float(np.mean(row_entropies(arr)))
    mi = entropy(arr.mean(axis=0)) - mean_entropy
    return {
        "mean_entropy": mean_entropy,
        "mutual_information": mi if mi > 0.0 else 0.0,
        "log_kappa": log_kappa,
        "truncated_entropy": float(truncated_entropy_value),
    }
