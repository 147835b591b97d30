"""Uncertainty scores computed from a stochastic ensemble of token distributions.

An ensemble is an (M, V) array of M >= 2 probability rows for the same token,
e.g. repeated stochastic forward passes; `score_ensemble` scores a (C, M, V)
stack of them in one pass. From each ensemble we score:

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

from .dists import as_rows, row_entropies
from .errors import InvalidInputError

DIRICHLET_EPSILON = 1e-6


def _checked(members, epsilon: float, ndim: int) -> np.ndarray:
    """`members` as validated probability rows of M >= 2 members, one (M, V)
    ensemble for ndim 2 or a (C, M, V) stack of them for ndim 3, returned as
    a (C, M, V) stack. `epsilon` is checked first."""
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise InvalidInputError(f"epsilon must be positive and finite, got {epsilon!r}")
    arr = np.asarray(members, dtype=float)
    if arr.ndim != ndim or arr.shape[-2] < 2:
        shape = "(M >= 2, vocab)" if ndim == 2 else "(C, M >= 2, vocab)"
        raise InvalidInputError(f"ensemble must be {shape} probability rows, got shape {arr.shape}")
    return as_rows(arr, "members").reshape(-1, *arr.shape[-2:])


def _precisions(stack: np.ndarray, epsilon: float) -> list[tuple[float, float]]:
    """dirichlet_precision of each ensemble of a validated (C, M, V) stack."""
    spreads = stack.var(axis=1, ddof=1).sum(axis=1).tolist()
    norms = (stack.mean(axis=1) ** 2).sum(axis=1).tolist()
    out = []
    for spread, norm in zip(spreads, norms):
        if spread == 0.0:
            out.append((math.inf, math.log(1.0 / epsilon)))
        else:
            kappa_hat = (1.0 - norm) / spread - 1.0
            out.append((kappa_hat, math.log(max(kappa_hat, epsilon))))
    return out


def dirichlet_precision(members, epsilon: float = DIRICHLET_EPSILON) -> tuple[float, float]:
    """Moment-matched Dirichlet concentration (kappa_hat, log_kappa).

    With mean row p_bar and S = sum over coordinates of the unbiased (M - 1)
    across-member variance,

        kappa_hat = (1 - ||p_bar||^2) / S - 1.

    kappa_hat is returned raw (it may be negative); log_kappa is
    ln(max(kappa_hat, epsilon)). Identical members give S = 0, reported as
    kappa_hat = +inf with log_kappa capped at ln(1 / epsilon).
    """
    return _precisions(_checked(members, epsilon, 2), epsilon)[0]


def score_ensemble(stack, epsilon: float = DIRICHLET_EPSILON) -> list[dict[str, float]]:
    """The three ensemble scores of each ensemble of a (C, M, V) stack, in one
    pass over the stack: C dicts keyed mean_entropy, mutual_information and
    log_kappa. One set of row entropies serves both the mean entropy and the
    mutual information, whose floating-point residue below zero is clamped
    to 0."""
    stack = _checked(stack, epsilon, 3)
    C, M, V = stack.shape
    mean_entropies = row_entropies(stack.reshape(C * M, V)).reshape(C, M).mean(axis=1)
    mis = row_entropies(stack.mean(axis=1)) - mean_entropies
    return [
        {"mean_entropy": mean_entropy, "mutual_information": mi if mi > 0.0 else 0.0, "log_kappa": log_kappa}
        for mean_entropy, mi, (_, log_kappa) in zip(mean_entropies.tolist(), mis.tolist(), _precisions(stack, epsilon))
    ]
