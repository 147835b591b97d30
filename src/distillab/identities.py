"""Exact branch-mixture decompositions of the forward KL.

When the teacher is a mixture over latent branches z with prior alpha and
per-branch token distributions q^z, the mixture's divergence from a student p
splits exactly:

    E_z[KL(q^z || p)] = KL(q_bar || p) + I

where q_bar is the mixture marginal and I is the mutual information between
the branch and the token, I = sum_z sum_y alpha_z q^z_y ln(q^z_y / q_bar_y).

The sequence-level version telescopes over steps: the total gap between
branch-conditioned and marginal sequence KL equals the sum over steps of the
conditional mutual information at each reachable prefix, weighted by the
prefix's marginal probability (with the branch posterior given that prefix).
Everything here is exhaustive enumeration -- alphabet <= 8, depth <= 5 -- so
the identities can be checked to near machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import as_distribution, as_rows, forward_kl
from .errors import InvalidInputError

MAX_ALPHABET = 8
MAX_DEPTH = 5


@dataclass(frozen=True)
class BranchMixture:
    """Prior over branches and one token distribution per branch."""

    prior: np.ndarray  # (Z,)
    components: np.ndarray  # (Z, V)

    def __post_init__(self) -> None:
        prior = as_distribution(self.prior, "branch prior")
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 2 or comps.shape[0] != prior.size:
            raise InvalidInputError(
                f"components must be (branches, vocab), got {comps.shape} for {prior.size} branches"
            )
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "components", as_rows(comps, "components"))


@dataclass(frozen=True)
class BranchSequenceModel:
    """Per-branch autoregressive trees sharing one alphabet and topology.

    levels[t] has shape (Z, A**t, A): for branch z and the n-th length-t
    prefix (lexicographic order), a distribution over the next token.
    """

    prior: np.ndarray  # (Z,)
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        prior = as_distribution(self.prior, "branch prior")
        alphabet = np.shape(self.levels[0])[-1] if len(self.levels) else 0
        _check_size(len(self.levels), alphabet)
        levels = _as_levels(self.levels, len(self.levels), alphabet, (prior.size,), "levels")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "levels", levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def alphabet(self) -> int:
        return self.levels[0].shape[-1]


def _check_size(depth: int, alphabet: int) -> None:
    """Refuse a tree too large to enumerate, before anything is allocated."""
    if depth < 1:
        raise InvalidInputError("sequence model needs depth >= 1")
    if depth > MAX_DEPTH:
        raise InvalidInputError(f"depth {depth} exceeds hard limit {MAX_DEPTH}")
    if alphabet < 2 or alphabet > MAX_ALPHABET:
        raise InvalidInputError(f"alphabet size {alphabet} outside [2, {MAX_ALPHABET}]")


def _as_levels(levels, depth: int, alphabet: int, lead: tuple[int, ...], name: str) -> tuple[np.ndarray, ...]:
    """`depth` arrays, level t of shape (*lead, alphabet**t, alphabet) holding
    probability rows: a branch model's levels or a student's."""
    arrays = tuple(np.asarray(lv, dtype=float) for lv in levels)
    if len(arrays) != depth:
        raise InvalidInputError(f"{name} needs {depth} levels, got {len(arrays)}")
    for t, lv in enumerate(arrays):
        expect = (*lead, alphabet**t, alphabet)
        if lv.shape != expect:
            raise InvalidInputError(f"{name}[{t}] must have shape {expect}, got {lv.shape}")
        as_rows(lv, f"{name}[{t}]")
    return arrays


def _mixture_cmi(prior: np.ndarray, components: np.ndarray) -> float:
    """sum_z prior_z KL(components_z || mixture marginal)."""
    marginal = prior @ components
    total = 0.0
    for z in range(prior.size):
        if prior[z] == 0.0:
            continue
        total += float(prior[z]) * forward_kl(components[z], marginal)
    return total


def _identity_gap(prior: np.ndarray, components: np.ndarray, student: np.ndarray, mi: float) -> float:
    """|sum_z prior_z KL(components_z || student) - KL(mixture marginal || student) - mi|."""
    lhs = 0.0
    for z in range(prior.size):
        lhs += float(prior[z]) * forward_kl(components[z], student)
    return abs(lhs - forward_kl(prior @ components, student) - mi)


def conditional_mutual_information(mixture: BranchMixture) -> float:
    """Mutual information between the branch variable and the emitted token."""
    return _mixture_cmi(mixture.prior, mixture.components)


def token_identity_gap(mixture: BranchMixture, student) -> float:
    """|E_z KL(q^z || p) - KL(q_bar || p) - I| -- zero in exact arithmetic."""
    p = as_distribution(student, "student distribution")
    if p.shape != (mixture.components.shape[1],):
        raise InvalidInputError(
            f"student vocab {p.shape} does not match mixture vocab {mixture.components.shape[1]}"
        )
    return _identity_gap(mixture.prior, mixture.components, p, conditional_mutual_information(mixture))


def sequence_identity_gap(model: BranchSequenceModel, student_levels) -> float:
    """Sequence-level identity gap by exhaustive enumeration.

    The mutual-information side sums, over steps and reachable prefixes, the
    prefix-marginal-weighted CMI with the branch posterior at that prefix. The
    empty prefix has probability exactly 1 and posterior exactly equal to the
    prior, so a depth-1 model reduces bit-for-bit to token_identity_gap.
    """
    prior = model.prior
    levels = model.levels
    A = model.alphabet
    Z = prior.size
    student = _as_levels(student_levels, model.depth, A, (), "student levels")

    # per-branch prefix probabilities, student prefix probabilities, mixture weights
    branch_prefix = np.ones((Z, 1))
    student_prefix = np.ones(1)
    mixture_prefix = np.ones(1)  # the empty prefix has probability 1 by definition

    mi_total = 0.0
    for t in range(model.depth):
        conds = levels[t]  # (Z, A**t, A)
        for n in range(conds.shape[1]):
            w = float(mixture_prefix[n])
            if w <= 0.0:
                continue
            posterior = prior * branch_prefix[:, n] / w
            mi_total += w * _mixture_cmi(posterior, conds[:, n, :])
        branch_prefix = (branch_prefix[:, :, None] * conds).reshape(Z, -1)
        student_prefix = (student_prefix[:, None] * student[t]).reshape(-1)
        mixture_prefix = prior @ branch_prefix

    # branch_prefix / student_prefix now hold full-sequence probabilities
    return _identity_gap(prior, branch_prefix, student_prefix, mi_total)


def random_branch_mixture(rng: np.random.Generator, max_branches: int = 5, max_vocab: int = 16) -> BranchMixture:
    """A random mixture with 1..max_branches branches over a 2..max_vocab alphabet."""
    z = int(rng.integers(1, max_branches + 1))
    v = int(rng.integers(2, max_vocab + 1))
    prior = rng.dirichlet(np.ones(z))
    components = rng.dirichlet(np.ones(v), size=z)
    return BranchMixture(prior=prior, components=components)


def random_sequence_model(
    rng: np.random.Generator, depth: int = 3, alphabet: int = 2, max_branches: int = 3
) -> tuple[BranchSequenceModel, tuple[np.ndarray, ...]]:
    """A random branch-sequence model plus a random student tree of the same
    shape. Depth and alphabet are checked before the first draw."""
    _check_size(depth, alphabet)
    z = int(rng.integers(2, max_branches + 1))
    prior = rng.dirichlet(np.ones(z))
    levels = tuple(
        rng.dirichlet(np.ones(alphabet), size=(z, alphabet**t)) for t in range(depth)
    )
    student = tuple(rng.dirichlet(np.ones(alphabet), size=alphabet**t) for t in range(depth))
    return BranchSequenceModel(prior=prior, levels=levels), student
