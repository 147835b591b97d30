import math

import numpy as np
import pytest

from distillab.errors import InvalidInputError
from distillab.identities import (
    MAX_ALPHABET,
    MAX_DEPTH,
    BranchMixture,
    BranchSequenceModel,
    conditional_mutual_information,
    random_branch_mixture,
    random_sequence_model,
    sequence_identity_gap,
    token_identity_gap,
)
from distillab.seeding import derive_rng


class _DrawSpy:
    """A generator that records the name of every method it is asked for."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_random_sequence_model_checks_its_size_before_any_draw():
    # at depth 12 and alphabet 9 the levels alone would be about 52 GiB
    for depth, alphabet in [(MAX_DEPTH + 1, 2), (3, MAX_ALPHABET + 1), (0, 2), (3, -1)]:
        spy = _DrawSpy(derive_rng(0))
        with pytest.raises(InvalidInputError):
            random_sequence_model(spy, depth=depth, alphabet=alphabet)
        assert spy.calls == [], (depth, alphabet)
    spy = _DrawSpy(derive_rng(0))  # the spy does see the draws of a valid model
    random_sequence_model(spy, depth=MAX_DEPTH, alphabet=MAX_ALPHABET)
    assert "dirichlet" in spy.calls


def test_mutual_information_hand_value():
    # two equally likely branches emitting opposite deltas: I = ln 2
    mix = BranchMixture(prior=np.array([0.5, 0.5]),
                        components=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert abs(conditional_mutual_information(mix) - math.log(2.0)) < 1e-15


def test_mutual_information_degenerate_mixture_is_zero():
    mix = BranchMixture(prior=np.array([0.3, 0.7]),
                        components=np.array([[0.2, 0.8], [0.2, 0.8]]))
    # marginal assembly leaves only rounding noise
    assert abs(conditional_mutual_information(mix)) < 1e-15


def test_token_identity_hand_case():
    # same mixture, student uniform: E_z KL = ln 2, KL(marginal||p) = 0,
    # I = ln 2, so the gap is exactly 0 up to float addition
    mix = BranchMixture(prior=np.array([0.5, 0.5]),
                        components=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert token_identity_gap(mix, np.array([0.5, 0.5])) < 1e-15


def test_token_identity_gap_on_random_mixtures():
    rng = derive_rng(51)
    for _ in range(100):
        mix = random_branch_mixture(rng, max_branches=5, max_vocab=16)
        v = mix.components.shape[1]
        student = rng.dirichlet(np.ones(v))
        assert token_identity_gap(mix, student) < 1e-12


def test_sequence_identity_gap_on_random_models():
    rng = derive_rng(52)
    for _ in range(50):
        model, student = random_sequence_model(rng, depth=3, alphabet=2, max_branches=3)
        assert sequence_identity_gap(model, student) < 1e-10


def test_depth_one_sequence_model_reduces_to_token_identity():
    rng = derive_rng(53)
    for _ in range(20):
        model, student = random_sequence_model(rng, depth=1, alphabet=4, max_branches=3)
        seq_gap = sequence_identity_gap(model, student)
        mix = BranchMixture(prior=model.prior, components=model.levels[0][:, 0, :])
        tok_gap = token_identity_gap(mix, student[0][0])
        assert seq_gap == tok_gap


def test_sequence_gap_handles_wider_alphabets_and_depths():
    rng = derive_rng(54)
    model, student = random_sequence_model(rng, depth=4, alphabet=3, max_branches=4)
    assert sequence_identity_gap(model, student) < 1e-10


def test_zero_probability_branch_is_ignored():
    mix = BranchMixture(prior=np.array([1.0, 0.0]),
                        components=np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert conditional_mutual_information(mix) == 0.0
    assert token_identity_gap(mix, np.array([0.5, 0.5])) < 1e-15


def test_mixture_validation():
    with pytest.raises(InvalidInputError):
        BranchMixture(prior=np.array([0.5, 0.6]), components=np.full((2, 2), 0.5))
    with pytest.raises(InvalidInputError):
        BranchMixture(prior=np.array([0.5, 0.5]), components=np.full((3, 2), 0.5))
    with pytest.raises(InvalidInputError):
        token_identity_gap(
            BranchMixture(prior=np.array([1.0]), components=np.array([[0.5, 0.5]])),
            np.array([0.25, 0.25, 0.5]),
        )


def test_sequence_model_validation():
    prior = np.array([0.5, 0.5])
    good = tuple(np.full((2, 2**t, 2), 0.5) for t in range(2))
    model = BranchSequenceModel(prior=prior, levels=good)
    assert model.depth == 2
    assert model.alphabet == 2
    with pytest.raises(InvalidInputError):
        BranchSequenceModel(prior=prior, levels=())
    with pytest.raises(InvalidInputError):
        too_deep = tuple(np.full((2, 2**t, 2), 0.5) for t in range(MAX_DEPTH + 1))
        BranchSequenceModel(prior=prior, levels=too_deep)
    with pytest.raises(InvalidInputError):
        wide = (np.full((2, 1, MAX_ALPHABET + 1), 1.0 / (MAX_ALPHABET + 1)),)
        BranchSequenceModel(prior=prior, levels=wide)
    with pytest.raises(InvalidInputError):
        bad_shape = (np.full((2, 2, 2), 0.5),)  # level 0 must have A**0 = 1 prefixes
        BranchSequenceModel(prior=prior, levels=bad_shape)
    with pytest.raises(InvalidInputError):
        rows = (np.array([[[0.7, 0.7]], [[0.5, 0.5]]]),)
        BranchSequenceModel(prior=prior, levels=rows)


def test_student_level_validation():
    rng = derive_rng(55)
    model, student = random_sequence_model(rng, depth=2, alphabet=2)
    with pytest.raises(InvalidInputError):
        sequence_identity_gap(model, student[:1])
    with pytest.raises(InvalidInputError):
        bad = (student[0], np.full((3, 2), 0.5))
        sequence_identity_gap(model, bad)
