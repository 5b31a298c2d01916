"""Tests for the membership-inference evaluation substrate."""

import numpy as np
import pytest

from repro.attacks import (
    LossThresholdAttack,
    attack_roc,
    membership_advantage,
)
from repro.core import DpSgdOptimizer, SgdOptimizer, Trainer
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression


@pytest.fixture(scope="module")
def overfit_setup():
    """An intentionally overfit model: strong membership signal."""
    data = make_mnist_like(240, rng=0, size=16)
    members, non_members = train_test_split(data, test_fraction=0.5, rng=0)
    model = build_logistic_regression((1, 16, 16), rng=0)
    trainer = Trainer(model, SgdOptimizer(2.0), members, batch_size=32, rng=1)
    trainer.train(400)
    return model, members, non_members


class TestMetrics:
    def test_perfect_separation(self):
        assert membership_advantage([2.0, 3.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_chance_level(self, rng):
        a = rng.normal(size=4000)
        b = rng.normal(size=4000)
        assert membership_advantage(a, b) < 0.1

    def test_roc_endpoints(self, rng):
        fpr, tpr = attack_roc(rng.normal(size=50), rng.normal(size=50))
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_roc_monotone(self, rng):
        fpr, tpr = attack_roc(rng.normal(1, 1, 100), rng.normal(0, 1, 100))
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            attack_roc([], [1.0])


class TestLossThresholdAttack:
    def test_detects_overfit_model(self, overfit_setup):
        model, members, non_members = overfit_setup
        attack = LossThresholdAttack().fit(model, non_members)
        m_scores = attack.score(model, members.x, members.y)
        n_scores = attack.score(model, non_members.x, non_members.y)
        assert membership_advantage(m_scores, n_scores) > 0.2

    def test_predict_requires_fit(self, overfit_setup):
        model, members, _ = overfit_setup
        with pytest.raises(RuntimeError, match="fit"):
            LossThresholdAttack().predict(model, members.x, members.y)

    def test_predict_flags_members_more(self, overfit_setup):
        model, members, non_members = overfit_setup
        attack = LossThresholdAttack().fit(model, non_members, member_data=members)
        member_rate = attack.predict(model, members.x, members.y).mean()
        non_member_rate = attack.predict(model, non_members.x, non_members.y).mean()
        assert member_rate > non_member_rate

    def test_dp_training_reduces_advantage(self):
        """The whole point of the paper's setting: DP noise weakens MIA."""
        data = make_mnist_like(240, rng=1, size=16)
        members, non_members = train_test_split(data, test_fraction=0.5, rng=1)

        def advantage(optimizer):
            model = build_logistic_regression((1, 16, 16), rng=0)
            Trainer(model, optimizer, members, batch_size=32, rng=2).train(400)
            attack = LossThresholdAttack().fit(model, non_members)
            return membership_advantage(
                attack.score(model, members.x, members.y),
                attack.score(model, non_members.x, non_members.y),
            )

        plain = advantage(SgdOptimizer(2.0))
        private = advantage(DpSgdOptimizer(2.0, 0.1, 5.0, rng=3))
        assert private < plain
