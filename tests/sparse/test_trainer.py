"""SparseTrainer end-to-end: equivalence, accounting, validation, barriers."""

import numpy as np
import pytest

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.geodp_adam import GeoDpAdamOptimizer
from repro.core.trainer import Trainer
from repro.data import make_click_log, train_test_split
from repro.models.text import build_text_classifier
from repro.privacy.accountant import RdpAccountant
from repro.privacy.clipping import AdaptiveQuantileClipping
from repro.privacy.ledger import ReleaseLedger, verify_ledger
from repro.sparse import SparseTrainer, find_embedding

pytestmark = pytest.mark.sparse

VOCAB = 500
BATCH = 15


@pytest.fixture(scope="module")
def click_data():
    data = make_click_log(
        90,
        rng=np.random.default_rng(1),
        vocab_size=VOCAB,
        seq_length=8,
        touch_rate=0.1,
        padding_idx=0,
    )
    return train_test_split(data, rng=np.random.default_rng(2))


def _model():
    return build_text_classifier(
        VOCAB, 2, embedding_dim=4, padding_idx=0, rng=np.random.default_rng(0)
    )


def _optimizer(scheme="dp", sigma=0.7, **extra):
    kwargs = dict(
        learning_rate=0.5,
        clipping=1.0,
        noise_multiplier=sigma,
        rng=np.random.default_rng(3),
        **extra,
    )
    if scheme == "geodp":
        return GeoDpSgdOptimizer(beta=0.02, **kwargs)
    if scheme == "geodp_adam":
        return GeoDpAdamOptimizer(beta=0.02, **kwargs)
    return DpSgdOptimizer(**kwargs)


def _sparse_trainer(data, opt, **kwargs):
    kwargs.setdefault("rng", np.random.default_rng(4))
    kwargs.setdefault("noise_seed", 9)
    return SparseTrainer(_model(), opt, data[0], batch_size=BATCH, **kwargs)


@pytest.mark.parametrize("scheme", ["dp", "geodp", "geodp_adam"])
class TestEquivalence:
    def test_lazy_replay_matches_eager(self, click_data, scheme):
        """Deferred noise, once flushed, reproduces the eager parameters."""
        params = {}
        for lazy in (False, True):
            trainer = _sparse_trainer(
                click_data, _optimizer(scheme), lazy=lazy, noise_mode="replay"
            )
            trainer.train(6)
            trainer.finalize()
            params[lazy] = trainer.model.get_params()
        assert np.max(np.abs(params[False] - params[True])) <= 1e-8

    def test_ledger_replays_to_dense_epsilon(self, click_data, scheme):
        """Same-config sparse and dense runs spend identical privacy."""
        results = {}
        for sparse in (False, True):
            ledger = ReleaseLedger()
            opt = _optimizer(
                scheme,
                ledger=ledger,
                accountant=RdpAccountant(),
                sample_rate=BATCH / len(click_data[0]),
            )
            if sparse:
                trainer = _sparse_trainer(click_data, opt, noise_mode="aggregate")
                trainer.train(5)
                trainer.finalize()
            else:
                trainer = Trainer(
                    _model(), opt, click_data[0], batch_size=BATCH,
                    rng=np.random.default_rng(4),
                )
                trainer.train(5)
            verdict = verify_ledger(ledger, opt.accountant)
            assert verdict.ok
            results[sparse] = (
                verdict.replayed_epsilon,
                [(e.mechanism, e.sigma, e.sensitivity) for e in ledger.entries],
            )
        assert abs(results[False][0] - results[True][0]) <= 1e-9
        assert results[False][1] == results[True][1]


class TestTraining:
    def test_learns_at_zero_noise(self, click_data):
        trainer = _sparse_trainer(
            click_data, _optimizer(sigma=0.0), test_data=click_data[1],
            noise_mode="aggregate",
        )
        history = trainer.train(120)
        assert history.iterations == 120
        assert trainer.evaluate() >= 0.75

    def test_untouched_rows_move_only_by_noise(self, click_data):
        """Rows outside the drawable support change only via cover noise."""
        trainer = _sparse_trainer(click_data, _optimizer(), noise_mode="aggregate")
        before = trainer.embedding.weight.copy()
        trainer.train(5)
        # Support is the top 10% of the table; deep-tail rows are never drawn.
        tail = slice(VOCAB // 2, VOCAB)
        np.testing.assert_array_equal(trainer.embedding.weight[tail], before[tail])
        trainer.flush()
        moved = np.abs(trainer.embedding.weight[tail] - before[tail])
        assert np.all(moved > 0)  # cover noise reached every tail coordinate
        scale = trainer._cover_scale() * np.sqrt(5)
        assert np.max(moved) < 8 * scale  # ...at the deferred-noise scale

    def test_history_and_eval_every(self, click_data):
        trainer = _sparse_trainer(
            click_data, _optimizer(), test_data=click_data[1],
            noise_mode="aggregate",
        )
        history = trainer.train(4, eval_every=2)
        assert len(history.losses) == 4
        assert [it for it, _ in history.test_accuracy] == [2, 4]

    def test_state_dict_round_trip(self, click_data):
        trainer = _sparse_trainer(click_data, _optimizer(), noise_mode="replay")
        trainer.train(3)
        snapshot = trainer.state_dict()
        resumed = _sparse_trainer(click_data, _optimizer(), noise_mode="replay")
        resumed.load_state_dict(snapshot)
        trainer.train(3)
        resumed.train(3)
        trainer.finalize()
        resumed.finalize()
        np.testing.assert_allclose(
            trainer.model.get_params(), resumed.model.get_params(), atol=1e-12
        )


class TestValidation:
    def test_rejects_optimizer_without_step_sparse(self, click_data):
        from repro.core.sgd import SgdOptimizer

        with pytest.raises(ValueError, match="step_sparse"):
            SparseTrainer(_model(), SgdOptimizer(0.1), click_data[0], batch_size=BATCH)

    def test_rejects_adaptive_sensitivity(self, click_data):
        opt = DpSgdOptimizer(
            0.5, AdaptiveQuantileClipping(1.0), 0.7, rng=np.random.default_rng(3)
        )
        with pytest.raises(ValueError, match="constant"):
            SparseTrainer(_model(), opt, click_data[0], batch_size=BATCH)

    def test_rejects_scheduled_optimizer(self, click_data):
        from repro.core.schedules import LinearDecay, ScheduledOptimizer

        opt = ScheduledOptimizer(
            _optimizer("geodp"), noise_multiplier=LinearDecay(2.0, 0.5, 10)
        )
        with pytest.raises(ValueError, match="release hooks"):
            SparseTrainer(_model(), opt, click_data[0], batch_size=BATCH)

    def test_rejects_model_without_embedding(self, click_data):
        from repro.models import build_logistic_regression

        model = build_logistic_regression((8,), 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="exactly one Embedding"):
            SparseTrainer(model, _optimizer(), click_data[0], batch_size=BATCH)

    def test_rejects_bad_batch_size(self, click_data):
        with pytest.raises(ValueError, match="batch_size"):
            SparseTrainer(_model(), _optimizer(), click_data[0], batch_size=0)

    def test_core_trainer_rejects_sparse_mode(self, click_data):
        opt = _optimizer(grad_mode="sparse")
        with pytest.raises(ValueError, match="SparseTrainer"):
            Trainer(_model(), opt, click_data[0], batch_size=BATCH)

    def test_rejects_out_of_vocab_tokens(self, click_data):
        trainer = _sparse_trainer(click_data, _optimizer())
        with pytest.raises(ValueError, match="token ids"):
            trainer._step(np.full((2, 3), VOCAB, dtype=np.float64), np.zeros(2))

    def test_find_embedding(self):
        assert find_embedding(_model()) == 0
