"""SparseTrainer end-to-end: equivalence, accounting, validation, barriers."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.backend import use_backend
from repro.checkpoint import load_snapshot
from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.geodp_adam import GeoDpAdamOptimizer
from repro.core.trainer import Trainer
from repro.data import make_click_log, train_test_split
from repro.models.text import build_text_classifier
from repro.nn import Embedding, Flatten, Sequential
from repro.privacy.accountant import RdpAccountant
from repro.privacy.clipping import PsacClipping
from repro.privacy.ledger import ReleaseLedger, verify_ledger
from repro.sparse import SparseTrainer, find_embedding
from repro.telemetry import MetricsRecorder, Tracer
from tests.conftest import series_at

pytestmark = pytest.mark.sparse

VOCAB = 500
BATCH = 15

#: Snapshots committed with the test suite (see ``TestOlderSnapshots``).
DATA = Path(__file__).parent / "data"


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


def _optimizer(scheme="dp", sigma=0.7, clipping=1.0, **extra):
    extra.setdefault("grad_mode", "sparse")
    kwargs = dict(
        learning_rate=0.5,
        clipping=clipping,
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
        """Deferred noise, once flushed, reproduces the eager parameters,
        under flat clipping and under PSAC's non-flat factors."""
        for clipping in (1.0, PsacClipping(1.0)):
            params = {}
            for lazy in (False, True):
                trainer = _sparse_trainer(
                    click_data,
                    _optimizer(scheme, clipping=clipping),
                    lazy=lazy,
                    noise_mode="replay",
                )
                trainer.train(6)
                trainer.finalize()
                params[lazy] = trainer.model.get_params()
            gap = np.max(np.abs(params[False] - params[True]))
            assert gap <= 1e-8, (clipping, gap)

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
                grad_mode="sparse" if sparse else "materialize",
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


def _audited_trainer(data, scheme, **kwargs):
    """A sparse trainer whose optimizer keeps an accountant and a ledger."""
    accountant, ledger = RdpAccountant(), ReleaseLedger()
    opt = _optimizer(
        scheme,
        accountant=accountant,
        sample_rate=BATCH / len(data[0]),
        ledger=ledger,
    )
    return _sparse_trainer(data, opt, **kwargs), accountant, ledger


class TestSharedLoop:
    """What SparseTrainer inherits from the base Trainer's lot loop."""

    @pytest.mark.parametrize("noise_mode", ["replay", "aggregate"])
    @pytest.mark.parametrize("scheme", ["dp", "geodp"])
    def test_resume_is_bit_identical(self, click_data, tmp_path, scheme, noise_mode):
        """A run stopped after 9 lots and resumed from its snapshot at 8
        matches an uninterrupted run.  A checkpoint flushes deferred noise,
        so the reference checkpoints at the same iterations."""
        schedule = dict(eval_every=7, checkpoint_every=4)

        def run(num_iterations, directory):
            trainer, accountant, ledger = _audited_trainer(
                click_data, scheme, test_data=click_data[1], noise_mode=noise_mode
            )
            history = trainer.train(
                num_iterations, checkpoint_dir=directory, **schedule
            )
            trainer.finalize()
            return trainer.model.get_params(), history, accountant, ledger

        params_a, history_a, accountant_a, ledger_a = run(14, tmp_path / "a")
        run(9, tmp_path / "b")
        params_b, history_b, accountant_b, ledger_b = run(14, tmp_path / "b")

        assert np.array_equal(params_b, params_a)
        assert history_b.losses == history_a.losses
        assert history_b.test_accuracy == history_a.test_accuracy
        assert [it for it, _ in history_b.test_accuracy] == [7, 14]
        assert ledger_b.head == ledger_a.head
        assert accountant_b.history == accountant_a.history

    def test_telemetry_from_the_loop(self, click_data):
        """Sinks given only to the trainer reach the optimizer, every lot
        records its diagnostics, and observing changes no output bit."""

        def run(instrumented):
            recorder = MetricsRecorder() if instrumented else None
            tracer = Tracer() if instrumented else None
            trainer, accountant, ledger = _audited_trainer(
                click_data, "geodp", telemetry=recorder, tracer=tracer
            )
            trainer.train(4)
            trainer.finalize()
            outputs = (trainer.model.get_params(), ledger.head, accountant.history)
            return outputs, recorder, tracer

        plain, _, _ = run(False)
        observed, recorder, tracer = run(True)
        assert recorder.counters["iterations"] == 4
        for iteration in range(1, 5):
            assert {"loss", "pre_clip_norm_mean", "clipped_fraction"} <= set(
                series_at(recorder, iteration)
            )
        assert recorder.counters["releases_geodp"] == 4
        assert {"run", "lot"} <= {span.name for span in tracer.spans}
        assert np.array_equal(observed[0], plain[0])
        assert observed[1] == plain[1]
        assert observed[2] == plain[2]


class TestValidation:
    def test_rejects_optimizer_without_step_sparse(self, click_data):
        from repro.core.sgd import SgdOptimizer

        with pytest.raises(ValueError, match="step_sparse"):
            SparseTrainer(_model(), SgdOptimizer(0.1), click_data[0], batch_size=BATCH)

    def test_rejects_scheduled_optimizer(self, click_data):
        from repro.core.schedules import LinearDecay, schedule

        opt = schedule(_optimizer("geodp"), noise_multiplier=LinearDecay(2.0, 0.5, 10))
        with pytest.raises(ValueError, match="release hooks"):
            SparseTrainer(_model(), opt, click_data[0], batch_size=BATCH)

    @pytest.mark.parametrize("grad_mode", ["materialize", "ghost"])
    def test_rejects_non_sparse_mode(self, click_data, grad_mode):
        opt = _optimizer(grad_mode=grad_mode)
        with pytest.raises(ValueError, match="grad_mode"):
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
        model = _model()
        assert find_embedding(model) is model.layers[0]

    def test_find_embedding_requires_layer_zero(self):
        """Token ids can only enter at layer 0, and a head must follow."""
        for layers in (
            [Flatten(), Embedding(10, 2, rng=0)],
            [Embedding(10, 2, rng=0)],
        ):
            with pytest.raises(ValueError, match="layer 0"):
                find_embedding(Sequential(layers))


def _same_state(a, b) -> bool:
    """Nested snapshot states equal, arrays bit for bit."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_state, a, b))
    return a == b


class TestOlderSnapshots:
    """``data/{dp,geodp}-snapshot-8.npz`` were written by ``_audited_trainer``
    with ``noise_mode="aggregate"``, ``train(8, checkpoint_every=4)`` on the
    reference backend, before the sparse clip stage ran its dense head
    through ``Sequential``'s ghost passes."""

    @pytest.mark.parametrize("scheme", ["dp", "geodp"])
    def test_committed_snapshot_resumes_bit_identically(
        self, click_data, tmp_path, scheme
    ):
        def run(directory):
            trainer, _, ledger = _audited_trainer(
                click_data, scheme, noise_mode="aggregate"
            )
            history = trainer.train(12, checkpoint_every=4, checkpoint_dir=directory)
            return trainer, history, ledger

        committed = DATA / f"{scheme}-snapshot-8.npz"
        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        shutil.copy(committed, resumed_dir / "snapshot-000000008.npz")
        with use_backend("reference"):
            fresh, fresh_history, fresh_ledger = run(tmp_path / "fresh")
            resumed, resumed_history, resumed_ledger = run(resumed_dir)

        # Same format and the same first 8 lots as today's code ...
        assert _same_state(
            load_snapshot(committed),
            load_snapshot(tmp_path / "fresh" / "snapshot-000000008.npz"),
        )
        # ... and the resumed run started at 9: it wrote no snapshot before 12.
        assert sorted(p.name for p in resumed_dir.iterdir()) == [
            "snapshot-000000008.npz",
            "snapshot-000000012.npz",
        ]
        assert resumed_history.losses == fresh_history.losses
        assert resumed_ledger.head == fresh_ledger.head
        assert np.array_equal(resumed.model.get_params(), fresh.model.get_params())
        assert _same_state(
            resumed.lazy_noise.state_dict(), fresh.lazy_noise.state_dict()
        )
