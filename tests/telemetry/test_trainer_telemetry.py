"""Integration tests: trainer + optimizers emitting telemetry."""

import numpy as np
import pytest

from repro.core import (
    DpSgdOptimizer,
    GeoDpAdamOptimizer,
    GeoDpSgdOptimizer,
    SelectiveUpdateRelease,
    SgdOptimizer,
    Trainer,
)
from repro.data import make_click_log, make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.models.text import build_text_classifier
from repro.privacy import RdpAccountant
from repro.privacy.ledger import ReleaseLedger
from repro.sparse import SparseTrainer
from repro.telemetry import (
    MetricsRecorder,
    Tracer,
    clip_diagnostics,
    release_diagnostics,
)


@pytest.fixture(scope="module")
def small_data():
    data = make_mnist_like(300, rng=0, size=12)
    return train_test_split(data, rng=0)


def lr_model():
    return build_logistic_regression((1, 12, 12), rng=0)


#: DP optimizers whose instrumented runs must be byte-identical.
OBSERVED_OPTIMIZERS = {
    "dpsgd": lambda **kw: DpSgdOptimizer(1.0, 0.1, 1.0, **kw),
    "geodp": lambda **kw: GeoDpSgdOptimizer(
        1.0, 0.1, 1.0, beta=0.1, sensitivity_mode="per_angle", **kw
    ),
    "geodp_adam": lambda **kw: GeoDpAdamOptimizer(0.05, 0.1, 1.0, beta=0.1, **kw),
}


def _sinks(instrumented: bool) -> dict:
    """A recorder plus a phase-granularity tracer, or neither."""
    if not instrumented:
        return {"recorder": None, "tracer": None}
    return {"recorder": MetricsRecorder(), "tracer": Tracer(granularity="phase")}


DP_METRICS = {
    "loss",
    "pre_clip_norm_mean",
    "pre_clip_norm_max",
    "clipped_fraction",
    "post_clip_norm",
    "noise_norm",
    "noise_to_signal",
    "cos_similarity",
    "angular_deviation",
    "sensitivity",
    "sigma",
}


class TestDiagnostics:
    def test_clip_diagnostics(self):
        grads = np.array([[3.0, 4.0], [0.3, 0.4]])  # norms 5 and 0.5
        stats = clip_diagnostics(grads, 1.0)
        assert stats["pre_clip_norm_mean"] == pytest.approx(2.75)
        assert stats["pre_clip_norm_max"] == pytest.approx(5.0)
        assert stats["clipped_fraction"] == pytest.approx(0.5)

    def test_clip_diagnostics_empty_batch(self):
        stats = clip_diagnostics(np.zeros((0, 4)), 1.0)
        assert stats == {
            "pre_clip_norm_mean": 0.0,
            "pre_clip_norm_max": 0.0,
            "clipped_fraction": 0.0,
        }

    def test_release_diagnostics_orthogonal_noise(self):
        clean = np.array([1.0, 0.0])
        noisy = np.array([1.0, 1.0])
        stats = release_diagnostics(clean, noisy)
        assert stats["post_clip_norm"] == pytest.approx(1.0)
        assert stats["noise_norm"] == pytest.approx(1.0)
        assert stats["noise_to_signal"] == pytest.approx(1.0)
        assert stats["angular_deviation"] == pytest.approx(np.pi / 4)

    def test_release_diagnostics_zero_signal(self):
        stats = release_diagnostics(np.zeros(3), np.ones(3))
        assert "noise_to_signal" not in stats
        assert "angular_deviation" not in stats

    def test_release_cosine_matches_geometry_module(self):
        """The hot-path inline cosine must agree with the reference one."""
        from repro.geometry.metrics import cosine_similarity

        rng = np.random.default_rng(0)
        for _ in range(20):
            clean = rng.normal(size=40)
            noisy = clean + rng.normal(scale=rng.uniform(0.01, 10.0), size=40)
            stats = release_diagnostics(clean, noisy)
            expected = float(cosine_similarity(clean[None, :], noisy[None, :])[0])
            assert stats["cos_similarity"] == pytest.approx(expected, abs=1e-12)


class TestTrainerTelemetry:
    def test_dpsgd_step_traces(self, small_data):
        train, test = small_data
        rec = MetricsRecorder()
        opt = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2)
        history = Trainer(
            lr_model(), opt, train, test_data=test, batch_size=64, rng=1, telemetry=rec
        ).train(8, eval_every=4)
        assert len(rec.events) == 8
        assert [e.iteration for e in rec.events] == list(range(1, 9))
        assert DP_METRICS <= set(rec.events[0].metrics)
        assert {"sample", "forward_backward", "clip", "noise", "step"} <= set(
            rec.events[0].timings
        )
        assert rec.counters["iterations"] == 8
        assert rec.counters["releases"] == 8
        assert rec.values("loss") == history.losses
        assert rec.values("test_accuracy") == [a for _, a in history.test_accuracy]

    def test_geodp_records_noise_split(self, small_data):
        train, _ = small_data
        rec = MetricsRecorder()
        opt = GeoDpSgdOptimizer(
            1.0, 0.1, 1.0, beta=0.1, rng=2, sensitivity_mode="per_angle"
        )
        Trainer(lr_model(), opt, train, batch_size=64, rng=1, telemetry=rec).train(4)
        metrics = rec.events[0].metrics
        assert {
            "geodp_beta",
            "geodp_magnitude_noise_scale",
            "geodp_direction_noise_scale",
        } <= set(metrics)
        assert metrics["geodp_beta"] == pytest.approx(0.1)
        assert metrics["geodp_magnitude_noise_scale"] == pytest.approx(0.1 * 1.0 / 64)

    def test_geodp_adam_records(self, small_data):
        train, _ = small_data
        rec = MetricsRecorder()
        opt = GeoDpAdamOptimizer(0.05, 0.1, 1.0, beta=0.1, rng=2)
        Trainer(lr_model(), opt, train, batch_size=64, rng=1, telemetry=rec).train(3)
        assert len(rec.events) == 3
        assert "angular_deviation" in rec.events[0].metrics
        assert "geodp_direction_noise_scale" in rec.events[0].metrics

    def test_non_private_optimizer_records_loss_and_timing(self, small_data):
        train, _ = small_data
        rec = MetricsRecorder()
        Trainer(
            lr_model(), SgdOptimizer(1.0), train, batch_size=64, rng=1, telemetry=rec
        ).train(3)
        assert len(rec.events) == 3
        assert "loss" in rec.events[0].metrics
        assert "noise_to_signal" not in rec.events[0].metrics
        assert {"sample", "forward_backward", "step"} <= set(rec.events[0].timings)

    @pytest.mark.parametrize("grad_mode", ["materialize", "ghost"])
    @pytest.mark.parametrize("name", sorted(OBSERVED_OPTIMIZERS))
    def test_telemetry_does_not_change_training(self, small_data, name, grad_mode):
        """Recorder and tracer observe: params, ledger head and accountant
        history are byte-identical to an uninstrumented run."""
        train, _ = small_data

        def run(instrumented):
            sinks = _sinks(instrumented)
            accountant, ledger = RdpAccountant(), ReleaseLedger()
            opt = OBSERVED_OPTIMIZERS[name](
                rng=5,
                accountant=accountant,
                sample_rate=32 / len(train),
                ledger=ledger,
                grad_mode=grad_mode,
            )
            model = lr_model()
            Trainer(
                model,
                opt,
                train,
                batch_size=32,
                rng=6,
                telemetry=sinks["recorder"],
                tracer=sinks["tracer"],
            ).train(5)
            if instrumented:
                assert sinks["recorder"].counters["releases"] == 5
                assert "noise" in {span.name for span in sinks["tracer"].spans}
            return model.get_params(), ledger.head, accountant.history

        plain, observed = run(False), run(True)
        assert np.array_equal(plain[0], observed[0])
        assert plain[1] == observed[1]
        assert plain[2] == observed[2]

    def test_telemetry_does_not_change_sparse_training(self):
        """The same byte-identity for a GeoDP SparseTrainer run."""
        train, _ = train_test_split(
            make_click_log(
                90,
                rng=np.random.default_rng(1),
                vocab_size=300,
                seq_length=8,
                touch_rate=0.1,
                padding_idx=0,
            ),
            rng=np.random.default_rng(2),
        )

        def run(instrumented):
            sinks = _sinks(instrumented)
            accountant, ledger = RdpAccountant(), ReleaseLedger()
            opt = GeoDpSgdOptimizer(
                0.5,
                1.0,
                0.7,
                beta=0.02,
                rng=np.random.default_rng(3),
                accountant=accountant,
                sample_rate=15 / len(train),
                ledger=ledger,
                **sinks,
            )
            model = build_text_classifier(
                300, 2, embedding_dim=4, padding_idx=0, rng=np.random.default_rng(0)
            )
            trainer = SparseTrainer(
                model,
                opt,
                train,
                batch_size=15,
                rng=np.random.default_rng(4),
                noise_seed=9,
                telemetry=sinks["recorder"],
                tracer=sinks["tracer"],
            )
            trainer.train(5)
            trainer.finalize()
            if instrumented:
                assert sinks["recorder"].counters["sparse_clipped_sums"] == 5
            return model.get_params(), ledger.head, accountant.history

        plain, observed = run(False), run(True)
        assert np.array_equal(plain[0], observed[0])
        assert plain[1] == observed[1]
        assert plain[2] == observed[2]

    def test_trainer_attaches_recorder_to_optimizer(self, small_data):
        train, _ = small_data
        rec = MetricsRecorder()
        opt = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2)
        assert opt.recorder is None
        Trainer(lr_model(), opt, train, batch_size=32, rng=1, telemetry=rec)
        assert opt.recorder is rec

    def test_trainer_keeps_existing_optimizer_recorder(self, small_data):
        train, _ = small_data
        opt_rec, trainer_rec = MetricsRecorder(), MetricsRecorder()
        opt = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2, recorder=opt_rec)
        Trainer(
            lr_model(), opt, train, batch_size=32, rng=1, telemetry=trainer_rec
        ).train(2)
        assert opt.recorder is opt_rec
        # Release metrics landed in the optimizer's own recorder...
        assert len(opt_rec.values("noise_to_signal")) == 2
        # ...while the trainer's recorder still traced steps and loss.
        assert len(trainer_rec.events) == 2
        assert "noise_to_signal" not in trainer_rec.events[0].metrics

    def test_optimizer_recorder_without_trainer_telemetry(self, small_data):
        """An optimizer-only recorder gets flat series but no step events."""
        train, _ = small_data
        rec = MetricsRecorder()
        opt = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2, recorder=rec)
        Trainer(lr_model(), opt, train, batch_size=32, rng=1).train(3)
        assert rec.events == []
        assert len(rec.values("angular_deviation")) == 3

    def test_sur_telemetry(self, small_data):
        train, _ = small_data
        rec = MetricsRecorder()
        opt = DpSgdOptimizer(5.0, 0.1, 50.0, rng=2)
        Trainer(
            lr_model(),
            opt,
            train,
            batch_size=32,
            rng=1,
            sur=SelectiveUpdateRelease(threshold=0.0),
            telemetry=rec,
        ).train(10)
        accepted = rec.counters.get("sur_accepted", 0)
        rejected = rec.counters.get("sur_rejected", 0)
        assert accepted + rejected == 10
        assert rec.values("sur_accepted").count(1.0) == accepted
