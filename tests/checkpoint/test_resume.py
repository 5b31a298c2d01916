"""Bit-identical resume tests: a run killed at iteration k and resumed from
its latest snapshot must match an uninterrupted run exactly — parameters,
losses, RNG streams and privacy spend, not merely approximately."""

import numpy as np
import pytest

from repro.checkpoint import (
    SnapshotError,
    capture_training_state,
    latest_snapshot,
    restore_training_state,
    save_snapshot,
    snapshot_path,
)
from repro.core import (
    DpSgdOptimizer,
    GeoDpSgdOptimizer,
    SelectiveUpdateRelease,
    SgdOptimizer,
    Trainer,
)
from repro.core.geodp_adam import GeoDpAdamOptimizer
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.privacy.accountant import RdpAccountant
from repro.privacy.clipping import AutoSClipping
from repro.telemetry import MetricsRecorder
from repro.utils.rng import get_rng_state

TOTAL = 14
CRASH_EVERY = 4  # snapshots at 4, 8, 12


@pytest.fixture(scope="module")
def small_data():
    data = make_mnist_like(240, rng=0, size=10)
    return train_test_split(data, rng=0)


def make_setup(kind, data):
    """Fresh (model, optimizer, accountant, trainer) with fixed seeds.

    Called once per simulated process: the resumed run reconstructs
    everything from scratch, exactly as a restarted job would.
    """
    train, test = data
    model = build_logistic_regression((1, 10, 10), rng=0)
    accountant = RdpAccountant()
    sample_rate = 32 / len(train)
    kwargs = {}
    if kind == "sgd_momentum":
        optimizer = SgdOptimizer(1.0, momentum=0.9)
        accountant = None
    elif kind == "dpsgd_momentum":
        optimizer = DpSgdOptimizer(
            1.0, 0.1, 1.0, rng=2, momentum=0.9,
            accountant=accountant, sample_rate=sample_rate,
        )
    elif kind == "dpsgd_autos_microbatch":
        optimizer = DpSgdOptimizer(
            1.0, AutoSClipping(0.1), 1.0, rng=2,
            accountant=accountant, sample_rate=sample_rate,
        )
        kwargs["microbatch_size"] = 8
    elif kind == "dpsgd_poisson":
        optimizer = DpSgdOptimizer(
            1.0, 0.1, 1.0, rng=2, momentum=0.5,
            accountant=accountant, sample_rate=sample_rate,
        )
        kwargs["sampling"] = "poisson"
    elif kind == "geodp_momentum":
        optimizer = GeoDpSgdOptimizer(
            1.0, 0.1, 1.0, beta=0.1, rng=2, momentum=0.9,
            accountant=accountant, sample_rate=sample_rate,
        )
    elif kind == "geodp_adam":
        optimizer = GeoDpAdamOptimizer(
            0.1, 0.1, 1.0, beta=0.1, rng=2,
            accountant=accountant, sample_rate=sample_rate,
        )
    elif kind == "dpsgd_sur":
        optimizer = DpSgdOptimizer(
            2.0, 0.1, 5.0, rng=2, momentum=0.9,
            accountant=accountant, sample_rate=sample_rate,
        )
        kwargs["sur"] = SelectiveUpdateRelease(threshold=0.0, noise_std=0.05, rng=9)
    else:
        raise ValueError(kind)
    trainer = Trainer(
        model, optimizer, train, test_data=test, batch_size=32, rng=1,
        telemetry=MetricsRecorder(), **kwargs,
    )
    return model, optimizer, accountant, trainer


def assert_bit_identical(kind, data, tmp_path, interrupt_at):
    """Train uninterrupted; train again with a crash + resume; compare exactly."""
    model_a, opt_a, acc_a, trainer_a = make_setup(kind, data)
    history_a = trainer_a.train(TOTAL, eval_every=7)

    ckpt = tmp_path / kind
    _, _, _, trainer_b = make_setup(kind, data)
    trainer_b.train(
        interrupt_at, eval_every=7, checkpoint_every=CRASH_EVERY, checkpoint_dir=ckpt
    )

    model_c, opt_c, acc_c, trainer_c = make_setup(kind, data)
    history_c = trainer_c.train(
        TOTAL, eval_every=7, checkpoint_every=CRASH_EVERY, checkpoint_dir=ckpt
    )

    assert np.array_equal(model_c.get_params(), model_a.get_params())
    assert history_c.losses == history_a.losses
    assert history_c.test_accuracy == history_a.test_accuracy
    assert history_c.sur_acceptance_rate == history_a.sur_acceptance_rate
    assert trainer_c.rng.bit_generator.state == trainer_a.rng.bit_generator.state
    opt_rng = getattr(opt_c, "rng", None)
    if opt_rng is not None:
        assert opt_rng.bit_generator.state == opt_a.rng.bit_generator.state
    if acc_a is not None:
        assert acc_c.get_epsilon(1e-5) == acc_a.get_epsilon(1e-5)
        assert acc_c.history == acc_a.history


class TestResumeSmoke:
    """Fast tier-1 coverage: one plain-DP and one geometric configuration."""

    def test_dpsgd_momentum(self, small_data, tmp_path):
        assert_bit_identical("dpsgd_momentum", small_data, tmp_path, interrupt_at=9)

    def test_geodp_momentum(self, small_data, tmp_path):
        assert_bit_identical("geodp_momentum", small_data, tmp_path, interrupt_at=9)


@pytest.mark.slow
class TestResumeMatrix:
    """Every optimizer/technique combination resumes bit-identically."""

    @pytest.mark.parametrize(
        "kind",
        [
            "sgd_momentum",
            "dpsgd_momentum",
            "dpsgd_autos_microbatch",
            "dpsgd_poisson",
            "geodp_momentum",
            "geodp_adam",
            "dpsgd_sur",
        ],
    )
    @pytest.mark.parametrize("interrupt_at", [5, 13])
    def test_bit_identical(self, small_data, tmp_path, kind, interrupt_at):
        assert_bit_identical(kind, small_data, tmp_path, interrupt_at)


class TestOlderSnapshots:
    def test_clipping_state_key_is_ignored(self, small_data, tmp_path):
        """Snapshots from before clipping strategies became stateless carry
        ``optimizer["clipping"] = {}``; the loader skips the key and the run
        continues bit-identically."""
        model_a, opt_a, acc_a, trainer_a = make_setup("dpsgd_momentum", small_data)
        history_a = trainer_a.train(TOTAL)

        _, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        history_b = trainer_b.train(8)
        state = capture_training_state(trainer_b, history_b, 8)
        assert "clipping" not in state["optimizer"]
        state["optimizer"]["clipping"] = {}
        save_snapshot(snapshot_path(tmp_path, 8), state)

        model_c, opt_c, acc_c, trainer_c = make_setup("dpsgd_momentum", small_data)
        lots = []
        run_lot = trainer_c._lot
        trainer_c._lot = lambda: lots.append(1) or run_lot()
        history_c = trainer_c.train(TOTAL, checkpoint_dir=tmp_path)
        assert len(lots) == TOTAL - 8  # resumed from the snapshot
        assert np.array_equal(model_c.get_params(), model_a.get_params())
        assert history_c.losses == history_a.losses
        assert opt_c.rng.bit_generator.state == opt_a.rng.bit_generator.state
        assert acc_c.history == acc_a.history

    def test_lot_size_key_is_ignored(self, small_data, tmp_path):
        """Snapshots from before the trainer owned the lot size carry
        ``optimizer["lot_size"]`` and no release count; a Poisson run
        resumed from one continues bit-identically."""
        model_a, _, acc_a, trainer_a = make_setup("dpsgd_poisson", small_data)
        history_a = trainer_a.train(TOTAL)

        _, _, _, trainer_b = make_setup("dpsgd_poisson", small_data)
        state = capture_training_state(trainer_b, trainer_b.train(8), 8)
        del state["optimizer"]["releases"]
        state["optimizer"]["lot_size"] = 32
        save_snapshot(snapshot_path(tmp_path, 8), state)

        model_c, opt_c, acc_c, trainer_c = make_setup("dpsgd_poisson", small_data)
        history_c = trainer_c.train(TOTAL, checkpoint_dir=tmp_path)
        assert opt_c.releases == TOTAL - 8
        assert np.array_equal(model_c.get_params(), model_a.get_params())
        assert history_c.losses == history_a.losses
        assert acc_c.history == acc_a.history


class TestCrashInjection:
    def test_exception_mid_run_then_resume(self, small_data, tmp_path):
        """A hard crash (exception escaping train) loses nothing past the
        last snapshot; the resumed run still matches uninterrupted exactly."""
        model_a, _, acc_a, trainer_a = make_setup("dpsgd_momentum", small_data)
        history_a = trainer_a.train(TOTAL)

        _, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        crash_at = 10
        original = trainer_b._per_sample_step
        calls = []

        def exploding_step(*args, **kwargs):
            if len(calls) >= crash_at:
                raise RuntimeError("simulated crash")
            calls.append(1)
            return original(*args, **kwargs)

        trainer_b._per_sample_step = exploding_step
        with pytest.raises(RuntimeError, match="simulated crash"):
            trainer_b.train(TOTAL, checkpoint_every=CRASH_EVERY, checkpoint_dir=tmp_path)

        model_c, _, acc_c, trainer_c = make_setup("dpsgd_momentum", small_data)
        history_c = trainer_c.train(
            TOTAL, checkpoint_every=CRASH_EVERY, checkpoint_dir=tmp_path
        )
        assert np.array_equal(model_c.get_params(), model_a.get_params())
        assert history_c.losses == history_a.losses
        assert acc_c.get_epsilon(1e-5) == acc_a.get_epsilon(1e-5)

    def test_truncated_latest_snapshot_falls_back(self, small_data, tmp_path):
        """A partial snapshot from a kill mid-write is skipped with a warning
        and the run resumes from the previous valid one."""
        model_a, _, _, trainer_a = make_setup("dpsgd_momentum", small_data)
        history_a = trainer_a.train(TOTAL)

        _, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        trainer_b.train(12, checkpoint_every=CRASH_EVERY, checkpoint_dir=tmp_path)
        newest = snapshot_path(tmp_path, 12)
        newest.write_bytes(newest.read_bytes()[:128])

        model_c, _, _, trainer_c = make_setup("dpsgd_momentum", small_data)
        with pytest.warns(UserWarning, match="skipping invalid snapshot"):
            history_c = trainer_c.train(
                TOTAL, checkpoint_every=CRASH_EVERY, checkpoint_dir=tmp_path
            )
        assert np.array_equal(model_c.get_params(), model_a.get_params())
        assert history_c.losses == history_a.losses


class TestResumeSemantics:
    def test_resume_false_ignores_snapshots(self, small_data, tmp_path):
        _, _, _, trainer_a = make_setup("dpsgd_momentum", small_data)
        trainer_a.train(8, checkpoint_every=4, checkpoint_dir=tmp_path)

        _, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        history = trainer_b.train(
            6, checkpoint_every=4, checkpoint_dir=tmp_path, resume=False
        )
        assert history.iterations == 6
        assert len(history.losses) == 6

    def test_resume_never_overshoots_requested_length(self, small_data, tmp_path):
        """Snapshots beyond num_iterations are ignored, so a shorter re-run
        still trains (prefix-identically) instead of returning instantly."""
        model_a, _, _, trainer_a = make_setup("dpsgd_momentum", small_data)
        history_a = trainer_a.train(12, checkpoint_every=4, checkpoint_dir=tmp_path)

        model_b, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        history_b = trainer_b.train(6, checkpoint_every=4, checkpoint_dir=tmp_path)
        assert history_b.iterations == 6
        assert history_b.losses == history_a.losses[:6]

    def test_resume_at_exact_completion_is_noop(self, small_data, tmp_path):
        model_a, _, _, trainer_a = make_setup("dpsgd_momentum", small_data)
        trainer_a.train(8, checkpoint_every=8, checkpoint_dir=tmp_path)
        params = model_a.get_params().copy()

        model_b, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        history = trainer_b.train(8, checkpoint_every=8, checkpoint_dir=tmp_path)
        assert np.array_equal(model_b.get_params(), params)
        assert history.iterations == 8

    def test_checkpoint_every_requires_dir(self, small_data):
        _, _, _, trainer = make_setup("dpsgd_momentum", small_data)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.train(4, checkpoint_every=2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            trainer.train(4, checkpoint_every=-1)

    def test_telemetry_counters_survive_resume(self, small_data, tmp_path):
        _, _, _, trainer_a = make_setup("dpsgd_momentum", small_data)
        trainer_a.train(TOTAL)
        full = trainer_a.telemetry.deterministic_state()

        _, _, _, trainer_b = make_setup("dpsgd_momentum", small_data)
        trainer_b.train(8, checkpoint_every=4, checkpoint_dir=tmp_path)
        _, _, _, trainer_c = make_setup("dpsgd_momentum", small_data)
        trainer_c.train(TOTAL, checkpoint_every=4, checkpoint_dir=tmp_path)
        assert trainer_c.telemetry.deterministic_state() == full
        assert full["counters"]["iterations"] == TOTAL
        assert [s for s, _ in full["series"]["loss"]] == list(range(1, TOTAL + 1))


class TestMismatchDetection:
    def test_wrong_optimizer_class(self, small_data, tmp_path):
        _, _, _, trainer = make_setup("dpsgd_momentum", small_data)
        history = trainer.train(4)
        state = capture_training_state(trainer, history, 4)

        _, _, _, other = make_setup("geodp_momentum", small_data)
        with pytest.raises(SnapshotError, match="DpSgdOptimizer"):
            restore_training_state(other, state)

    def test_wrong_model_size(self, small_data, tmp_path):
        _, _, _, trainer = make_setup("dpsgd_momentum", small_data)
        history = trainer.train(4)
        state = capture_training_state(trainer, history, 4)
        state["num_params"] = 3

        _, _, _, fresh = make_setup("dpsgd_momentum", small_data)
        with pytest.raises(SnapshotError, match="parameters"):
            restore_training_state(fresh, state)

    def test_sur_attachment_mismatch(self, small_data, tmp_path):
        _, _, _, trainer = make_setup("dpsgd_sur", small_data)
        history = trainer.train(4)
        state = capture_training_state(trainer, history, 4)

        _, _, _, plain = make_setup("dpsgd_momentum", small_data)
        with pytest.raises(SnapshotError, match="SUR"):
            restore_training_state(plain, state)

    def test_snapshot_of_an_augmented_run_is_refused(self, small_data, tmp_path):
        """Snapshots of runs that augmented their batches carry the
        augmenter's generator; no trainer can continue such a run, so the
        snapshot is refused instead of resuming unaugmented."""
        _, _, _, trainer = make_setup("dpsgd_momentum", small_data)
        history = trainer.train(4)
        state = capture_training_state(trainer, history, 4)
        state["augment_rng"] = get_rng_state(np.random.default_rng(3))
        save_snapshot(snapshot_path(tmp_path, 4), state)

        _, _, _, fresh = make_setup("dpsgd_momentum", small_data)
        with pytest.raises(SnapshotError, match="augment_rng"):
            restore_training_state(fresh, state)
        with pytest.raises(SnapshotError, match="augment_rng"):
            fresh.train(6, checkpoint_dir=tmp_path)

    def test_capture_round_trips_through_disk(self, small_data, tmp_path):
        _, _, _, trainer = make_setup("dpsgd_momentum", small_data)
        history = trainer.train(4)
        state = capture_training_state(trainer, history, 4)
        path = save_snapshot(tmp_path / "s.npz", state)
        _, loaded = latest_snapshot(tmp_path) or (None, None)
        assert loaded is None  # filename is not snapshot-NNN.npz, scan ignores it

        _, _, _, fresh = make_setup("dpsgd_momentum", small_data)
        from repro.checkpoint import load_snapshot

        restored_history, iteration = restore_training_state(fresh, load_snapshot(path))
        assert iteration == 4
        assert restored_history.losses == history.losses
