"""Contract tests for the heavy (training-based) experiment runners.

The full smoke presets run in the benchmark suite; here we inject micro
presets so each runner's *contract* (structure of the returned dict, table
formatting, parameter plumbing) is exercised in seconds.
"""

import numpy as np
import pytest

from repro.experiments import fig5, mia, privacy_utility, table2, table3
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.mia import format_mia, run_mia
from repro.experiments.privacy_utility import format_privacy_utility, run_privacy_utility
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3


@pytest.fixture
def micro_presets(monkeypatch):
    """Shrink every training experiment's smoke preset to seconds."""
    monkeypatch.setitem(
        fig5._PRESETS,
        "smoke",
        {
            "n": 120, "size": 16, "iters": 4,
            "batches_a": (16, 32), "batch_c": 16, "betas_b": (0.1, 0.035),
            "lr": 2.0,
        },
    )
    monkeypatch.setitem(
        table2._PRESETS,
        "smoke",
        {
            "n": 120, "size": 16, "channels": (2, 2), "batches": (8, 16),
            "iters": 3, "sigmas": (10.0, 1.0), "lr": 2.0,
        },
    )
    monkeypatch.setitem(
        table3._PRESETS,
        "smoke",
        {
            "n": 100, "size": 16, "base_channels": 2, "batches": (8, 16),
            "iters": 3, "sigmas": (0.1, 0.01), "lr": 1.0,
        },
    )
    monkeypatch.setitem(
        privacy_utility._PRESETS,
        "smoke",
        {
            "n": 120, "size": 16, "batch": 16, "iters": 5, "lr": 2.0,
            "beta": 0.05, "epsilons": (1.0, 8.0),
        },
    )
    monkeypatch.setitem(
        mia._PRESETS,
        "smoke",
        {"n": 80, "size": 16, "iters": 20, "sigma": 5.0, "lr": 2.0},
    )


class TestFig5Contract:
    def test_structure(self, micro_presets):
        result = run_fig5("smoke", rng=0)
        assert set(result["panels"]) == {"a", "b", "c"}
        for curves in result["panels"].values():
            for curve in curves.values():
                assert len(curve) == 4
        assert "clipped-sgd" in result["panels"]["b"]
        text = format_fig5(result)
        assert "Figure 5(a)" in text and "Figure 5(c)" in text


class TestTableContracts:
    def test_table2(self, micro_presets):
        result = run_table2("smoke", rng=0)
        assert len(result["rows"]) == 15
        assert result["sigmas"] == (10.0, 1.0)
        assert 0.0 <= result["noise_free"] <= 1.0
        text = format_table2(result)
        assert "Table II" in text and "GeoDP+SUR+PSAC" in text

    @pytest.mark.parametrize("grad_mode", ["sparse", "magic"])
    def test_grid_refuses_a_mode_no_cell_drives(self, grad_mode):
        """Refused before the first cell, the noise-free reference, trains."""
        from repro.data import make_mnist_like, train_test_split
        from repro.experiments.training_grid import MethodSpec, run_grid

        def builder():
            raise AssertionError("a grid cell built its model")

        train, test = train_test_split(make_mnist_like(40, rng=0, size=8), rng=0)
        with pytest.raises(ValueError, match="grad_mode"):
            run_grid(
                [MethodSpec("DP", "dp", 8)], builder, train, test,
                sigmas=(1.0,), iterations=1, learning_rate=1.0, clip_norm=1.0,
                rng=0, grad_mode=grad_mode,
            )

    def test_table3(self, micro_presets):
        result = run_table3("smoke", rng=0)
        assert len(result["rows"]) == 15
        labels = [r["label"] for r in result["rows"]]
        assert any("beta=1.0" in l for l in labels)  # Table III's bad beta
        assert "Table III" in format_table3(result)


class TestExtensionContracts:
    def test_privacy_utility(self, micro_presets):
        result = run_privacy_utility("smoke", rng=0)
        assert [r["epsilon"] for r in result["rows"]] == [1.0, 8.0]
        # Calibration: bigger budget, less noise.
        assert result["rows"][0]["sigma"] > result["rows"][1]["sigma"]
        assert "frontier" in format_privacy_utility(result)

    def test_mia(self, micro_presets):
        result = run_mia("smoke", rng=0)
        labels = [r["label"] for r in result["rows"]]
        assert len(labels) == 3
        for row in result["rows"]:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 <= row["advantage"] <= 1.0
        assert "Membership inference" in format_mia(result)

    def test_invalid_scale_rejected(self):
        for runner in (run_fig5, run_table2, run_table3, run_privacy_utility, run_mia):
            with pytest.raises(ValueError):
                runner("gigantic")
