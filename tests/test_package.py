"""Package-level quality tests: API surface, docstrings, conventions."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.geometry",
    "repro.privacy",
    "repro.nn",
    "repro.models",
    "repro.data",
    "repro.attacks",
    "repro.experiments",
    "repro.utils",
]


def _walk_modules():
    out = []
    for name in PACKAGES:
        pkg = importlib.import_module(name)
        out.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=name + "."):
            out.append(importlib.import_module(info.name))
    return out


ALL_MODULES = _walk_modules()


class TestApiSurface:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_top_level_exposes_the_headline_api(self):
        for symbol in (
            "GeoDpSgdOptimizer",
            "DpSgdOptimizer",
            "Trainer",
            "RdpAccountant",
            "perturb_geodp",
        ):
            assert hasattr(repro, symbol)

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestDocumentation:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_every_module_has_a_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} lacks a module docstring"
        )

    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_callables_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if callable(obj) and not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(symbol)
        assert not undocumented, f"{name}: undocumented public API {undocumented}"

    def test_public_classes_document_public_methods(self):
        from repro.core import DpSgdOptimizer, GeoDpSgdOptimizer, Trainer
        from repro.privacy import RdpAccountant

        for cls in (DpSgdOptimizer, GeoDpSgdOptimizer, Trainer, RdpAccountant):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


class TestConventions:
    def test_optimizers_declare_per_sample_requirement(self):
        from repro.core import (
            AdamOptimizer,
            DpAdamOptimizer,
            DpSgdOptimizer,
            GeoDpAdamOptimizer,
            GeoDpSgdOptimizer,
            SgdOptimizer,
        )
        from repro.core.pipeline import DpOptimizer

        # A DP optimizer gets per-sample gradients from the trainer.
        assert isinstance(DpSgdOptimizer(0.1, 1.0, 1.0), DpOptimizer)
        assert isinstance(GeoDpSgdOptimizer(0.1, 1.0, 1.0, beta=0.5), DpOptimizer)
        assert isinstance(DpAdamOptimizer(0.1, 1.0, 1.0), DpOptimizer)
        assert isinstance(GeoDpAdamOptimizer(0.1, 1.0, 1.0, beta=0.5), DpOptimizer)
        assert not isinstance(SgdOptimizer(0.1), DpOptimizer)
        assert not isinstance(AdamOptimizer(0.1), DpOptimizer)

    def test_stochastic_components_accept_rng_seed(self):
        """Every stochastic public entry point must be seedable for reproducibility."""
        import numpy as np

        from repro.core import perturb_dp, perturb_geodp
        from repro.data import make_cifar_like, make_mnist_like, make_text_like

        g = np.ones(5)
        assert np.allclose(
            perturb_dp(g, 1.0, 1.0, 4, rng=1), perturb_dp(g, 1.0, 1.0, 4, rng=1)
        )
        assert np.allclose(
            perturb_geodp(g, 1.0, 1.0, 4, 0.5, rng=1),
            perturb_geodp(g, 1.0, 1.0, 4, 0.5, rng=1),
        )
        for maker in (make_mnist_like, make_cifar_like, make_text_like):
            a = maker(12, rng=5)
            b = maker(12, rng=5)
            assert np.allclose(a.x, b.x)
