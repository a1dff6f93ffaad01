"""The runtime needs numpy only; scipy is a test-only reference.

``repro`` used scipy for two calls: ``spearmanr`` (section 6's rank
correlations) and ``minimize(method="Nelder-Mead")`` (the section-6
model fit).  Both are numpy code in ``repro`` now.  Where scipy is
installed, these tests hold the numpy versions to scipy's answers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import spearman
from repro.core import prediction
from tests import test_core_prediction

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_does_not_load_scipy():
    code = ("import sys, repro.cli; "
            "sys.exit(1 if 'scipy' in sys.modules else 0)")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr or "scipy was imported"


def _scipy_spearman(x, y) -> float:
    stats = pytest.importorskip("scipy.stats")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coefficient = stats.spearmanr(x, y)[0]
    return 0.0 if np.isnan(coefficient) else float(coefficient)


class TestSpearmanMatchesScipy:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                    min_size=3, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_tied_samples(self, pairs):
        x = [float(a) for a, _ in pairs]
        y = [float(b) for _, b in pairs]
        assert spearman(x, y) == pytest.approx(_scipy_spearman(x, y),
                                               rel=1e-12, abs=1e-12)

    def test_constant_sample_is_zero(self):
        x, y = [2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 4.0]
        assert _scipy_spearman(x, y) == 0.0
        assert spearman(x, y) == 0.0
        assert spearman(y, x) == 0.0

    def test_fewer_than_three_points_is_zero(self):
        pytest.importorskip("scipy.stats")
        assert spearman([1.0, 2.0], [2.0, 1.0]) == 0.0
        assert spearman([], []) == 0.0


def _scipy_nelder_mead(func, x0, *, maxiter, xatol, fatol):
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(func, np.asarray(x0), method="Nelder-Mead",
                             options={"maxiter": maxiter, "xatol": xatol,
                                      "fatol": fatol}).x


@pytest.mark.parametrize("include_e12", [False, True])
def test_simplex_fit_matches_scipy(include_e12, monkeypatch):
    pytest.importorskip("scipy.optimize")
    feature_sets, observed, _ = \
        test_core_prediction.TestFitting()._synthetic_dataset()
    ours = prediction.fit_s1e3_model(feature_sets, observed,
                                     include_e12=include_e12)
    monkeypatch.setattr(prediction, "_nelder_mead", _scipy_nelder_mead)
    reference = prediction.fit_s1e3_model(feature_sets, observed,
                                          include_e12=include_e12)
    assert ours == reference
