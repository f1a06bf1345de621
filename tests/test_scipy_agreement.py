"""The standard-library numerics of the package agree with scipy.

scipy is a test dependency only: the package computes the normal quantile,
the normal CDF and the chi-square upper tail itself, and these tests hold
each of them to scipy on a grid.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, norm

import treatrank
from treatrank import StudyEffect, complete_intervals
from treatrank.compare import _normal_cdf
from treatrank.partition import _chi2_sf


def test_interval_quantile_matches_scipy():
    for level in np.linspace(0.001, 0.999999, 200):
        e = StudyEffect("s1", "A", "B", 0.0, se=1.0, ci_level=float(level))
        z = complete_intervals(e).ci_upper
        assert z == pytest.approx(norm.ppf((1.0 + level) / 2.0), rel=1e-14, abs=0)


def test_normal_cdf_matches_scipy():
    for z in np.linspace(-7.99, 7.99, 1599):
        assert _normal_cdf(float(z)) == pytest.approx(norm.cdf(z), rel=1e-13, abs=0)


def test_chi2_upper_tail_matches_scipy():
    for df in range(1, 201):
        for x in np.geomspace(1e-6, 3000.0, 120):
            expected = chi2.sf(x, df)
            if expected < 1e-300:
                continue
            assert _chi2_sf(float(x), df) == pytest.approx(expected, rel=1e-12, abs=0), (x, df)
        for x in (-1.0, 0.0):
            assert _chi2_sf(x, df) == chi2.sf(x, df) == 1.0


def test_chi2_upper_tail_is_finite_for_large_df():
    # Past df of about 1400 a running product would give 0 * inf = nan.
    assert _chi2_sf(3000.0, 2001) == pytest.approx(chi2.sf(3000.0, 2001), rel=1e-12)
    assert _chi2_sf(5000.0, 4000) == pytest.approx(chi2.sf(5000.0, 4000), rel=1e-12)


def test_import_leaves_scipy_unloaded():
    src = str(Path(treatrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # urllib.parse comes with the interpreter's own start-up; urllib.request,
    # http and email would come from xml.sax.saxutils.
    probe = (
        "import sys, treatrank.cli; print(sorted(m for m in sys.modules if m == 'urllib.request'"
        " or m.split('.')[0] in ('scipy', 'http', 'email')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
