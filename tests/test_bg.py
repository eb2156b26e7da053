"""Rate fits and scaled sequences of the Boltzmann-Grad sweeps."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hsgas.bg import MIN_RESOLVED, RESOLUTION, build_sequence, fit_rate

EPS = 1.0 / np.array([20.0, 40.0, 80.0, 160.0, 320.0])


def test_fit_rate_recovers_an_exact_exponent():
    values = 0.7 * EPS ** 0.5
    fit = fit_rate(EPS, values, 0.01 * values)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-12)
    assert fit.used.all()
    assert np.abs(fit.residuals).max() < 1e-12


def test_fit_rate_drops_unresolved_rows():
    values = EPS ** 0.5
    errors = 0.01 * values
    # just below the resolution line: the row carries no rate information
    errors[2] = values[2] / RESOLUTION * (1.0 + 1e-9)
    fit = fit_rate(EPS, values, errors)
    assert fit.used.tolist() == [True, True, False, True, True]
    assert len(fit.residuals) == 4
    assert fit.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_needs_enough_resolved_rows():
    values = EPS ** 0.5
    with pytest.raises(ValueError, match=r"of 3 rows .*sequence\.ns"):
        fit_rate(EPS[:3], values[:3], 0.01 * values[:3])
    errors = np.array([0.01, 1.0, 1.0, 0.01, 0.01]) * values
    assert (values >= RESOLUTION * errors).sum() == MIN_RESOLVED - 1
    with pytest.raises(ValueError, match=r"raise k1\.samples_per_node, or "
                                         r"add entries to sequence\.ns"):
        fit_rate(EPS, values, errors, sample_keys=("k1.samples_per_node",))


def test_fit_rate_stderr_grows_with_the_scatter():
    jitter = np.array([1.0, -1.0, 1.0, -1.0, 1.0])

    def fit_at(scatter):
        # 1% bars on every row: the weights do not depend on the scatter
        values = EPS ** 0.5 * np.exp(scatter * jitter)
        return fit_rate(EPS, values, 0.01 * values)

    # scatter inside the bars: the formal stderr, chi-square not applied
    calm = fit_at(0.001)
    assert calm.info["chi2"] / calm.info["dof"] < 1.0
    loud = fit_at(0.05)
    ratio = loud.info["chi2"] / loud.info["dof"]
    assert ratio > 1.0
    assert loud.stderr == pytest.approx(calm.stderr * math.sqrt(ratio),
                                        rel=1e-9)


def test_build_sequence_holds_the_product_and_rejects_bad_entries():
    seq = build_sequence(0.2, 1.0, [20, 40, 80])
    for e in seq.entries:
        assert e.n * e.sigma ** 2 == pytest.approx(0.2, rel=1e-12)
        assert e.epsilon == 1.0 / e.n
    with pytest.raises(ValueError, match="strictly increasing"):
        build_sequence(0.2, 1.0, [40, 20, 80])
    with pytest.raises(ValueError, match="strictly increasing"):
        build_sequence(0.2, 1.0, [20, 20, 80])
    with pytest.raises(ValueError, match=">= box/2"):
        build_sequence(2.0, 1.0, [4, 40])
