"""Rate fits and scaled sequences of the Boltzmann-Grad sweeps."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hsgas import runio
from hsgas.bg import (
    MIN_RESOLVED,
    RESOLUTION,
    _sweep,
    build_sequence,
    fit_rate,
)
from hsgas.occupation import analytic_k1_uniform, solve_k1
from hsgas.pdfs import UniformMaxwellian
from hsgas.seeding import derive_child_seed

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


def test_fit_rate_stderr_covers_a_known_exponent_under_noise():
    # a pure power law at N = 20..640, each row drawn with Gaussian noise at
    # its stated relative error: slope +- 2 stderr must cover the truth
    eps = 1.0 / (20.0 * 2.0 ** np.arange(6))
    true = 0.3 * eps ** 0.5
    for rel in (0.05, 0.1, 0.2):
        rng = np.random.default_rng(20261019)
        fits = [fit_rate(eps, true * (1.0 + rel * rng.standard_normal(6)),
                         rel * true) for _ in range(200)]
        covered = [abs(f.slope - 0.5) <= 2.0 * f.stderr for f in fits]
        assert np.mean(covered) >= 0.9, rel
        assert np.mean([f.slope for f in fits]) == pytest.approx(0.5,
                                                                 abs=0.01)


def test_fit_rate_approaches_the_exponent_of_the_closed_k1():
    # 1 - k1 = 1 - (1 - v)^(N-1) with v ~ sigma^3 ~ N^(-3/2) along N sigma^2
    # = c: exponent 1/2 in epsilon, approached from above as the
    # higher-order terms fade. Noise-free rows leave the fit's stderr to the
    # curvature alone, so the check is the trend, not a coverage.
    slopes = []
    for n0 in (20, 1_000, 10_000, 100_000):
        models = build_sequence(0.2, 1.0, [n0 * 2 ** k for k in range(4)])
        slopes.append(fit_rate([m.epsilon for m in models],
                               [1.0 - analytic_k1_uniform(m)
                                for m in models]).slope)
    assert all(a > b > 0.5 for a, b in zip(slopes, slopes[1:]))
    assert all(abs(q - 0.5) < 0.015 for q in slopes[1:])


def test_sweep_seeds_and_rows_follow_the_driver_contract(monkeypatch):
    # one process: a forked half could not append to calls
    monkeypatch.setattr(runio, "usable_cpus", lambda: 1)
    models = build_sequence(0.2, 1.0, [20, 40])
    pdf = UniformMaxwellian(1.0)
    k1 = {"grid_nodes": 2, "samples_per_node": 20_000, "tol": 0.05}
    calls = []

    def measure(model, field, child):
        calls.append((model, field, child))
        return {"value": float(model.n)}

    rows, info = _sweep(models, pdf, seed=3, label="chaos", k1=k1,
                        measure=measure)
    assert [c[0] for c in calls] == list(models)
    for row, model, (_, field, child) in zip(rows, models, calls):
        assert row == {"n": model.n, "epsilon": model.epsilon,
                       "sigma": model.sigma, "value": float(model.n)}
        # the child-seed labels keep every sweep's bytes
        assert child == derive_child_seed(3, "bg", "chaos", model.n)
        direct = solve_k1(model, pdf, seed=child, **k1)
        assert np.array_equal(field.values, direct.values)
        assert np.array_equal(field.stderr, direct.stderr)
    assert info == {"seed": 3, "pdf": "UniformMaxwellian", "grid_nodes": 2,
                    "samples_per_node": 20_000}


def test_build_sequence_holds_the_product_and_rejects_bad_entries():
    models = build_sequence(0.2, 1.0, [20, 40, 80])
    assert [m.n for m in models] == [20, 40, 80]
    for m in models:
        assert m.n * m.sigma ** 2 == pytest.approx(0.2, rel=1e-12)
        assert m.epsilon == 1.0 / m.n and m.box == 1.0
    with pytest.raises(ValueError, match="strictly increasing"):
        build_sequence(0.2, 1.0, [40, 20, 80])
    with pytest.raises(ValueError, match="strictly increasing"):
        build_sequence(0.2, 1.0, [20, 20, 80])
    with pytest.raises(ValueError, match=">= box/2"):
        build_sequence(2.0, 1.0, [4, 40])
