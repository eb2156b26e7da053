"""Scaled-sequence studies: grow N while holding N sigma^2 fixed.

Along such a sequence the free path stays of order the box while the packing
fraction and all occupation corrections shrink; the small parameter is
epsilon = 1/N. Every sweep runs one metric over the sequence through one
driver, _sweep, which seeds each model with common random numbers, solves its
k1 field and records one row, on two cores when it may (half of the sequence
in each process); the sweeps then return the rows together with a weighted
log-log rate fit, so "the correction vanishes like epsilon^q" is an output,
not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import HardSphereModel
from .occupation import (
    COARSE_K1,
    KS_SAMPLES,
    PAIR_SEPARATION,
    ContactOccupancy,
    PairMisfit,
    contact_pair_tuples,
    correlation_delta,
    estimate_ks,
    l1_k1_contact_integral,
    solve_k1,
)
from .runio import split_work
from .seeding import derive_child_seed, derive_rng

MIN_RESOLVED = 4  # resolved rows a rate fit needs
RESOLUTION = 3.0  # a row is resolved when value >= RESOLUTION * error
PROBE_CLEARANCE = 1.5  # bulk_phase_probes keep this many sigma from a face
PLATEAU_TOL = 0.05  # relative change of a noncomm plateau


# ---------------------------------------------------------------------------
# the sequence


def build_sequence(c: float, box: float, ns) -> tuple:
    """Models with N sigma^2 = c, one per N; epsilon = 1/N is model.epsilon.

    Rejects diameters at or beyond half the box (the geometry cannot hold a
    sphere) and verifies the held product to 1e-12 relative.
    """
    if c <= 0 or box <= 0:
        raise ValueError("c and box must be positive")
    ns = [int(n) for n in ns]
    if sorted(set(ns)) != ns:
        raise ValueError("particle counts must be strictly increasing")
    models = []
    for n in ns:
        if n < 2:
            raise ValueError("need at least two particles per entry")
        sigma = math.sqrt(c / n)
        if sigma >= box / 2:
            raise ValueError(
                f"N={n} gives sigma={sigma:.4g} >= box/2; increase N or "
                "shrink c")
        if abs(n * sigma ** 2 - c) > 1e-12 * c:
            raise ValueError(f"held product drifted at N={n}")
        models.append(HardSphereModel(n=n, sigma=sigma, box=box))
    return tuple(models)


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    slope: float
    stderr: float
    intercept: float
    used: np.ndarray          # bool mask over the input rows
    residuals: np.ndarray     # log-space residuals of the used rows
    info: dict = dataclass_field(default_factory=dict)


def fit_rate(epsilons, values, errors=None, *, sample_keys=()) -> RateFit:
    """Weighted least-squares power-law fit ln(value) = q ln(eps) + b.

    Rows whose value is not resolved against its own error bar (value <
    RESOLUTION * error) carry no rate information and are dropped; fewer
    than MIN_RESOLVED resolved rows is an error, not a fit, whose message
    names sequence.ns and, when some rows are unresolved, the config keys
    sample_keys that set the error bars. Weights are inverse variances of
    ln(value); with no errors given the fit is ordinary least squares and
    the stderr comes from the residual scatter.
    """
    eps = np.asarray(epsilons, dtype=float)
    val = np.asarray(values, dtype=float)
    err = (np.zeros_like(val) if errors is None
           else np.asarray(errors, dtype=float))
    if eps.shape != val.shape or err.shape != val.shape:
        raise ValueError("epsilons, values, errors must share one shape")
    used = (val > 0) & (val >= RESOLUTION * err) & (eps > 0)
    if used.sum() < MIN_RESOLVED:
        remedy = "add entries to sequence.ns"
        if used.sum() < len(val) and sample_keys:
            remedy = f"raise {' or '.join(sample_keys)}, or {remedy}"
        raise ValueError(
            f"only {int(used.sum())} of {len(val)} rows are resolved "
            f"(value >= {RESOLUTION} x error); need {MIN_RESOLVED}: "
            f"{remedy}")
    x = np.log(eps[used])
    y = np.log(val[used])
    rel = err[used] / val[used]
    if np.all(rel == 0.0):
        w = np.ones_like(y)
        scatter_only = True
    else:
        w = 1.0 / np.maximum(rel, 1e-12) ** 2
        scatter_only = False
    sw = w.sum()
    xb = (w * x).sum() / sw
    yb = (w * y).sum() / sw
    sxx = (w * (x - xb) ** 2).sum()
    slope = float((w * (x - xb) * (y - yb)).sum() / sxx)
    intercept = float(yb - slope * xb)
    resid = y - (intercept + slope * x)
    dof = max(int(used.sum()) - 2, 1)
    # scale the formal stderr by the reduced chi-square when the scatter
    # exceeds the quoted errors, so underestimated bars cannot fake precision
    chi2 = float((w * resid ** 2).sum())
    scale = max(chi2 / dof, 1.0) if not scatter_only else chi2 / dof
    stderr = float(math.sqrt(scale / sxx))
    return RateFit(slope=slope, stderr=stderr, intercept=intercept,
                   used=used, residuals=resid,
                   info={"chi2": chi2, "dof": dof,
                         "scatter_only": scatter_only})


# ---------------------------------------------------------------------------
# reports


@dataclass
class ConvergenceReport:
    metric: str
    entries: list             # dict rows: n, epsilon, sigma, value, error, ...
    fit: RateFit
    decreasing: bool
    info: dict = dataclass_field(default_factory=dict)


def _convergence_report(metric, rows, info, sample_keys):
    """The rate fit of a sweep's rows and whether their values decrease."""
    values = [r["value"] for r in rows]
    fit = fit_rate([r["epsilon"] for r in rows], values,
                   [r["error"] for r in rows], sample_keys=sample_keys)
    return ConvergenceReport(metric=metric, entries=rows, fit=fit,
                             decreasing=bool(np.all(np.diff(values) < 0)),
                             info=info)


# ---------------------------------------------------------------------------
# sweeps


def _sweep(models, pdf, *, seed, label, k1, measure):
    """The loop of every sweep: per model, solve k1 and measure one row.

    Each model's child seed derive_child_seed(seed, "bg", label, n) seeds
    its solve_k1 (with the budget k1) and is passed on as
    measure(model, field, child), whose dict completes the row after n,
    epsilon and sigma. Returns (rows, info); info holds the seed, the pdf's
    class name and the k1 budget the solves used.

    The models run on two cores when they may (runio.split_work): the
    process takes the first half of the sequence and one forked child the
    rest. Each entry's solve and measure run whole in one process, since a
    solve inside a half does not split its nodes, and the halves swap their
    rows once, at the end, pickled, so every bit is kept.
    """
    def work(lo, hi, gather):
        rows = []
        for model in models[lo:hi]:
            child = derive_child_seed(seed, "bg", label, model.n)
            field = solve_k1(model, pdf, seed=child, **k1)
            rows.append({"n": model.n, "epsilon": model.epsilon,
                         "sigma": model.sigma,
                         **measure(model, field, child)})
        return gather((rows, {"grid_nodes": field.grid_nodes,
                              "samples_per_node":
                                  field.info["samples_per_node"]}))

    halves = split_work(len(models), work, "bg._sweep")
    return ([row for rows, _ in halves for row in rows],
            {"seed": seed, "pdf": type(pdf).__name__, **halves[-1][1]})


def sweep_k1(c: float, box: float, ns, *, pdf, seed: int = 0,
             **k1) -> ConvergenceReport:
    """Sup-node deviation of the one-point occupation field over the sequence.

    Per entry: solve the self-consistent field (solve_k1 with the budget k1)
    and record sup over grid nodes of |k1 - 1| with the Monte Carlo error at
    the extremal node. The deviation is largest in the bulk, so the sup
    doubles as the bulk occupation correction.
    """
    def measure(model, field, child):
        dev = np.abs(field.values - 1.0)
        idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
        return {"value": float(dev[idx]), "error": float(field.stderr[idx]),
                "iterations": field.info.get("iterations")}

    rows, info = _sweep(build_sequence(c, box, ns), pdf, seed=seed,
                        label="k1", k1=k1, measure=measure)
    return _convergence_report("sup_node_abs_k1_minus_1", rows,
                               {"c": c, "box": box, **info},
                               ("k1.samples_per_node",))


def bulk_phase_probes(model: HardSphereModel, pdf, count: int, seed: int):
    """Fixed (r, v) probes clear of the walls of one model.

    Positions are uniform on the box shrunk by PROBE_CLEARANCE * sigma per
    face (at least 2% of the box); velocities come from the pdf.
    """
    rng = derive_rng(seed, "bg", "probes")
    margin = max(PROBE_CLEARANCE * model.sigma, 0.02 * model.box)
    r = rng.uniform(margin, model.box - margin, size=(count, 3))
    v = pdf.sample_velocities(r, rng)
    return [(r[i], v[i]) for i in range(count)]


def chaos_sweep(c: float, box: float, ns, *, pdf, tuple_count: int = 20,
                samples: int = KS_SAMPLES, seed: int = 0,
                **k1) -> ConvergenceReport:
    """Decay of the two-point factorization defect over the sequence.

    Per entry: solve k1 (solve_k1 with the budget k1 over
    occupation.COARSE_K1), estimate the pair occupation coefficients at a
    fixed batch of bulk phase-point pairs (drawn once at the largest-sigma
    geometry, at separation occupation.PAIR_SEPARATION sigma_max) and record
    sup over the batch of |rho_2 - factorized part|. A point-particle
    control entry (sigma = 0, same N as the first entry) must give exactly
    zero.
    """
    models = build_sequence(c, box, ns)
    sigma_max = max(m.sigma for m in models)
    tuple_model = HardSphereModel(n=models[0].n, sigma=sigma_max, box=box)
    try:
        tuples = contact_pair_tuples(tuple_model, pdf, tuple_count,
                                     derive_child_seed(seed, "bg", "tuples"))
    except PairMisfit as exc:
        exc.args = (f"{exc}; sigma_max = {sigma_max:.4g} comes from the "
                    f"smallest sequence.ns entry ({tuple_model.n}), so "
                    "raise it",)
        raise
    positions = [np.stack([p.r for p in tp]) for tp in tuples]
    k1 = {**COARSE_K1, **k1}

    def measure(model, field, child):
        pair_occ = estimate_ks(model, pdf, positions, samples=samples,
                               seed=child, k1_field=field)
        cs = correlation_delta(model, pdf, field, tuples, pair_occ=pair_occ)
        i_max = int(np.argmax(np.abs(cs.delta_rho)))
        return {
            "value": float(np.abs(cs.delta_rho[i_max])),
            "error": float(cs.mc_error[i_max]),
            "sup_abs_k2_minus_1": float(np.abs(pair_occ.ks_values - 1).max()),
            "argmax_tuple": i_max,
        }

    rows, info = _sweep(models, pdf, seed=seed, label="chaos", k1=k1,
                        measure=measure)
    control_model = HardSphereModel(n=models[0].n, sigma=0.0, box=box)
    zero_field = solve_k1(control_model, pdf, seed=seed, **k1)
    cs0 = correlation_delta(control_model, pdf, zero_field, tuples,
                            estimate_ks(control_model, pdf, positions,
                                        k1_field=zero_field))
    info.update(c=c, box=box, tuple_count=tuple_count,
                separation=PAIR_SEPARATION * sigma_max, samples=samples,
                control_max_abs=float(np.abs(cs0.delta_rho).max()))
    return _convergence_report("sup_pair_factorization_defect", rows, info,
                               ("bg.samples",))


@dataclass
class LimitOrderingReport:
    """The two iterated limits of transport applied to the occupation field.

    transport_then_limit: the contact-flux transport derivative of k1 at a
    bulk point, rescaled by epsilon^(-1/2), per sequence entry; the raw
    integral shrinks like sqrt(epsilon) (it carries a factor N sigma^3 =
    c^(3/2) sqrt(epsilon)), so the rescaled series is what can plateau at a
    finite value. limit_then_transport: transporting the epsilon-limit field
    first gives identically zero, because the limit field is constant 1.
    A nonzero plateau therefore shows the two operations do not commute.
    """

    entries: list
    plateau_rel_change: float
    plateau_ok: bool
    nonzero_limit: bool
    sup_k1_final: float
    limit_then_transport: float
    commutative: bool
    info: dict = dataclass_field(default_factory=dict)


def noncommutativity_report(c: float, box: float, ns, pdf, *, quad,
                            seed: int = 0, **k1) -> LimitOrderingReport:
    """Compare transport-then-limit against limit-then-transport for k1.

    Per entry: solve the field (solve_k1 with the budget k1, 400,000
    samples per node unless k1 sets them), evaluate the contact-flux transport
    derivative of k1 at the box center r1 with the default probe velocity
    of l1_k1_contact_integral, and rescale by epsilon^(-1/2). The report
    flags a plateau when the last two rescaled values agree within
    PLATEAU_TOL relative, flags the limit as resolved when the final value
    exceeds 10x its quadrature error, and reports sup|k1 - 1| of the final
    entry, which must be heading to zero for the ordering contrast to mean
    anything. Densities whose transport derivative vanishes identically
    (uniform bulk: the flux integrand is odd) come out flagged commutative.
    """
    r1 = np.full(3, box / 2.0)

    def measure(model, field, child):
        rep = l1_k1_contact_integral(pdf, ContactOccupancy(model, field),
                                     model, r1, quad=quad)
        scale = model.epsilon ** -0.5
        return {"raw_value": rep.value, "raw_error": rep.error,
                "rescaled_value": rep.value * scale,
                "rescaled_error": rep.error * scale,
                "sup_abs_k1_minus_1": field.sup_abs_deviation()}

    rows, info = _sweep(build_sequence(c, box, ns), pdf, seed=seed,
                        label="noncomm",
                        k1={"samples_per_node": 400_000, **k1},
                        measure=measure)
    commutative = all(abs(r["raw_value"]) <= 10.0 * r["raw_error"]
                      for r in rows)
    last, prev = rows[-1], rows[-2]
    denom = abs(last["rescaled_value"])
    rel_change = (abs(last["rescaled_value"] - prev["rescaled_value"])
                  / denom if denom > 0 else math.inf)
    nonzero = abs(last["rescaled_value"]) > 10.0 * last["rescaled_error"]
    return LimitOrderingReport(
        entries=rows,
        plateau_rel_change=rel_change,
        plateau_ok=bool(rel_change < PLATEAU_TOL) and not commutative,
        nonzero_limit=bool(nonzero),
        sup_k1_final=last["sup_abs_k1_minus_1"],
        limit_then_transport=0.0,
        commutative=commutative,
        info={"c": c, "box": box, "r1": [float(x) for x in r1], **info,
              "plateau_tol": PLATEAU_TOL, "rescale_exponent": -0.5})
