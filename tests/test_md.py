"""Event-driven hard-sphere dynamics: scheduling, conservation, rates.

Oracles
-------
* Contact times: two-body quadratic solved by hand with binary-exact
  inputs (distance 2, speed 1, sigma 0.5 gives t = 1.5 with no rounding).
  The scheduler's one-pass kernel is held bit for bit to the full-array
  computation it replaced, kept here as an oracle.
* Wall times: linear free flight against the center-coordinate planes
  sigma/2 and box - sigma/2.
* Time reversal: negating every velocity and rerunning for the elapsed
  time must replay the event sequence in reverse, back to the initial
  state. Each event injects about one ulp of roundoff (3e-16 after 10
  events), but hard-sphere dynamics are chaotic: every pair collision
  amplifies the error several-fold (Lyapunov growth), so after 150 events
  it reaches 5e-8 to 1.5e-4 and no float64 scheme holds 1e-10 there. The
  mirrored event sequence is checked over 150 events and the 1e-10 bound
  on the returned state after 50, where at seeds 3 to 5 it holds with a
  margin of at least 50x.
* Rate predictions: the kinetic frequency calculator is pinned to frozen
  values from a converged quadrature evaluation (guards regressions),
  and a seeded equilibrium run must land near those predictions. The
  wall rate is compared with the contact-theorem prediction, which keeps
  the excluded volume the simulation contains; it is pinned by limits
  that do not depend on its output (one sphere, sigma -> 0) and by the
  exact clipped-ball fractions at a face, an edge and a corner.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsgas.geometry import HardSphereModel, NBodyConfig, uniform_admissible_sample
from hsgas.md import (
    enskog_frequency_prediction,
    measure,
    near_contact_pair_prediction,
    run,
    wall_contact_rate_prediction,
    wall_rate_prediction,
    wall_times,
)
from hsgas.md import _clipped_ball_volume, _pair_times_against

# model used by the frozen-constant checks: 100 spheres at packing
# fraction 0.01 in the unit box, sigma = (6 * 0.01 / (100 pi))^(1/3)
SIGMA_C7 = 0.057588238229697226
C7_MODEL = HardSphereModel(n=100, sigma=SIGMA_C7, box=1.0)

# frozen outputs of enskog_frequency_prediction(C7_MODEL) at default
# quadrature resolution; pinned so a silent quadrature or occupation
# regression cannot drift the predictions the acceptance run compares to
ENSKOG_FROZEN = {
    "nu_per_particle": 2.6100446097280434,
    "total_pair_rate": 130.50223048640217,
    "qbar_contact": 0.9106019779135451,
    "p_overlap": 0.0008913792248748365,
    "den": 0.8283116580504266,
    "k1_bulk": 0.9096734054631215,
    "k2_contact": 0.8536847048631636,
    "kbar2": 0.8290154724277444,
    "g_contact": 1.0316360359941301,
}
NEAR_CONTACT_FROZEN = 0.6972687119490865
WALL_RATE_FROZEN = 2.5399233960240086
WALL_VOLUME_FROZEN = 0.836993514926399

# equilibrium smoke-run model: large enough spheres that pair events are
# plentiful, dilute enough (packing 0.021) that the predictions are sharp
EQ_MODEL = HardSphereModel(n=40, sigma=0.1, box=1.0)


def _normalized_config(model, seed):
    """Admissible positions; velocities with zero mean and T exactly 1."""
    cfg = uniform_admissible_sample(model, seed)
    vel = cfg.velocities - cfg.velocities.mean(axis=0)
    vel *= math.sqrt(3.0 * model.n / float((vel ** 2).sum()))
    return NBodyConfig(cfg.positions, vel)


@pytest.fixture(scope="module")
def eq_traj():
    cfg = _normalized_config(EQ_MODEL, seed=20260816)
    return run(
        EQ_MODEL,
        cfg,
        t_end=20.0,
        snapshot_times=np.linspace(1.0, 19.5, 40),
        audit_every=10,
    )


# ---------------------------------------------------------------------------
# contact and wall times


def _pair_times_oracle(positions, velocities, i, sigma):
    """Contact times of i against all others by full (N, 3) reductions.

    One entry per particle: inf where i meets no partner, and at i.
    """
    r = positions[i] - positions
    v = velocities[i] - velocities
    b = (r * v).sum(axis=1)
    v2 = (v * v).sum(axis=1)
    disc = b * b - v2 * ((r * r).sum(axis=1) - sigma * sigma)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (-b - np.sqrt(disc)) / v2
    t[(b >= 0.0) | (disc <= 0.0) | (v2 == 0.0)] = math.inf
    t[i] = math.inf
    return t


def _times_by_partner(positions, velocities, i, sigma):
    """The scheduler's times of i, one entry per particle, inf if none."""
    partners, times, _ = _pair_times_against(positions, velocities, i, sigma)
    t = np.full(len(positions), math.inf)
    t[partners] = times
    return t


def _contact_time(ri, vi, rj, vj, sigma):
    """Contact time of sphere i against sphere j, by the scheduler's kernel."""
    pos = np.array([ri, rj], dtype=float)
    vel = np.array([vi, vj], dtype=float)
    return _times_by_partner(pos, vel, 0, sigma)[1]


def test_pair_collision_time_head_on_exact():
    # distance 2, sigma 0.5, closing speed 1: disc = 4 - 3.75 = 0.25,
    # every term binary-exact, t = (2 - 0.5) / 1 = 1.5 exactly
    t = _contact_time([0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.5)
    assert t == 1.5
    # both moving: closing speed 2, b = -4, v2 = 4, disc = 16 - 15 = 1,
    # t = (4 - 1) / 4 = 0.75 exactly
    t2 = _contact_time([0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 0.5)
    assert t2 == 0.75


def test_pair_collision_time_never_touching():
    # receding (b > 0)
    assert _contact_time([1.0, 0, 0], [1.0, 0, 0],
                         [0.0, 0, 0], [0.0, 0, 0], 0.5) == math.inf
    # zero relative velocity
    assert _contact_time([0.0, 0, 0], [1.0, 1, 0],
                         [2.0, 0, 0], [1.0, 1, 0], 0.5) == math.inf
    # impact parameter 1 with sigma 0.5: closest approach misses
    assert _contact_time([0.0, 1.0, 0], [1.0, 0, 0],
                         [3.0, 0.0, 0], [0.0, 0, 0], 0.5) == math.inf
    # impact parameter exactly sigma: disc = 0, tangential graze excluded
    assert _contact_time([0.0, 1.0, 0], [1.0, 0, 0],
                         [3.0, 0.0, 0], [0.0, 0, 0], 1.0) == math.inf
    # at contact and receding
    assert _contact_time([0.5, 0, 0], [1.0, 0, 0],
                         [0.0, 0, 0], [0.0, 0, 0], 0.5) == math.inf


def test_pair_collision_time_at_contact_approaching_is_zero():
    assert _contact_time([0.5, 0, 0], [-1.0, 0, 0],
                         [0.0, 0, 0], [0.0, 0, 0], 0.5) == 0.0


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
       st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_pair_collision_time_contact_residual_property(coords, vels):
    sigma = 0.3
    ri, rj = np.array(coords[:3]), np.array(coords[3:6])
    # reuse the remaining coordinates as extra separation entropy
    rj = rj + np.array(coords[6:9]) * 0.5
    vi, vj = np.array(vels[:3]), np.array(vels[3:])
    if float(np.linalg.norm(ri - rj)) <= sigma * (1 + 1e-9):
        return
    pos, vel = np.array([ri, rj]), np.array([vi, vj])
    t = _times_by_partner(pos, vel, 0, sigma)[1]
    # swapping the particle labels leaves every inner product unchanged
    assert _times_by_partner(pos, vel, 1, sigma)[0] == t
    if math.isfinite(t):
        assert t >= 0.0
        gap = float(np.linalg.norm((ri - rj) + (vi - vj) * t)) - sigma
        assert abs(gap) < 1e-7 * sigma


# coordinates either arbitrary or on a dyadic grid, where a pair offset by
# sigma (a power of 2) along an axis sits exactly at contact
_COORD = st.one_of(st.floats(0.0, 1.0),
                   st.integers(0, 64).map(lambda k: k / 64.0))


# Every coordinate is drawn on its own (no fill value), since the bits under
# test need generic partners. A failure is reported as drawn: shrinking a
# few hundred floats took minutes, while a wrong kernel fails in seconds.
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(st.data())
def test_pair_times_against_matches_the_full_array_oracle(data):
    n = data.draw(st.integers(2, 40))
    sigma = data.draw(st.sampled_from([0.25, 0.5, 0.0625]))
    pos = data.draw(arrays(np.float64, (n, 3), elements=_COORD,
                           fill=st.nothing()))
    vel = data.draw(arrays(np.float64, (n, 3), elements=st.floats(-2.0, 2.0),
                           fill=st.nothing()))
    # some pairs at contact along an axis, some with zero relative velocity
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from(["contact", "comoving", "both"]),
                      st.integers(0, 2), st.sampled_from([-1.0, 1.0]))
    for a, b, kind, axis, sign in data.draw(st.lists(pairs, min_size=1,
                                                             max_size=6)):
        if a == b:
            continue
        if kind != "comoving":
            pos[b] = pos[a]
            pos[b, axis] += sign * sigma
        if kind != "contact":
            vel[b] = vel[a]
    i = data.draw(st.integers(0, n - 1))
    oracle = _pair_times_oracle(pos, vel, i, sigma)
    partners, times, d2 = _pair_times_against(pos, vel, i, sigma)
    np.testing.assert_array_equal(partners, np.flatnonzero(np.isfinite(oracle)))
    assert times.tobytes() == oracle[partners].tobytes()
    expected = ((pos - pos[i]) ** 2).sum(axis=1)
    expected[i] = math.inf
    assert d2.tobytes() == expected.tobytes()


def test_pair_times_against_drops_a_partner_whose_v2_underflows():
    # approaching so slowly that v2 underflows to 0 while b*b does not:
    # disc > 0 but the root divides by zero, so no time may be returned
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    vel = np.array([[1.5e-162] * 3, [0.0, 0.0, 0.0]])
    assert math.isinf(_pair_times_oracle(pos, vel, 0, 0.5)[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        partners, times, _ = _pair_times_against(pos, vel, 0, 0.5)
    assert len(partners) == len(times) == 0


def test_wall_times_faces_and_values():
    model = HardSphereModel(n=1, sigma=0.1, box=1.0)
    lo, hi = model.wall_box
    r = np.array([0.5, 0.5, 0.5])
    v = np.array([2.0, -1.0, 0.0])
    out = wall_times(r, v, model)
    assert [face for (_, face) in out] == [1, 2]
    t_x, t_y = out[0][0], out[1][0]
    assert t_x == (hi - 0.5) / 2.0
    assert t_y == (lo - 0.5) / -1.0


# ---------------------------------------------------------------------------
# resolving the next event


def test_next_event_pair_resolution():
    model = HardSphereModel(n=3, sigma=0.5, box=10.0)
    cfg = NBodyConfig(
        [[4.0, 5.0, 5.0], [6.0, 5.0, 5.0], [1.0, 1.0, 1.0]],
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    )
    traj = run(model, cfg, max_events=1)
    (row,) = traj.event_rows
    assert row[:4] == [0.75, "pair", 0, 1]
    # after max_events the state stays at the event: exact contact
    assert traj.t_final == 0.75
    pos, vel = traj.config.positions, traj.config.velocities
    np.testing.assert_allclose(pos[0], [4.75, 5.0, 5.0], atol=1e-14)
    np.testing.assert_allclose(pos[1], [5.25, 5.0, 5.0], atol=1e-14)
    assert abs(np.linalg.norm(pos[1] - pos[0]) - model.sigma) < 1e-14
    # head-on elastic map swaps the velocities
    np.testing.assert_allclose(vel[0], [-1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(vel[1], [1.0, 0.0, 0.0], atol=1e-15)
    # the bystander stays in place
    np.testing.assert_array_equal(pos[2], [1.0, 1.0, 1.0])


def test_next_event_wall_resolution():
    model = HardSphereModel(n=1, sigma=0.5, box=10.0)
    cfg = NBodyConfig([[5.0, 5.0, 5.0]], [[0.0, 0.0, -2.0]])
    traj = run(model, cfg, max_events=1)
    lo, _ = model.wall_box
    (row,) = traj.event_rows
    assert row[:4] == [(lo - 5.0) / -2.0, "wall", 0, 4]
    assert traj.config.positions[0][2] == lo
    np.testing.assert_array_equal(traj.config.velocities[0], [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(cfg.velocities[0], [0.0, 0.0, -2.0])


def test_next_event_simultaneous_pairs_ordered_by_index():
    # two disjoint head-on pairs with identical geometry collide at the
    # same instant; the tie must be executed in particle-index order
    model = HardSphereModel(n=4, sigma=0.5, box=10.0)
    cfg = NBodyConfig(
        [[4.0, 3.0, 5.0], [6.0, 3.0, 5.0],
         [4.0, 7.0, 5.0], [6.0, 7.0, 5.0]],
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
         [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    )
    rows = run(model, cfg, max_events=2).event_rows
    assert [tuple(r[1:4]) for r in rows] == [("pair", 0, 1), ("pair", 2, 3)]
    assert rows[0][0] == rows[1][0] == 0.75


def test_run_without_any_event_streams_to_t_end():
    model = HardSphereModel(n=1, sigma=0.5, box=10.0)
    cfg = NBodyConfig([[5.0, 5.0, 5.0]], [[0.0, 0.0, 0.0]])
    traj = run(model, cfg, t_end=1.0, snapshot_times=[0.5])
    assert traj.t_final == 1.0
    assert traj.event_rows == [] and traj.n_pair == traj.n_wall == 0
    assert [ts for ts, _, _ in traj.snapshots] == [0.5]
    np.testing.assert_array_equal(traj.config.positions, cfg.positions)
    with pytest.raises(RuntimeError, match="no further event exists"):
        run(model, cfg, max_events=1)
    # the final audit still runs on a state where nothing can happen
    at_rest = NBodyConfig([[5.0, 5.0, 5.0], [5.2, 5.0, 5.0]], np.zeros((2, 3)))
    with pytest.raises(RuntimeError, match="overlap detected"):
        run(HardSphereModel(n=2, sigma=0.5, box=10.0), at_rest, t_end=1.0)


def test_run_stops_at_the_last_event_after_max_events():
    model = HardSphereModel(n=1, sigma=0.1, box=1.0)
    cfg = NBodyConfig([[0.5, 0.5, 0.5]], [[1.0, 0.3, -0.7]])
    traj = run(model, cfg, t_end=5.0, max_events=2)
    assert traj.audits["events"] == len(traj.event_rows) == 2
    assert traj.t_final == traj.event_rows[-1][0] < 5.0
    lo, hi = model.wall_box
    assert np.all((traj.config.positions >= lo)
                  & (traj.config.positions <= hi))
    # the first wall event is at t = 0.45: before it, t_end comes first
    early = run(model, cfg, t_end=0.3, max_events=2)
    assert early.t_final == 0.3 and early.event_rows == []


# ---------------------------------------------------------------------------
# the simulator


def test_run_requires_a_horizon():
    model = HardSphereModel(n=1, sigma=0.5, box=10.0)
    cfg = NBodyConfig([[5.0, 5.0, 5.0]], [[1.0, 0.3, -0.7]])
    with pytest.raises(ValueError, match="need t_end and/or max_events"):
        run(model, cfg)
    # with a horizon a lone sphere only meets walls and keeps its energy
    traj = run(model, cfg, t_end=40.0)
    assert traj.n_pair == 0 and traj.n_wall > 0
    assert traj.t_final == 40.0
    ke = 0.5 * float((cfg.velocities ** 2).sum())
    assert 0.5 * float((traj.config.velocities ** 2).sum()) == pytest.approx(
        ke, rel=1e-14)


def test_run_is_bitwise_deterministic():
    model = HardSphereModel(n=20, sigma=0.08, box=1.0)
    cfg = _normalized_config(model, seed=11)
    t1 = run(model, cfg.copy(), max_events=500)
    t2 = run(model, cfg.copy(), max_events=500)
    np.testing.assert_array_equal(t1.config.positions, t2.config.positions)
    np.testing.assert_array_equal(t1.config.velocities, t2.config.velocities)
    assert t1.t_final == t2.t_final
    assert (t1.n_pair, t1.n_wall) == (t2.n_pair, t2.n_wall)
    assert t1.event_rows == t2.event_rows


def test_run_per_event_conservation(eq_traj):
    rows = eq_traj.event_rows
    assert len(rows) == eq_traj.n_pair + eq_traj.n_wall
    assert eq_traj.audits["events"] == len(rows)
    pair_rows = [r for r in rows if r[1] == "pair"]
    wall_rows = [r for r in rows if r[1] == "wall"]
    assert len(pair_rows) == eq_traj.n_pair
    assert pair_rows and wall_rows
    # pair collisions conserve kinetic energy and all momentum components
    for r in pair_rows:
        assert abs(r[4]) < 1e-10
        assert max(abs(r[5]), abs(r[6]), abs(r[7])) < 1e-12
    # wall reflections conserve kinetic energy and flip one momentum
    # component; the flipped axis is the face axis
    for r in wall_rows:
        assert abs(r[4]) < 1e-10
        axis = r[3] // 2
        dp = (r[5], r[6], r[7])
        for a in range(3):
            if a != axis:
                assert dp[a] == 0.0
        assert dp[axis] != 0.0
    # event times never decrease
    times = [r[0] for r in rows]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))


def test_run_admissibility_audits(eq_traj):
    sigma = EQ_MODEL.sigma
    assert eq_traj.audits["max_contact_residual"] <= 1e-8 * sigma
    assert eq_traj.audits["worst_pair_gap"] >= -1e-9 * sigma
    assert eq_traj.t_final == 20.0


def test_run_time_reversal_retraces():
    model = HardSphereModel(n=12, sigma=0.09, box=1.0)
    cfg = _normalized_config(model, seed=3)
    pos0 = cfg.positions.copy()
    vel0 = cfg.velocities.copy()

    def reverse(fwd):
        return run(
            model,
            NBodyConfig(fwd.config.positions.copy(), -fwd.config.velocities),
            t_end=fwd.t_final,
        )

    # the reversed run replays the same events backwards
    fwd = run(model, cfg.copy(), max_events=150)
    back = reverse(fwd)
    assert back.n_pair + back.n_wall == 150
    assert ([tuple(r[1:4]) for r in back.event_rows]
            == [tuple(r[1:4]) for r in reversed(fwd.event_rows)])
    # and returns to the initial state while the chaotic amplification of
    # roundoff is still small (see the module docstring)
    back = reverse(run(model, cfg.copy(), max_events=50))
    assert np.abs(back.config.positions - pos0).max() < 1e-10
    assert np.abs(back.config.velocities + vel0).max() < 1e-10


def test_run_snapshots_and_records(eq_traj):
    snaps = eq_traj.snapshots
    assert len(snaps) == 40
    t_axis = [s[0] for s in snaps]
    np.testing.assert_allclose(t_axis, np.linspace(1.0, 19.5, 40), atol=1e-12)
    for _, p, v in snaps:
        assert p.shape == (EQ_MODEL.n, 3) and v.shape == (EQ_MODEL.n, 3)
        lo, hi = EQ_MODEL.wall_box
        assert p.min() >= lo - 1e-9 and p.max() <= hi + 1e-9
    # the event rows record each pair with its indices ascending
    pairs = [r[2:4] for r in eq_traj.event_rows if r[1] == "pair"]
    assert pairs and all(i < j for i, j in pairs)


def test_event_csv_round_trip(tmp_path, eq_traj):
    path = tmp_path / "events.csv"
    eq_traj.to_event_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "kind", "i", "j_or_face", "KE_delta",
                                   "Px_delta", "Py_delta", "Pz_delta"]
    assert len(lines) == len(eq_traj.event_rows) + 1
    first = lines[1].split(",")
    assert first[1] in ("pair", "wall")
    float(first[0]), float(first[4])


# ---------------------------------------------------------------------------
# rate predictions: frozen constants, then a live run against them


def test_enskog_prediction_frozen_constants():
    pred = enskog_frequency_prediction(C7_MODEL)
    for key, frozen in ENSKOG_FROZEN.items():
        assert pred[key] == pytest.approx(frozen, rel=1e-12), key
    assert C7_MODEL.wall_volume == pytest.approx(WALL_VOLUME_FROZEN, rel=1e-13)


def test_near_contact_prediction_frozen():
    value, error, details = near_contact_pair_prediction(C7_MODEL)
    assert value == pytest.approx(NEAR_CONTACT_FROZEN, rel=1e-12)
    assert 0.0 < error < 1e-4
    assert details["eta"] == 0.05


def test_wall_rate_prediction_closed_form():
    got = wall_rate_prediction(C7_MODEL)
    assert got == 3.0 * math.sqrt(2.0 / math.pi) / (1.0 - SIGMA_C7)
    assert got == pytest.approx(WALL_RATE_FROZEN, rel=1e-13)


def test_wall_contact_rate_prediction_limits():
    # a lone sphere has no partners: k1 = 1 everywhere and the ideal
    # formula is exact
    lone = HardSphereModel(n=1, sigma=0.1, box=1.0)
    assert wall_contact_rate_prediction(lone) == wall_rate_prediction(lone)
    assert (wall_contact_rate_prediction(lone, T=2.5)
            == wall_rate_prediction(lone, T=2.5))
    # the excess over the ideal rate vanishes with the excluded volume
    excess = []
    for sigma in (0.1, 0.03, 0.01, 0.001):
        m = HardSphereModel(n=40, sigma=sigma, box=1.0)
        excess.append(wall_contact_rate_prediction(m)
                      / wall_rate_prediction(m) - 1.0)
    assert all(e > 0.0 for e in excess)
    assert all(a > b for a, b in zip(excess, excess[1:]))
    assert excess[-1] < 1e-6
    m0 = HardSphereModel(n=40, sigma=0.0, box=1.0)
    assert wall_contact_rate_prediction(m0) == wall_rate_prediction(m0)


def test_clipped_ball_volume_exact_fractions():
    # the wall planes cut the exclusion ball through its center: whole in
    # the bulk, half at a face, a quarter at an edge, an eighth at a corner
    m = HardSphereModel(n=40, sigma=0.1, box=1.0)
    lo, hi = m.wall_box
    vball = 4.0 / 3.0 * math.pi * m.sigma ** 3
    got = _clipped_ball_volume([[0.5, 0.5, 0.5], [lo, 0.5, 0.5],
                                [0.5, hi, lo], [hi, lo, hi]], m) / vball
    np.testing.assert_allclose(got, [1.0, 0.5, 0.25, 0.125], rtol=1e-12)
    # a plane at distance h < sigma cuts off the cap
    # pi (sigma - h)^2 (2 sigma + h) / 3; two planes cut disjoint caps when
    # h1^2 + h2^2 > sigma^2
    def cap(h):
        return math.pi * (m.sigma - h) ** 2 * (2.0 * m.sigma + h) / 3.0

    got = _clipped_ball_volume([[0.5, 0.5, lo + 0.04]], m)[0]
    assert got == pytest.approx(vball - cap(0.04), rel=1e-12)
    # cuts across the slices put a (z - z0)^(3/2) kink at a subinterval end,
    # which 8 Gauss nodes resolve to a few 1e-6 (5e-4 without the split)
    got = _clipped_ball_volume([[lo + 0.04, 0.5, 0.5],
                                [0.5, hi - 0.06, hi - 0.09]], m)
    np.testing.assert_allclose(
        got, [vball - cap(0.04), vball - cap(0.06) - cap(0.09)], rtol=1e-5)


def test_equilibrium_rates_match_predictions(eq_traj):
    nu_pred = enskog_frequency_prediction(EQ_MODEL)["nu_per_particle"]
    wall_pred = wall_contact_rate_prediction(EQ_MODEL)
    n = EQ_MODEL.n
    pair_rate = 2.0 * eq_traj.n_pair / eq_traj.t_final / n
    wall_rate = eq_traj.n_wall / eq_traj.t_final / n
    assert abs(pair_rate / nu_pred - 1.0) < 0.10
    assert abs(wall_rate / wall_pred - 1.0) < 0.05


def test_pair_predictions_need_partners():
    lone = HardSphereModel(n=1, sigma=0.1, box=1.0)
    with pytest.raises(ValueError, match="model.n >= 2"):
        enskog_frequency_prediction(lone)
    with pytest.raises(ValueError, match="model.n >= 2"):
        near_contact_pair_prediction(lone)


# ---------------------------------------------------------------------------
# measurement


def test_measure_observables(eq_traj):
    obs = measure(eq_traj)
    # kinetic energy is conserved exactly, and the initial velocities were
    # normalized to temperature 1
    assert abs(obs.temperature - 1.0) < 1e-9
    np.testing.assert_allclose(obs.axis_second_moments, 1.0, rtol=0.15)
    assert abs(obs.speed4_ratio - 5.0 / 3.0) < 0.25
    assert obs.pair_rate_per_particle == pytest.approx(
        2.0 * eq_traj.n_pair / eq_traj.t_final / EQ_MODEL.n)
    assert obs.wall_rate_per_particle == pytest.approx(
        eq_traj.n_wall / eq_traj.t_final / EQ_MODEL.n)
    assert obs.shell_counts.shape == (40,)
    assert obs.shell_mean >= 0.0 and obs.shell_se >= 0.0
    assert 0.0 <= obs.underpopulated_fraction <= 1.0
    # near-contact shell occupancy against the kinetic prediction
    value, _, _ = near_contact_pair_prediction(EQ_MODEL)
    margin = max(4.0 * obs.shell_se, 0.35 * value)
    assert abs(obs.shell_mean - value) < margin


def test_measure_rejects_too_few_snapshots():
    model = HardSphereModel(n=4, sigma=0.1, box=1.0)
    cfg = _normalized_config(model, seed=5)
    traj = run(model, cfg, max_events=10, snapshot_times=[0.005])
    assert len(traj.snapshots) == 1
    with pytest.raises(ValueError, match="needs 2 snapshots"):
        measure(traj)
