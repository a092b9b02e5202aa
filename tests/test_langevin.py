"""Stochastic integrator: reproducibility, exactness, guards, energy SDE."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from levitherm.constants import k_B
from levitherm import langevin
from levitherm.kramers import hop_statistics
from levitherm.langevin import (BathModel, ForceModel, IntegratorBlowupError,
                                Modulation, simulate, simulate_energy_sde)

MASS = 1e-17
OMEGA0 = 2.0 * math.pi * 1.0e5
DT = 1e-7
KT300 = k_B * 300.0


def make_models(gamma=OMEGA0 / 10.0, temperature=300.0, **force_kw):
    return (ForceModel(mass=MASS, omega0=OMEGA0, **force_kw),
            BathModel(gamma=gamma, temperature=temperature))


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_bit_identical():
    force, bath = make_models()
    a = simulate(force, bath, "thermal", DT, 2e-4, seed=11, n_traj=4)
    b = simulate(force, bath, "thermal", DT, 2e-4, seed=11, n_traj=4)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.energy, b.energy)


def test_different_seed_differs():
    force, bath = make_models()
    a = simulate(force, bath, "thermal", DT, 1e-4, seed=11, n_traj=2)
    b = simulate(force, bath, "thermal", DT, 1e-4, seed=12, n_traj=2)
    assert not np.array_equal(a.q, b.q)


def test_trajectory_streams_independent_of_ensemble_size():
    # the noise of trajectory k is a function of (seed, k) only, so a
    # smaller ensemble is a prefix of a larger one, within one noise
    # stream block and across blocks (64 trajectories each), and across
    # chunk lengths: 300 trajectories take chunks shorter than CHUNK_STEPS
    force, bath = make_models()
    assert langevin.chunk_steps(300) < min(langevin.CHUNK_STEPS,
                                           round(1e-4 / DT))
    runs = [simulate(force, bath, "thermal", DT, 1e-4, seed=3, n_traj=n)
            for n in (3, 8, 70, 130, 300)]
    for small, large in zip(runs, runs[1:]):
        assert np.array_equal(small.q, large.q[:small.n_traj])
        assert np.array_equal(small.p, large.p[:small.n_traj])


def test_chunks_are_sized_by_bytes(monkeypatch):
    # a wide run takes chunks of CHUNK_BYTES of noise, and its observer
    # sees one chunk's samples at a time; a narrow one keeps CHUNK_STEPS
    assert langevin.chunk_steps(256) == langevin.CHUNK_STEPS
    assert langevin.chunk_steps(10**7) == 1
    assert langevin.chunk_steps(2100, 2) == langevin.chunk_steps(2100) // 2
    force, bath = make_models()
    blocks, seen = [], []
    draw = langevin._draw_normals

    def spy(streams, count, n_traj, out=None):
        blocks.append(count * n_traj * 8)
        return draw(streams, count, n_traj, out)

    monkeypatch.setattr(langevin, "_draw_normals", spy)
    simulate(force, bath, "thermal", DT, 300 * DT, seed=2, n_traj=2100,
             observe=lambda i0, q, p: seen.append(len(q)))
    steps = langevin.chunk_steps(2100)
    assert steps == langevin.CHUNK_BYTES // (8 * 2100) < 300
    assert max(blocks) <= langevin.CHUNK_BYTES
    assert seen == [1] + [steps] * (300 // steps) + [300 % steps]


def test_noise_of_trajectory_i_is_column_of_its_block_stream():
    # draw j of trajectory i is normal j * 64 + i % 64 of the SFC64
    # stream spawned as child i // 64 of SeedSequence(seed)
    seed, n_traj, count = 12, 130, 5
    children = np.random.SeedSequence(seed).spawn(3)
    noise = langevin._draw_normals(langevin.trajectory_streams(seed, n_traj),
                                   count, n_traj)
    assert noise.shape == (count, n_traj)
    force, bath = make_models()
    traj = simulate(force, bath, "thermal", DT, 10 * DT, seed=seed,
                    n_traj=n_traj)
    sig_q = math.sqrt(k_B * 300.0 / MASS) / OMEGA0
    sig_p = math.sqrt(MASS * k_B * 300.0)
    for i in (0, 63, 64, 127, 128, 129):
        g = np.random.Generator(np.random.SFC64(children[i // 64]))
        draws = g.standard_normal(count * 64)[i % 64::64]
        assert np.array_equal(noise[:, i], draws)
        # thermal start: draws 0 and 1 set q and p
        assert traj.q[i, 0] == pytest.approx(sig_q * draws[0], rel=1e-12)
        assert traj.p[i, 0] == pytest.approx(sig_p * draws[1], rel=1e-12)


def test_record_every_subsamples_same_path():
    force, bath = make_models()
    fine = simulate(force, bath, "thermal", DT, 2e-4, seed=5, n_traj=2)
    coarse = simulate(force, bath, "thermal", DT, 2e-4, seed=5, n_traj=2,
                      record_every=4)
    assert np.array_equal(coarse.q, fine.q[:, ::4])
    assert np.array_equal(coarse.time, fine.time[::4])


def test_chunk_boundary_invisible():
    # a duration crossing the internal chunk size must agree with the
    # same path truncated, step for step, also over two noise blocks
    force, bath = make_models()
    n_long = langevin.CHUNK_STEPS + 100
    for n_traj in (2, 70):
        long = simulate(force, bath, "thermal", DT, n_long * DT, seed=9,
                        n_traj=n_traj)
        short = simulate(force, bath, "thermal", DT, 900 * DT, seed=9,
                         n_traj=n_traj)
        assert np.array_equal(short.q, long.q[:, :901])


# ---------------------------------------------------------------------------
# integrator exactness


def test_undamped_oscillator_conserves_energy():
    force, _ = make_models()
    bath = BathModel(gamma=0.0, temperature=0.0)
    amp = 1e-9
    traj = simulate(force, bath, (amp, 0.0), DT, 1e-3, seed=0, n_traj=1)
    e0 = 0.5 * MASS * OMEGA0**2 * amp**2
    assert np.allclose(traj.energy, e0, rtol=1e-10)


def test_undamped_rotation_is_exact():
    # one full period returns exactly to the initial state
    force, _ = make_models()
    bath = BathModel(gamma=0.0, temperature=0.0)
    period = 2.0 * math.pi / OMEGA0
    dt = period / 200.0
    traj = simulate(force, bath, (1e-9, 0.0), dt, period, seed=0, n_traj=1)
    assert traj.q[0, -1] == pytest.approx(1e-9, rel=1e-9)
    assert abs(traj.p[0, -1]) < MASS * OMEGA0 * 1e-9 * 1e-8


def test_equipartition_unbiased():
    force, bath = make_models(gamma=OMEGA0 / 10.0)
    traj = simulate(force, bath, "thermal", DT, 1e-3, seed=21, n_traj=400)
    var_q = traj.q[:, 20:].var()
    var_p = traj.p[:, 20:].var()
    assert var_q == pytest.approx(KT300 / (MASS * OMEGA0**2), rel=0.03)
    assert var_p == pytest.approx(MASS * KT300, rel=0.03)


def test_constant_force_shifts_equilibrium_mean():
    f0 = 2e-15
    force, bath = make_models(external_force=lambda t: f0)
    traj = simulate(force, bath, "thermal", DT, 2e-3, seed=8, n_traj=300)
    k = MASS * OMEGA0**2
    assert traj.q[:, 200:].mean() == pytest.approx(f0 / k, rel=0.05)


# ---------------------------------------------------------------------------
# guards and failure modes


def test_coarse_dt_rejected():
    force, bath = make_models()
    with pytest.raises(ValueError, match="allow_coarse_dt"):
        simulate(force, bath, "thermal", 1e-5, 1e-3, seed=0)
    simulate(force, bath, "thermal", 1e-5, 1e-3, seed=0,
             allow_coarse_dt=True)  # explicit override works


def test_above_threshold_drive_blows_up():
    # open-loop modulation at 2 W0 beyond depth 2/Q grows exponentially
    q_factor = 20.0
    force, bath = make_models(
        gamma=OMEGA0 / q_factor,
        modulation=Modulation(depth=10.0 / q_factor, frequency=2 * OMEGA0))
    with pytest.raises(IntegratorBlowupError) as info:
        simulate(force, bath, "thermal", DT, 0.1, seed=2, n_traj=2)
    # the error names the first step that leaves the state bound: one
    # step less runs clean, with no overflow and finite energies, and
    # exactly that many steps fail there again
    step = info.value.step
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        clean = simulate(force, bath, "thermal", DT, (step - 1) * DT, seed=2,
                         n_traj=2)
    assert np.isfinite(clean.energy).all()
    with pytest.raises(IntegratorBlowupError) as info:
        simulate(force, bath, "thermal", DT, step * DT, seed=2, n_traj=2)
    assert info.value.step == step


def test_arguments_bound_by_name_keep_their_names():
    # the benchmark tracer binds these arguments by name to count
    # trajectory-steps and noise streams
    for fn in (simulate, simulate_energy_sde):
        assert {"dt", "duration", "n_traj"} <= set(
            inspect.signature(fn).parameters)
    assert "n_traj" in inspect.signature(
        langevin.trajectory_streams).parameters


def test_invalid_construction():
    with pytest.raises(ValueError):
        ForceModel(mass=-1.0, omega0=OMEGA0)
    with pytest.raises(ValueError):
        BathModel(gamma=-1.0, temperature=300.0)
    with pytest.raises(ValueError):
        Modulation(depth=-0.1)
    with pytest.raises(ValueError):
        simulate(*make_models(), "thermal", DT, DT / 2, seed=0)
    # a double well replaces the trap and every other force term
    for other in ({"duffing_xi": 1e16}, {"modulation": Modulation(0.1)},
                  {"feedback_gain": 1e14},
                  {"external_force": lambda t: 1e-12},
                  {"stiffness_schedule": ((0.0, OMEGA0),)}):
        with pytest.raises(ValueError, match="double well excludes"):
            ForceModel(mass=MASS, omega0=OMEGA0, double_well=DOUBLE_WELL,
                       **other)


def test_thermal_init_requires_temperature():
    force, _ = make_models()
    with pytest.raises(ValueError):
        simulate(force, BathModel(0.0, 0.0), "thermal", DT, 1e-5, seed=0)


# ---------------------------------------------------------------------------
# protocols


def test_stiffness_schedule_is_right_continuous():
    omega_s = OMEGA0 / 2.0
    force, bath = make_models(stiffness_schedule=((30 * DT, omega_s),
                                                  (70 * DT, OMEGA0)))
    traj = simulate(force, bath, (1e-9, 0.0), DT, 100 * DT, seed=0)
    omega = traj.protocol["omega"]
    assert np.all(omega[:30] == OMEGA0)
    assert np.all(omega[30:70] == omega_s)
    assert np.all(omega[70:] == OMEGA0)


def test_schedule_entries_on_a_shared_step_and_out_of_range():
    # in any order: an entry before step 0 holds from it, the later of
    # two entries on step 3 wins, and one past the last step never acts
    force, _ = make_models(stiffness_schedule=(
        (3 * DT, 5.0), (20 * DT, 9.0), (-2 * DT, 7.0), (3 * DT, 6.0)))
    assert langevin._omega_per_step(force, DT, 10).tolist() \
        == [7.0] * 3 + [6.0] * 8
    # a staircase of one entry per step, and a gap before its first
    force, _ = make_models(stiffness_schedule=tuple(
        (k * DT, float(k)) for k in range(2, 6)))
    assert langevin._omega_per_step(force, DT, 5).tolist() \
        == [OMEGA0, OMEGA0, 2.0, 3.0, 4.0, 5.0]


def test_energy_uses_scheduled_stiffness():
    omega_s = OMEGA0 / 2.0
    force, _ = make_models(stiffness_schedule=((30 * DT, omega_s),
                                               (70 * DT, OMEGA0)))
    bath = BathModel(gamma=0.0, temperature=0.0)
    traj = simulate(force, bath, (1e-9, 0.0), DT, 100 * DT, seed=0)
    expected = (traj.p**2 / (2 * MASS)
                + 0.5 * MASS * traj.protocol["omega"]**2 * traj.q**2)
    assert np.allclose(traj.energy, expected, rtol=1e-12)


def test_phase_locked_modulation_cools_and_heats():
    def run(phase):
        force, bath = make_models(gamma=OMEGA0 / 50.0, modulation=Modulation(
            0.01, phase=phase, phase_locked=True))
        return simulate(force, bath, "thermal", DT, 4e-3, seed=14,
                        n_traj=200, record_every=10)
    cold, hot = run(math.pi / 4), run(-math.pi / 4)
    tail = slice(200, None)
    assert cold.energy[:, tail].mean() < KT300 < hot.energy[:, tail].mean()


# ---------------------------------------------------------------------------
# double well helpers


def _hops_by_row(q, minima):
    """Hop count of `hop_statistics`, one row at a time."""
    return [hop_statistics(row[None], minima, 1.0)[2]
            for row in np.atleast_2d(q)]


def test_hop_statistics_synthetic():
    q = np.array([[-1.0, -0.2, 0.3, 1.0, 0.5, -1.0, -1.0, 1.0]])
    assert _hops_by_row(q, (-1.0, 1.0)) == [3]
    assert _hops_by_row(np.array([[0.0, 0.5, -0.5]]), (-1.0, 1.0)) == [0]


def _hops_by_row_loop(q, minima):
    """Reference hysteresis hop count: one row and one sample at a time."""
    r_a, r_c = sorted(minima)
    counts = []
    for row in np.atleast_2d(q):
        well, hops = 0, 0
        for x in row:
            new = -1 if x <= r_a else (1 if x >= r_c else well)
            hops += well != 0 and new != well
            well = new
        counts.append(hops)
    return counts


def test_vectorised_hop_count_matches_row_loop():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = np.cumsum(rng.normal(size=(4, 80)), axis=1)
        expected = _hops_by_row_loop(q, (1.0, -1.0))
        assert _hops_by_row(q, (1.0, -1.0)) == expected
        assert hop_statistics(q, (1.0, -1.0), 0.1)[2] == sum(expected)


def test_double_well_round_trip():
    # quartic double well integrates and reports energy consistently
    b, q_m = 1e6, 1e-7
    force, bath = make_models(gamma=OMEGA0 / 10.0)
    force = langevin.replace(force, double_well=(b, q_m))
    traj = simulate(force, bath, (q_m, 0.0), DT, 1e-4, seed=1, n_traj=2)
    expected = traj.p**2 / (2 * MASS) + b * (traj.q**2 - q_m**2) ** 2
    assert np.allclose(traj.energy, expected, rtol=1e-12)


# (b, q_m) of a double well, and its minima
DOUBLE_WELL = (1e6, 1e-7)
WELLS = (-1e-7, 1e-7)


def test_well_labels_carry_joins_pieces():
    rng = np.random.default_rng(9)
    q = np.cumsum(rng.normal(size=(6, 60)), axis=1)
    whole = langevin.well_labels(q, (-1.5, 1.5))
    for cut in range(1, 60):
        head = langevin.well_labels(q[:, :cut], (-1.5, 1.5))
        tail = langevin.well_labels(q[:, cut:], (-1.5, 1.5), head[:, -1])
        assert np.array_equal(np.hstack([head, tail]), whole)


@pytest.mark.parametrize("record_every", [1, 3, 4])
def test_labels_formed_in_the_step_loop_match_the_recorded_path(
        record_every):
    # three chunks and a part; 3 does not divide CHUNK_STEPS, so the
    # samples of a chunk do not start on its first step
    force, bath = make_models()
    n_steps = 3 * langevin.CHUNK_STEPS + 37
    # some trajectories start between the minima, unlabelled
    init = (np.linspace(-2e-7, 2e-7, 70), 0.0)
    args = (bath, init, DT, n_steps * DT, 8)
    kw = dict(n_traj=70, record_every=record_every)
    labels = langevin.simulate_double_well(DOUBLE_WELL, WELLS, force,
                                           *args, **kw)
    traj = simulate(langevin.replace(force, double_well=DOUBLE_WELL),
                    *args, **kw)
    assert labels.dtype == np.int8
    assert np.array_equal(labels, langevin.well_labels(traj.q, WELLS))
    assert np.count_nonzero(np.diff(labels, axis=1)) > 70


def test_groups_label_like_separate_runs():
    # 70 trajectories a group: two noise stream blocks each, the second
    # padded; each group's labels are those of its bath and seed alone,
    # in either order
    force, _ = make_models()
    baths = [BathModel(OMEGA0 / 10.0, 300.0), BathModel(OMEGA0, 300.0)]
    q0 = np.linspace(-2e-7, 2e-7, 70)
    n_steps = langevin.CHUNK_STEPS + 37

    def run(bath, seed, n_traj):
        init = (np.tile(q0, n_traj // 70), 0.0)
        return langevin.simulate_double_well(
            DOUBLE_WELL, WELLS, force, bath, init, DT, n_steps * DT,
            seed, n_traj=n_traj, record_every=3)

    batched = run(baths, [3, 4], 140)
    swapped = run(baths[::-1], [4, 3], 140)
    for g, (bath, seed) in enumerate(zip(baths, [3, 4])):
        alone = run(bath, seed, 70)
        assert np.array_equal(batched[70 * g:70 * (g + 1)], alone)
        assert np.array_equal(swapped[70 * (1 - g):70 * (2 - g)], alone)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_path_of_trajectory_i_depends_only_on_seed_and_i(data):
    # the determinism contract: trajectory i of a group seeded s has the
    # path of trajectory i of a run seeded s alone, whatever the widths,
    # the other groups, record_every or the chunking of either run, and
    # an observed run sees the recorded path
    n_groups = data.draw(st.integers(1, 3), "groups")
    width = data.draw(st.integers(1, 140), "width")
    seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=n_groups,
                               max_size=n_groups), "seeds")
    baths = [BathModel(OMEGA0 / d, 300.0) for d in data.draw(
        st.lists(st.sampled_from([1, 2, 10]), min_size=n_groups,
                 max_size=n_groups), "damping")]
    record_every = data.draw(st.integers(1, 5), "record_every")
    n_steps = data.draw(st.integers(1, 90), "n_steps")
    # (CHUNK_STEPS, CHUNK_BYTES) of the recorded, observed and lone runs
    chunks = data.draw(st.lists(st.tuples(st.integers(1, 40),
                                          st.integers(8, 2**14)),
                                min_size=3, max_size=3), "chunks")
    g = data.draw(st.integers(0, n_groups - 1), "group")
    alone_width = data.draw(st.integers(1, 140), "alone_width")
    force, _ = make_models(duffing_xi=3e14)

    def run(bath, seed, n_traj, chunk, **kw):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(langevin, "CHUNK_STEPS", chunk[0])
            patch.setattr(langevin, "CHUNK_BYTES", chunk[1])
            return simulate(force, bath, "thermal", DT, n_steps * DT, seed,
                            n_traj=n_traj, **kw)

    kw = dict(n_traj=n_groups * width, record_every=record_every)
    recorded = run(baths, seeds, chunk=chunks[0], **kw)
    seen = []
    q_end, p_end = run(baths, seeds, chunk=chunks[1],
                       observe=lambda i0, q, p: seen.append((q.copy(),
                                                             p.copy())),
                       **kw)
    alone = run(baths[g], seeds[g], alone_width, chunks[2])
    n = min(width, alone_width)
    cols = slice(g * width, g * width + n)
    assert np.array_equal(recorded.q[cols], alone.q[:n, ::record_every])
    assert np.array_equal(recorded.p[cols], alone.p[:n, ::record_every])
    assert np.array_equal(np.vstack([q for q, _ in seen]).T, recorded.q)
    assert np.array_equal(np.vstack([p for _, p in seen]).T, recorded.p)
    assert np.array_equal(q_end[cols], alone.q[:n, -1])
    assert np.array_equal(p_end[cols], alone.p[:n, -1])


def test_groups_need_one_seed_per_bath_and_one_temperature():
    force, bath = make_models()
    with pytest.raises(ValueError, match="one seed per bath"):
        simulate(force, [bath, bath], "thermal", DT, 10 * DT, [1], n_traj=4)
    with pytest.raises(ValueError, match="one seed per bath"):
        simulate(force, [bath, bath], "thermal", DT, 10 * DT, [1, 2],
                 n_traj=5)
    with pytest.raises(ValueError, match="temperature"):
        simulate(force, [bath, BathModel(bath.gamma, 4.0)], "thermal", DT,
                 10 * DT, [1, 2], n_traj=4)


def test_blowup_step_of_one_group_is_that_of_its_run_alone():
    # the drive is above threshold at Q = 20 but not at Q = 1, so only the
    # first group blows up, many chunks in; the labelled run replays that
    # chunk and stops on the same step as the group alone, labelled or not
    force, _ = make_models(modulation=Modulation(depth=1.5,
                                                 frequency=2 * OMEGA0))
    unstable = BathModel(OMEGA0 / 20.0, 300.0)
    damped = BathModel(OMEGA0, 300.0)
    steps = []
    for bath, seed, n_traj, wells in ((unstable, 2, 2, None),
                                      (unstable, 2, 2, WELLS),
                                      ([unstable, damped], [2, 5], 4, WELLS)):
        with pytest.raises(IntegratorBlowupError) as info:
            simulate(force, bath, "thermal", DT, 0.01, seed, n_traj=n_traj,
                     observe=None if wells is None else
                     lambda i0, q, p: langevin.well_labels(q.T, wells))
        steps.append(info.value.step)
    assert steps[0] > 2 * langevin.CHUNK_STEPS
    assert steps == [steps[0]] * 3


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("record_every", [1, 4])
def test_observer_sees_the_recorded_q_once_in_order(record_every, grouped):
    # two chunks and a part; a two-bath run has a group per bath
    force, bath = make_models()
    n_steps = 2 * langevin.CHUNK_STEPS + 36
    bath, seed = (([bath, BathModel(OMEGA0, 300.0)], [3, 4]) if grouped
                  else (bath, 3))
    args = (force, bath, "thermal", DT, n_steps * DT, seed)
    kw = dict(n_traj=140 if grouped else 70, record_every=record_every)
    traj = simulate(*args, **kw)
    seen = []

    def observe(i0, q, p):
        assert q.flags.c_contiguous and p.flags.c_contiguous
        seen.append((i0, q.copy(), p.copy()))

    q_end, p_end = simulate(*args, observe=observe, **kw)
    starts = [i0 for i0, _, _ in seen]
    assert starts[:2] == [0, 1] and len(seen) == 4
    assert starts == list(np.cumsum([0] + [len(q) for _, q, _ in seen[:-1]]))
    assert np.array_equal(np.vstack([q for _, q, _ in seen]).T, traj.q)
    assert np.array_equal(np.vstack([p for _, _, p in seen]).T, traj.p)
    assert np.array_equal(q_end, traj.q[:, -1])
    assert np.array_equal(p_end, traj.p[:, -1])


def _far_start(n_traj):
    """Trajectory 0 at ten times the minimum of DOUBLE_WELL, the rest
    near the barrier: at a 4.2 us step the quartic force overshoots from
    there and leaves STATE_BOUND within a few steps, whatever the noise."""
    q0 = np.full(n_traj, 1e-8)
    q0[0] = 1e-6
    return q0, 0.0


def test_observed_blowup_stops_on_the_recorded_step_before_observing(
        monkeypatch):
    # the chunk that diverges, the third of two steps each, is replayed
    # to find the first bad step; the observer never sees the sample of
    # that chunk, and has seen every sample before it once
    monkeypatch.setattr(langevin, "CHUNK_STEPS", 2)
    dt, n_steps = 4.2e-6, 2600
    force, bath = make_models(double_well=DOUBLE_WELL)
    args = (force, bath, _far_start(70), dt, n_steps * dt, 1)
    kw = dict(n_traj=70, record_every=2, allow_coarse_dt=True)
    seen = []
    with np.errstate(all="ignore"):
        with pytest.raises(IntegratorBlowupError) as recorded:
            simulate(*args, **kw)
        with pytest.raises(IntegratorBlowupError) as observed:
            simulate(*args, observe=lambda i0, q, p: seen.extend(
                range(i0, i0 + len(q))), **kw)
    step = recorded.value.step
    assert observed.value.step == step > 2 * langevin.CHUNK_STEPS
    chunk_start = (step - 1) // langevin.CHUNK_STEPS * langevin.CHUNK_STEPS
    assert seen == list(range(chunk_start // 2 + 1))
    # the step named is the first bad one: one step less runs clean
    simulate(*args[:4], (step - 1) * dt, args[5], **kw)


# ---------------------------------------------------------------------------
# energy dynamics


def test_energy_sde_stationary_exponential():
    gamma = 2000.0
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, KT300, 1e-5, 5e-3,
                               seed=4, n_traj=4000,
                               record_every=100)
    tail = path.energy[:, -1]
    assert tail.mean() == pytest.approx(KT300, rel=0.05)
    # exponential law: KS against the stationary CDF
    stat = stats.kstest(tail / KT300, "expon")
    assert stat.pvalue > 0.01


def test_energy_sde_transition_density_noncentral_chi2():
    from levitherm.analysis import relaxation_cdf
    gamma = 2000.0
    t_relax = 0.5 / gamma
    e0 = 3.0 * KT300
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, e0, 2e-6, t_relax,
                               seed=17, n_traj=5000,
                               record_every=int(round(t_relax / 2e-6)))
    samples = path.energy[:, -1]
    stat = stats.kstest(samples,
                        lambda e: relaxation_cdf(e, e0, t_relax, gamma, 300.0))
    assert stat.pvalue > 0.01


def test_energy_sde_mean_relaxation_curve():
    gamma = 2000.0
    e0 = 0.1 * KT300
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, e0, 2e-6, 2e-3,
                               seed=23, n_traj=4000, record_every=100)
    expected = KT300 + (e0 - KT300) * np.exp(-gamma * path.time)
    meas = path.energy.mean(axis=0)
    assert np.max(np.abs(meas - expected)) < 0.04 * KT300


@pytest.mark.parametrize("dt, seed", [(1e-5, 31), (2.5e-4, 37)])
def test_energy_sde_exact_at_coarse_steps(dt, seed):
    # gamma dt = 0.02 (the reflected Euler scheme gave KS p = 3e-61
    # here) and one step spanning the whole relaxation, gamma h = 0.5
    from levitherm.analysis import relaxation_cdf
    gamma = 2000.0
    t_relax = 0.5 / gamma
    e0 = 3.0 * KT300
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, e0, dt, t_relax, seed=seed,
                               n_traj=20_000)
    samples = path.energy[:, -1]
    assert samples.min() >= 0.0
    stat = stats.kstest(samples,
                        lambda e: relaxation_cdf(e, e0, t_relax, gamma, 300.0))
    assert stat.pvalue > 0.01


def test_energy_sde_guards():
    with pytest.raises(ValueError):
        simulate_energy_sde(BathModel(0.0, 300.0), KT300,
                            1e-6, 1e-4, seed=0)


@pytest.mark.parametrize("e0", [-KT300, math.nan, math.inf,
                                np.array([KT300, -1e-30 * KT300])])
def test_energy_sde_rejects_bad_start(e0):
    bath = BathModel(gamma=2000.0, temperature=300.0)
    with pytest.raises(ValueError, match="starting energies"):
        simulate_energy_sde(bath, e0, 1e-5, 1e-4, seed=0, n_traj=np.size(e0))


def test_energy_sde_record_every_subsamples_same_path():
    bath = BathModel(gamma=2000.0, temperature=300.0)
    fine = simulate_energy_sde(bath, KT300, 1e-5, 1e-3, seed=5, n_traj=3)
    coarse = simulate_energy_sde(bath, KT300, 1e-5, 1e-3, seed=5, n_traj=3,
                                 record_every=4)
    assert np.array_equal(coarse.energy, fine.energy[:, ::4])
    assert np.array_equal(coarse.time, fine.time[::4])


def test_energy_sde_chunk_boundary_invisible():
    # a duration crossing CHUNK_STEPS agrees with the same path truncated
    # and with one exact transition per step on rows 2j, 2j + 1 of one
    # noise block drawn at once, also over two noise stream blocks
    gamma, dt, seed = 2000.0, 1e-6, 9
    bath = BathModel(gamma=gamma, temperature=300.0)
    n_long = langevin.CHUNK_STEPS + 100
    for n_traj in (2, 70):
        long = simulate_energy_sde(bath, KT300, dt, n_long * dt, seed=seed,
                                   n_traj=n_traj)
        short = simulate_energy_sde(bath, KT300, dt, 900 * dt, seed=seed,
                                    n_traj=n_traj)
        assert np.array_equal(short.energy, long.energy[:, :901])
        noise = langevin._draw_normals(
            langevin.trajectory_streams(seed, n_traj), 2 * n_long, n_traj)
        x = np.ones(n_traj)
        for j in range(n_long):
            x = langevin.energy_transition(x, gamma * dt,
                                           noise[2 * j:2 * j + 2])
        assert np.array_equal(long.energy[:, -1], x * k_B * 300.0)


def test_energy_sde_streams_independent_of_ensemble_size():
    bath = BathModel(gamma=2000.0, temperature=300.0)
    small, large = (simulate_energy_sde(bath, KT300, 1e-5, 2e-4, seed=3,
                                        n_traj=n) for n in (70, 130))
    assert small.energy.tobytes() == large.energy[:70].tobytes()


def test_energy_sde_accepts_per_trajectory_start():
    bath = BathModel(gamma=2000.0, temperature=300.0)
    e0 = np.array([0.5, 1.0, 2.0]) * KT300
    path = simulate_energy_sde(bath, e0, 1e-5, 1e-4, seed=0,
                               n_traj=3)
    assert np.allclose(path.energy[:, 0], e0)


# ---------------------------------------------------------------------------
# kernel parity against the per-step reference loop


def _reference_simulate(force, bath, init, dt, duration, seed, n_traj=1,
                        record_every=1, cube=lambda q: q**3,
                        quartic=lambda q: q**4):
    """The step loop `simulate` is checked against, one step at a time.

    It evaluates every force term, Duffing included at xi = 0, at both
    half kicks of every step, with the noise trajectory-major.  `cube`
    is how the Duffing force cubes q, `quartic` how the Duffing energy
    raises it to the fourth power.
    """
    m = force.mass
    n_steps = int(round(duration / dt))
    omega_steps = langevin._omega_per_step(force, dt, n_steps)
    w_ref = force.omega0 if force.omega0 > 0 else 1.0
    t_ref_temp = bath.temperature if bath.temperature > 0 else 300.0
    x0 = math.sqrt(k_B * t_ref_temp / m) / w_ref
    p0_scale = m * x0 * w_ref
    h = dt * w_ref
    gam = bath.gamma / w_ref
    temp = bath.temperature / t_ref_temp
    w0 = force.omega0 / w_ref
    xi = force.duffing_xi * x0**2
    eta = force.feedback_gain * x0**2
    omega_nd = omega_steps / w_ref
    ou_decay = math.exp(-gam * h)
    ou_kick = math.sqrt(max(0.0, (1.0 - ou_decay**2) * temp))

    # one SFC64 stream per block of 64 trajectories; each draw fills a
    # (count, 64) array in C order, and trajectory i reads column i % 64
    # of stream i // 64
    children = np.random.SeedSequence(seed).spawn(-(-n_traj // 64))
    streams = [np.random.Generator(np.random.SFC64(s)) for s in children]

    def draw(count):
        blocks = [g.standard_normal((count, 64)) for g in streams]
        return np.stack([blocks[i // 64][:, i % 64] for i in range(n_traj)])

    if isinstance(init, str) and init == "thermal":
        sig_q = math.sqrt(k_B * bath.temperature / m) / force.omega0 / x0
        draws = draw(2)
        q = sig_q * draws[:, 0]
        p = math.sqrt(temp) * draws[:, 1]
    else:
        q0, p0 = init
        q = np.broadcast_to(np.asarray(q0, dtype=float) / x0, (n_traj,)).copy()
        p = np.broadcast_to(np.asarray(p0, dtype=float) / p0_scale,
                            (n_traj,)).copy()
    mod = force.modulation
    f_ext = force.external_force
    well = force.double_well

    def epsilon(t_si, q_nd, p_nd):
        eps = 0.0
        if mod is not None:
            if mod.phase_locked:
                theta = np.arctan2(-p_nd / w0, q_nd)
                eps = mod.depth * np.cos(2.0 * theta - 2.0 * mod.phase)
            else:
                eps = mod.depth * math.cos(mod.frequency * t_si + mod.phase)
        if eta != 0.0:
            eps = eps - (eta / w0) * q_nd * p_nd
        return eps

    def extra_force(t_si, q_nd, p_nd):
        if well is not None:
            # -U'(q) in internal units, by the kernel's products
            b, q_m = well
            kt = k_B * t_ref_temp
            a1 = 4.0 * b * q_m**2 * x0**2 / kt
            a3 = -4.0 * b * x0**4 / kt
            return q_nd * (a1 + a3 * (q_nd * q_nd))
        f = -w0**2 * xi * cube(q_nd)
        if mod is not None or eta != 0.0:
            f = f + epsilon(t_si, q_nd, p_nd) * w0**2 * q_nd
        if f_ext is not None:
            f = f + f_ext(t_si) / (m * x0 * w_ref**2)
        return f

    n_samples = n_steps // record_every + 1
    q_out = np.empty((n_traj, n_samples))
    p_out = np.empty((n_traj, n_samples))
    fext_out = np.zeros(n_samples)
    omega_out = np.empty(n_samples)

    def record(k_sample, step, q_nd, p_nd):
        q_out[:, k_sample] = q_nd
        p_out[:, k_sample] = p_nd
        omega_out[k_sample] = omega_steps[step]
        if f_ext is not None:
            fext_out[k_sample] = f_ext(step * dt)

    record(0, 0, q, p)
    k_sample = 1
    step = 0
    while step < n_steps:
        chunk = min(langevin.CHUNK_STEPS, n_steps - step)
        noise = draw(chunk)
        for j in range(chunk):
            t_si = (step + j) * dt
            w = omega_nd[step + j]
            p += 0.5 * h * extra_force(t_si, q, p)
            if well is None and w > 0:
                th = 0.5 * h * w
                c, s = math.cos(th), math.sin(th)
                q, p = c * q + (s / w) * p, -w * s * q + c * p
            else:
                q = q + 0.5 * h * p
            p = ou_decay * p + ou_kick * noise[:, j]
            if well is None and w > 0:
                q, p = c * q + (s / w) * p, -w * s * q + c * p
            else:
                q = q + 0.5 * h * p
            p += 0.5 * h * extra_force(t_si + dt, q, p)
            if (step + j + 1) % record_every == 0:
                record(k_sample, step + j + 1, q, p)
                k_sample += 1
        step += chunk

    q_si = q_out * x0
    p_si = p_out * p0_scale
    if well is not None:
        b, q_m = well
        energy = p_si**2 / (2.0 * m) + b * (q_si**2 - q_m**2)**2
    else:
        energy = (p_si**2 / (2.0 * m)
                  + 0.5 * m * omega_out[None, :]**2 * q_si**2
                  + 0.25 * force.duffing_xi * m * force.omega0**2
                  * quartic(q_si))
    protocol = {"omega": omega_out, "external_force": fext_out}
    return q_si, p_si, energy, protocol


PARITY_CASES = {
    "harmonic": {},
    "duffing": {"duffing_xi": 3e14},
    "open-loop": {"modulation": Modulation(0.05, 2 * OMEGA0, 0.3)},
    "phase-locked": {"modulation": Modulation(0.05, phase=math.pi / 4,
                                              phase_locked=True)},
    "feedback": {"feedback_gain": 3e12},
    "feedback-and-drive": {"modulation": Modulation(0.05, 2 * OMEGA0),
                           "feedback_gain": 3e12},
    "external-force": {"external_force": lambda t: 2e-15 * math.sin(1e5 * t)},
    "stiffness-schedule": {"stiffness_schedule": ((30 * DT, OMEGA0 / 2),
                                                  (70 * DT, OMEGA0))},
    # a new frequency every step, so every step rewrites the rotation
    "staircase": {"stiffness_schedule": tuple(
        (k * DT, OMEGA0 * (1.0 + 0.5 * k / langevin.CHUNK_STEPS))
        for k in range(langevin.CHUNK_STEPS + 37))},
    "double-well": {"double_well": DOUBLE_WELL},
    # three force terms: the kernel sums the added terms into one row
    "duffing-drive-force": {"duffing_xi": 3e14,
                            "modulation": Modulation(0.05, 2 * OMEGA0, 0.3),
                            "external_force":
                                lambda t: 2e-15 * math.sin(1e5 * t)},
}


@pytest.mark.parametrize("record_every, n_steps", [(1, 300), (3, 300),
                                                   (1, langevin.CHUNK_STEPS + 37)])
@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_kernel_matches_reference_loop(case, record_every, n_steps):
    force, bath = make_models(**PARITY_CASES[case])
    init = (1e-8, 0.0) if case.endswith("double-well") else "thermal"
    args = (force, bath, init, DT, n_steps * DT, 6)
    # 70 trajectories span two noise stream blocks
    kw = dict(n_traj=70, record_every=record_every)
    traj = simulate(*args, **kw)
    # q*q*q and q**3 differ in the last bit, as do (q*q)*(q*q) and q**4,
    # so the Duffing kernel is held to the reference evaluated with the
    # same products
    powers = {}
    if "duffing_xi" in PARITY_CASES[case]:
        powers = dict(cube=lambda q: q * q * q,
                      quartic=lambda q: (q * q) * (q * q))
    q, p, energy, protocol = _reference_simulate(*args, **powers, **kw)
    assert np.array_equal(traj.q, q)
    assert np.array_equal(traj.p, p)
    assert np.array_equal(traj.energy, energy)
    assert traj.protocol.keys() == protocol.keys()
    for name, values in protocol.items():
        assert np.array_equal(traj.protocol[name], values), name
    for a in (traj.q, traj.p, traj.energy):
        assert a.flags.c_contiguous and a.shape == (70, n_steps // record_every + 1)
    if case == "duffing":
        eps = np.finfo(float).eps
        # against q**3, each step may differ by a rounding of the force,
        # far below one ulp of the state: n_steps ulps bound the drift
        for ours, theirs in zip((traj.q, traj.p),
                                _reference_simulate(*args, **kw)):
            bound = n_steps * eps * np.abs(theirs).max()
            assert np.abs(ours - theirs).max() <= bound
        # on the same path, the energy with q**4 differs from the product
        # by a few roundings of the quartic term, within 4 ulps
        _, _, energy_pow, _ = _reference_simulate(
            *args, cube=powers["cube"], **kw)
        assert np.all(np.abs(traj.energy - energy_pow)
                      <= 4 * eps * np.abs(energy_pow))


def test_labelled_double_well_matches_reference_loop():
    # the labels a run forms chunk by chunk, over two chunks and a part,
    # are those of the reference loop's path
    force, bath = make_models(double_well=DOUBLE_WELL)
    n_steps = 2 * langevin.CHUNK_STEPS + 37
    init = (np.linspace(-2e-7, 2e-7, 70), 0.0)
    args = (force, bath, init, DT, n_steps * DT, 6)
    labels = langevin.simulate_double_well(DOUBLE_WELL, WELLS, *args,
                                           n_traj=70, record_every=4)
    q, _, _, _ = _reference_simulate(*args, n_traj=70, record_every=4)
    assert np.array_equal(labels, langevin.well_labels(q, WELLS))
    assert np.count_nonzero(np.diff(labels, axis=1)) > 70


def test_double_well_blowup_stops_on_the_reference_step(monkeypatch):
    # at this coarse step the quartic force overshoots from the far start,
    # which diverges in the third chunk of two steps; the replay of that
    # chunk reports the first step whose state leaves STATE_BOUND in the
    # reference loop, for a labelled run as for one that keeps paths
    monkeypatch.setattr(langevin, "CHUNK_STEPS", 2)
    dt, n_steps, steps = 4.2e-6, 2600, []
    force, bath = make_models(double_well=DOUBLE_WELL)
    args = (force, bath, _far_start(70), dt, n_steps * dt, 1)
    x0 = math.sqrt(KT300 / MASS) / OMEGA0
    with np.errstate(all="ignore"):
        q, p, _, _ = _reference_simulate(*args, n_traj=70)
        state = np.maximum(np.abs(q / x0), np.abs(p / (MASS * x0 * OMEGA0)))
        for wells in (None, WELLS):
            kw = dict(n_traj=70, record_every=4, allow_coarse_dt=True)
            with pytest.raises(IntegratorBlowupError) as info:
                if wells is None:
                    simulate(*args, **kw)
                else:
                    langevin.simulate_double_well(DOUBLE_WELL, wells, *args,
                                                  **kw)
            steps.append(info.value.step)
    expected = int(np.argmax(~(state.max(axis=0) <= langevin.STATE_BOUND)))
    assert expected > 2 * langevin.CHUNK_STEPS
    assert steps == [expected, expected]
