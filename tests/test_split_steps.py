"""Tests of the split-step loop that the reduced profile equation and the
filament system share (``vfsim.grid._split_steps``).

Covered here:
  * restart from a sample, for each nonlinear sub-flow: the profile's
    exact phase rotation, the free flow of the collision data and RK4
    over the pair kernel of untagged data.  2k steps sampled every k
    steps end bit for bit where k steps and a run restarted from their
    sample end, because a step after a sample opens from the sampled
    field;
  * the transform count: an untagged square run of n steps with s samples
    makes at most 2n + 2s + 2 FFTs outside the energy diagnostics, since
    the half steps between samples are fused; the identity sub-flow
    advances in blocks, so the omega = 0 profile, which checks no
    midpoint, makes at most 2s + 2, and the collision preset, which
    checks each midpoint in one batched inverse transform per block, at
    most 600 (3,960 steps);
  * the halt order of a block of identity steps: steps in time order, a
    step's midpoint guard before its boundary guard, the first failing
    check wins, and a guard halt keeps the rows at the start of its step;
  * the guard's horizon: the steps that start before it are neither
    transformed nor guarded, a run whose guard would pass on them yields
    the same rows, times and halt bit for bit, and a NaN or -inf horizon
    guards every step;
  * the collision preset's certified guard: at most 64 guarded midpoints
    and 100 transforms, with the halt at t = 0.99 on pair (0, 1), sigma* = 0.
"""

import math
import sys

import numpy as np
import pytest

from vfsim.config import scenario_defaults
from vfsim.errors import BoundaryContaminated, NumericalGuard
from vfsim.filaments import collision_initial_state, evolve, filament_state
from vfsim.grid import _split_steps, make_field, make_grid
from vfsim.point_vortex import polygon_config
from vfsim.reduced import PhiState, collision_state, evolve_bm
from vfsim.runner import run

DT = 2.0**-8  # every step time is exact
K = 8


def square_state(grid):
    """Untagged bumps on the unit square: the RK4 sub-flow."""
    bumps = [(0.0, 0.02), (0.5, 0.01j), (-0.5, -0.015), (1.0, 0.01 + 0.01j)]
    fields = [
        make_field(grid, amp * np.exp(-((grid.nodes - centre) ** 2)))
        for centre, amp in bumps
    ]
    return filament_state(fields, polygon_config(4, 1.0, 1.0))


def field_rows(state):
    return np.array([f.values for f in state.u])


class TestRestartFromSample:
    def test_profile(self):
        grid = make_grid(20.0, 256)
        phi = make_field(grid, 1.0 + 0.2 * np.exp(-grid.nodes**2), background=1.0)
        state = PhiState(phi, omega=1.0, time=0.0)
        states, _ = evolve_bm(state, 2 * K * DT, DT, sample_every=K)
        half, _ = evolve_bm(states[1], K * DT, DT, sample_every=K)
        assert half[-1].time == states[-1].time == 2 * K * DT
        assert np.array_equal(half[-1].phi.values, states[-1].phi.values)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: collision_initial_state(4, make_grid(20.0, 256)), id="free-flow"),
            pytest.param(lambda: square_state(make_grid(20.0, 256)), id="rk4"),
        ],
    )
    def test_filaments(self, build):
        guards = dict(sample_every=K, delta_min=0.02, boundary_tol=1e-6)
        result = evolve(build(), 2 * K * DT, DT, **guards)
        restarted = evolve(result.states[1], K * DT, DT, **guards)
        assert result.status == restarted.status == "Completed"
        assert restarted.states[-1].time == result.states[-1].time == 2 * K * DT
        assert np.array_equal(
            field_rows(restarted.states[-1]), field_rows(result.states[-1])
        )


def test_fused_steps_bound_the_transform_count(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        exact = getattr(np.fft, name)

        def counted(*args, _exact=exact, **kwargs):
            # energies() differentiates each snapshot in grid.derivative
            if sys._getframe(1).f_code.co_name != "derivative":
                calls.append(1)
            return _exact(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    n, every = 20, 5
    result = evolve(square_state(make_grid(20.0, 256)), n * 1e-3, 1e-3, sample_every=every)
    assert result.status == "Completed" and result.states[0].symmetry is None
    samples = len(result.states) - 1
    assert samples == n // every
    assert len(calls) <= 2 * n + 2 * samples + 2


def test_free_profile_transforms_only_at_samples(fft_calls):
    """omega = 0: the profile's sub-flow is the identity and checks nothing,
    so the run transforms only to sample and to reopen after a sample."""
    states, _ = evolve_bm(collision_state(make_grid(20.0, 4096)), 0.5, 1e-3, sample_every=100)
    samples = len(states) - 1
    assert samples == 5 and states[-1].time == 0.5
    assert len(fft_calls) <= 2 * samples + 2


def test_collision_preset_transform_count(fft_calls, tmp_path):
    report = run(scenario_defaults("collision"), tmp_path)
    assert report.status == "CollisionDetected"
    assert report.hitting_times["collision_time"] == 0.99
    assert len(fft_calls) <= 600


def test_collision_preset_guards_few_midpoints(fft_calls, guarded_shapes, tmp_path):
    """The speed bound clears all but a few dozen of the 3,968 midpoints
    that a guard on every step would transform and check."""
    report = run(scenario_defaults("collision"), tmp_path)
    assert report.status == "CollisionDetected"
    assert report.hitting_times["collision_time"] == 0.99
    assert report.hitting_times["pair"] == [0, 1]
    assert report.hitting_times["sigma_star"] == 0.0
    assert sum(steps for steps, _, _ in guarded_shapes) <= 64
    assert len(fft_calls) <= 100


class TestBlockHaltOrder:
    """A spreading bump under the free flow on a short box, one block of
    256 steps between samples; a guard that fails at one chosen step."""

    grid = make_grid(10.0, 64)

    def run(self, n_steps, failing_step=None):
        rows = 0.2 * np.exp(-self.grid.nodes**2)[None, :] + 0j
        dispersion = -1j * self.grid.wavenumbers[None, :] ** 2

        def guard(v, times):
            assert v.shape == (len(times), 1, 64)
            steps = [round(t / DT) for t in times]
            if failing_step in steps:
                return steps.index(failing_step), NumericalGuard("failing step")
            return None

        return list(_split_steps(
            self.grid, rows, dispersion, 0.0, n_steps, DT, 1000, 1e-6,
            guard=guard, guard_rows=1,
        ))

    def boundary_step(self):
        *_, (t, _, halt) = self.run(400)
        assert isinstance(halt, BoundaryContaminated)
        step = round(t / DT) - 1
        assert 0 < step < 255  # inside the first block
        return step

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_guard_at_or_before_the_boundary_step_wins(self, offset):
        step = self.boundary_step() + offset
        *_, (t, rows, halt) = self.run(400, step)
        assert isinstance(halt, NumericalGuard) and t == step * DT
        # the rows at the start of the failing step
        *_, (t_end, end, done) = self.run(step)
        assert done is None and t_end == t and np.array_equal(rows, end)

    def test_boundary_before_the_guard_wins(self):
        step = self.boundary_step()
        *_, (t, rows, halt) = self.run(400, step + 1)
        assert isinstance(halt, BoundaryContaminated) and t == (step + 1) * DT
        *_, (_, unguarded_rows, _) = self.run(400)
        assert np.array_equal(rows, unguarded_rows)


class TestHorizon:
    """The spreading bump of TestBlockHaltOrder sampled every 100 steps, so
    a block is the steps between two samples; the boundary guard trips at
    the end of step 170."""

    grid = make_grid(10.0, 64)

    def run(self, n_steps, horizon=None, failing_step=None):
        """The yields of the run and the (step, midpoint) pairs guarded."""
        rows = 0.2 * np.exp(-self.grid.nodes**2)[None, :] + 0j
        dispersion = -1j * self.grid.wavenumbers[None, :] ** 2
        seen = []

        def guard(v, times):
            assert v.shape == (len(times), 1, 64)
            steps = [round(t / DT) for t in times]
            seen.extend(zip(steps, v.copy()))
            if failing_step in steps:
                return steps.index(failing_step), NumericalGuard("failing step")
            return None

        read = None if horizon is None else lambda: horizon
        out = list(_split_steps(
            self.grid, rows, dispersion, 0.0, n_steps, DT, 100, 1e-6,
            guard=guard, guard_rows=1, horizon=read,
        ))
        return out, seen

    @staticmethod
    def assert_same_yields(first, second):
        assert len(first) == len(second)
        for (t, rows, halt), (t2, rows2, halt2) in zip(first, second):
            assert t == t2 and np.array_equal(rows, rows2)
            assert type(halt) is type(halt2) and str(halt) == str(halt2)

    @pytest.mark.parametrize("cleared", [1, 37, 150])
    def test_cleared_steps_are_never_guarded(self, cleared):
        _, seen = self.run(180, horizon=cleared * DT)
        steps = [step for step, _ in seen]
        # samples every 100 steps: the block after step 100 is guarded anew
        # only from the horizon on
        assert steps == list(range(cleared, 180))

    @pytest.mark.parametrize("failing_step", [None, 120, 179])
    def test_same_yields_as_without_a_horizon(self, failing_step):
        plain, seen = self.run(180, failing_step=failing_step)
        certified, seen_after = self.run(180, 60 * DT, failing_step)
        self.assert_same_yields(certified, plain)
        by_step = dict(seen)
        for step, v in seen_after:
            assert np.array_equal(v, by_step[step])

    @pytest.mark.parametrize("horizon", [math.nan, -math.inf])
    def test_nan_or_minus_inf_guards_every_step(self, horizon):
        plain, seen = self.run(180)
        certified, seen_all = self.run(180, horizon)
        self.assert_same_yields(certified, plain)
        assert [s for s, _ in seen_all] == list(range(180))
        for (_, v), (_, w) in zip(seen_all, seen):
            assert np.array_equal(v, w)

    def test_failing_step_after_the_horizon_halts_in_place(self):
        *_, (t, rows, halt) = self.run(180, 60 * DT, failing_step=61)[0]
        assert isinstance(halt, NumericalGuard) and t == 61 * DT
        *_, (t_end, end, done) = self.run(61)[0]
        assert done is None and t_end == t and np.array_equal(rows, end)
