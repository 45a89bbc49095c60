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
    the half steps between samples are fused.
"""

import sys

import numpy as np
import pytest

from vfsim.filaments import collision_initial_state, evolve, filament_state
from vfsim.grid import make_field, make_grid
from vfsim.point_vortex import polygon_config
from vfsim.reduced import PhiState, evolve_bm

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
