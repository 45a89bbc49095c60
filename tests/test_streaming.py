"""Tests of the sampled runs that stream their samples.

Covered here:
  * the generators: ``evolve_bm_samples`` and ``evolve_samples`` yield
    what ``evolve_bm`` and ``evolve`` collect, bit for bit; the halt of a
    filament run is its last yield, (None, None, halt) when the run halts
    right after a sample; the energy cap is a yielded EnergyCapExceeded,
  * the runner's growth constants and predicted existence time, fitted
    from per-sample scalars, equal ``growth_monitors`` and
    ``max_pair_norm`` on the collected states, bit for bit,
  * sample_every < 1 in library calls raises ValueError, as dt <= 0 does,
  * the runner holds one sample at a time: the tracemalloc peak of a
    reduced and of a square run does not grow with the number of samples,
  * --dump-fields: every fields_t*.csv of a reduced and of a square run
    reads back to the matching evolve_bm / evolve state bit for bit, one
    file per sample.
"""

import os
import tracemalloc

import numpy as np
import pytest

from vfsim import runner
from vfsim.config import parse_config_dict
from vfsim.errors import CollisionDetected, EnergyCapExceeded
from vfsim.filaments import (
    collision_initial_state,
    evolve,
    evolve_samples,
    growth_monitors,
    max_pair_norm,
    predicted_T,
    tilde_E0,
)
from vfsim.grid import make_field, make_grid, read_fields_csv
from vfsim.reduced import PhiState, evolve_bm, evolve_bm_samples
from vfsim.runner import build_filament_state, run


def bits(a):
    """The raw bits of a float or complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def same_bits(a, b) -> bool:
    return np.array_equal(bits(a), bits(b))


def square_config(M: int, T: float, sample_every: int) -> dict:
    return {
        "scenario": "square",
        "grid": {"L": 30.0, "M": M},
        "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 0},
        "time": {"T": T, "dt": 1e-3, "sample_every": sample_every},
    }


def reduced_config(M: int, T: float, sample_every: int) -> dict:
    return {
        "scenario": "reduced",
        "grid": {"L": 64.0, "M": M},
        "time": {"T": T, "dt": 1e-3, "sample_every": sample_every},
    }


def reduced_initial(cfg) -> PhiState:
    """The runner's initial profile for a gaussian reduced config."""
    grid = make_grid(cfg.L, cfg.M)
    values = (1.0 + runner._gaussian_profile(cfg, grid)).astype(np.complex128)
    return PhiState(make_field(grid, values, background=1.0), cfg.omega, 0.0)


# ---------------------------------------------------------------------------
# the generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_reduced_samples_are_evolve_bm(self):
        cfg = parse_config_dict(reduced_config(512, 0.05, 7))
        state = reduced_initial(cfg)
        states, samples = evolve_bm(state, cfg.T, cfg.dt, sample_every=7)
        streamed = list(evolve_bm_samples(state, cfg.T, cfg.dt, sample_every=7))
        assert len(streamed) == len(states) == 9  # t = 0, 7 steps apart, 50
        for (s, e), ref, ref_e in zip(streamed, states, samples):
            assert s.time == ref.time and e == ref_e
            assert same_bits(s.phi.values, ref.phi.values)

    def test_filament_samples_are_evolve(self):
        cfg = parse_config_dict(square_config(256, 0.03, 10))
        state = build_filament_state(cfg, make_grid(cfg.L, cfg.M))
        result = evolve(state, cfg.T, cfg.dt, sample_every=10)
        streamed = list(evolve_samples(state, cfg.T, cfg.dt, sample_every=10))
        assert result.status == "Completed"
        assert [h for _, _, h in streamed] == [None] * 4
        for (snap, rep, _), ref, ref_rep in zip(streamed, result.states, result.reports):
            assert rep == ref_rep and snap.time == ref.time
            for a, b in zip(snap.u, ref.u):
                assert same_bits(a.values, b.values)

    def test_collision_halt_is_the_last_yield(self):
        grid = make_grid(20.0, 512)
        state = collision_initial_state(4, grid)
        streamed = list(evolve_samples(state, 1.05, 2.5e-4, sample_every=1000, delta_min=0.02,
                                       boundary_tol=1e-6))
        *samples, (snap, rep, halt) = streamed
        assert all(h is None for _, _, h in samples)
        assert isinstance(halt, CollisionDetected) and halt.pair == (0, 1)
        assert snap.time == rep.time == halt.time == 0.99

    def test_halt_right_after_a_sample_yields_no_snapshot(self):
        # sampling every step, the step that trips the detector starts at
        # the sample before it, which the run keeps
        grid = make_grid(20.0, 512)
        state = collision_initial_state(4, grid)
        guards = dict(sample_every=1, delta_min=0.02, boundary_tol=1e-6)
        streamed = list(evolve_samples(state, 1.05, 1e-2, **guards))
        snap, rep, halt = streamed[-1]
        assert snap is None and rep is None
        assert isinstance(halt, CollisionDetected)
        assert streamed[-2][0].time == halt.time
        result = evolve(state, 1.05, 1e-2, **guards)
        assert len(result.states) == len(streamed) - 1
        assert result.status == "CollisionDetected" and result.halt_time == halt.time

    def test_energy_cap_is_a_yielded_halt(self):
        cfg = parse_config_dict(square_config(256, 0.05, 10))
        state = build_filament_state(cfg, make_grid(cfg.L, cfg.M))
        streamed = list(evolve_samples(state, cfg.T, cfg.dt, sample_every=10,
                                       energy_cap_factor=0.5))
        snap, rep, halt = streamed[-1]
        assert isinstance(halt, EnergyCapExceeded)
        assert halt.time == snap.time == rep.time and halt.energy == rep.E > halt.cap
        result = evolve(state, cfg.T, cfg.dt, sample_every=10, energy_cap_factor=0.5)
        assert result.status == "EnergyCapExceeded"
        assert result.halt_time == halt.time and result.energy_cap == halt.cap
        assert len(result.states) == len(streamed)

    def test_runner_growth_constants_equal_growth_monitors(self, tmp_path):
        # the runner fits them from scalars kept as the samples stream in
        cfg = parse_config_dict(square_config(256, 0.05, 10))
        report = run(cfg, tmp_path)
        state = build_filament_state(cfg, make_grid(cfg.L, cfg.M))
        result = evolve(state, cfg.T, cfg.dt, sample_every=10)
        growth = growth_monitors(result.states, result.reports)
        assert report.constants["pair_norm_C"] == growth.pair_norm_C
        assert report.constants["vw_C"] == growth.vw_C
        te0 = tilde_E0(state, result.reports[0])
        assert report.constants["predicted_T"] == predicted_T(te0, max_pair_norm(state))


class TestSampleEvery:
    @pytest.mark.parametrize("sample_every", [0, -1])
    def test_evolve_rejects(self, sample_every):
        cfg = parse_config_dict(square_config(256, 0.01, 10))
        state = build_filament_state(cfg, make_grid(cfg.L, cfg.M))
        with pytest.raises(ValueError, match="sample_every"):
            evolve(state, 0.01, 1e-3, sample_every=sample_every)
        with pytest.raises(ValueError, match="sample_every"):
            next(evolve_samples(state, 0.01, 1e-3, sample_every=sample_every))

    @pytest.mark.parametrize("sample_every", [0, -1])
    def test_evolve_bm_rejects(self, sample_every):
        state = reduced_initial(parse_config_dict(reduced_config(256, 0.01, 10)))
        with pytest.raises(ValueError, match="sample_every"):
            evolve_bm(state, 0.01, 1e-3, sample_every=sample_every)
        with pytest.raises(ValueError, match="sample_every"):
            next(evolve_bm_samples(state, 0.01, 1e-3, sample_every=sample_every))


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def traced_peak(cfg, out_dir) -> int:
    """Peak bytes that tracemalloc sees during one runner.run."""
    tracemalloc.start()
    try:
        report = run(cfg, out_dir)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "Completed"
    return peak


@pytest.mark.parametrize(
    "make, filaments",
    [(reduced_config, 1), (square_config, 4)],
    ids=["reduced", "square"],
)
def test_peak_memory_independent_of_sample_count(tmp_path, make, filaments):
    # 60 steps sampled 6 times, then 61 times, on a grid where one
    # snapshot is 64 KiB; a warm-up run first takes the one-time caches
    M = 4096 // filaments
    snapshot = filaments * M * 16
    few = parse_config_dict(make(M, 0.06, 12))
    many = parse_config_dict(make(M, 0.06, 1))
    run(few, tmp_path / "warm")
    base = traced_peak(few, tmp_path / "few")
    peak = traced_peak(many, tmp_path / "many")
    extra = peak - base
    assert extra < 3 * snapshot, (
        f"55 more samples raised the peak by {extra / snapshot:.1f} snapshots"
    )


def test_reduced_dumps_equal_the_states(tmp_path):
    cfg = parse_config_dict(reduced_config(512, 0.05, 7))
    report = run(cfg, tmp_path, dump_fields=True)
    states, _ = evolve_bm(reduced_initial(cfg), cfg.T, cfg.dt, sample_every=7)
    dumps = sorted(f for f in os.listdir(tmp_path) if f.startswith("fields_t"))
    assert dumps == [f for f in report.files if f.startswith("fields_t")]
    assert len(dumps) == len(states) == 9
    for name, state in zip(dumps, states):
        sigma, arrays = read_fields_csv(tmp_path / name)
        assert same_bits(sigma, state.phi.grid.nodes)
        assert len(arrays) == 1 and same_bits(arrays[0], state.phi.values)


def test_square_dumps_equal_the_states(tmp_path):
    cfg = parse_config_dict(square_config(256, 0.05, 20))
    report = run(cfg, tmp_path, dump_fields=True)
    grid = make_grid(cfg.L, cfg.M)
    result = evolve(build_filament_state(cfg, grid), cfg.T, cfg.dt, sample_every=20)
    dumps = sorted(f for f in os.listdir(tmp_path) if f.startswith("fields_t"))
    assert dumps == [f for f in report.files if f.startswith("fields_t")]
    assert len(dumps) == len(result.states) == 4  # t = 0, 0.02, 0.04, 0.05
    for name, state in zip(dumps, result.states):
        sigma, arrays = read_fields_csv(tmp_path / name)
        assert same_bits(sigma, grid.nodes)
        assert len(arrays) == 4
        for got, field in zip(arrays, state.u):
            assert same_bits(got, field.values)
