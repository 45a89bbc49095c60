"""The CSV writers against a frozen row-by-row oracle.

Every output file goes through ``grid.write_csv``, which formats whole
blocks of rows at a time.  The oracles below are the row-by-row f-string
loops the writers used before that helper existed, kept verbatim in
behaviour: each public writer must produce the same bytes on the same
data, including nan, +-inf, -0.0, the smallest subnormal and the largest
double, zero rows and a row count one past a block boundary.
"""

import io
import math

import numpy as np
import pytest

from vfsim.filaments import EnergyReport, write_reports_csv
from vfsim.grid import (
    CSV_BLOCK_ROWS,
    ComplexField,
    Grid1D,
    make_field,
    write_csv,
    write_fields_csv,
)
from vfsim.point_vortex import VortexTrajectory, polygon_config, write_trajectory_csv
from vfsim.reduced import EnergySample, write_energy_csv

SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0, -3.0, 1e16]
ROW_COUNTS = [0, 1, len(SPECIALS), CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]


def values(rows, seed):
    """``rows`` doubles: the special values first, then random magnitudes."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, rows)
    out = rng.standard_normal(rows) * scale
    head = min(rows, len(SPECIALS))
    out[:head] = np.roll(SPECIALS, seed)[:head]
    return out


def complex_values(rows, seed):
    out = np.empty(rows, dtype=np.complex128)
    out.real, out.imag = values(rows, seed), values(rows, seed + 1)
    return out


# ---------------------------------------------------------------------------
# frozen row-by-row oracles
# ---------------------------------------------------------------------------

def oracle_fields(grid, fields):
    arrays = [f.values if isinstance(f, ComplexField) else np.asarray(f) for f in fields]
    fh = io.StringIO()
    fh.write("sigma," + ",".join(f"re_{j},im_{j}" for j in range(len(arrays))) + "\n")
    for i in range(grid.num_points):
        row = [f"{grid.nodes[i]:.17g}"]
        for arr in arrays:
            row.append(f"{arr[i].real:.17g}")
            row.append(f"{arr[i].imag:.17g}")
        fh.write(",".join(row) + "\n")
    return fh.getvalue()


def oracle_reports(reports):
    fh = io.StringIO()
    fh.write("t,H,A,T,I,E,sup_ratio_dev,min_sep,v_norm,w_norm\n")
    for r in reports:
        v, w = r.vw_norms if r.vw_norms is not None else (math.nan, math.nan)
        fh.write(
            f"{r.time:.17g},{r.H:.17g},{r.A:.17g},{r.T_quant:.17g},"
            f"{r.I:.17g},{r.E:.17g},{r.sup_ratio_dev:.17g},"
            f"{r.min_sep:.17g},{v:.17g},{w:.17g}\n"
        )
    return fh.getvalue()


def oracle_energy(samples):
    fh = io.StringIO()
    fh.write("t,E,E_GP,sup_dev,min_mod\n")
    for s in samples:
        fh.write(
            f"{s.time:.17g},{s.E:.17g},{s.E_GP:.17g},"
            f"{s.sup_dev:.17g},{s.min_mod:.17g}\n"
        )
    return fh.getvalue()


def oracle_trajectory(traj):
    n = traj.positions.shape[1]
    cols = ["t"]
    for j in range(n):
        cols += [f"re_X{j}", f"im_X{j}"]
    cols += ["center_re", "center_im", "ang_mom", "log_sum", "quad_sum"]
    inv = traj.invariant_series
    fh = io.StringIO()
    fh.write(",".join(cols) + "\n")
    for i, t in enumerate(traj.times):
        x = traj.positions[i]
        row = [f"{t:.17g}"]
        for j in range(n):
            row += [f"{x[j].real:.17g}", f"{x[j].imag:.17g}"]
        c = inv["center_of_inertia"][i]
        row += [
            f"{c.real:.17g}",
            f"{c.imag:.17g}",
            f"{inv['angular_momentum'][i]:.17g}",
            f"{inv['log_sum'][i]:.17g}",
            f"{inv['quad_sum'][i]:.17g}",
        ]
        fh.write(",".join(row) + "\n")
    return fh.getvalue()


# ---------------------------------------------------------------------------
# each public writer against its oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", ROW_COUNTS)
class TestWritersMatchOracle:
    def test_fields(self, tmp_path, rows):
        nodes = values(rows, 0)
        grid = Grid1D(half_length=1.0, num_points=rows, spacing=2.0 / max(rows, 1),
                      nodes=nodes, wavenumbers=np.zeros(rows))
        # a ComplexField, a complex array and a real array, as callers pass them
        fields = [make_field(grid, complex_values(rows, 1)), complex_values(rows, 3),
                  values(rows, 5)]
        path = tmp_path / "fields.csv"
        write_fields_csv(path, grid, fields)
        assert path.read_bytes() == oracle_fields(grid, fields).encode("ascii")

    def test_reports(self, tmp_path, rows):
        cols = [values(rows, seed) for seed in range(10)]
        reports = [
            EnergyReport(*(float(c[i]) for c in cols[:8]),
                         vw_norms=None if i % 3 == 0 else (cols[8][i], cols[9][i]))
            for i in range(rows)
        ]
        path = tmp_path / "energies.csv"
        write_reports_csv(path, reports)
        assert path.read_bytes() == oracle_reports(reports).encode("ascii")

    def test_energy(self, tmp_path, rows):
        cols = [values(rows, seed) for seed in range(5)]
        samples = [EnergySample(*(c[i] for c in cols)) for i in range(rows)]
        path = tmp_path / "energies.csv"
        write_energy_csv(path, samples)
        assert path.read_bytes() == oracle_energy(samples).encode("ascii")

    def test_trajectory(self, tmp_path, rows):
        n = 3
        positions = np.stack([complex_values(rows, 2 * j) for j in range(n)], axis=1)
        invariants = {
            "center_of_inertia": complex_values(rows, 7),
            "angular_momentum": values(rows, 9),
            "log_sum": values(rows, 10),
            "quad_sum": values(rows, 11),
        }
        traj = VortexTrajectory(times=values(rows, 6), positions=positions,
                                initial=polygon_config(n, 1.0, 1.0),
                                invariant_series=invariants)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, traj)
        assert path.read_bytes() == oracle_trajectory(traj).encode("ascii")


# ---------------------------------------------------------------------------
# write_csv itself
# ---------------------------------------------------------------------------

class TestWriteCsv:
    def test_text_and_integer_columns(self, tmp_path):
        """The stability table's layout: an integer, a float and a word per row."""
        rows = [(3, 0.0, "stable"), (8, 1.2345678901234567e-3, "unstable"),
                (9, -0.0, "stable")]
        path = tmp_path / "stability.csv"
        write_csv(path, ["N", "max_re_lambda", "verdict"], list(zip(*rows)))
        oracle = "N,max_re_lambda,verdict\n" + "".join(
            f"{n},{lam:.17g},{verdict}\n" for n, lam, verdict in rows
        )
        assert path.read_bytes() == oracle.encode("ascii")

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1.0, 2.0], [3.0]]),
        (["a"], [[1.0], [2.0]]),
        (["a", "b"], [[1.0]]),
    ])
    def test_mismatched_shapes_rejected(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", header, columns)
