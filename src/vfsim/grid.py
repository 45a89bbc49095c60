"""Periodic grid, exact linear propagation, split steps, spectral utilities.

Everything downstream works on a uniform grid over [-L, L) with M nodes.
Fields that tend to a nonzero constant at the domain ends (profiles close
to 1, helices, ...) are stored together with that constant as a
``background``; every spectral operation acts on ``values - background``
so the FFT only ever sees a field that decays at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from .errors import BoundaryContaminated, InvalidGrid, VfsimError

#: Default tolerance for the "field is flat at the domain ends" guard.
DEFAULT_BOUNDARY_TOL = 1e-10

#: Rows that write_csv formats per write; bounds the text held in memory.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with an FFT-ordered wavenumber set.

    Two grids are equal when their defining (half_length, num_points) are;
    the rest is derived from those two.
    """

    half_length: float
    num_points: int
    spacing: float = field(compare=False)
    nodes: np.ndarray = field(repr=False, compare=False)
    wavenumbers: np.ndarray = field(repr=False, compare=False)


def make_grid(half_length: float, num_points: int) -> Grid1D:
    """Build a grid with nodes sigma_i = -L + i*h, h = 2L/M.

    Wavenumbers are pi*k/L for k in {-M/2, ..., M/2 - 1}, stored in FFT
    order (zero mode first, Nyquist at the most negative entry).
    """
    if half_length <= 0:
        raise InvalidGrid(f"half_length must be positive, got {half_length}")
    if num_points % 2 != 0 or num_points < 8:
        raise InvalidGrid(f"num_points must be even and >= 8, got {num_points}")
    h = 2.0 * half_length / num_points
    nodes = -half_length + h * np.arange(num_points)
    wavenumbers = 2.0 * np.pi * np.fft.fftfreq(num_points, d=h)
    return Grid1D(
        half_length=float(half_length),
        num_points=int(num_points),
        spacing=h,
        nodes=nodes,
        wavenumbers=wavenumbers,
    )


@dataclass(frozen=True)
class ComplexField:
    """Complex samples on a grid plus the constant they tend to at +-L.

    Operations never mutate a field in place; they return new instances.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)
    background: complex = 0.0


def make_field(grid: Grid1D, values: np.ndarray, background: complex = 0.0) -> ComplexField:
    """Wrap samples as a ComplexField, checking the length."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (grid.num_points,):
        raise InvalidGrid(
            f"field has {values.shape} samples, grid expects ({grid.num_points},)"
        )
    return ComplexField(grid=grid, values=values, background=complex(background))


def constant_field(grid: Grid1D, value: complex) -> ComplexField:
    """A spatially constant field equal to its own background."""
    return ComplexField(
        grid=grid,
        values=np.full(grid.num_points, complex(value), dtype=np.complex128),
        background=complex(value),
    )


def boundary_deviation(f: ComplexField) -> float:
    """How far the field sits from its background at the two end nodes."""
    dev0 = abs(f.values[0] - f.background)
    dev1 = abs(f.values[-1] - f.background)
    return float(max(dev0, dev1))


def _split_steps(grid: Grid1D, rows: np.ndarray, dispersion: np.ndarray,
                 t0: float, n_steps: int, h: float, sample_every: int,
                 substep, boundary_tol: float):
    """Strang steps L(h/2) N(h) L(h/2) of zero-background rows on ``grid``.

    L(t) is the exact Fourier propagator exp(dispersion * t), with one row
    of ``dispersion`` per row of ``rows``.  substep(v, t) applies N(h) in
    place to the midpoint rows v = L(h/2) u of the step that starts at t
    and returns True, or returns False when N is the identity and it only
    checked v; then the step needs no forward transform.  The first step,
    and every step after a sample, opens from the physical rows as
    fft(u) L(h/2); any other step opens from spec L(h), spec the spectrum
    of the previous midpoint after N.  The boundary deviation, the largest
    |u| at the two end nodes, is read off the spectrum after every step.

    Yields (t, rows, None) every ``sample_every`` steps and after the last
    one, rows = ifft(spec L(h/2)) at time t.  The next step opens from the
    yielded array, so a caller may round it in place to the field it
    stores, and a run restarted from that field repeats the same steps.
    A guard ends the run with one last yield (t, rows, halt): a VfsimError
    that substep raised, with the rows at the start of the failing step,
    or BoundaryContaminated, with the rows at the end of the step.
    """
    half = np.exp(dispersion * (0.5 * h))
    full = np.exp(dispersion * h)
    # node 0 and node M-1 of ifft(spec * half), as products with spec
    first = half / grid.num_points
    ends = np.stack([first, first * np.exp(-1j * grid.spacing * grid.wavenumbers)], axis=1)
    nodes = np.empty(ends.shape[:2] + (1,), dtype=np.complex128)
    spec, opened, v = (np.empty_like(rows) for _ in range(3))
    start = rows  # the physical rows the next step opens from, or None
    for n in range(n_steps):
        t = t0 + n * h
        if start is None:
            np.multiply(spec, full, out=opened)
        else:
            np.fft.fft(start, axis=1, out=opened)
            np.multiply(opened, half, out=opened)
        np.fft.ifft(opened, axis=1, out=v)
        try:
            changed = substep(v, t)
        except VfsimError as exc:
            yield t, np.fft.ifft(spec * half, axis=1) if start is None else start, exc
            return
        if changed:
            np.fft.fft(v, axis=1, out=spec)
        else:
            spec, opened = opened, spec
        t = t0 + (n + 1) * h
        dev = float(np.abs(np.matmul(ends, spec[:, :, None], out=nodes)).max())
        halt = BoundaryContaminated(t, dev, boundary_tol) if dev > boundary_tol else None
        start = None
        if halt is not None or (n + 1) % sample_every == 0 or n + 1 == n_steps:
            start = np.fft.ifft(spec * half, axis=1)
            yield t, start, halt
            if halt is not None:
                return


def linear_propagate(f: ComplexField, gamma: float, t: float) -> ComplexField:
    """Exact solution at time t of  i df/dt + gamma * d^2f/dsigma^2 = 0.

    Applied as the Fourier multiplier exp(-i*gamma*xi^2*t) on the
    zero-background part; the background (a constant, hence invariant
    under the flow) is re-added.
    """
    xi = f.grid.wavenumbers
    spec = np.fft.fft(f.values - f.background)
    spec *= np.exp(-1j * gamma * xi**2 * t)
    return ComplexField(
        grid=f.grid,
        values=np.fft.ifft(spec) + f.background,
        background=f.background,
    )


def derivative(f: ComplexField, order: int = 1) -> ComplexField:
    """Spectral derivative d^order/dsigma^order of (f - background).

    The result has background 0 (constants differentiate to zero).
    """
    xi = f.grid.wavenumbers
    spec = np.fft.fft(f.values - f.background)
    spec *= (1j * xi) ** order
    return ComplexField(grid=f.grid, values=np.fft.ifft(spec), background=0.0)


def quad_trapezoid(grid: Grid1D, samples: np.ndarray) -> complex | float:
    """Periodic trapezoid rule h * sum(g_i); exact degree of an FFT grid.

    Returns a float for real input, complex otherwise.
    """
    total = grid.spacing * np.sum(samples)
    if np.iscomplexobj(samples):
        return complex(total)
    return float(total)


def norms(f: ComplexField) -> tuple[float, float, float]:
    """(L2, H1, sup) norms of f - background.

    H1^2 = L2^2 + L2(d/dsigma)^2, all discrete.
    """
    dev = f.values - f.background
    l2sq = float(quad_trapezoid(f.grid, np.abs(dev) ** 2))
    deriv = derivative(f).values
    dl2sq = float(quad_trapezoid(f.grid, np.abs(deriv) ** 2))
    l2 = np.sqrt(l2sq)
    h1 = np.sqrt(l2sq + dl2sq)
    sup = float(np.max(np.abs(dev))) if len(dev) else 0.0
    return (float(l2), float(h1), sup)


def shift_field(f: ComplexField, displacement: float) -> ComplexField:
    """Evaluate f(sigma - displacement) by the exact Fourier shift."""
    xi = f.grid.wavenumbers
    spec = np.fft.fft(f.values - f.background)
    spec *= np.exp(-1j * xi * displacement)
    return ComplexField(
        grid=f.grid,
        values=np.fft.ifft(spec) + f.background,
        background=f.background,
    )


# ---------------------------------------------------------------------------
# CSV output (the one output format)
# ---------------------------------------------------------------------------

def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns under a header: ASCII, "\\n" line ends.

    Numbers are printed as "{:.17g}", which reads back to the same float64;
    a column of strings is written as it is.  The rows are formatted
    CSV_BLOCK_ROWS at a time.
    """
    cols = [np.asarray(c) for c in columns]
    rows = len(cols[0]) if cols else 0
    if len(header) != len(cols) or any(len(c) != rows for c in cols):
        raise ValueError(f"{len(header)} names, column lengths {[len(c) for c in cols]}")
    template = ",".join("{}" if c.dtype.kind == "U" else "{:.17g}" for c in cols) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            block = zip(*(c[lo:lo + CSV_BLOCK_ROWS].tolist() for c in cols))
            fh.write("".join(starmap(template.format, block)))


def write_fields_csv(path, grid: Grid1D, fields: list[ComplexField] | list[np.ndarray]) -> None:
    """Write fields as CSV: sigma,re_0,im_0,...  (see write_csv)."""
    arrays = [f.values if isinstance(f, ComplexField) else np.asarray(f) for f in fields]
    header, columns = ["sigma"], [grid.nodes]
    for j, a in enumerate(arrays):
        header += [f"re_{j}", f"im_{j}"]
        columns += [a.real, a.imag]
    write_csv(path, header, columns)


def read_fields_csv(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read a CSV written by write_fields_csv: (sigma nodes, field arrays)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names
    sigma = np.asarray(data["sigma"], dtype=float)
    n_fields = (len(names) - 1) // 2
    arrays = []
    for j in range(n_fields):
        # set the parts, not re + 1j * im, which turns -0.0 into 0.0
        values = np.empty(sigma.size, dtype=np.complex128)
        values.real, values.imag = data[f"re_{j}"], data[f"im_{j}"]
        arrays.append(values)
    return sigma, arrays
