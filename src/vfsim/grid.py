"""Periodic grid, exact linear propagation, split steps, spectral utilities.

Everything downstream works on a uniform grid over [-L, L) with M nodes.
Fields that tend to a nonzero constant at the domain ends (profiles close
to 1, helices, ...) are stored together with that constant as a
``background``; every spectral operation acts on ``values - background``
so the FFT only ever sees a field that decays at the boundary.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from .errors import BoundaryContaminated, InvalidGrid, VfsimError

#: Fewest grid points make_grid accepts (the count must also be even).
MIN_POINTS = 8

#: Most grid points make_grid accepts, far above the 65,536 of the wave runs.
MAX_POINTS = 2**24

#: Default tolerance for the "field is flat at the domain ends" guard.
DEFAULT_BOUNDARY_TOL = 1e-10

#: Complex numbers in one block of identity steps of _split_steps (per array).
_BLOCK_ELEMENTS = 2**14

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
    if num_points % 2 != 0 or not MIN_POINTS <= num_points <= MAX_POINTS:
        raise InvalidGrid(
            f"num_points must be even and in [{MIN_POINTS}, {MAX_POINTS}], got {num_points}"
        )
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


def _step_plan(T: float, dt: float, sample_every: int) -> tuple[int, float]:
    """(n_steps, h): round(T / dt) steps of equal length h ending at T.

    Raises ValueError for dt <= 0 or sample_every < 1.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    n_steps = max(int(round(T / dt)), 0)
    return n_steps, T / n_steps if n_steps else 0.0


def _rk4(rate, like: np.ndarray, h: float):
    """One classical RK4 step of v' = rate(v, t), with its buffers allocated once.

    rate(v, t, out) writes the rate at (v, t) into ``out``.  The returned
    step(v, t) advances v in place from t to t + h, through stage inputs
    v + (h/2) k and v + h k and the update v + (h/6)(((k1 + 2 k2) + 2 k3) +
    k4), each written through ``out=``, so a step is bit for bit that of
    fresh temporaries.  The stage and k1..k4 are shaped like ``like``.
    """
    stage, k1, k2, k3, k4 = (np.empty_like(like) for _ in range(5))
    # the factors as 0-d arrays of the rows' dtype, the cast numpy applies to
    # a Python float on every call
    half, whole, two, sixth = (np.array(c, like.dtype) for c in (0.5 * h, h, 2.0, h / 6.0))

    def advance(v: np.ndarray, k: np.ndarray, step: np.ndarray) -> np.ndarray:
        return np.add(v, np.multiply(step, k, out=stage), out=stage)

    def step(v: np.ndarray, t: float) -> None:
        rate(v, t, k1)
        rate(advance(v, k1, half), t + 0.5 * h, k2)
        rate(advance(v, k2, half), t + 0.5 * h, k3)
        rate(advance(v, k3, whole), t + h, k4)
        np.add(k1, np.multiply(two, k2, out=stage), out=stage)
        np.add(stage, np.multiply(two, k3, out=k3), out=stage)
        np.add(stage, k4, out=stage)
        np.add(v, np.multiply(sixth, stage, out=stage), out=v)

    return step


def _split_steps(grid: Grid1D, rows: np.ndarray, dispersion: np.ndarray,
                 t0: float, n_steps: int, h: float, sample_every: int,
                 boundary_tol: float, substep=None, guard=None, guard_rows: int = 0,
                 horizon=None):
    """Strang steps L(h/2) N(h) L(h/2) of zero-background rows on ``grid``.

    L(t) is the exact Fourier propagator exp(dispersion * t), with one row
    of ``dispersion`` per row of ``rows``.  The loop carries m, the
    spectrum of a step's midpoint after N: the first step, and every step
    after a sample, opens from the physical rows as m = fft(u) L(h/2); any
    other step opens from the previous m as m L(h).  The boundary
    deviation, the largest |u| at the two end nodes of u = ifft(m L(h/2)),
    is read off m after every step.

    substep(v, t) applies N(h) in place to the midpoint rows v = ifft(m)
    of the step that starts at t, one step at a time.  Without a substep N
    is the identity, and the loop advances in blocks of b steps between
    two samples, with b W M <= _BLOCK_ELEMENTS for W the larger of the
    row count and ``guard_rows``: it writes each step's m as the previous
    one times L(h) and reads every step's boundary deviation with one
    batched product.  guard(v, times), if given, checks a block's
    midpoints, v a (b, rows, M) array from one batched ifft and times the
    steps' start times, and returns (i, error) for the first step i that
    fails, or None; ``guard_rows`` is the number of rows the block is
    sized for.  Without a guard no midpoint is transformed.  horizon(), if
    given, is read before each block: a time before which the caller has
    proved every step safe.  Only the steps of the block that
    start at or after it are transformed and guarded, still in one batched
    ifft, so v then holds those steps alone and i counts from the first of
    them; a NaN or -inf horizon clears no step.

    Yields (t, rows, None) every ``sample_every`` steps and after the last
    one, rows = ifft(m L(h/2)) at time t.  The next step opens from the
    yielded array, so a caller may round it in place to the field it
    stores, and a run restarted from that field repeats the same steps.
    A guard ends the run with one last yield (t, rows, halt): a VfsimError
    of the substep or the guard, with the rows at the start of the failing
    step, or BoundaryContaminated, with the rows at the end of the step.
    Steps are checked in time order, the midpoint guard of a step before
    its boundary guard, and the first failing check wins.
    """
    half = np.exp(dispersion * (0.5 * h))
    full = np.exp(dispersion * h)
    # node 0 and node M-1 of ifft(m * half), as products with m
    first = half / grid.num_points
    ends = np.stack([first, first * np.exp(-1j * grid.spacing * grid.wavenumbers)], axis=1)
    if substep is None:
        width = max(rows.shape[0], guard_rows) * grid.num_points
        block = max(1, _BLOCK_ELEMENTS // width)
    else:
        block = 1
    # two block buffers in turn: the m a block opens from stays intact
    opened, spare = (np.empty((block,) + rows.shape, dtype=np.complex128) for _ in range(2))
    mids = np.empty_like(opened) if substep is not None or guard is not None else None
    nodes = np.empty((block,) + ends.shape[:2] + (1,), dtype=np.complex128)
    start, spec = rows, None  # the rows or the m the next block opens from
    n = 0
    while n < n_steps:
        b = min(block, sample_every - n % sample_every, n_steps - n)
        opened, spare = spare, opened
        if start is None:
            np.multiply(spec, full, out=opened[0])
        else:
            np.fft.fft(start, axis=1, out=opened[0])
            np.multiply(opened[0], half, out=opened[0])
        for i in range(1, b):
            np.multiply(opened[i - 1], full, out=opened[i])
        times = [t0 + step * h for step in range(n, n + b)]
        failed = None
        if substep is not None:
            v = np.fft.ifft(opened[:b], axis=-1, out=mids[:b])
            try:
                substep(v[0], times[0])
            except VfsimError as exc:
                failed = 0, exc
            else:
                np.fft.fft(v[0], axis=1, out=opened[0])
        elif guard is not None:
            # the first step the horizon does not clear (0 for a NaN horizon)
            s = 0 if horizon is None else bisect_left(times, horizon())
            if s < b:
                v = np.fft.ifft(opened[s:b], axis=-1, out=mids[:b - s])
                failed = guard(v, times[s:])
                if failed is not None:
                    failed = s + failed[0], failed[1]
        dev = np.abs(np.matmul(ends, opened[:b, :, :, None], out=nodes[:b]))
        over = np.flatnonzero(dev.max(axis=(1, 2, 3)) > boundary_tol)
        if failed is not None and (not over.size or failed[0] <= over[0]):
            i, exc = failed
            if i:
                back = np.fft.ifft(opened[i - 1] * half, axis=1)
            else:
                back = start if start is not None else np.fft.ifft(spec * half, axis=1)
            yield times[i], back, exc
            return
        if over.size:
            i = int(over[0])
            halt = BoundaryContaminated(t0 + (n + i + 1) * h, float(dev[i].max()), boundary_tol)
            yield halt.time, np.fft.ifft(opened[i] * half, axis=1), halt
            return
        n += b
        spec, start = opened[b - 1], None
        if n % sample_every == 0 or n == n_steps:
            start = np.fft.ifft(spec * half, axis=1)
            yield t0 + n * h, start, None


def _fourier_multiply(f: ComplexField, multiplier) -> ComplexField:
    """ifft(fft(f - background) * multiplier(xi)) + background, on f's grid.

    The multiplier array is built after the forward transform and dropped
    after the product, so it is never alive beside the transforms: at
    M = 65,536 each array is 1 MiB of the run's peak.
    """
    spec = np.fft.fft(f.values - f.background)
    spec *= multiplier(f.grid.wavenumbers)
    return ComplexField(grid=f.grid, values=np.fft.ifft(spec) + f.background,
                        background=f.background)


def linear_propagate(f: ComplexField, gamma: float, t: float) -> ComplexField:
    """Exact solution at time t of  i df/dt + gamma * d^2f/dsigma^2 = 0.

    Applied as the Fourier multiplier exp(-i*gamma*xi^2*t) on the
    zero-background part; the background (a constant, hence invariant
    under the flow) is re-added.
    """
    return _fourier_multiply(f, lambda xi: np.exp(-1j * gamma * xi**2 * t))


def derivative(f: ComplexField, order: int = 1) -> ComplexField:
    """Spectral derivative d^order/dsigma^order of (f - background).

    The result has background 0 (constants differentiate to zero).
    """
    xi = f.grid.wavenumbers
    spec = np.fft.fft(f.values - f.background)
    spec *= (1j * xi) ** order
    return ComplexField(grid=f.grid, values=np.fft.ifft(spec), background=0.0)


def quad_trapezoid(grid: Grid1D, samples: np.ndarray) -> float:
    """Periodic trapezoid rule h * sum(g_i) on real samples; exact degree of
    an FFT grid.  Complex samples are a TypeError, not cut to their real part.
    """
    if np.iscomplexobj(samples):
        raise TypeError("quad_trapezoid takes real samples")
    return float(grid.spacing * np.sum(samples))


def shift_field(f: ComplexField, displacement: float) -> ComplexField:
    """Evaluate f(sigma - displacement) by the exact Fourier shift."""
    return _fourier_multiply(f, lambda xi: np.exp(-1j * xi * displacement))


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
    """Read a CSV written by write_fields_csv: (sigma nodes, field arrays).
    A malformed file raises ValueError."""
    with warnings.catch_warnings():  # numpy warns on an empty file, then fails
        warnings.filterwarnings("ignore", "genfromtxt: Empty input file")
        try:
            data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
        except IndexError:
            raise ValueError(f"{path} has no header row") from None
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
