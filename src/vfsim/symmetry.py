"""Symmetry tags of filament data and the orbit layout they induce.

A tag is the generator of a symmetry of the N-filament data: a
permutation pi of the filaments and a unit factor rho with
Psi_pi(j) = rho Psi_j, so that only one filament per orbit (its
representative) carries independent data.  ``Orbits`` maps the
representatives back to all filaments, and ``pair_rows`` lists the pair
differences the representatives' interaction sums need; the filament
integrator (``vfsim.filaments``) evolves tagged data on these alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .point_vortex import VortexConfig

SYMMETRY_TOL = 1e-12  # relative mismatch a symmetry tag tolerates


@dataclass(frozen=True)
class Symmetry:
    """The generator of a symmetry of the data: Psi_{perm[j]} = factor Psi_j.

    ``perm`` permutes the filaments and ``factor`` is a unit complex number.
    Each orbit r, perm[r], perm[perm[r]], ... is represented by its lowest
    index r, and its fields are u_{perm^m(r)} = a_m u_r with a_0 = 1 and
    a_m = a_(m-1) * factor.  An orbit along which factor never returns to 1
    (a centre vortex fixed by a rotation) carries u = 0 and no
    representative.  ``name`` is what a run reports, e.g. "C4+center".
    """

    perm: tuple[int, ...]
    factor: complex
    name: str


def rotation_symmetry(cfg: VortexConfig) -> Symmetry | None:
    """C_N of a regular polygon with equal outer circulations, else None.

    The outer vortices turn into each other (perm shifts them by one,
    factor exp(2 pi i / N)); a centre vortex is a fixed point, so its
    perturbation is 0.
    """
    offset = 1 if cfg.has_center else 0
    n = cfg.count - offset
    if n < 2:
        return None
    perm = tuple(range(offset)) + tuple(offset + (m + 1) % n for m in range(n))
    name = f"C{n}" + ("+center" if cfg.has_center else "")
    sym = Symmetry(perm=perm, factor=complex(np.exp(2j * np.pi / n)), name=name)
    return sym if backbone_mismatch(sym, cfg) is None else None


def point_reflection() -> Symmetry:
    """u_{j+2} = -u_j on four filaments: the antisymmetric square."""
    return Symmetry(perm=(2, 3, 0, 1), factor=-1.0 + 0.0j, name="point_reflection")


def backbone_mismatch(sym: Symmetry, cfg: VortexConfig) -> str | None:
    """Why ``sym`` is not a symmetry of the backbone, or None if it is."""
    n = cfg.count
    if sorted(sym.perm) != list(range(n)):
        return f"perm {sym.perm} is not a permutation of {n} filaments"
    if not abs(abs(sym.factor) - 1.0) <= SYMMETRY_TOL:
        return f"factor {sym.factor!r} is not a unit"
    perm = list(sym.perm)
    x, g = cfg.positions, cfg.circulations
    if not np.max(np.abs(x[perm] - sym.factor * x)) <= SYMMETRY_TOL * max(
        1.0, float(np.max(np.abs(x)))
    ):
        return f"the backbone is not invariant under {sym.name}"
    if not np.max(np.abs(g[perm] - g)) <= SYMMETRY_TOL * max(
        1.0, float(np.max(np.abs(g)))
    ):
        return f"the circulations are not invariant under {sym.name}"
    return None


class Orbits:
    """Orbit representatives of a symmetry and the map back to all filaments.

    ``reps`` are the representatives in ascending order; filament j has
    u_j = coef[j] * (representative row source[j]).  Without a symmetry
    every filament is its own orbit and ``trivial`` is set.
    """

    def __init__(self, sym: Symmetry | None, n: int):
        self.trivial = sym is None
        if sym is None:
            self.reps = self.source = np.arange(n)
            self.coef = np.ones(n, dtype=np.complex128)
            return
        reps, seen = [], set()
        self.source = np.zeros(n, dtype=np.intp)
        self.coef = np.zeros(n, dtype=np.complex128)
        for r in range(n):
            if r in seen:
                continue
            orbit, powers = [r], [1.0 + 0.0j]
            while sym.perm[orbit[-1]] != r:
                orbit.append(sym.perm[orbit[-1]])
                powers.append(powers[-1] * sym.factor)
            seen.update(orbit)
            if abs(powers[-1] * sym.factor - 1.0) <= 1e-9:
                self.source[orbit] = len(reps)
                self.coef[orbit] = powers
                reps.append(r)
        self.reps = np.array(reps, dtype=np.intp)

    def expand(self, rep_vals: np.ndarray) -> np.ndarray:
        """All N rows from the representatives' rows, u_j = coef_j u_source(j)."""
        if self.trivial:
            return rep_vals.copy()
        return self.coef[:, None] * rep_vals[self.source]


def pair_rows(cfg: VortexConfig, orbits: Orbits):
    """The distinct pair rows the representatives' sums need.

    Returns (rows, gather, weights, coeffs).  ``rows`` are (j, k) index
    arrays, j < k, in row-major order: the filament pair kernel evaluates
    psi = X_jk + u_j - u_k on these alone, and ``coeffs`` holds u_j - u_k
    as a combination of the representatives' rows.  The ordered pair
    (r, k) of representative r is, as a function of the orbit data, +-1
    times a row: pairs with equal (X_jk, coefficient vector), or equal up
    to sign, share one row.  ``gather[i, m]`` is the row of the m-th
    k != r of representative i, in ascending k, and ``weights[i, m]`` is
    that sign times Gamma_k.  Without a symmetry the rows are all the
    unordered pairs.
    """
    n, reps = cfg.count, orbits.reps
    tol = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(cfg.positions), initial=0.0)))
    x, g = cfg.positions.tolist(), cfg.circulations.tolist()
    source, coef = orbits.source.tolist(), orbits.coef.tolist()

    def key(j: int, k: int) -> tuple:
        # X_jk and the coefficients of u_j - u_k over the representatives
        c = [0j] * reps.size
        c[source[j]] += coef[j]
        c[source[k]] -= coef[k]
        return (x[j] - x[k], *c)

    def close(a: tuple, b: tuple, sign: float) -> bool:
        return all(abs(p - sign * q) <= tol for p, q in zip(a, b))

    # only rows over the same representatives (-1: an orbit with u = 0)
    # can match
    rows, keys, buckets, gather, weights = [], [], {}, [], []
    for r in reps.tolist():
        for k in (k for k in range(n) if k != r):
            rk = key(r, k)
            ends = sorted(source[q] if coef[q] else -1 for q in (r, k))
            bucket = buckets.setdefault(tuple(ends), [])
            for d in bucket:
                if close(rk, keys[d], 1.0):
                    sign = 1.0
                    break
                if close(rk, keys[d], -1.0):
                    sign = -1.0
                    break
            else:
                d, sign = len(rows), 1.0 if r < k else -1.0
                rows.append((min(r, k), max(r, k)))
                keys.append(tuple(sign * q for q in rk))
                bucket.append(d)
            gather.append(d)
            weights.append(sign * g[k])

    order = sorted(range(len(rows)), key=rows.__getitem__)
    j, k = (np.array([rows[d][e] for d in order], dtype=np.intp) for e in (0, 1))
    position = np.argsort(np.array(order, dtype=np.intp))
    coeffs = np.array([keys[d][1:] for d in order], dtype=np.complex128).reshape(
        len(rows), reps.size
    )
    shape = (reps.size, n - 1)
    return (
        (j, k),
        position[np.array(gather, dtype=np.intp)].reshape(shape),
        # complex, so that the kernel's product needs no cast buffer
        np.array(weights, dtype=np.complex128).reshape(shape + (1,)),
        coeffs,
    )
