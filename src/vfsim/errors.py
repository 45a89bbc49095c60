"""Exception types shared across the package.

Each run-ending condition has its own class so the command line runner
can map it to a stable exit code (see ``vfsim.runner.EXIT_CODES``).
"""


class VfsimError(Exception):
    """Base class for all package errors."""


class InvalidGrid(VfsimError):
    """Grid construction parameters are unusable (odd M, L <= 0, ...)."""


class ConfigError(VfsimError):
    """A scenario configuration is malformed.

    ``field`` holds the dotted path of the offending entry, e.g. "grid.M".
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class CollisionDetected(VfsimError):
    """Two filaments (or point vortices) came closer than the guard distance."""

    def __init__(self, time: float, sigma: float, pair: tuple[int, int]):
        self.time = time
        self.sigma = sigma
        self.pair = pair
        super().__init__(
            f"collision at t={time:.6g}, sigma={sigma:.6g}, pair={pair}"
        )


class BoundaryContaminated(VfsimError):
    """A field stopped being flat at the domain ends; truncation is no longer valid."""

    def __init__(self, time: float, deviation: float, tol: float):
        self.time = time
        super().__init__(
            f"boundary deviation {deviation:.3e} exceeded tolerance {tol:.3e} "
            f"at t={time:.6g}"
        )


class EnergyCapExceeded(VfsimError):
    """A sampled energy went over the cap; a filament run halts on it.

    ``filaments.evolve_samples`` yields it as its halt, never raises it.
    """

    def __init__(self, time: float, energy: float, cap: float):
        self.time = time
        self.energy = energy
        self.cap = cap
        super().__init__(f"energy {energy:.6e} exceeded the cap {cap:.6e} at t={time:.6g}")


class NumericalGuard(VfsimError):
    """A numerical safety check tripped (step size, modulus floor, ...)."""


class IncompatibleWavenumber(VfsimError):
    """A Galilean boost velocity does not sit on the grid's wavenumber lattice."""


class InvalidPolygon(VfsimError):
    """Polygon equilibrium parameters are unusable (N too small, R <= 0)."""


class NearCollision(VfsimError):
    """Two point vortices came closer than the guard distance.

    ``time`` is None when the violation is in a static configuration.
    """

    def __init__(self, distance: float, time: float | None = None):
        self.distance = distance
        self.time = time
        when = "" if time is None else f" at t={time:.6g}"
        super().__init__(f"vortex separation {distance:.3e} below guard{when}")


class ZeroModulus(VfsimError):
    """The profile modulus fell below the floor guarding the 1/|Phi|^2 term."""

    def __init__(self, min_mod: float, floor: float, time: float | None = None):
        self.min_mod = min_mod
        self.time = time
        when = "" if time is None else f" at t={time:.6g}"
        super().__init__(f"min |Phi| = {min_mod:.3e} below floor {floor:.3e}{when}")


class PreconditionViolated(VfsimError):
    """An operation was called outside its stated domain of validity."""


class GinzburgViolated(VfsimError):
    """Small energy failed to control the modulus deviation.

    Indicates the energy threshold was chosen too large for the grid, or the
    field is contaminated at the boundary.
    """

    def __init__(self, energy: float, sup_dev: float, eta1: float):
        super().__init__(
            f"energy {energy:.3e} is below eta1 {eta1:.3e} but the modulus "
            f"deviation {sup_dev:.3e} exceeds 1/4"
        )


class DomainError(VfsimError):
    """An argument lies outside the mathematical domain of the operation."""


class NoRoot(VfsimError):
    """A bracketing root search found no sign change."""


class EtaEscaped(VfsimError):
    """The wave amplitude left its invariant interval during integration."""

    def __init__(self, sigma: float, value: float, ceiling: float):
        super().__init__(
            f"eta = {value:.6g} outside [0, {ceiling:.6g}] at sigma = {sigma:.6g}"
        )


class BoundViolated(VfsimError):
    """A constructed object failed one of its certified bounds."""


class WrongConfig(VfsimError):
    """The backbone configuration does not match what the identity assumes."""


class WrongN(WrongConfig):
    """An operation specific to one filament count was called with another."""
