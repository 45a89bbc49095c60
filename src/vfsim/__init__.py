"""vfsim: numerics for systems of nearly parallel vortex filaments.

The package provides four layers that build on each other:

* ``vfsim.grid``: periodic grid, exact Fourier linear propagation,
  spectral differentiation and quadrature.
* ``vfsim.point_vortex``: the planar point-vortex backbone, its relative
  equilibria (polygons, with or without a center vortex), conserved
  quantities, RK4 integration and linear stability spectra.
* ``vfsim.reduced`` / ``vfsim.traveling_wave``: dynamics of a single
  complex profile riding on a rigidly rotating backbone, covering
  split-step evolution, energy diagnostics, Galilean boosts, travelling
  waves and the exact self-similar collision profile.
* ``vfsim.filaments``: the full coupled system of filament
  perturbations, with energy bookkeeping, square/segment/hexagon
  identities and run guards.

``vfsim.cli`` exposes all scenario presets as the ``vfsim`` command.
"""

__version__ = "0.1.0"
