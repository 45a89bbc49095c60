"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

from vfsim import filaments, grid


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one at every numpy.fft.fft or ifft call made
    outside ``grid.derivative``, where energies() and the profile's energy
    samples differentiate each snapshot."""
    calls = []
    skip = grid.derivative.__code__
    for name in ("fft", "ifft"):
        exact = getattr(np.fft, name)

        def counted(*args, _exact=exact, **kwargs):
            if sys._getframe(1).f_code is not skip:
                calls.append(1)
            return _exact(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def guarded_shapes(monkeypatch):
    """A list that grows by the shape of psi, (steps, rows, M), at every call
    of ``filaments._separation_halt``, the free-flow guard's check."""
    shapes = []
    exact = filaments._separation_halt

    def counted(psi, *args):
        shapes.append(psi.shape)
        return exact(psi, *args)

    monkeypatch.setattr(filaments, "_separation_halt", counted)
    return shapes
