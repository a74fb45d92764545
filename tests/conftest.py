"""Shared fixtures: random sphere families, a sweeping spine and catalog inventories."""

import numpy as np
import pytest

from canalgeo.envelope import FamilyJet, SphereFamily

TWO_PI = 2.0 * np.pi


def make_fourier_family(rng, dim_n, name="fourier", rho0=None, ramp=None):
    """A random 1-parameter sphere family with exact trig derivatives.

    The spine is a circle of radius ~2 plus small second-harmonic wobble in
    every coordinate; the radius gets a first-harmonic swing.  With the
    default ``rho0`` and ``ramp`` the amplitudes keep |c'| well above |rho'|
    at every t, so the family is spacelike by construction; callers can
    override either to build fat (self-intersecting) or causally mixed
    families.
    """
    base = 2.0 + 0.3 * rng.random()
    amp = 0.08 * rng.standard_normal((2, dim_n))
    if rho0 is None:
        rho0 = 0.35 + 0.1 * rng.random()
    if ramp is None:
        ramp = 0.04 * rng.standard_normal()

    def jet2(t):
        t = float(np.asarray(t).reshape(-1)[0])
        c = np.zeros(dim_n)
        dc = np.zeros(dim_n)
        d2c = np.zeros(dim_n)
        c[0], c[1] = base * np.cos(t), base * np.sin(t)
        dc[0], dc[1] = -base * np.sin(t), base * np.cos(t)
        d2c[0], d2c[1] = -base * np.cos(t), -base * np.sin(t)
        c = c + amp[0] * np.cos(2 * t) + amp[1] * np.sin(2 * t)
        dc = dc - 2 * amp[0] * np.sin(2 * t) + 2 * amp[1] * np.cos(2 * t)
        d2c = d2c - 4 * amp[0] * np.cos(2 * t) - 4 * amp[1] * np.sin(2 * t)
        return FamilyJet(
            c=c,
            dc=dc.reshape(1, -1),
            d2c=d2c.reshape(1, 1, -1),
            rho=rho0 + ramp * np.sin(t),
            drho=np.array([ramp * np.cos(t)]),
            d2rho=np.array([[-ramp * np.sin(t)]]),
        )

    return SphereFamily(dim_n=dim_n, r=1, jet2=jet2, domain=((0.0, TWO_PI),), name=name)


@pytest.fixture
def fourier_families():
    return make_fourier_family


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def spiral_samples():
    """Samples of a thin tube whose spine tangent (sin t cos 12t, sin t sin 12t, cos t)
    sweeps the sphere, as the data of a ``sampled`` family: no chart frame exists."""
    ts = np.linspace(0.0, np.pi, 200)
    tangent = np.stack([np.sin(ts) * np.cos(12 * ts), np.sin(ts) * np.sin(12 * ts), np.cos(ts)], 1)
    steps = 0.5 * (tangent[1:] + tangent[:-1]) * np.diff(ts)[:, None]
    centers = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    return {"t": ts.tolist(), "centers": centers.tolist(), "radii": [0.01] * len(ts)}
