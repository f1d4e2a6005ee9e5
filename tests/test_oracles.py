"""The test oracles' own gates."""

import numpy as np
import pytest

from tests.oracles import orbit_error


def circle(radius, n, phase=0.0, dims=4):
    """n uniform samples of a circle of the given radius in the plane of
    the first two of dims coordinates, the first at the given phase (in
    sample steps)."""
    theta = 2 * np.pi * (np.arange(n) + phase) / n
    X = np.zeros((n, dims))
    X[:, 0], X[:, 1] = radius * np.cos(theta), radius * np.sin(theta)
    return X


def floor(n):
    """The sampling floor of n uniform samples of a circle, over its radius."""
    return 2 * np.sin(np.pi / (2 * n))


class TestOrbitError:
    def test_zero_against_itself(self):
        X = circle(0.7, 400) + 0.1 * np.random.default_rng(1).standard_normal((400, 4))
        assert orbit_error(X, X) == 0.0

    def test_a_phase_shift_changes_nothing(self):
        # either set rolled cyclically: the same point sets, the same error
        rng = np.random.default_rng(2)
        a = circle(1.1, 300) + 0.05 * rng.standard_normal((300, 4))
        b = circle(1.0, 700)
        ref = orbit_error(a, b)
        assert ref > 0.0
        for k in (1, 37, 299):
            assert orbit_error(np.roll(a, k, axis=0), b) == ref
            assert orbit_error(a, np.roll(b, 2 * k, axis=0)) == ref

    def test_both_directions_count(self):
        # the upper half of a circle lies on the whole circle, but the
        # whole circle's lowest point lies sqrt(2) radii from the half,
        # either way round
        n = 4000
        half = circle(1.0, n)[:n // 2 + 1]
        for a, b in ((half, circle(1.0, n)), (circle(1.0, n), half)):
            assert abs(orbit_error(a, b) - np.sqrt(2.0)) <= floor(n)

    @pytest.mark.parametrize("r", [0.9, 0.99, 1.0, 1.05])
    def test_concentric_circles_read_the_radius_error(self, r):
        # a ROM orbit of 4000 samples against a FOM orbit of 30000: the
        # relative radius error, within the coarser set's floor (which a
        # FOM sample midway between two ROM samples reaches, to round-off)
        R = 1.3
        got = orbit_error(circle(r * R, 4000, phase=0.3), circle(R, 30000))
        assert abs(got - abs(r - 1.0)) <= floor(4000) * (1.0 + 1e-9)

    @pytest.mark.parametrize("n,expect", [(4000, 7.853981e-4), (30000, 1.047198e-4)])
    def test_the_sampling_floor(self, n, expect):
        # one circle against itself sampled half a step later: every sample
        # of each lies midway between two of the other, 2 sin(pi / 2n) of
        # the radius away (0.0785% at 4000 samples, 0.0105% at 30000)
        got = orbit_error(circle(2.0, n, phase=0.5), circle(2.0, n))
        assert abs(got - floor(n)) <= 1e-9 * floor(n)
        assert abs(got - expect) <= 1e-9
