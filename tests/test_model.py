import math

import numpy as np
import pytest

from strata_lab import GOLDEN_MEAN, Potential


def test_golden_mean_value():
    assert GOLDEN_MEAN == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)
    assert 0.0 < GOLDEN_MEAN < 1.0


class TestPotential:
    def test_amo_coefficients(self):
        pot = Potential.amo(2.0)
        assert pot.coeffs_dict() == {-1: (2 + 0j), 1: (2 + 0j)}
        assert pot.k0 == 1
        assert pot.is_even

    def test_eval_matches_cosine(self):
        lam = 1.3
        pot = Potential.amo(lam)
        thetas = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(np.real(pot.eval_theta(thetas)),
                                   2.0 * lam * np.cos(2.0 * np.pi * thetas),
                                   atol=1e-12)

    def test_eval_z_matches_eval_theta(self, laurent):
        pot = Potential.amo(0.7)
        for theta in (0.0, 0.21, 0.9):
            z = np.exp(2j * np.pi * theta)
            assert complex(laurent(pot, z)) == pytest.approx(
                complex(pot.eval_theta(theta)), abs=1e-12)

    def test_complexified_phase(self, laurent):
        pot = Potential.amo(2.0)
        theta, eps = 0.3, 0.2
        z = np.exp(2j * np.pi * (theta + 1j * eps))
        assert complex(pot.eval_theta(theta, eps)) == pytest.approx(
            complex(laurent(pot, z)), abs=1e-12)

    def test_strip_guard(self):
        pot = Potential.amo(2.0)  # eta = 0.5
        with pytest.raises(ValueError):
            pot.eval_theta(0.1, 0.7)
        with pytest.raises(ValueError):
            pot.eval_theta(np.array([0.1]), [0.2, -0.7])

    def test_reality_enforced(self):
        with pytest.raises(ValueError):
            Potential({1: 1.0})
        with pytest.raises(ValueError):
            Potential({1: 1.0 + 0.5j, -1: 1.0 + 0.5j})

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            Potential({1: 1.0, -1: 1.0}, eta=0.0)

    def test_odd_harmonic_is_not_even(self):
        pot = Potential({1: 1.0 + 0.5j, -1: 1.0 - 0.5j})
        assert not pot.is_even

    def test_zero_potential(self):
        free = Potential.zero()
        assert free.k0 == 0
        np.testing.assert_allclose(
            np.real(free.eval_theta(np.linspace(0.0, 1.0, 5))), 0.0, atol=0.0)

    def test_preset_round_trip(self):
        assert (Potential.from_preset("amo(2.0)").coeffs_dict()
                == Potential.amo(2.0).coeffs_dict())
        assert Potential.from_preset("zero").k0 == 0
        with pytest.raises(ValueError):
            Potential.from_preset("cos(2)")

    def test_dict_round_trip(self):
        pot = Potential({2: 0.5 + 0.25j, -2: 0.5 - 0.25j, 0: 1.0}, eta=0.3)
        back = Potential.from_dict(pot.to_dict())
        assert back.coeffs_dict() == pot.coeffs_dict()
        assert back.eta == pot.eta
