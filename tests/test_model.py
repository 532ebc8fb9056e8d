import math

import numpy as np
import pytest

from strata_lab import (GOLDEN_MEAN, Frequency, Potential, diophantine_check,
                        phase_resonance_check)
from strata_lab.model import torus_dist


def test_golden_mean_value():
    assert GOLDEN_MEAN == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)
    assert 0.0 < GOLDEN_MEAN < 1.0


def test_torus_dist_scalar():
    assert torus_dist(0.3) == pytest.approx(0.3, abs=1e-15)
    assert torus_dist(0.7) == pytest.approx(0.3, abs=1e-15)
    assert torus_dist(0.0) == 0.0


def test_torus_dist_array_wraps():
    np.testing.assert_allclose(torus_dist(np.array([1.25, -0.25, 3.5])),
                               [0.25, 0.25, 0.5], atol=1e-15)


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

    def test_eval_z_matches_eval_theta(self):
        pot = Potential.amo(0.7)
        for theta in (0.0, 0.21, 0.9):
            z = np.exp(2j * np.pi * theta)
            assert complex(pot.eval_z(z)) == pytest.approx(
                complex(pot.eval_theta(theta)), abs=1e-12)

    def test_complexified_phase(self):
        pot = Potential.amo(2.0)
        theta, eps = 0.3, 0.2
        z = np.exp(2j * np.pi * (theta + 1j * eps))
        assert complex(pot.eval_theta(theta, eps)) == pytest.approx(
            complex(pot.eval_z(z)), abs=1e-12)

    def test_strip_guard(self):
        pot = Potential.amo(2.0)  # eta = 0.5
        with pytest.raises(ValueError):
            pot.eval_theta(0.1, 0.7)
        with pytest.raises(ValueError):
            pot.eval_z(np.exp(2.0 * np.pi * 0.7))

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


class TestFrequency:
    def test_golden_quotients_all_one(self):
        fr = Frequency.golden()
        # float resolution corrupts the deepest few partial quotients
        assert set(fr.quotients[:30]) == {1}
        assert not fr.terminated

    def test_convergent_denominators_are_fibonacci(self):
        fr = Frequency.golden()
        qs = [q for _, q in fr.convergents]
        assert qs[:6] == [1, 2, 3, 5, 8, 13]
        assert fr.denominators(100) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_convergents_approximate_alpha(self):
        fr = Frequency.golden()
        p, q = fr.convergents[-1]
        assert abs(fr.alpha - p / q) < 1.0 / q**2

    def test_rational_terminates(self):
        fr = Frequency(0.5)
        assert fr.terminated
        assert fr.convergents[-1] == (1, 2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.3])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            Frequency(bad)

    def test_from_quotients_recovers_golden(self):
        fr = Frequency.from_quotients([1] * 30)
        assert fr.alpha == pytest.approx(GOLDEN_MEAN, abs=1e-10)


def test_diophantine_golden_ok():
    rep = diophantine_check(Frequency.golden())
    assert rep.ok
    assert rep.margin > 1.0
    assert rep.worst_n >= 2


def test_diophantine_rational_raises():
    with pytest.raises(ValueError):
        diophantine_check(Frequency(0.5))


def test_phase_resonance_generic_phase_ok():
    rep = phase_resonance_check(0.25, Frequency.golden())
    assert rep.ok
    assert rep.margin > 0.0


def test_phase_resonance_detects_constructed_resonance():
    # 2 theta + 5 alpha = 0 mod 1 by construction
    theta = ((-5.0 * GOLDEN_MEAN) % 1.0) / 2.0
    rep = phase_resonance_check(theta, Frequency.golden())
    assert not rep.ok
    assert rep.worst_n == 5
