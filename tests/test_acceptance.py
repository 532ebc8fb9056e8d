"""End-to-end acceptance gates, one test per criterion.

Each test runs its full criterion fixture and prints the one-line
pass/fail record before asserting, so `pytest -v -s` doubles as the
acceptance report.
"""

import pytest

from strata_lab import acceptance, spectral_localization
from strata_lab.acceptance import run_criterion


def check(number):
    rec = run_criterion(number)
    flag = "PASS" if rec.passed else "FAIL"
    print(f"[{flag}] criterion {rec.criterion:2d} {rec.name}: {rec.observed}")
    assert rec.passed, rec.observed


def test_criterion_01_acceleration_integrality():
    check(1)


def test_criterion_02_zero_count_vs_acceleration():
    check(2)


def test_criterion_03_zero_symmetries():
    check(3)


def test_criterion_04_green_function_suite():
    check(4)


def test_criterion_05_riesz_decomposition():
    check(5)


def test_criterion_06_jensen_identity():
    check(6)


def test_criterion_07_riesz_mass():
    check(7)


def test_criterion_08_ids_holder():
    check(8)


def test_criterion_09_localization_diagnostics():
    check(9)


def test_criterion_10_lyapunov_convergence_rate():
    check(10)


def test_criterion_11_expansion_identity():
    check(11)


def test_criterion_12_determinism():
    check(12)


# c11's eigenpair half under four wrong expansions; each must fail the gate
_EXPANSION = spectral_localization._window_expansion


def _zero(*args):
    return 0.0


def _raises(*args):
    # every window raises: the localize rows carry no residual (nan)
    raise ValueError("no expansion")


def _swapped_boundary(potential, alpha, theta, E, phi, window, y):
    l1, l2 = window
    phi = phi.copy()
    phi[l1 - 1], phi[l2 + 1] = phi[l2 + 1], phi[l1 - 1]
    return _EXPANSION(potential, alpha, theta, E, phi, window, y)


def _window_off_by_one(potential, alpha, theta, E, phi, window, y):
    # determinants of the window one site to the right, boundary values of
    # the window itself
    return _EXPANSION(potential, alpha, theta + alpha, E, phi, window, y)


@pytest.mark.parametrize("mutant", [_zero, _swapped_boundary,
                                    _window_off_by_one, _raises])
def test_criterion_11_fails_on_a_wrong_expansion(mutant, monkeypatch):
    monkeypatch.setattr(spectral_localization, "_window_expansion", mutant)
    worst = acceptance._c11_eigenpair_residual()
    assert worst > acceptance._C11_EIGENPAIR_BOUND
