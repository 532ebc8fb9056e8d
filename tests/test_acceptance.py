"""End-to-end acceptance gates, one test per criterion.

Each test runs its full criterion fixture and prints the one-line
pass/fail record before asserting, so `pytest -v -s` doubles as the
acceptance report.
"""

import numpy as np
import pytest

from strata_lab import acceptance, lyapunov_n, spectral_localization
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


# ------------------------------------------------ the Diophantine hypothesis
# Negative controls for c9 at a frequency that is not Diophantine at the
# sizes the gate runs: alpha = [0; 3, 1, 1, a4, 1, 1, ...], whose convergent
# 2/7 is followed by the large partial quotient a4. The Lyapunov exponent
# stays log 2 (Herman's bound) while localization fails; the golden-mean
# gates themselves are the pins and c9 above.

def _near_rational(a4):
    x = a4 + (5 ** 0.5 - 1) / 2  # [a4; 1, 1, ...], the golden tail
    for a in (1, 1, 3):
        x = a + 1 / x
    return 1 / x


def test_c9_fails_near_a_rational_frequency():
    alpha = _near_rational(10 ** 6)
    assert abs(alpha - 2 / 7) < 1e-7
    L = float(lyapunov_n(acceptance._AMO2, alpha, 0.0, 4096, 0.0, 1024)[0])
    rates = [r["decay_rate"] for r in acceptance._rows(
        "localize", "localize_summary.csv", {"alpha": alpha})]
    assert max(rates) < 0.1 * L
    # c9's decay half: the median rate within 2% of log 2
    log2 = acceptance._LOG2
    assert not abs(float(np.median(rates)) - log2) <= 0.02 * log2
    # c9's scan half: all 20 scans at its ldt settings clear
    scans = acceptance._rows("ldt", "resonance_scan.csv", {
        "alpha": alpha, "n": 100, "ldt": {
            "threshold": 0.10, "grid_per_n": 8192, "scan_count": 20}},
        E=0.5, seed=11, geom_name="")
    assert len(scans) == 20
    assert not all(r["clear"] for r in scans)
