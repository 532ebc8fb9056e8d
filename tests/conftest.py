"""Shared fixtures: the coupling-2 almost Mathieu model at the golden mean."""

import numpy as np
import pytest

from strata_lab import GOLDEN_MEAN, Potential


@pytest.fixture(scope="session")
def amo2():
    return Potential.amo(2.0)


@pytest.fixture(scope="session")
def free():
    return Potential.zero()


@pytest.fixture(scope="session")
def golden():
    return GOLDEN_MEAN


@pytest.fixture(scope="session")
def dense_box():
    """Dense real-symmetric Dirichlet box, the small-n determinant oracle."""

    def build(potential, alpha, theta, n):
        d = np.array([float(np.real(potential.eval_theta(theta + j * alpha)))
                      for j in range(n)])
        H = np.diag(d)
        if n > 1:
            H += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        return H

    return build


@pytest.fixture(scope="session")
def laurent():
    """The Laurent form sum_k c_k z^k at complex z, term by term: the oracle
    for `Potential.eval_theta` off the real circle, at z = e^{2 pi i (theta +
    i eps)}."""

    def evaluate(potential, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros(z.shape, dtype=np.complex128)
        for k, c in sorted(potential.coeffs_dict().items()):
            out = out + c * z ** k
        return out

    return evaluate
