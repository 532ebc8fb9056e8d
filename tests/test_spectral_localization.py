import math

import numpy as np
import pytest

from strata_lab import (Potential, acceleration, classify_stratum,
                        det_at_phase, det_family, deviation_set,
                        dirichlet_eigenvalues, double_resonance_scan,
                        eigenfunction_decay, expansion_identity_check,
                        expansion_identity_scan, holder_exponent, ids,
                        lyapunov_n, sturm_count)
from strata_lab import transfer_log_norms
from strata_lab.cli_harness import ExperimentConfig, _task_holder
from strata_lab.spectral_localization import (DELTA_LADDER, HOLDER_MIN_N,
                                              DeviationSetGeometry,
                                              dirichlet_diagonal,
                                              dirichlet_eigenpair)

LOG2 = math.log(2.0)


# ------------------------------------------------------------- spectrum

def test_free_three_site_eigenvalues(free, golden):
    spec = dirichlet_eigenvalues(free, golden, 0.0, 3, range(3))
    np.testing.assert_allclose(spec,
                               [-math.sqrt(2.0), 0.0, math.sqrt(2.0)],
                               atol=1e-12)


def test_single_site_spectrum(amo2, golden):
    spec = dirichlet_eigenvalues(amo2, golden, 0.25, 1, [0])
    assert spec.shape == (1,)
    assert spec[0] == pytest.approx(
        float(np.real(amo2.eval_theta(0.25))), abs=1e-12)


# AMO(2) and the two-harmonic potentials f = 2 l1 cos 2 pi theta
# + 2 l2 cos 4 pi theta with (l1, l2) = (1.6, 1.0) and (0.6, 1.6)
_BOX_POTENTIALS = {"amo2": {1: 2.0, -1: 2.0},
                   "l1=1.6,l2=1.0": {1: 1.6, -1: 1.6, 2: 1.0, -2: 1.0},
                   "l1=0.6,l2=1.6": {1: 0.6, -1: 0.6, 2: 1.6, -2: 1.6}}
# index sets of an n-site box: all, a middle run, the first and the last;
# and three that are refused, an index before the box, one past it and a
# list not ascending
_INDEX_SETS = {"all": lambda n: range(n),
               "middle": lambda n: range(n // 3, n - n // 3),
               "ends": lambda n: sorted({0, n - 1}),
               "before_start": lambda n: [-1],
               "past_end": lambda n: [0, n],
               "not_ascending": lambda n: [n - 1, 0]}


@pytest.mark.parametrize("which", list(_INDEX_SETS))
@pytest.mark.parametrize("n", [1, 2, 40, 300])
@pytest.mark.parametrize("coeffs", list(_BOX_POTENTIALS.values()),
                         ids=list(_BOX_POTENTIALS))
def test_eigenvalues_match_dense_solver(golden, dense_box, coeffs, n, which):
    pot = Potential(coeffs)
    indices = list(_INDEX_SETS[which](n))
    if which in ("before_start", "past_end", "not_ascending"):
        with pytest.raises(ValueError):
            dirichlet_eigenvalues(pot, golden, 0.3, n, indices)
        return
    spec = dirichlet_eigenvalues(pot, golden, 0.3, n, indices)
    oracle = np.linalg.eigvalsh(dense_box(pot, golden, 0.3, n))[indices]
    np.testing.assert_allclose(spec, oracle, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 3, 2 ** 40])
def test_phase_plus_an_integer_is_the_same_phase(amo2, golden, m):
    theta = 0.3125     # theta + m is exact, so its reduction must be theta
    for th in (theta, theta + m):
        assert np.array_equal(dirichlet_diagonal(amo2, golden, th, 500),
                              dirichlet_diagonal(amo2, golden, theta, 500))
        assert np.array_equal(
            transfer_log_norms(amo2, golden, [th], 0.7, [0.0, 0.01], 200),
            transfer_log_norms(amo2, golden, [theta], 0.7, [0.0, 0.01], 200))
    assert sturm_count(amo2, golden, theta + m, 0.7, 300) == \
        sturm_count(amo2, golden, theta, 0.7, 300)


def test_huge_phase_equals_its_reduction(amo2, golden):
    # 1e300 and 1e17 are integers in floating point: theta + j alpha would
    # round to theta, a constant diagonal, without the reduction
    for huge in (1e300, 1e17):
        d = dirichlet_diagonal(amo2, golden, huge, 1000)
        assert np.array_equal(d, dirichlet_diagonal(amo2, golden, 0.0, 1000))
        assert len(np.unique(d)) > 990
        assert det_at_phase(amo2, golden, huge, 0.7, 50) == \
            det_at_phase(amo2, golden, 0.0, 0.7, 50)


def test_phase_batches_equal_one_phase_at_a_time(amo2, golden):
    thetas = np.array([[0.0, 0.3125], [0.7, 2.0 ** 40 + 0.5]])
    Es = np.array([[-2.0, 0.5, 1.5], [3.0, -0.7, 4.2]])
    d = dirichlet_diagonal(amo2, golden, thetas, 200)
    counts = sturm_count(amo2, golden, thetas, Es, 200)
    assert d.shape == (200, 2, 2) and counts.shape == (2, 2, 2, 3)
    for i, j in np.ndindex(thetas.shape):
        theta = thetas[i, j]
        assert np.array_equal(d[:, i, j],
                              dirichlet_diagonal(amo2, golden, theta, 200))
        assert np.array_equal(counts[i, j],
                              sturm_count(amo2, golden, theta, Es, 200))
    assert sturm_count(amo2, golden, 0.3, 0.5, 200).shape == ()


def test_sturm_count_matches_spectrum(amo2, golden):
    n = 150
    spec = dirichlet_eigenvalues(amo2, golden, 0.37, n, range(n))
    rng = np.random.default_rng(9)
    Es = rng.uniform(-6.5, 6.5, size=15)
    counts = sturm_count(amo2, golden, 0.37, Es, n)
    for E, c in zip(Es, counts):
        assert c == np.searchsorted(spec, E, side="left")


def test_eigenpair_residual_and_normalization(amo2, golden, dense_box):
    n = 60
    lam = dirichlet_eigenvalues(amo2, golden, 0.0, n, [30])
    (logs, sign), = dirichlet_eigenpair(amo2, golden, 0.0, n, lam)
    v = sign * np.exp(logs)
    H = dense_box(amo2, golden, 0.0, n)
    assert np.linalg.norm(H @ v - lam[0] * v) < 1e-9
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[int(np.argmax(np.abs(v)))] > 0  # deterministic sign convention


def test_twisted_log_profile_matches_dense_eigh(amo2, golden, dense_box):
    n = 60
    _, oracle = np.linalg.eigh(dense_box(amo2, golden, 0.0, n))
    lams = dirichlet_eigenvalues(amo2, golden, 0.0, n, range(n))
    pairs = dirichlet_eigenpair(amo2, golden, 0.0, n, lams)
    assert len(pairs) == n
    for index, (logs, sign) in enumerate(pairs):
        v = oracle[:, index]
        v = v * np.sign(v[np.argmax(np.abs(v))])
        seen = np.abs(v) > 1e-12
        np.testing.assert_allclose(logs[seen], np.log(np.abs(v[seen])),
                                   rtol=0.0, atol=1e-9)
        assert np.array_equal(sign[seen], np.sign(v[seen]))


def test_eigenpair_batch_equals_one_eigenvalue_at_a_time(amo2, golden):
    lams = dirichlet_eigenvalues(amo2, golden, 0.2, 500, [3, 250, 251, 499])
    pairs = dirichlet_eigenpair(amo2, golden, 0.2, 500, lams)
    for (logs, sign), lam in zip(pairs, lams):
        (one_logs, one_sign), = dirichlet_eigenpair(amo2, golden, 0.2, 500,
                                                    [lam])
        assert np.array_equal(one_logs, logs)
        assert np.array_equal(one_sign, sign)


# ----------------------------------------------------------------- decay

def test_localized_state_decays_at_lyapunov_rate(amo2, golden):
    lam = dirichlet_eigenvalues(amo2, golden, 0.0, 600, [300])
    prof, = eigenfunction_decay(amo2, golden, 0.0, 600, lam)
    assert prof.is_localized()
    assert prof.decay_rate == pytest.approx(LOG2, rel=0.15)


def test_free_state_is_not_localized(free, golden):
    lam = dirichlet_eigenvalues(free, golden, 0.2, 600, [300])
    prof, = eigenfunction_decay(free, golden, 0.2, 600, lam)
    assert not prof.is_localized()
    assert abs(prof.decay_rate) < 0.05 or math.isnan(prof.decay_rate)


def test_first_supercritical_stratum_decays_at_lyapunov_rate(golden):
    # f = 2*1.6 cos 2 pi theta + 2 cos 4 pi theta: its upper band reaches
    # L > 1, where a vector with an absolute error floor near 1e-30 of its
    # peak hits that floor within about 70 sites and reads a rate near 0
    pot = Potential({1: 1.6, -1: 1.6, 2: 1.0, -2: 1.0})
    n = 1000
    indices = np.arange(0, n, 10)
    Es = dirichlet_eigenvalues(pot, golden, 0.0, n, indices)
    L = lyapunov_n(pot, golden, Es, 512, 0.0, 1024)[0]
    accs = acceleration(pot, golden, Es, [0.02, 0.04, 0.06, 0.08, 0.1],
                        n=512, K=256)
    s2 = [classify_stratum(L0, acc.kappa, acc.non_affine, True) == "S2+"
          for L0, acc in zip(L, accs)]
    profs = eigenfunction_decay(pot, golden, 0.0, n, Es[s2])
    errors = {index: abs(prof.decay_rate - L0) / L0
              for index, L0, prof in zip(indices[s2].tolist(), L[s2], profs)}
    assert {740, 800, 900} <= set(errors)
    assert max(errors.values()) <= 0.05, errors


def test_decay_needs_room(amo2, golden):
    lam = dirichlet_eigenvalues(amo2, golden, 0.0, 400, [200])
    with pytest.raises(ValueError):
        eigenfunction_decay(amo2, golden, 0.0, 400, lam)


# ------------------------------------------------------------------- ids

def test_ids_free_values(free, golden):
    values, spreads = ids(free, golden, [-3.0, 0.0, 3.0], 200)
    assert values.tolist() == [0.0, 0.5, 1.0]
    assert spreads.tolist() == [0.0, 0.0, 0.0]


def test_ids_monotone_in_energy(amo2, golden):
    vals = ids(amo2, golden, [-3.5, -1.0, 0.5, 2.0, 3.8], 150)[0]
    assert vals.tolist() == sorted(vals.tolist())


@pytest.mark.parametrize("n", [1000, 4000])
@pytest.mark.parametrize("lam", [1.5, 2.0])
def test_ids_obeys_aubry_duality(golden, lam, n):
    # Delta + 2 lam cos 2 pi theta is lam times the dual operator at coupling
    # 1/lam (Aubry & Andre 1980), so N_lam(E) = N_{1/lam}(E/lam); the box
    # IDS moves by O(1) eigenvalues, hence the bound 2/n
    Es = np.linspace(-4.5, 4.5, 37)
    N = ids(Potential.amo(lam), golden, Es, n)[0]
    dual = ids(Potential.amo(1.0 / lam), golden, Es / lam, n)[0]
    assert np.max(np.abs(N - dual)) <= 2.0 / n


@pytest.mark.parametrize("coeffs", list(_BOX_POTENTIALS.values()),
                         ids=list(_BOX_POTENTIALS))
def test_thouless_formula(golden, dense_box, coeffs):
    # L(E) = integral of log|E - E'| dN(E') (Thouless 1972), the IDS taken
    # as the eigenvalues of n = 500 boxes at 16 phases, from a dense solver
    # independent of the Sturm pivots; sum |c_k| = max |f| for these
    # potentials, so +-(3 + max |f|) lie off the spectrum by Gershgorin
    pot = Potential(coeffs)
    reach = 3.0 + sum(abs(c) for c in coeffs.values())
    Es = np.array([-1.5, 0.5, 1.0, 3.0, 7.0, -reach, reach])
    spectra = np.concatenate([
        np.linalg.eigvalsh(dense_box(pot, golden, (i + 0.5) / 16, 500))
        for i in range(16)])
    mean_log = np.mean(np.log(np.abs(Es[:, None] - spectra)), axis=1)
    L = lyapunov_n(pot, golden, Es, 4096, 0.0, 1024)[0]
    assert np.max(np.abs(mean_log - L)) <= 2e-3


def test_ids_minimum_size(amo2, golden):
    with pytest.raises(ValueError):
        ids(amo2, golden, 0.5, 99)


# ---------------------------------------------------------------- holder

def test_holder_reports_spectral_gap(amo2, golden):
    beta, beta_stderr = holder_exponent(amo2, golden, 1.5, 1000)
    assert math.isnan(beta) and math.isnan(beta_stderr)   # in gap
    # the holder task names the gap in its row
    cfg = ExperimentConfig.from_raw({"energies": [1.5],
                                     "holder": {"n": 1000}})
    row, = _task_holder(cfg)["tables"]["holder.csv"]
    assert row["in_gap"]
    assert row["message"] == "in gap, locally constant IDS"
    assert math.isnan(row["beta"])


def test_holder_batch_equals_one_call_per_energy(amo2, golden):
    # one ids call over every E0 +- delta serves each fit bit for bit; at
    # n = 2000 the ladder's increments at 0.5 no longer vanish (at n <= 1000
    # its finite-n IDS is flat on the smallest rung there)
    E0s = np.array([[-2.1, 0.5], [1.5, 0.1234]])
    betas, stderrs = holder_exponent(amo2, golden, E0s, 2000)
    assert betas.shape == stderrs.shape == E0s.shape
    for E0, beta, stderr in zip(E0s.ravel(), betas.ravel(), stderrs.ravel()):
        one = holder_exponent(amo2, golden, E0, 2000)
        np.testing.assert_array_equal(one, (beta, stderr))
    assert math.isnan(betas[1, 0]) and not np.isnan(betas[0, 1])


def test_holder_positive_at_spectrum_point(amo2, golden):
    # anchor at an eigenvalue of one of the phase-sample boxes, so the
    # smallest increment is guaranteed nonzero
    n = 1000
    theta4 = (4 + 0.5) / 8
    E0 = float(dirichlet_eigenvalues(amo2, golden, theta4, n, [500])[0])
    beta, _ = holder_exponent(amo2, golden, E0, n)
    assert not math.isnan(beta)   # not in a gap
    assert 0.1 < beta < 2.0


def test_holder_ladder_validation(amo2, golden):
    # the ladder's least rung 1e-4 must be >= 10/n^2: n = 317 is the least
    assert HOLDER_MIN_N == 317 and DELTA_LADDER[0] == 1e-4
    with pytest.raises(ValueError, match="resolution guard"):
        holder_exponent(amo2, golden, 0.0, HOLDER_MIN_N - 1)
    with pytest.raises(ValueError, match="resolution guard"):
        holder_exponent(amo2, golden, 0.0, 100)
    beta, _ = holder_exponent(amo2, golden, 0.0, HOLDER_MIN_N)
    assert beta.shape == ()


# --------------------------------------------------------- deviation sets

GRID = {"grid_size": 64 * 100, "lyapunov_K": 1024}  # the ldt defaults at n = 100


def test_deviation_set_empty_at_default_threshold(amo2, free, golden):
    assert deviation_set(amo2, golden, 0.5, 100, None, **GRID).intervals == ()
    assert deviation_set(free, golden, 0.5, 100, None, **GRID).intervals == ()


def test_deviation_set_arc_geometry(amo2, golden):
    geom = deviation_set(amo2, golden, 0.5, 100, threshold=0.05,
                         grid_size=4096 * 100, lyapunov_K=1024)
    assert 0 < len(geom.intervals) <= 263  # 2n + n^0.9 budget
    # most arcs find their reflected partner
    pm = np.asarray(geom.pair_map)
    assert float(np.mean(pm >= 0)) > 0.9


def test_deviation_set_lockstep_matches_scalar_bisection(amo2, golden):
    # reference: the per-endpoint bisection, one scalar call per step
    E, n = 0.5, 10
    geom = deviation_set(amo2, golden, E, n, threshold=0.05,
                         grid_size=64 * n, lyapunov_K=1024)
    assert len(geom.intervals) > 0
    h = 1.0 / geom.grid_size
    u = det_family(amo2, golden, E, n).poly.eval_circle_log(
        1.0, geom.grid_size) / n
    below = u < geom.level
    starts = np.flatnonzero(below & ~np.roll(below, 1))
    ends = np.sort(np.flatnonzero(below & ~np.roll(below, -1)))

    def g(theta):
        return det_at_phase(amo2, golden, theta, E, n)[0] / n - geom.level

    def refine(lo, hi, falling):
        g_lo, g_hi = g(lo), g(hi)
        if falling and not (g_lo >= 0 > g_hi):
            return hi
        if not falling and not (g_lo < 0 <= g_hi):
            return lo
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if (g(mid) < 0) == falling:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    expected = []
    for s in np.sort(starts).tolist():
        i = np.searchsorted(ends, s)
        e = int(ends[i] if i < len(ends) else ends[0])
        left = refine((s - 1) * h, s * h, True) % 1.0
        right = refine(e * h, (e + 1) * h, False)
        expected.append((left, left + ((right - left) % 1.0 or h)))
    assert geom.intervals == tuple(sorted(expected))


def test_deviation_set_validation(amo2, golden):
    with pytest.raises(ValueError):
        deviation_set(amo2, golden, 0.5, 100, None, grid_size=100,
                      lyapunov_K=1024)
    with pytest.raises(ValueError):
        # a negative threshold puts the level above the whole sample
        deviation_set(amo2, golden, 0.5, 100, threshold=-1.0, **GRID)


def test_double_resonance_scan_flags_synthetic_arc(golden):
    geom = DeviationSetGeometry(E=0.5, n=100, threshold=0.1, level=0.5,
                                lyapunov_value=0.6, grid_size=6400,
                                intervals=((0.2, 0.45),), pair_map=(0,))
    assert double_resonance_scan(geom, 0.3, golden, 150) == 0
    with pytest.raises(ValueError):
        double_resonance_scan(geom, 0.3, golden, 50)  # y must exceed n


def test_double_resonance_clear_on_thin_arcs(amo2, golden):
    geom = deviation_set(amo2, golden, 0.5, 100, threshold=0.10,
                         grid_size=8192 * 100, lyapunov_K=1024)
    assert double_resonance_scan(geom, 0.123, golden, 300) == -1


# ------------------------------------------------------------- expansion

def test_expansion_identity_on_free_solution(free, golden):
    # phi_k = sin((k+1) w) solves the free equation at E = 2 cos w
    w = 0.9
    phi = np.sin((np.arange(60) + 1) * w)
    E = 2.0 * math.cos(w)
    for y in (5, 20, 50):
        assert expansion_identity_check(free, golden, 0.0, E, phi,
                                        (5, 50), y) < 1e-10


def test_expansion_residual_is_relative_to_phi_y(free, golden):
    # the residual does not depend on the scale of the sequence
    w = 0.9
    phi = np.sin((np.arange(60) + 1) * w)
    E = 2.0 * math.cos(w)
    for scale in (1e-200, 1e200):
        assert expansion_identity_check(free, golden, 0.0, E, scale * phi,
                                        (5, 50), 20) < 1e-10
    # 1, 0, -1, 0, ... solves the free equation at E = 0, which is not an
    # eigenvalue of a window of even length
    alternating = np.tile([1.0, 0.0, -1.0, 0.0], 15)
    assert expansion_identity_check(free, golden, 0.0, 0.0, alternating,
                                    (4, 49), 20) < 1e-10
    with pytest.raises(ValueError, match="phi_y is 0"):
        expansion_identity_check(free, golden, 0.0, 0.0, alternating,
                                 (4, 49), 21)


def test_expansion_identity_validation(free, golden):
    phi = np.sin((np.arange(60) + 1) * 0.9)
    E = 2.0 * math.cos(0.9)
    with pytest.raises(ValueError):
        expansion_identity_check(free, golden, 0.0, E, phi, (5, 50), 3)
    with pytest.raises(ValueError, match="not a solution"):
        expansion_identity_check(free, golden, 0.0, 1.234, phi, (5, 50), 20)


def test_expansion_identity_on_localized_eigenvector(amo2, golden):
    n = 500
    lam = dirichlet_eigenvalues(amo2, golden, 0.0, n, [250])
    (logs, sign), = dirichlet_eigenpair(amo2, golden, 0.0, n, lam)
    v = sign * np.exp(logs)
    c = int(np.argmax(logs))
    # a window on the far side of the localization center, where the
    # boundary data actually carries the interior values
    wlen, margin = 120, 8
    l1 = c + margin if c <= n // 2 else c - margin - wlen
    l1 = min(max(1, l1), n - 2 - wlen)
    res, (a, b), y = expansion_identity_scan(amo2, golden, 0.0, lam[0], v,
                                             (l1, l1 + wlen))
    assert res < 1e-8
    assert 1 <= a <= y <= b <= n - 2
