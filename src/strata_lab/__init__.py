"""Numerical laboratory for quasi-periodic Schrodinger determinants.

Finite-volume Dirichlet determinants of quasi-periodic operators, their
zero sets near the unit circle, Lyapunov exponents and quantized
acceleration, annulus potential theory, IDS regularity, and localization
diagnostics, with a CLI harness for reproducible experiment runs.
"""

__version__ = "0.1.0"

from .model import GOLDEN_MEAN, Potential
from .determinant import (
    DeterminantFamily,
    ScaledLaurentPoly,
    center_family,
    det_at_phase,
    det_family,
)
from .cocycle import (
    AccelerationEstimate,
    LyapunovEstimate,
    StratumRecord,
    acceleration,
    classify_stratum,
    lyapunov_n,
    strata_measure,
    transfer_log_norms,
)
from .zeros_potential import (
    AnnulusCount,
    RieszDecomposition,
    RieszMassReport,
    ZeroCountReport,
    ZeroInventory,
    aberth_roots,
    circle_average_green,
    count_annulus,
    find_zeros,
    green_annulus,
    green_circle_mean,
    green_potential,
    jensen_identity_residual,
    riesz_decompose,
    riesz_kappa,
    riesz_mass,
    zero_count_vs_acceleration,
)
from .spectral_localization import (
    DecayProfile,
    DeviationSetGeometry,
    DirichletSpectrum,
    DoubleResonanceReport,
    deviation_set,
    dirichlet_eigenpair,
    dirichlet_eigenvalues,
    double_resonance_scan,
    eigenfunction_decay,
    expansion_identity_check,
    expansion_identity_scan,
    holder_exponent,
    ids,
    sturm_count,
)
