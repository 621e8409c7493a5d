"""Jacobi-operator reductions and spectral-phase classification for
Rabi-type quantum models.

The library reduces four Hamiltonians of a two-level system coupled to a
bosonic mode to direct sums of half-line Jacobi operators, classifies each
sector's spectrum through the one-period transfer-matrix trace (purely
discrete, line-filling absolutely continuous, or a critical half-line of
essential spectrum), locates critical half-lines exactly via an affine
indicator polynomial, and corroborates every prediction numerically with
Sturm-count/bisection eigensolves of finite sections.
"""

from .modulation import (
    DegenerateIndicatorError,
    EdgeIndicator,
    HalfLine,
    Monodromy,
    PeriodicModulation,
    PhaseKind,
    PhaseReport,
    PhaseStateError,
    UnsupportedRegimeError,
    classify,
    cyclic_monodromies,
    edge_indicator,
    essential_halfline,
    limit_sequences,
    monodromy,
    stolz_increment_sums,
    transfer_matrix,
)
from .models import (
    AnisotropicTwoPhoton,
    DecompositionCheck,
    DegenerateParameterError,
    IndicatorMismatchError,
    IntensityDependent,
    JacobiParams,
    ModelSpec,
    SectorLabel,
    TwoPhoton,
    TwoPhotonRabiStark,
    carleman_growth_constant,
    carleman_lower_bound,
    critical_trace,
    decomposition_check,
    hamiltonian_matrix,
    jacobi_params,
    predicted_phase,
    predicted_phases,
    sector_basis_index,
    sectors,
)
from .spectra import (
    CollapseScan,
    EdgeDensityReport,
    collapse_scan,
    edge_density,
    lowest_eigenvalues,
    spectrum_scan,
)
from .tridiag import (
    SymTridiag,
    TruncatedSpectrum,
    carleman_partial_sums,
    default_bisect_tol,
    eigenvalues_bisect,
    sturm_count,
)

__version__ = "0.1.0"
