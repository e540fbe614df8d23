"""Random-channel purification strategies: sampling, errors, closed forms."""

__version__ = "0.1.0"

from .channels import (
    ChoiOperator,
    KrausSet,
    PurificationVector,
    apply_env_unitary,
    choi_from_kraus,
    depolarizing_choi,
    kraus_from_choi,
    max_entangled_purification,
    separable_purification,
    stinespring_from_choi,
)
from .ensembles import (
    EnsembleSpec,
    RandomStream,
    mp_atom,
    mp_cdf,
    mp_density,
    mp_mu,
    sample_choi,
    sample_ginibre,
    sample_haar_isometry,
    sample_haar_unitary,
    sample_wishart_choi,
)
from .metrics import (
    ErrorReport,
    error_append,
    error_orbit_numeric,
    error_pure_output,
    estimate_average_error,
    estimate_moments,
    orbit_bruteforce,
    parse_strategy,
    second_moment_closed_form,
    second_moment_operator,
)
from .strategies import Strategy, tomography_estimate

__all__ = [name for name in dir() if not name.startswith("_")]
