"""Exact hitting-time and strong-stationary-time laws of finite Markov chains.

The package builds the pure-birth dual of a chain from its eigenvalues, the
link that intertwines the two, and the resulting closed-form absorption laws
(geometric convolutions, mixtures of their prefixes, or a numeric CDF when
the spectrum is complex).  Coupled sample-path simulation verifies every
construction statistically.
"""

__version__ = "0.1.0"

from .chains import (
    ChainClass,
    InitialLaw,
    RateGenerator,
    TransitionKernel,
    classify_generator,
    classify_kernel,
    ctmc_cdf_oracle,
    mean_absorption_ctmc_oracle,
    mean_absorption_oracle,
    power_cdf_oracle,
    stationary_law,
    uniformize,
    validate_generator,
    validate_kernel,
)
from .config import tol_alg
from .coupling import (
    CouplingTrace,
    VerifyReport,
    promotion_probability,
    simulate_coupled_continuous,
    simulate_coupled_discrete,
    simulate_general_dual,
    trace_stream,
    verify,
)
from .duality import (
    DualKernel,
    LinkMatrix,
    MixtureWeights,
    ModifiedDual,
    SeparationProfile,
    build_dual,
    build_link,
    build_modified_dual,
    check_intertwining,
    check_monotone_reversal,
    mixture_weights,
    separation,
)
from .errors import (
    EigenFailure,
    HorizonExceeded,
    HypothesisFailed,
    ImaginaryResidue,
    InsufficientSamples,
    MonotoneHypothesisFails,
    NonStochastic,
    NotErgodic,
    NotStochasticLink,
    PoleAtU,
    PreconditionError,
    SSDualError,
    SingularSystem,
    TargetNotAccessible,
    ThetaTooSmall,
    ValidationError,
    ZeroSuperdiagonal,
)
from .laws import (
    Analysis,
    ContinuousAbsorptionLaw,
    DiscreteAbsorptionLaw,
    absorption_law,
    hypoexp_law,
    sst_law,
)
from .spectral import (
    PolynomialResiduals,
    SpectralPolynomials,
    SpectrumReport,
    classify_spectrum,
    eigenvalues,
    polynomial_residuals,
    spectral_polynomials,
)

__all__ = [
    "__version__",
    # chains
    "ChainClass", "InitialLaw", "RateGenerator", "TransitionKernel",
    "classify_generator", "classify_kernel", "ctmc_cdf_oracle",
    "mean_absorption_ctmc_oracle", "mean_absorption_oracle",
    "power_cdf_oracle", "stationary_law", "uniformize",
    "validate_generator", "validate_kernel",
    # config
    "tol_alg",
    # spectral
    "PolynomialResiduals", "SpectralPolynomials", "SpectrumReport",
    "classify_spectrum", "eigenvalues", "polynomial_residuals",
    "spectral_polynomials",
    # duality
    "DualKernel", "LinkMatrix", "MixtureWeights", "ModifiedDual",
    "SeparationProfile", "build_dual", "build_link", "build_modified_dual",
    "check_intertwining", "check_monotone_reversal", "mixture_weights",
    "separation",
    # laws
    "Analysis", "ContinuousAbsorptionLaw", "DiscreteAbsorptionLaw",
    "absorption_law", "hypoexp_law", "sst_law",
    # coupling
    "CouplingTrace", "VerifyReport", "promotion_probability",
    "simulate_coupled_continuous", "simulate_coupled_discrete",
    "simulate_general_dual", "trace_stream", "verify",
    # errors
    "SSDualError", "ValidationError", "NonStochastic", "TargetNotAccessible",
    "PreconditionError", "ZeroSuperdiagonal", "NotErgodic", "SingularSystem",
    "ThetaTooSmall", "EigenFailure", "PoleAtU", "ImaginaryResidue",
    "HypothesisFailed", "MonotoneHypothesisFails", "NotStochasticLink",
    "InsufficientSamples", "HorizonExceeded",
]
