"""Set-based association tests for correlated Gaussian statistics.

Supremum statistics (GBJ, BJ, HC, GHC, MinP) with analytic boundary-crossing
p-values, a quadratic-form component, an omnibus combination, score-statistic
construction from individual-level or reference-panel data, and a simulation
laboratory.
"""

__version__ = "0.1.0"

from .crossing import (BoundaryVector, crossing_pvalue, invert_bounds, pvalue,
                       rejection_region)
from .errors import (BracketError, DegenerateInputError, DomainError, GBJError,
                     ModelError, NumericalError, SizeError)
from .exceedance import CorrelationModel, CorrPowerProfile, corr_powers, correlation_model
from .omnibus import (OmniResult, bootstrap_corr, bootstrap_corr_individual,
                      omni_pvalue, omnibus_test, skat_lite)
from .scores import (GenotypeMatrix, NullModelFit, fit_null, ref_panel_cov,
                     score_stats)
from .setstats import TestOutcome, ZVector, compute_statistic
from .simlab import BlockStructure, SimConfig, block_sigma, run_study, sim_genotypes

__all__ = [
    "BlockStructure", "BoundaryVector", "BracketError", "CorrelationModel",
    "CorrPowerProfile", "DegenerateInputError", "DomainError", "GBJError",
    "GenotypeMatrix", "ModelError", "NullModelFit", "NumericalError",
    "OmniResult", "SimConfig", "SizeError", "TestOutcome", "ZVector",
    "block_sigma", "bootstrap_corr", "bootstrap_corr_individual",
    "compute_statistic", "corr_powers", "correlation_model", "crossing_pvalue",
    "fit_null", "invert_bounds", "omni_pvalue", "omnibus_test", "pvalue",
    "ref_panel_cov", "rejection_region", "run_study", "score_stats",
    "sim_genotypes", "skat_lite",
]
