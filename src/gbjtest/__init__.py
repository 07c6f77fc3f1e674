"""Set-based association tests for correlated Gaussian statistics.

Supremum statistics (GBJ, BJ, HC, GHC, MinP) with analytic boundary-crossing
p-values, a quadratic-form component, an omnibus combination, score-statistic
construction from individual-level or reference-panel data, and a simulation
laboratory.
"""

__version__ = "0.1.0"

from .crossing import (BoundaryVector, crossing_pvalue, exact_small_pvalue,
                       invert_bounds, pvalue, rejection_region)
from .ebb import EBBMatch, EBBParams, ebb_log_pmf, ebb_match
from .errors import (BracketError, DegenerateInputError, DomainError, GBJError,
                     ModelError, NumericalError, SizeError)
from .exceedance import (CorrelationModel, CorrPowerProfile, CountMoments,
                         corr_powers, correlation_model, count_mean,
                         count_moments, count_variance)
from .gauss import (bivar_abs_tail, find_root, hermite, mvn_cdf_small,
                    std_normal, std_normal_inv)
from .omnibus import (OmniResult, bootstrap_corr, bootstrap_corr_individual,
                      omni_pvalue, omnibus_test, skat_lite)
from .scores import (GenotypeMatrix, NullModelFit, fit_null, ref_panel_cov,
                     score_stats)
from .setstats import (TestOutcome, ZVector, compute_statistic, gbj_objective,
                       solve_mu)
from .simlab import BlockStructure, SimConfig, block_sigma, run_study, sim_genotypes

__all__ = [
    "BlockStructure", "BoundaryVector", "BracketError", "CorrelationModel",
    "CorrPowerProfile", "CountMoments", "DegenerateInputError", "DomainError",
    "EBBMatch", "EBBParams", "GBJError", "GenotypeMatrix", "ModelError", "NullModelFit",
    "NumericalError", "OmniResult", "SimConfig", "SizeError", "TestOutcome",
    "ZVector", "bivar_abs_tail", "block_sigma", "bootstrap_corr",
    "bootstrap_corr_individual", "compute_statistic", "corr_powers",
    "correlation_model", "count_mean", "count_moments", "count_variance",
    "crossing_pvalue", "ebb_log_pmf", "ebb_match", "exact_small_pvalue",
    "find_root", "fit_null", "gbj_objective", "hermite", "invert_bounds",
    "mvn_cdf_small", "omni_pvalue", "omnibus_test", "pvalue", "ref_panel_cov",
    "rejection_region", "run_study", "score_stats", "sim_genotypes",
    "skat_lite", "solve_mu", "std_normal", "std_normal_inv",
]
