"""Generalized bootstrap for estimators defined by estimating equations.

Solve randomly reweighted estimating equations to estimate sampling
distributions, variances, and confidence intervals, with residual- and
wild-bootstrap baselines and reproducible simulation experiments.
"""

from . import baselines, bench, engine, models, solver, weights
from .baselines import residual_bootstrap, wild_bootstrap
from .bench import (ExperimentConfig, ExperimentReport, density_histogram,
                    emit_report, run_experiment)
from .engine import (BootstrapSample, EmpiricalDistribution, VarianceEstimate,
                     draw_rng, empirical_distribution,
                     exact_variance_enumeration, ks_distance, percentile_ci,
                     percentile_cis_batch, run_bootstrap, variance_estimate)
from .errors import (ConfigError, DegenerateRunError, EmptyRootSetError,
                     EvaluationError, GebsError, InsufficientSampleError,
                     NonConvergenceError, ParameterError, ParseError,
                     ShapeError, SingularSystemError, UnsupportedModelError,
                     UnsupportedSchemeError)
from .models import (Ar1Model, Dataset, IsomerizationModel, LinearModel,
                     LogisticGroupModel, LogisticIndividualModel, MeanModel,
                     load_fumigant, load_isomerization, simulate_ar1,
                     simulate_glm, simulate_linear)
from .solver import (Solution, solve_weighted, solve_weighted_batch,
                     weighted_jacobian, weighted_score)
from .weights import (WeightScheme, check_conditions, constant,
                      delete_d_jackknife, dirichlet, downweight_d_jackknife,
                      empirical_moments, iid_exponential, iid_uniform,
                      iter_support, m_out_of_n, multinomial, parse_scheme, sample,
                      theoretical_moments)

__version__ = "0.1.0"
