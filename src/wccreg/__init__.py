"""Survey-weighted clustered-coefficients regression with concave fusion."""

__version__ = "0.1.0"

from .admm import (
    PairIndex,
    build_pair_index,
    fit,
    initialize,
)
from .grouping import extract_partition, group_estimates, location_estimates, refit_oracle
from .metrics import adjusted_rand_index, rand_index_counts, rmse_beta
from .penalty import ScadSpec, group_soft_threshold, scad_value, zeta_proximal
from .selection import BicVariant, LambdaPath, default_lambda_grid, modified_bic, select_lambda
from .simulation import (
    McSummary,
    Population,
    ScenarioSpec,
    generate_mean_population,
    generate_regression_population,
    informative_probabilities,
    poisson_sample,
    run_monte_carlo,
)
from .types import (
    AdmmConfig,
    Dataset,
    FitResult,
    LocationBlock,
    Partition,
    SingularSystemError,
    ValidationError,
)

__all__ = [
    "AdmmConfig", "BicVariant", "Dataset", "FitResult", "LambdaPath", "LocationBlock",
    "McSummary", "PairIndex", "Partition", "Population", "ScadSpec", "ScenarioSpec",
    "SingularSystemError", "ValidationError",
    "adjusted_rand_index", "build_pair_index", "default_lambda_grid",
    "extract_partition", "fit", "generate_mean_population", "generate_regression_population",
    "group_estimates", "group_soft_threshold", "informative_probabilities", "initialize",
    "location_estimates", "modified_bic", "poisson_sample", "rand_index_counts",
    "refit_oracle", "rmse_beta", "run_monte_carlo",
    "scad_value", "select_lambda", "zeta_proximal",
]
