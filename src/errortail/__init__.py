"""Tail analysis of surrogate pricing errors.

Quantifies the extreme tail of a surrogate model's absolute error with
closed-form peaks-over-threshold estimators (distribution endpoint, shape,
exceedance probability, mean excess), and ships a self-contained pipeline
around an American-put binomial-tree oracle and a from-scratch neural
surrogate to exercise them end to end.
"""

from .gpd import GpdParams, gpd_sample
from .mlp import (
    MlpModel,
    TrainConfig,
    TrainingReport,
    error_sample,
    load_model,
    save_model,
    train,
)
from .pricing import (
    C_TEST,
    C_TRAIN,
    SPOT_REFERENCE,
    DomainBox,
    OptionContract,
    bs_european_put,
    contract_terms,
    crr_american_put,
    price_contracts,
    read_priced_csv,
    sample_uniform,
    write_priced_csv,
)
from .tail import (
    DegenerateSampleError,
    ErrorSample,
    TailFit,
    cent_threshold_k,
    endpoint_estimate,
    exceedance_probability,
    exceeds_max_probability,
    markov_bound,
    mean_excess,
    read_error_csv,
    tail_fit,
    write_error_csv,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    desk_scale_config,
    emit_figure_csv,
    load_config,
    paper_scale_config,
    pooled_empirical_sf,
    run_experiment,
)

__version__ = "0.1.0"
