"""Capacity bounds for noisy relay networks.

Discrete-memoryless bound evaluators, Gaussian closed forms with a
provable inner/outer gap certificate, and deterministic sweep tooling for
the two standard example topologies (two-way relay, interference relay).
"""

from .errors import EvaluationError, NncboundError, SchemaError
from .netmodel import (
    CutsetEntry,
    CutsetReport,
    DmNetwork,
    GaussianNetwork,
    NodeSet,
    RateRegion,
    enumerate_cutsets,
    max_weighted_sum,
    region_from_report,
)
from .infocalc import (
    CodingDistribution,
    JointDistribution,
    assemble_joint,
    conditional_mi,
    entropy,
    gauss_cut_rate,
    gauss_cut_rates,
    gauss_logdet_general,
)
from .dm_bounds import (
    DeterministicNetwork,
    ErasureNetwork,
    NoiselessLink,
    NoiselessNetwork,
    cf_extension_bound,
    cutset_outer_bound,
    deterministic_region,
    erasure_region,
    nnc_multicast_bound,
    nnc_theorem2_bound,
    nnc_theorem3_bound,
    noiseless_region,
    relay_cf_emz,
)
from .gauss_bounds import (
    IrcConfig,
    SweepGrid,
    TwrcConfig,
    db_to_power,
    gap_certificate,
    gauss_cut_bounds,
    gauss_cutset_outer,
    gauss_nnc_inner,
    irc_rates,
    scalar_maximize,
    twrc_rates,
)

__version__ = "0.1.0"

__all__ = [
    "CodingDistribution",
    "CutsetEntry",
    "CutsetReport",
    "DeterministicNetwork",
    "DmNetwork",
    "ErasureNetwork",
    "EvaluationError",
    "GaussianNetwork",
    "IrcConfig",
    "JointDistribution",
    "NncboundError",
    "NodeSet",
    "NoiselessLink",
    "NoiselessNetwork",
    "RateRegion",
    "SchemaError",
    "SweepGrid",
    "TwrcConfig",
    "assemble_joint",
    "cf_extension_bound",
    "conditional_mi",
    "cutset_outer_bound",
    "db_to_power",
    "deterministic_region",
    "entropy",
    "enumerate_cutsets",
    "erasure_region",
    "gap_certificate",
    "gauss_cut_bounds",
    "gauss_cut_rate",
    "gauss_cut_rates",
    "gauss_cutset_outer",
    "gauss_logdet_general",
    "gauss_nnc_inner",
    "irc_rates",
    "max_weighted_sum",
    "nnc_multicast_bound",
    "nnc_theorem2_bound",
    "nnc_theorem3_bound",
    "noiseless_region",
    "region_from_report",
    "relay_cf_emz",
    "scalar_maximize",
    "twrc_rates",
    "__version__",
]
