"""Achievable-rate functionals and code-ensemble checks for Abelian group codes."""

from .groups import (
    CyclicDecomposition,
    GroupElement,
    GroupSpec,
    Subgroup,
    ThetaVector,
    decompose,
)
from .measures import (
    ChannelSpec,
    SourceJoint,
    coset_mi_channel,
    coset_mi_channel_chain,
    coset_mi_source,
    entropy,
    mutual_information,
)
from .rates import (
    RateResult,
    WeightVector,
    channel_coding_rate,
    channel_rate_prime_power,
    enumerate_theta_set,
    grid_search,
    induced_theta,
    omega,
    optimize_weights,
    source_coding_rate,
    source_rate_prime_power,
)


def __getattr__(name: str):
    # the names of __all__ not imported above are the ensemble module's,
    # imported on first use so the CLI's rate commands never load it (PEP 562)
    if name in __all__:
        from . import ensemble

        return getattr(ensemble, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "ChannelSpec",
    "CyclicDecomposition",
    "GroupElement",
    "GroupSpec",
    "HomomorphismTable",
    "InputGroup",
    "RateResult",
    "SourceJoint",
    "Subgroup",
    "ThetaVector",
    "WeightVector",
    "apply_hom",
    "channel_coding_rate",
    "channel_rate_prime_power",
    "coset_mi_channel",
    "coset_mi_channel_chain",
    "coset_mi_source",
    "decompose",
    "encode",
    "entropy",
    "enumerate_theta_set",
    "grid_search",
    "induced_theta",
    "mc_channel_error",
    "mutual_information",
    "omega",
    "optimize_weights",
    "pair_theta",
    "sample_hom",
    "solve_congruence",
    "source_coding_rate",
    "source_rate_prime_power",
    "t_theta_bound",
    "verify_pairwise_law",
]

__version__ = "0.1.0"
