"""Achievable-rate functionals and code-ensemble checks for Abelian group codes.

Each public name is loaded on first use, so ``import groupcodes`` imports
neither numpy nor any submodule.
"""

import importlib


def __getattr__(name: str):
    # a public name comes from the first submodule, in dependency order, that
    # defines it and is then kept in this module's globals, so the lookup runs
    # once per name (PEP 562)
    if name in __all__:
        for submodule in ("groups", "measures", "rates", "ensemble"):
            module = importlib.import_module(f".{submodule}", __name__)
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
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
    "all_reachable_thetas",
    "apply_hom",
    "channel_coding_rate",
    "channel_rate_prime_power",
    "channel_terms",
    "coset_mi_channel",
    "coset_mi_channel_chain",
    "coset_mi_source",
    "decompose",
    "encode",
    "entropy",
    "enumerate_theta_set",
    "grid_search",
    "grid_size",
    "induced_theta",
    "lemma_suite",
    "mc_channel_error",
    "mi_per_coset",
    "mutual_information",
    "omega",
    "optimize_weights",
    "pair_theta",
    "sample_hom",
    "solve_congruence",
    "source_coding_rate",
    "source_rate_prime_power",
    "source_terms",
    "t_theta_bound",
    "theta_census",
    "verify_pairwise_law",
]

__version__ = "0.1.0"
