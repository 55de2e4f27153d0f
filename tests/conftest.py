"""Shared helpers: seeded random instances over small groups."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from hypothesis import settings

from groupcodes import ChannelSpec, GroupSpec, SourceJoint, decompose

# CLI child processes import the package from this checkout, as the tests do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

# Property tests replay the same examples on every run and stay inside the
# suite's time budget.
settings.register_profile(
    "groupcodes", derandomize=True, max_examples=60, deadline=None
)
settings.load_profile("groupcodes")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def spec_of(orders) -> GroupSpec:
    return decompose(orders).spec


def random_channel(spec: GroupSpec, ny: int, rng: np.random.Generator) -> ChannelSpec:
    return ChannelSpec(spec, rng.dirichlet(np.ones(ny), size=spec.order))


def random_source_joint(spec: GroupSpec, nx: int, rng: np.random.Generator) -> SourceJoint:
    # uniform column marginal by construction
    cols = rng.dirichlet(np.ones(nx), size=spec.order).T / spec.order
    return SourceJoint(spec, cols)


def additive_noise_channel(spec: GroupSpec, noise_pmf) -> ChannelSpec:
    """Y = X + Z over the group, output alphabet the group itself."""
    pz = np.asarray(noise_pmf, dtype=float)
    assert pz.shape == (spec.order,)
    elements = list(spec.elements())
    w = np.zeros((spec.order, spec.order))
    for i, x in enumerate(elements):
        for k, z in enumerate(elements):
            w[i, spec.element_index(x + z)] += pz[k]
    return ChannelSpec(spec, w)


def random_additive_channel(spec: GroupSpec, rng: np.random.Generator) -> ChannelSpec:
    return additive_noise_channel(spec, rng.dirichlet(np.ones(spec.order)))
