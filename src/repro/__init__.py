"""repro — fast and scalable influence maximization (CLUSTER 2019 reproduction).

A faithful, pure-Python reproduction of Minutoli et al., *Fast and
Scalable Implementations of Influence Maximization Algorithms* (IEEE
CLUSTER 2019), the paper behind the Ripples framework.  The package
provides:

* the **IMM** algorithm of Tang et al. (2015) with the paper's optimized
  one-directional sorted RRR-set layout (:func:`repro.imm.imm`);
* the **multithreaded** variant with interval-partitioned,
  synchronization-free seed selection (:func:`repro.parallel.imm_mt`);
* the **distributed** MPI+OpenMP variant with leap-frog RNG streams and
  allreduce-based seed selection (:func:`repro.mpi.imm_dist`);
* IC and LT diffusion models, forward and reverse;
* classic baselines (greedy-CELF Monte Carlo, CELF++, degree discount,
  …) in :mod:`repro.baselines`;
* the Section 5 biology case study in :mod:`repro.bio`;
* the full experiment harness regenerating every table and figure of
  the paper in :mod:`repro.experiments`.

Quickstart::

    from repro import datasets, imm
    graph = datasets.load("cit-HepTh")
    result = imm(graph, k=50, eps=0.5, model="IC", seed=1)
    print(result.seeds, result.total_time)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import importlib

# ``imm`` stays eager: importing any ``repro.imm.*`` submodule binds the
# attribute ``repro.imm`` to the subpackage, so a lazily bound function
# would be shadowed by the module after e.g. ``import repro.serving``.
from . import imm as imm_pkg  # the subpackage, kept importable by name
from .imm import IMMResult, imm

__version__ = "1.0.0"

__all__ = [
    "imm",
    "imm_mt",
    "imm_dist",
    "IMMResult",
    "CSRGraph",
    "DiffusionModel",
    "estimate_spread",
    "graph",
    "diffusion",
    "sampling",
    "rng",
    "parallel",
    "mpi",
    "perf",
    "baselines",
    "bio",
    "datasets",
    "experiments",
    "imm_pkg",
    "__version__",
]

# Everything else binds on first attribute access (PEP 562), so a
# process pays only for the subpackages it touches — the CLI and the
# serving stack never load ``repro.bio`` and its ``scipy.stats``.
_SUBPACKAGES = frozenset({
    "baselines", "bio", "datasets", "diffusion", "experiments", "graph",
    "mpi", "parallel", "perf", "rng", "sampling",
})
_OBJECTS = {
    "DiffusionModel": "diffusion",
    "estimate_spread": "diffusion",
    "CSRGraph": "graph",
    "imm_dist": "mpi",
    "imm_mt": "parallel",
}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OBJECTS:
        module = importlib.import_module(f"{__name__}.{_OBJECTS[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBPACKAGES | set(_OBJECTS))
