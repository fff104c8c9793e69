"""Start-up tests: what ``import repro`` and its entry points load.

``repro`` binds its subpackages on first attribute access, so a serving
process or the CLI never pays for ``repro.bio`` and ``scipy.stats``.
Import order is process-global state, so every import check runs in a
fresh interpreter.  The vertex index rides along: its sample-keyed hit
lists must equal the owners an int64 stable sort of the entries yields.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.imm.select import vertex_index

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Where every public name was defined when ``repro/__init__`` imported
#: all eleven subpackages eagerly ("module" or "module:attribute").
PUBLIC_NAMES = {
    "imm": "repro.imm.imm:imm",
    "imm_mt": "repro.parallel.shared:imm_mt",
    "imm_dist": "repro.mpi.distributed:imm_dist",
    "IMMResult": "repro.imm.result:IMMResult",
    "CSRGraph": "repro.graph.csr:CSRGraph",
    "DiffusionModel": "repro.diffusion.base:DiffusionModel",
    "estimate_spread": "repro.diffusion.simulate:estimate_spread",
    "graph": "repro.graph",
    "diffusion": "repro.diffusion",
    "sampling": "repro.sampling",
    "rng": "repro.rng",
    "parallel": "repro.parallel",
    "mpi": "repro.mpi",
    "perf": "repro.perf",
    "baselines": "repro.baselines",
    "bio": "repro.bio",
    "datasets": "repro.datasets",
    "experiments": "repro.experiments",
    "imm_pkg": "repro.imm",
}


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["repro.serving", "repro.cli"])
def test_entry_points_skip_scipy_and_bio(module):
    loaded = _fresh(
        f"import json, sys\nimport {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('repro.bio'))))"
    )
    assert loaded == []


@pytest.mark.parametrize("first", ["repro.serving", "repro.imm.select"])
def test_imm_is_the_function_after_a_submodule_import(first):
    got = _fresh(
        f"import json\nimport {first}\nfrom repro import imm\nimport repro\n"
        "print(json.dumps([type(imm).__name__, imm.__module__, "
        "repro.imm_pkg.__name__, type(repro.imm_pkg).__name__]))"
    )
    assert got == ["function", "repro.imm.imm", "repro.imm", "module"]


def test_public_names_resolve_as_with_eager_imports():
    got = _fresh(
        "import importlib, json\nimport repro\n"
        "bound = {name: getattr(repro, name) for name in repro.__all__}\n"
        f"where = {PUBLIC_NAMES!r}\n"
        "def resolve(spec):\n"
        "    mod, _, attr = spec.partition(':')\n"
        "    obj = importlib.import_module(mod)\n"
        "    return getattr(obj, attr) if attr else obj\n"
        "print(json.dumps({\n"
        "    'all': repro.__all__,\n"
        "    'version': repro.__version__,\n"
        "    'wrong': sorted(n for n, spec in where.items()\n"
        "                    if bound[n] is not resolve(spec)),\n"
        "    'undir': sorted(set(repro.__all__) - set(dir(repro))),\n"
        "}))"
    )
    assert got["all"] == [*PUBLIC_NAMES, "__version__"]
    assert got["version"] == "1.0.0"
    assert got["wrong"] == []
    assert got["undir"] == []


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
def test_vertex_index_matches_int64_stable_sort(n):
    # 50,000 entries in 1,000 samples of 50; ids may repeat across
    # samples, never within one (the keys id·m + sample stay unique).
    rng = np.random.default_rng(n)
    flat = np.concatenate(
        [np.sort(rng.choice(n, 50, replace=False)) for _ in range(1000)]
    ).astype(np.int32)
    flat[[49, 99, -1]] = n - 1  # the widest id, in several samples
    flat[[0, 50]] = 0
    indptr = np.arange(0, 50_001, 50, dtype=np.int64)
    owner = np.repeat(np.arange(1000, dtype=np.int64), 50)
    hits, vptr = vertex_index(flat, indptr, n)
    assert hits.dtype == np.int32
    assert np.array_equal(hits, owner[np.argsort(flat.astype(np.int64), kind="stable")])
    assert np.array_equal(np.diff(vptr), np.bincount(flat, minlength=n))
