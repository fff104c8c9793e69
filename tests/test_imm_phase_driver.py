"""One Algorithm 1: every driver runs imm()'s phase driver and sampler factory.

``imm``, ``imm_sweep``, ``imm_mt`` and ``freeze_index`` share one
three-phase driver and one sampler factory in ``repro.imm.imm``.  These
tests pin what that sharing promises: the drivers agree with ``imm()``
on every output and work meter, each calls the phases through the
module globals a tracer wraps, the factory's option checks hold at
every worker count, and a deadline in the Sample phase still degrades
from the certified estimate.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from repro.imm import DegradedResult, imm, imm_sweep
from repro.parallel import imm_mt
from repro.sampling import DeadlineExceededError
from repro.serving import freeze_index

K, EPS, SEED = 8, 0.5, 3

#: Each driver on one instance, in the form the tests compare: a full
#: ``IMMResult``, or ``freeze_index``'s ``ServingResult``.
DRIVERS = {
    "imm": lambda g, tmp: imm(g, K, EPS, seed=SEED),
    "imm_sweep": lambda g, tmp: imm_sweep(g, [K], EPS, seed=SEED)[0],
    "imm_mt[1]": lambda g, tmp: imm_mt(g, K, EPS, num_threads=1, seed=SEED),
    "imm_mt[4]": lambda g, tmp: imm_mt(g, K, EPS, num_threads=4, seed=SEED),
    "freeze_index": lambda g, tmp: _served(g, tmp),
}


def _served(graph, tmp_path):
    index, res = freeze_index(graph, K, EPS, "IC", SEED, out_dir=tmp_path / "index")
    index.close()
    return res


@pytest.mark.parametrize("driver", [d for d in DRIVERS if d != "imm"])
def test_drivers_agree_with_imm(ba_graph, tmp_path, driver):
    """Seeds, θ, LB, the θ search's coverage history and every work meter."""
    ref = imm(ba_graph, K, EPS, seed=SEED)
    got = DRIVERS[driver](ba_graph, tmp_path)
    assert np.array_equal(got.seeds, ref.seeds)
    assert got.theta == ref.theta
    assert got.lb == ref.lb
    if driver == "freeze_index":
        assert got.coverage_history == ref.extra["coverage_history"]
        assert got.edges_examined == ref.counters.edges_examined
        assert got.samples_added == ref.counters.samples_generated
        return
    assert got.extra["coverage_history"] == ref.extra["coverage_history"]
    for meter in ("edges_examined", "samples_generated", "entries_scanned", "counter_updates"):
        assert getattr(got.counters, meter) == getattr(ref.counters, meter), meter


@pytest.mark.parametrize("driver", ["imm", "imm_sweep", "imm_mt[4]", "freeze_index"])
def test_drivers_call_through_traced_names(ba_graph, tmp_path, monkeypatch, driver):
    """perfbench's tracer times the phases by wrapping these module
    globals; a driver that bypassed them would leave its layers empty."""
    calls = Counter()
    for modname, names in (
        ("repro.imm.imm", ("estimate_theta", "sample_batch", "select_seeds")),
        ("repro.imm.theta", ("sample_batch", "select_seeds")),
    ):
        mod = importlib.import_module(modname)
        for name in names:
            def counted(*args, _raw=getattr(mod, name), _key=f"{modname}.{name}", **kwargs):
                calls[_key] += 1
                return _raw(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    got = DRIVERS[driver](ba_graph, tmp_path)
    rounds = len(got.coverage_history if driver == "freeze_index" else got.extra["coverage_history"])
    assert calls == {
        "repro.imm.imm.estimate_theta": 1,
        "repro.imm.imm.sample_batch": 1,
        "repro.imm.imm.select_seeds": 1,
        "repro.imm.theta.sample_batch": rounds,
        "repro.imm.theta.select_seeds": rounds,
    }


@pytest.mark.parametrize(
    "driver",
    [imm, lambda g, k, eps, **kw: imm_sweep(g, [k], eps, **kw)],
    ids=["imm", "imm_sweep"],
)
def test_supervisor_opts_without_supervise_rejected(ba_graph, driver):
    """A requested deadline (or any supervisor option) is never silently
    dropped: without ``supervise=True`` it is an error at one worker too."""
    with pytest.raises(ValueError, match="supervisor_opts requires supervise=True"):
        driver(ba_graph, 5, 0.5, supervisor_opts={"deadline": 1e-4})


def test_deadline_in_sample_phase_keeps_certified_estimate(ba_graph, monkeypatch):
    """A deadline that fires after EstimateTheta landed degrades from the
    landed prefix with the certified LB and θ, not the trivial bound."""
    ref = imm(ba_graph, K, EPS, seed=SEED)

    def expire(*args, **kwargs):
        raise DeadlineExceededError(landed_total=0, deadline=1.0)

    monkeypatch.setattr(importlib.import_module("repro.imm.imm"), "sample_batch", expire)
    res = imm(ba_graph, K, EPS, seed=SEED, supervise=True)
    assert isinstance(res, DegradedResult)
    assert (res.lb, res.theta) == (ref.lb, ref.theta)
    assert res.extra["estimation_rounds"] == ref.extra["estimation_rounds"]
    assert res.theta_effective == ref.extra["coverage_history"][-1][0]
    assert res.extra["lost_samples"] == ref.theta - res.theta_effective
    assert len(res.seeds) == K
