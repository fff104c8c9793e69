"""One benchmark workload in one fresh process.

Sets up, measures the timed window, checks every answer, tears down and
checks that nothing it started survives; writes its result as JSON to
``--out``.  ``run.py`` launches this file; run that instead.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement."""


# -- statistics ----------------------------------------------------------


def percentile(values, q: float, what: str) -> float:
    """Linear-interpolated ``q``-th percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    if not vals:
        raise BenchError(f"{what}: no samples")
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    p = vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)
    beyond = sum(v > p for v in vals)
    if beyond < 10:
        raise BenchError(
            f"{what}: p{q:g} of {len(vals)} samples has {beyond} beyond it; "
            "at least 10 are required"
        )
    return p


def layer_percentile(values, q: float, what: str) -> float:
    """As :func:`percentile`, but 0.0 for a layer that did not run at all."""
    return percentile(values, q, what) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc/self/status")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- leak checks -----------------------------------------------------------


def _child_pids() -> list[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            cmd = Path(f"/proc/{entry}/cmdline").read_bytes()
        except (OSError, IndexError, ValueError):
            continue
        # multiprocessing's resource tracker lives until this process
        # exits; run.py checks that it is gone afterwards.
        if b"resource_tracker" not in cmd:
            out.append(int(entry))
    return out


def leak_report(shm_before: set[str], work: Path) -> list[str]:
    problems = []
    deadline = time.monotonic() + 5.0
    while True:
        threads = [
            t.name for t in threading.enumerate()
            if t is not threading.main_thread() and t.is_alive() and not t.daemon
        ]
        children = _child_pids()
        if not (threads or children) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if threads:
        problems.append(f"non-daemon threads alive: {threads}")
    if children:
        problems.append(f"child processes alive: {children}")
    shm_new = sorted(set(os.listdir("/dev/shm")) - shm_before)
    if shm_new:
        problems.append(f"/dev/shm segments left: {shm_new}")
    left = sorted(p.name for p in work.iterdir() if p.name != "tmp")
    left += sorted(f"tmp/{p.name}" for p in (work / "tmp").iterdir())
    if left:
        problems.append(f"files left in the work directory: {left}")
    return problems


def load_graph(inst: dict, trace, timings: dict):
    """The workload's one instance, checked against its stated size."""
    from repro import datasets

    load = trace.wrap(datasets.load, "datasets.load") if trace else datasets.load
    t0 = time.perf_counter()
    graph = load(inst["dataset"], inst["model"])
    timings["datasets.load_s"] = time.perf_counter() - t0
    if (graph.n, graph.m) != (inst["n"], inst["edges"]):
        raise BenchError(f"{inst['dataset']} stand-in is not n={inst['n']}, m={inst['edges']}")
    return graph


# -- solve workloads -------------------------------------------------------


class SolveWorkload:
    """Back-to-back serial imm() calls; op 0 is re-run on the process pool.

    The pool run follows the timed window: it cross-checks op 0 against
    the serial engine and is the traced run's source for the
    ``sampling.parallel_engine`` layer.
    """

    def __init__(self, name: str, args, trace) -> None:
        self.name, self.args, self.trace = name, args, trace
        self.wl = SPEC["workloads"][name]
        self.min_ops = SPEC["min_closed_loop_ops"]

    def setup(self, timings: dict) -> None:
        from repro import imm

        self.imm = self.trace.wrap(imm, "imm") if self.trace else imm
        self.graph = load_graph(self.wl["instance"], self.trace, timings)
        rng = random.Random(self.args.seed)
        self.op_seeds = [rng.randrange(2**31) for _ in range(1000)]
        self.inputs = {"workload": self.name, "op_seeds": self.op_seeds}

    def solve(self, op_seed: int, workers: int):
        inst = self.wl["instance"]
        return self.imm(
            self.graph, k=inst["k"], eps=inst["eps"], model=inst["model"],
            seed=op_seed, workers=workers,
        )

    def run(self, opctx) -> dict:
        from repro.imm import DegradedResult

        with opctx("warmup"):
            warm = self.solve(self.op_seeds[0], self.wl["workers"])
        lat, results, errors = [], [], []
        start = time.perf_counter()
        for i, op_seed in enumerate(self.op_seeds):
            if time.perf_counter() - start >= self.args.seconds and i >= self.min_ops:
                break
            t0 = time.perf_counter()
            try:
                with opctx(i):
                    r = self.solve(op_seed, self.wl["workers"])
            except Exception as exc:  # a failed op is counted, not fatal
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                r = None
            lat.append(time.perf_counter() - t0)
            results.append(r)
        window = time.perf_counter() - start
        rss = peak_rss_mb()
        t0 = time.perf_counter()
        with opctx("pool"):
            pool = self.solve(self.op_seeds[0], self.wl["pool_workers"])
        pool_s = time.perf_counter() - t0
        worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return {
            "warm": warm, "lat": lat, "results": results, "errors": errors,
            "window": window, "rss": rss, "pool": pool, "pool_s": pool_s,
            "worker_rss": worker_rss,
            "degraded": [isinstance(r, DegradedResult) for r in results],
        }

    def verify(self, m: dict) -> dict:
        k = self.wl["instance"]["k"]
        wrong, checks, ok = [], [], []
        for i, (r, degraded) in enumerate(zip(m["results"], m["degraded"])):
            valid = r is not None and len(set(int(v) for v in r.seeds)) == len(r.seeds) == k
            if r is not None and not valid:
                wrong.append(f"op {i}: seed set is not {k} distinct vertices")
            ok.append(valid and not degraded)
        first = m["results"][0]
        for other, what in ((m["warm"], "the warm-up"), (m["pool"], "the process pool")):
            if first is None or list(other.seeds) != list(first.seeds) or other.theta != first.theta:
                checks.append(f"op 0 differs between the timed run and {what}")
        ref = SPEC["solve_digest"]
        seeds_digest = digest([
            [s, [int(v) for v in r.seeds] if r is not None else None]
            for s, r in zip(self.op_seeds[: ref["ops"]], m["results"][: ref["ops"]])
        ])
        if self.args.seed == ref["seed"] and seeds_digest != ref["sha256"]:
            checks.append(
                f"seed sets of ops 0..{ref['ops'] - 1} hash to {seeds_digest}, "
                f"expected {ref['sha256']}"
            )
        return {"ok": ok, "wrong": wrong, "checks": checks}

    def end_to_end(self, m: dict, v: dict) -> dict:
        limit = self.wl["latency_limit_s"]
        answered = [d for r, d in zip(m["results"], m["degraded"]) if r is not None]
        good = sum(1 for ok, lt in zip(v["ok"], m["lat"]) if ok and lt <= limit)
        n = len(m["lat"])
        return {
            "op_p50_s": (percentile(m["lat"], 50, "op latency"), n),
            "goodput_ops_per_s": (good / m["window"], good),
            "ok_frac": (sum(v["ok"]) / n, n),
            "fresh_frac": (answered.count(False) / max(len(answered), 1), len(answered)),
            "peak_rss_mb": (m["rss"], 1),
        }

    def per_layer(self, m: dict, spans: list, selft: dict) -> dict:
        n_ops = self.min_ops
        res = m["results"][:n_ops]
        if any(r is None for r in res):
            raise BenchError("a solve in the traced op set failed")
        by: dict[str, list] = {}
        pool_by: dict[str, list] = {}
        for s in spans:
            if isinstance(s[2], int) and s[2] < n_ops:
                by.setdefault(s[3], []).append(s)
            elif s[2] == "pool":
                pool_by.setdefault(s[3], []).append(s)

        def secs(spans_of, name, parents=None):
            return sum(s[5] - s[4] for s in spans_of.get(name, ())
                       if parents is None or s[1] in parents) / 1e9

        def per(x):
            return x / n_ops

        theta_ids = {s[0] for s in by.get("estimate_theta", ())}
        edges = sum(r.counters.edges_examined for r in res)
        sampling_s = secs(by, "sample_batch")
        eng = m["pool"].extra["engine"]
        workers = self.wl["pool_workers"]
        into = secs(pool_by, "ParallelSamplingEngine.sample_into")
        return {
            "sampling.calls": per(len(by.get("sample_batch", ()))),
            "sampling.busy_s": per(sampling_s),
            "sampling.samples": per(sum(r.counters.samples_generated for r in res)),
            "sampling.edges_examined": per(edges),
            "sampling.edges_per_s": edges / sampling_s,
            "sampling.parallel_engine.solve_s": m["pool_s"],
            "sampling.parallel_engine.spawn_s": secs(pool_by, "ParallelSamplingEngine.spawn_pool"),
            "sampling.parallel_engine.sample_into_s": into,
            "sampling.parallel_engine.worker_sample_s": eng["sample_seconds"],
            "sampling.parallel_engine.utilization": eng["sample_seconds"] / (workers * into),
            "sampling.parallel_engine.arena_write_s": eng["arena_write_seconds"],
            "sampling.parallel_engine.landing_s": eng["landing_seconds"],
            "sampling.parallel_engine.count_merge_s": eng["count_merge_seconds"],
            "sampling.parallel_engine.blocks_landed": eng["blocks_landed"],
            "sampling.parallel_engine.count_fallbacks": eng["count_fallbacks"],
            "sampling.parallel_engine.arena_overflows": eng["arena_overflows"],
            "sampling.parallel_engine.ipc_bytes_per_block": eng["ipc_descriptor_bytes"] / eng["blocks_landed"],
            "sampling.parallel_engine.close_s": secs(pool_by, "ParallelSamplingEngine.close"),
            "sampling.parallel_engine.worker_peak_rss_mb": m["worker_rss"],
            "imm.theta.busy_s": per(secs(by, "estimate_theta")),
            "imm.theta.rounds": per(sum(r.extra["estimation_rounds"] for r in res)),
            "imm.theta.sampling_s": per(secs(by, "sample_batch", theta_ids)),
            "imm.theta.select_s": per(secs(by, "select_seeds", theta_ids)),
            "imm.select.calls": per(len(by.get("select_seeds", ()))),
            "imm.select.busy_s": per(secs(by, "select_seeds")),
            "imm.select.entries_scanned": per(sum(r.counters.entries_scanned for r in res)),
            "imm.select.counter_updates": per(sum(r.counters.counter_updates for r in res)),
            "imm.collection_bytes": per(sum(r.memory_bytes for r in res)),
            "imm.self_s": per(sum(selft[s[0]] for s in by.get("imm", ())) / 1e9),
            "harness.ops_attempted": len(m["results"]),
        }


# -- the serving workload --------------------------------------------------


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    w = sum(weights)
    exact = [total * x / w for x in weights]
    counts = [int(e) for e in exact]
    order = sorted(range(len(weights)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


class ServeWorkload:
    def __init__(self, name: str, args, trace) -> None:
        self.name, self.args, self.trace = name, args, trace
        self.wl = SPEC["workloads"][name]

    def setup(self, timings: dict) -> None:
        from repro.serving import freeze_index

        freeze = self.trace.wrap(freeze_index, "freeze_index") if self.trace else freeze_index
        inst = self.wl["instance"]
        self.graph = load_graph(inst, self.trace, timings)
        self.ops = self.schedule()
        self.path = self.args.work / "index"
        t0 = time.perf_counter()
        index, _ = freeze(
            self.graph, inst["freeze_k"], inst["freeze_eps"], inst["model"],
            seed=inst["index_seed"], out_dir=self.path,
        )
        index.close()
        timings["serving.frozen.freeze_s"] = time.perf_counter() - t0

    def schedule(self) -> list[dict]:
        """The op list: a pure function of --seed, --seconds and spec.json."""
        rng = random.Random(self.args.seed)
        wl, n = self.wl, self.graph.n
        total = round(wl["rate_qps"] * self.args.seconds)
        kinds_counts = _largest_remainder(total, list(wl["mix"].values()))
        kinds = [k for k, c in zip(wl["mix"], kinds_counts) for _ in range(c)]
        rng.shuffle(kinds)
        cat = wl["top_k_catalogue"]
        pair_counts = _largest_remainder(
            kinds_counts[0], [1.0 / (r + 1) ** wl["zipf_s"] for r in range(len(cat))]
        )
        pairs = [tuple(p) for p, c in zip(cat, pair_counts) for _ in range(c)]
        rng.shuffle(pairs)
        times = sorted(rng.uniform(0.0, self.args.seconds) for _ in range(total))
        ops = []
        for t, kind in zip(times, kinds):
            op = {"t": t, "kind": kind}
            if kind == "top_k":
                op["k"], op["eps"] = pairs.pop()
            elif kind == "what_if":
                wi = wl["what_if"]
                forced = rng.sample(range(n), rng.randint(*wi["forced"]))
                rest = [v for v in range(n) if v not in forced]
                op.update(k=wi["k"], forced=forced, excluded=rng.sample(rest, rng.randint(*wi["excluded"])))
            else:
                op["seed_set"] = rng.sample(range(n), rng.randint(*wl["marginal_gain"]["seed_set"]))
            ops.append(op)
        self.inputs = {"workload": self.name, "ops": ops}
        return ops

    async def start(self) -> None:
        from repro.serving import ClusterRouter

        r = self.wl["router"]
        self.router = ClusterRouter(num_replicas=r["num_replicas"], concurrency=r["concurrency"])
        # One cheap read per replica opens the index and builds its
        # vertex index, as a server does before it takes traffic.
        probe = await self.router.probe(self.path)
        if set(probe.values()) != {"ok"}:
            raise BenchError(f"replica probe failed: {probe}")

    def _stats(self) -> dict:
        out = {"cluster": self.router.stats.as_dict()}
        out["frontend"] = [fe.stats.as_dict() for fe in self.router.frontends()]
        caches = [fe.cache for fe in self.router.frontends()]
        out["cache"] = {
            key: sum(getattr(c, key) for c in caches) for key in ("hits", "misses", "evictions")
        }
        out["dispatched"] = sum(rep["dispatched"] for rep in self.router.replica_stats())
        return out

    async def _one(self, i: int, op: dict, due: float, opctx, rec: list) -> None:
        from repro.serving import DegradedServingResult

        router, path = self.router, self.path
        try:
            with opctx(i):
                if op["kind"] == "top_k":
                    r = await router.top_k(path, op["k"], op["eps"])
                elif op["kind"] == "what_if":
                    r = await router.what_if(path, op["k"], forced=op["forced"], excluded=op["excluded"])
                else:
                    r = await router.marginal_gain(path, op["seed_set"])
            done = time.perf_counter()
            rec[i] = {"lat": done - due, "done": done, "result": r,
                      "degraded": isinstance(r, DegradedServingResult)}
        except Exception as exc:  # a failed op is counted, not fatal
            done = time.perf_counter()
            rec[i] = {"lat": done - due, "done": done, "error": f"{type(exc).__name__}: {exc}"}

    async def drive(self, opctx) -> dict:
        # Warm-up reads outside the window, on inputs the op list never uses.
        with opctx("warmup"):
            await self.router.top_k(self.path)
            await self.router.what_if(self.path, self.wl["what_if"]["k"], forced=[0], excluded=[1])
            await self.router.marginal_gain(self.path, [0])
        rec: list = [None] * len(self.ops)
        late, tasks = [], []
        before = self._stats()
        t0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            due = t0 + op["t"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(time.perf_counter() - due, 0.0))
            tasks.append(asyncio.create_task(self._one(i, op, due, opctx, rec)))
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=60.0)
        end = max(r["done"] for r in rec)
        after = self._stats()
        return {"rec": rec, "late": late, "window": end - t0, "rss": peak_rss_mb(),
                "before": before, "after": after}

    async def stop(self) -> None:
        await self.router.close()

    def verify(self, m: dict) -> dict:
        from repro import imm
        from repro.serving import FrozenRRRIndex, InfluenceQueryEngine

        from reference import PrefixReference

        inst = self.wl["instance"]
        checks, wrong, ok = [], [], []
        index = FrozenRRRIndex.open(self.path)
        try:
            engine = InfluenceQueryEngine(index)
            ref = PrefixReference(*index.arrays(), index.n)
            direct = {}
            fresh = imm(self.graph, inst["freeze_k"], inst["freeze_eps"], inst["model"], seed=inst["index_seed"])
            frozen = engine.top_k()
            if list(fresh.seeds) != list(frozen.seeds) or fresh.theta != frozen.theta:
                checks.append("frozen-(k, eps) top_k differs from a fresh imm()")
            for i, (op, r) in enumerate(zip(self.ops, m["rec"])):
                res = r.get("result")
                if res is None or r["degraded"]:
                    ok.append(False)
                    continue
                why = None
                if op["kind"] == "top_k":
                    key = (op["k"], op["eps"])
                    if key not in direct:
                        direct[key] = engine.top_k(*key, allow_extend=False)
                    d = direct[key]
                    if (list(res.seeds) != list(d.seeds) or res.theta != d.theta
                            or res.num_samples_used != d.num_samples_used
                            or res.estimation_rounds != d.estimation_rounds):
                        why = f"top_k{key} differs from the direct engine"
                elif op["kind"] == "what_if":
                    seeds, covered = ref.what_if(res.num_samples_used, op["k"], op["forced"], op["excluded"])
                    if list(res.seeds) != seeds or res.coverage != covered / res.num_samples_used:
                        why = "what_if differs from greedy over its prefix"
                else:
                    spread, covered, gains = ref.marginal_gain(res.num_samples, op["seed_set"])
                    if (res.spread != spread or res.covered_samples != covered
                            or not (res.gains == gains).all()):
                        why = "marginal_gain differs from the prefix recount"
                if why is None and op["kind"] != "marginal_gain" and (res.edges_examined or res.samples_added):
                    why = "a read examined edges or appended samples"
                if why is not None:
                    wrong.append(f"op {i}: {why}")
                ok.append(why is None)
        finally:
            index.close()
        return {"ok": ok, "wrong": wrong, "checks": checks}

    def end_to_end(self, m: dict, v: dict) -> dict:
        rec, limit = m["rec"], self.wl["latency_limit_s"]
        answered = [r for r in rec if "result" in r]
        lat = [r["lat"] for r in rec]
        good = sum(1 for r, ok in zip(rec, v["ok"]) if ok and r["lat"] <= limit)
        return {
            "op_p50_s": (percentile(lat, 50, "read latency"), len(lat)),
            "read_p90_s": (percentile(lat, 90, "read latency"), len(lat)),
            "goodput_ops_per_s": (good / m["window"], good),
            "ok_frac": (sum(v["ok"]) / len(rec), len(rec)),
            "fresh_frac": (sum(not r["degraded"] for r in answered) / max(len(answered), 1), len(answered)),
            "peak_rss_mb": (m["rss"], 1),
        }

    def per_layer(self, m: dict, spans: list, selft: dict) -> dict:
        rec = m["rec"]
        reads = len(rec)
        win = [s for s in spans if isinstance(s[2], int)]
        by: dict[str, list] = {}
        for s in win:
            by.setdefault(s[3], []).append(s)
        kids: dict[int, list] = {}
        for s in win:
            kids.setdefault(s[1], []).append(s)

        def durs(name):
            return [(s[5] - s[4]) / 1e9 for s in by.get(name, ())]

        def engine_durs(op):
            return durs(f"InfluenceQueryEngine.{op}")

        queue_waits = []
        for op in ("top_k", "what_if", "marginal_gain"):
            for s in by.get(f"ServingFrontend.{op}", ()):
                children = sorted(kids.get(s[0], ()), key=lambda c: c[4])
                leases = [c for c in children if c[3] == "IndexCache.lease"]
                if not leases:
                    continue  # coalesced onto another execution
                ident = sum(c[5] - c[4] for c in children
                            if c[3] == "IndexCache.identity" and c[4] < leases[0][4])
                queue_waits.append((leases[0][4] - s[4] - ident) / 1e9)
        router_self = [selft[s[0]] / 1e9 for op in ("top_k", "what_if", "marginal_gain")
                       for s in by.get(f"ClusterRouter.{op}", ())]
        b, a = m["before"], m["after"]
        cl = {k: a["cluster"][k] - b["cluster"][k] for k in a["cluster"]}
        fe = {k: sum(x[k] for x in a["frontend"]) - sum(x[k] for x in b["frontend"])
              for k in a["frontend"][0]}
        results = [r["result"] for r in rec if "result" in r]
        topk = [r for r, op in zip((r.get("result") for r in rec), self.ops)
                if r is not None and op["kind"] == "top_k"]
        used = [getattr(r, "num_samples_used", None) or r.num_samples for r in results]
        setup_opens = [(s[5] - s[4]) / 1e9 for s in self.trace.spans
                       if s[2] == "setup" and s[3] == "FrozenRRRIndex.open"]
        return {
            "sampling.calls": len(by.get("sample_batch", ())) / reads,
            "sampling.edges_examined": sum(getattr(r, "edges_examined", 0) for r in results) / reads,
            "serving.cluster.self_p50_s": layer_percentile(router_self, 50, "router self time"),
            "serving.cluster.routed": cl["routed"],
            "serving.cluster.hedges": cl["hedges"],
            "serving.cluster.hedge_wins": cl["hedge_wins"],
            "serving.cluster.dispatches_per_query": (a["dispatched"] - b["dispatched"]) / max(cl["routed"], 1),
            "serving.cluster.failovers": cl["failovers"],
            "serving.frontend.queue_wait_p50_s": layer_percentile(queue_waits, 50, "queue wait"),
            "serving.frontend.queue_wait_p90_s": layer_percentile(queue_waits, 90, "queue wait"),
            "serving.frontend.admitted": fe["admitted"],
            "serving.frontend.coalesced_frac": fe["coalesced"] / max(fe["admitted"], 1),
            "serving.frontend.rejected": fe["rejected"],
            "serving.frontend.deadline_shed": fe["deadline_shed"],
            "serving.frontend.degraded": fe["degraded"],
            "serving.frontend.peak_inflight": max(x["peak_inflight"] for x in a["frontend"]),
            "serving.cache.lease_p50_s": layer_percentile(durs("IndexCache.lease"), 50, "lease"),
            "serving.cache.identity_p50_s": layer_percentile(durs("IndexCache.identity"), 50, "identity"),
            "serving.cache.identity_calls": len(by.get("IndexCache.identity", ())) / reads,
            "serving.cache.hits": a["cache"]["hits"] - b["cache"]["hits"],
            "serving.cache.misses": a["cache"]["misses"] - b["cache"]["misses"],
            "serving.cache.evictions": a["cache"]["evictions"] - b["cache"]["evictions"],
            "serving.query.top_k_p50_s": layer_percentile(engine_durs("top_k"), 50, "top_k"),
            "serving.query.what_if_p50_s": layer_percentile(engine_durs("what_if"), 50, "what_if"),
            "serving.query.marginal_gain_p50_s": layer_percentile(engine_durs("marginal_gain"), 50, "marginal_gain"),
            "serving.query.busy_s": sum(sum(engine_durs(op)) for op in ("top_k", "what_if", "marginal_gain")) / reads,
            "serving.query.celf_runs_per_top_k": mean(r.estimation_rounds + 1 for r in topk),
            "serving.query.samples_used_mean": mean(used),
            "serving.query.samples_added": sum(getattr(r, "samples_added", 0) for r in results),
            "serving.query.edges_examined": sum(getattr(r, "edges_examined", 0) for r in results),
            "serving.frozen.open_s": mean(setup_opens),
            "serving.frozen.opens": len(by.get("FrozenRRRIndex.open", ())),
            "harness.ops_attempted": reads,
            "harness.read_p90_s": percentile([r["lat"] for r in rec], 90, "read latency"),
            "harness.send_late_p50_s": percentile(m["late"], 50, "send lateness"),
            "harness.send_late_p90_s": percentile(m["late"], 90, "send lateness"),
        }


WORKLOADS = {"solve": SolveWorkload, "serve": ServeWorkload}


# -- one run --------------------------------------------------------------


def run(args) -> dict:
    shm_before = set(os.listdir("/dev/shm"))
    timings: dict = {}
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro  # noqa: F401 - the import is part of set-up

    timings["repro.import_s"] = time.perf_counter() - t0

    from tracing import OP, Tracer, per_span_cost_s, self_times

    trace = Tracer() if args.trace else None
    if trace:
        trace.install_program_wrappers()

    @contextlib.contextmanager
    def opctx(op):
        """Tag the spans recorded inside with benchmark op ``op``."""
        token = OP.set(op)
        try:
            yield
        finally:
            OP.reset(token)

    wl = WORKLOADS[args.workload](args.workload, args, trace)
    out = {"workload": args.workload, "seed": args.seed}
    serving = isinstance(wl, ServeWorkload)
    with opctx("setup"):
        wl.setup(timings)

    async def serve_main():
        with opctx("setup"):
            await wl.start()
        out["setup_s"] = time.time() - args.launched
        try:
            if not args.setup_only:
                return await wl.drive(opctx)
        finally:
            await wl.stop()

    if serving:
        m = asyncio.run(serve_main())
    else:
        out["setup_s"] = time.time() - args.launched
        m = None if args.setup_only else wl.run(opctx)
    out["inputs_digest"] = digest(wl.inputs)
    if args.setup_only:
        remove_index(args.work)
        out["leaks"] = leak_report(shm_before, args.work)
        return out

    spans = trace.spans if trace else []
    if trace:
        trace.uninstall()
        layer = dict.fromkeys((x["name"] for x in BENCH["per_layer"]), 0.0)
        selft = self_times(spans)
        extra = {**timings, **wl.per_layer(m, spans, selft)}
        window_spans = [s for s in spans if isinstance(s[2], int)]
        extra["harness.spans"] = len(window_spans)
        extra["trace.overhead_frac"] = per_span_cost_s() * len(window_spans) / m["window"]
        unknown = set(extra) - set(layer)
        if unknown:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        layer.update(extra)
        out["per_layer"] = layer
        out["layer_table"] = layer_table(spans, selft)
        trace_dir = args.work.parent / "trace"
        trace.write_jsonl(trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")

    v = wl.verify(m)
    e2e = wl.end_to_end(m, v)
    e2e["setup_s"] = (out["setup_s"], 1)
    out["end_to_end"] = e2e
    attempted = len(v["ok"])
    out["attempted"] = attempted
    out["failed"] = attempted - sum(v["ok"])
    out["errors"] = (m.get("errors") or [r["error"] for r in m.get("rec", []) if "error" in r])[:10]
    out["wrong"] = v["wrong"][:10]
    out["checks"] = v["checks"]
    out["correct"] = not v["wrong"] and not v["checks"]
    if "late" in m:
        out["send_late"] = [percentile(m["late"], q, "send lateness") for q in (50, 90)]
    remove_index(args.work)
    out["leaks"] = leak_report(shm_before, args.work)
    return out


def remove_index(work: Path) -> None:
    """Teardown: the frozen index directory is the workload's to delete."""
    if (work / "index").exists():
        shutil.rmtree(work / "index")


def layer_table(spans: list, selft: dict) -> list:
    """Self seconds per layer over the timed window, per op."""
    from tracing import LAYER_OF

    ops = {s[2] for s in spans if isinstance(s[2], int)}
    per_layer: dict[str, float] = {}
    for s in spans:
        if isinstance(s[2], int):
            layer = LAYER_OF.get(s[3], s[3])
            per_layer[layer] = per_layer.get(layer, 0.0) + selft[s[0]] / 1e9
    n = max(len(ops), 1)
    return sorted(((k, v / n) for k, v in per_layer.items()), key=lambda kv: -kv[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    (args.work / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        out = run(args)
    except BenchError as exc:
        out = {"error": str(exc)}
    finally:
        remove_index(args.work)
    args.out.write_text(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
