"""``repro-imm``: the command-line front end.

Subcommands mirror the tool surface the paper's framework exposes:

* ``repro-imm datasets`` — list the registered stand-ins with their
  Table 2 metadata;
* ``repro-imm run`` — run a chosen IMM variant on a dataset or edge
  list, printing seeds, θ, phase breakdown and optional spread; with
  ``--supervise`` the process pool self-heals (``--spares``,
  ``--deadline``, ``--checkpoint-out``/``--resume-from``);
* ``repro-imm spread`` — Monte-Carlo spread of an explicit seed set;
* ``repro-imm sweep`` — IMM across several k values with one shared RRR
  collection (the "multiple k values" workflow of the paper's intro);
* ``repro-imm community`` — the community-decomposed extension;
* ``repro-imm dist`` — the distributed driver with fault injection
  (``--fault-plan``), recovery policies (``--policy``) and
  checkpoint/restart (``--checkpoint-out``/``--resume-from``);
* ``repro-imm experiment`` — same as ``python -m repro.experiments``;
* ``repro-imm validate`` — the cross-implementation equivalence oracle
  (``--quick``/``--full``, shardable via ``--shard i/m``) and its
  mutation-test mode (``--mutate``);
* ``repro-imm freeze`` — sample once and freeze a persistent RRR index
  (``--out DIR``) that later queries serve from without resampling;
* ``repro-imm query`` — influence queries against a frozen index:
  ``top_k`` (any ``--k``/``--eps``, bit-identical to a fresh run),
  ``--tighten``, ``--forced``/``--excluded`` what-ifs and ``--marginal``
  spread estimates.

Graphs come from the dataset registry (``--dataset``), SNAP edge lists
(``--edgelist``), METIS files (``--metis``) or MatrixMarket coordinate
files (``--mtx``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .community import community_imm
from .datasets import load, names, spec
from .diffusion import estimate_spread
from .graph import graph_stats, lt_normalize, read_edgelist, read_matrix_market, read_metis
from .imm import imm, imm_sweep
from .mpi import imm_dist
from .parallel import EDISON, LAPTOP, PUMA, imm_mt
from .perf import profile_run

_MACHINES = {"puma": PUMA, "edison": EDISON, "laptop": LAPTOP}


def _load_graph(args: argparse.Namespace):
    if args.dataset:
        return load(args.dataset, args.model)
    if getattr(args, "metis", None):
        graph = read_metis(args.metis)
    elif getattr(args, "mtx", None):
        graph = read_matrix_market(args.mtx)
    else:
        graph = read_edgelist(args.edgelist)
    if args.model.upper() == "LT":
        graph = lt_normalize(graph)
    return graph


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':18s} {'paper n':>10s} {'paper m':>12s} {'standin n':>10s} {'standin m':>10s}")
    for name in names():
        s = spec(name)
        g = s.build()
        print(
            f"{name:18s} {s.paper_nodes:>10,d} {s.paper_edges:>12,d}"
            f" {g.n:>10,d} {g.m:>10,d}"
        )
    return 0


def _supervisor_opts(args: argparse.Namespace) -> dict | None:
    """Collect the supervision knobs of ``run`` into ``supervisor_opts``."""
    opts: dict = {}
    if args.spares is not None:
        opts["spares"] = args.spares
    if args.deadline is not None:
        opts["deadline"] = args.deadline
    if args.checkpoint_out:
        opts["checkpoint_dir"] = args.checkpoint_out
    if args.resume_from:
        opts["resume_from"] = args.resume_from
    if opts and not args.supervise:
        raise SystemExit(
            "--spares/--deadline/--checkpoint-out/--resume-from require --supervise"
        )
    return opts or None


def _cmd_run(args: argparse.Namespace) -> int:
    if args.supervise and args.variant != "serial":
        raise SystemExit(
            "--supervise applies to the serial variant (the real process-pool "
            "sampling path); the dist variant has its own --fault-plan/--policy "
            "resilience under `repro-imm dist`"
        )
    graph = _load_graph(args)
    stats = graph_stats(graph)
    print(f"graph: n={stats.nodes} m={stats.edges} avg_deg={stats.avg_degree:.2f}")

    def execute():
        if args.variant == "serial":
            return imm(
                graph,
                k=args.k,
                eps=args.eps,
                model=args.model,
                seed=args.seed,
                layout=args.layout,
                theta_cap=args.theta_cap,
                workers=args.workers,
                supervise=args.supervise,
                supervisor_opts=_supervisor_opts(args),
            )
        if args.variant == "mt":
            return imm_mt(
                graph,
                k=args.k,
                eps=args.eps,
                model=args.model,
                num_threads=args.threads,
                machine=_MACHINES[args.machine],
                seed=args.seed,
                theta_cap=args.theta_cap,
                workers=args.workers,
            )
        return imm_dist(
            graph,
            k=args.k,
            eps=args.eps,
            model=args.model,
            num_nodes=args.nodes,
            machine=_MACHINES[args.machine],
            seed=args.seed,
            theta_cap=args.theta_cap,
        )

    if args.profile:
        result, report = profile_run(execute)
        print(report)
    else:
        result = execute()
    print(result.summary())
    if "time_report" in result.extra:
        for line in result.extra["time_report"].splitlines():
            print(f"  {line}")
    else:
        b = result.breakdown
        for phase, seconds in b.as_dict().items():
            print(f"  {phase:13s} {seconds:.4f}s")
    if result.extra.get("workers", 0) > 1:
        print(
            f"  (sampling executed on a {result.extra['workers']}"
            "-worker process pool)"
        )
    eng = result.extra.get("engine")
    if eng and eng.get("blocks_landed"):
        print(
            f"  engine: blocks={eng['blocks_landed']}"
            f" arena_segments={eng['arena_segments']}"
            f" overflows={eng['arena_overflows']}"
            f" ipc_bytes={eng['ipc_descriptor_bytes']}"
            f" chunk={eng['chunk_initial']}->{eng['chunk_final']}"
        )
    sup = result.extra.get("supervisor")
    if sup:
        print(
            f"  supervisor: crashes={sup['crashes_observed']}"
            f" rebuilds={sup['rebuilds']} replayed={sup['blocks_replayed']}"
            f" speculative_wins={sup['speculative_wins']}"
            f" resumed={sup['resumed_samples']}"
        )
        if sup["checkpoint_bytes"]:
            print(
                f"  checkpoint: {sup['checkpoint_bytes']} bytes in"
                f" {sup['checkpoint_seconds']:.4f}s -> {args.checkpoint_out}"
            )
    if result.extra.get("degraded"):
        print(
            f"DEGRADED: deadline expired with theta_effective="
            f"{result.extra['theta_effective']} of theta={result.theta}"
            f" (epsilon_effective={result.extra['epsilon_effective']:.4f})"
        )
    print(f"seeds: {' '.join(map(str, result.seeds.tolist()))}")
    if args.evaluate:
        sp = estimate_spread(
            graph, result.seeds, args.model, trials=args.trials, seed=args.seed + 1
        )
        print(f"expected spread: {sp.mean:.1f} ± {sp.stderr:.2f} ({sp.trials} trials)")
    return 0


def _cmd_spread(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    seeds = np.asarray([int(s) for s in args.seeds.split(",")], dtype=np.int64)
    sp = estimate_spread(graph, seeds, args.model, trials=args.trials, seed=args.seed)
    print(f"expected spread of {len(seeds)} seeds: {sp.mean:.1f} ± {sp.stderr:.2f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    ks = [int(x) for x in args.ks.split(",")]
    results = imm_sweep(
        graph,
        ks,
        args.eps,
        model=args.model,
        seed=args.seed,
        theta_cap=args.theta_cap,
        workers=args.workers,
        supervise=args.supervise,
    )
    print(f"{'k':>5s} {'theta':>8s} {'samples':>8s} {'reused':>8s} {'est.spread':>11s}")
    for res in results:
        print(
            f"{res.k:>5d} {res.theta:>8d} {res.num_samples:>8d}"
            f" {res.extra['samples_reused']:>8d}"
            f" {res.coverage * graph.n:>11.1f}"
        )
    return 0


def _cmd_community(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    res = community_imm(
        graph, k=args.k, eps=args.eps, model=args.model, seed=args.seed,
        theta_cap=args.theta_cap,
    )
    print(f"communities used: {res.num_communities}")
    print(f"allocation: {res.allocation}")
    print(f"seeds: {' '.join(map(str, res.seeds.tolist()))}")
    if args.evaluate:
        sp = estimate_spread(
            graph, res.seeds, args.model, trials=args.trials, seed=args.seed + 1
        )
        print(f"expected spread: {sp.mean:.1f} ± {sp.stderr:.2f}")
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        i, m = (int(part) for part in text.split("/"))
    except ValueError:
        raise SystemExit(f"--shard expects i/m (e.g. 2/4), got {text!r}")
    return i, m


def _cmd_validate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .validate import (
        SMOKE_MUTANTS,
        full_config,
        quick_config,
        run_mutation_suite,
        run_oracle,
    )

    status = 0
    if args.mutate or args.mutate_smoke:
        names = SMOKE_MUTANTS if args.mutate_smoke else None
        scope = "smoke subset" if args.mutate_smoke else "every failure class"
        print(f"mutation suite: injecting one fault per class ({scope}) ...")
        results = run_mutation_suite(
            seed=1 if args.seed is None else args.seed, names=names
        )
        for res in results:
            print(f"  {res}")
        survivors = [res for res in results if not res.detected]
        if survivors:
            print(f"{len(survivors)} mutant(s) SURVIVED — the oracle has blind spots")
            status = 1
        else:
            print(f"all {len(results)} mutants killed")
        if not (args.quick or args.full):
            return status

    cfg = full_config() if args.full else quick_config()
    if args.dataset:
        cfg = replace(cfg, datasets=tuple(args.dataset))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.faults:
        cfg = replace(cfg, check_faults=True)
    elif args.no_faults:
        cfg = replace(cfg, check_faults=False)
    shard = _parse_shard(args.shard) if args.shard else None
    mode = "full" if args.full else "quick"
    print(
        f"equivalence oracle ({mode}"
        + (f", shard {shard[0]}/{shard[1]}" if shard else "")
        + f"): {len(cfg.datasets)} dataset(s) x "
        f"{len(cfg.models)} model(s), theta_cap={cfg.theta_cap}"
    )
    report = run_oracle(cfg, progress=lambda line: print(f"  {line}"), shard=shard)
    print(report.summary())
    return 1 if (status or not report.ok) else 0


def _cmd_freeze(args: argparse.Namespace) -> int:
    from .serving import freeze_index

    graph = _load_graph(args)
    index, res = freeze_index(
        graph, args.k, args.eps, args.model, args.seed,
        theta_cap=args.theta_cap, out_dir=args.out,
    )
    try:
        mf = index.manifest
        nbytes = mf["entries"] * 4 + mf["num_samples"] * 16
        print(
            f"frozen: {mf['num_samples']} samples, {mf['entries']} entries "
            f"({nbytes / 1e6:.2f} MB) -> {index.path}"
        )
        print(
            f"  theta={res.theta} rounds={res.estimation_rounds}"
            f" edges_examined={res.edges_examined}"
            f" sample_seconds={res.seconds:.4f}"
        )
        print(f"seeds: {' '.join(map(str, res.seeds.tolist()))}")
    finally:
        index.close()
    return 0


def _parse_ids(text: str | None) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _cmd_query(args: argparse.Namespace) -> int:
    from .serving import FrozenRRRIndex, InfluenceQueryEngine

    graph = _load_graph(args) if (args.dataset or args.edgelist
                                  or args.metis or args.mtx) else None
    index = FrozenRRRIndex.open(args.index, graph=graph)
    try:
        engine = InfluenceQueryEngine(index, graph=graph, verify=False)
        mf = index.manifest
        print(
            f"index: {mf['num_samples']} samples, model={mf['model']}"
            f" seed={mf['seed']} frozen at k={mf['k']} eps={mf['eps']}"
        )
        if args.marginal:
            seed_set = np.asarray(_parse_ids(args.marginal), dtype=np.int64)
            mg = engine.marginal_gain(seed_set)
            print(
                f"spread({seed_set.tolist()}) = {mg.spread:.1f}"
                f" ({mg.covered_samples}/{mg.num_samples} samples covered)"
            )
            best = np.argsort(mg.gains)[::-1][: args.k or 10]
            print("top marginal gains:")
            for v in best:
                print(f"  +{int(v):8d}  {mg.gains[v]:10.1f}")
            return 0
        if args.forced or args.excluded:
            res = engine.what_if(
                args.k, forced=_parse_ids(args.forced),
                excluded=_parse_ids(args.excluded),
            )
        elif args.tighten is not None:
            res = engine.tighten(args.tighten, k=args.k)
        else:
            res = engine.top_k(args.k, args.eps)
        print(
            f"k={res.k} eps={res.epsilon:g} theta={res.theta}"
            f" samples_used={res.num_samples_used}"
            f" coverage={res.coverage:.4f} in {res.seconds:.4f}s"
        )
        if res.served_from_index:
            print("  served entirely from the frozen index (0 edges examined)")
        else:
            print(
                f"  extended the index: +{res.samples_added} samples"
                f" ({res.samples_reused} reused),"
                f" {res.edges_examined} edges examined"
            )
        print(f"seeds: {' '.join(map(str, res.seeds.tolist()))}")
    finally:
        index.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from .serving import (
        AdmissionRejected,
        ClusterRouter,
        ClusterUnavailable,
        FrozenRRRIndex,
        QueryDeadlineExceeded,
        ServingFrontend,
    )

    graph = _load_graph(args) if (args.dataset or args.edgelist
                                  or args.metis or args.mtx) else None
    index = FrozenRRRIndex.open(args.index)
    mf = dict(index.manifest)
    index.close()
    print(
        f"index: {mf['num_samples']} samples, model={mf['model']}"
        f" seed={mf['seed']} frozen at k={mf['k']} eps={mf['eps']}"
    )
    k = args.k if args.k is not None else int(mf["k"])
    # Synthetic mix: repeated top_k (exercises coalescing), an alternate
    # k, a what-if seat, and a marginal-gain scan, round-robin.
    kinds = ("top_k", "top_k", "alt_k", "what_if", "marginal")

    async def _one(fe: ServingFrontend, i: int, kind: str):
        t0 = time.perf_counter()
        try:
            if kind == "top_k":
                r = await fe.top_k(args.index, k, graph=graph)
            elif kind == "alt_k":
                r = await fe.top_k(args.index, max(1, k // 2), graph=graph)
            elif kind == "what_if":
                r = await fe.what_if(args.index, k, forced=(0,))
            else:
                r = await fe.marginal_gain(args.index, [0])
            out = (
                f"degraded({r.degraded_reason})"
                if getattr(r, "degraded", False) else "ok"
            )
        except AdmissionRejected as exc:
            out = f"shed(retry_after={exc.retry_after:.3f}s)"
        except QueryDeadlineExceeded:
            out = "deadline"
        except ClusterUnavailable as exc:
            out = f"unavailable(retry_after={exc.retry_after:.3f}s)"
        return i, kind, out, time.perf_counter() - t0

    async def _drive():
        if args.replicas > 1:
            fe = ClusterRouter(
                num_replicas=args.replicas,
                max_pending=args.max_pending,
                concurrency=args.concurrency,
                default_deadline=args.deadline,
                fault_plan=args.fault_plan,
                hedge_after=args.hedge_after,
            )
        else:
            fe = ServingFrontend(
                max_pending=args.max_pending,
                concurrency=args.concurrency,
                default_deadline=args.deadline,
                fault_plan=args.fault_plan,
            )
        try:
            rows = await asyncio.gather(
                *[
                    _one(fe, i, kinds[i % len(kinds)])
                    for i in range(args.requests)
                ]
            )
        finally:
            await fe.close()
        if isinstance(fe, ClusterRouter):
            # Aggregate the per-replica front-end ledgers for the shared
            # summary lines; the router's own ledger prints separately.
            agg: dict[str, int] = {}
            for f in fe.frontends():
                for key, val in f.stats.as_dict().items():
                    agg[key] = agg.get(key, 0) + val
            agg["peak_inflight"] = max(
                f.stats.peak_inflight for f in fe.frontends()
            )
            return rows, agg, fe.stats.as_dict()
        return rows, fe.stats.as_dict(), None

    rows, stats, cluster = asyncio.run(_drive())
    for i, kind, out, dt in rows:
        print(f"  q{i:03d} {kind:9s} {out:32s} {dt * 1e3:8.2f} ms")
    ok_lat = [
        dt for _, _, out, dt in rows
        if not out.startswith(("shed", "unavailable"))
    ]
    shed = sum(1 for _, _, out, _ in rows if out.startswith("shed"))
    degraded = sum(1 for _, _, out, _ in rows if out.startswith("degraded"))
    print(
        f"served {stats['completed']}/{args.requests}"
        f" (coalesced {stats['coalesced']}, remembered {stats['remembered']},"
        f" degraded {degraded},"
        f" shed {shed}, deadline_shed {stats['deadline_shed']})"
    )
    if cluster is not None:
        print(
            f"cluster: {args.replicas} replicas,"
            f" routed={cluster['routed']} failovers={cluster['failovers']}"
            f" hedges={cluster['hedges']} hedge_wins={cluster['hedge_wins']}"
            f" degraded_local={cluster['degraded_local']}"
            f" unavailable={cluster['unavailable']}"
        )
    if ok_lat:
        print(
            f"latency p50={np.percentile(ok_lat, 50) * 1e3:.2f} ms"
            f" p99={np.percentile(ok_lat, 99) * 1e3:.2f} ms"
            f" peak_inflight={stats['peak_inflight']}"
        )
    if args.fault_plan:
        print(
            f"faults: republishes={stats['republishes']}"
            f" extension_failures={stats['extension_failures']}"
            f" breaker_trips={stats['breaker_trips']}"
        )
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    import json

    graph = _load_graph(args)
    resume = None
    if args.resume_from:
        with open(args.resume_from) as fh:
            payload = json.load(fh)
        # a sink file holds the whole checkpoint trail; resume from the last
        resume = payload[-1] if isinstance(payload, list) else payload
    sink: list | None = [] if args.checkpoint_out else None
    result = imm_dist(
        graph,
        k=args.k,
        eps=args.eps,
        model=args.model,
        num_nodes=args.nodes,
        machine=_MACHINES[args.machine],
        seed=args.seed,
        theta_cap=args.theta_cap,
        fault_plan=args.fault_plan,
        policy=args.policy,
        max_retries=args.max_retries,
        resume_from=resume,
        checkpoint_sink=sink,
    )
    print(result.summary())
    extra = result.extra
    print(f"policy: {extra['policy']}   alive ranks: {extra['alive_ranks']}")
    if extra.get("fault_plan"):
        print(f"fault plan: {extra['fault_plan']}")
    if extra["degraded"]:
        print(
            f"DEGRADED: theta_effective={extra['theta_effective']}"
            f" (lost {extra['lost_samples']} samples),"
            f" epsilon_effective={extra['epsilon_effective']:.4f}"
        )
    rec = extra.get("recovery")
    if rec:
        print(
            f"recovery: retries={rec['retries']} respawns={rec['respawns']}"
            f" shrinks={rec['shrinks']} replayed_calls={rec['replayed_calls']}"
            f" (+{extra['recovery_seconds']:.4f}s modeled)"
        )
    print(f"seeds: {' '.join(map(str, result.seeds.tolist()))}")
    if args.checkpoint_out:
        with open(args.checkpoint_out, "w") as fh:
            json.dump(sink, fh, indent=2)
        print(f"wrote {len(sink)} checkpoint(s) to {args.checkpoint_out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    forwarded = list(args.names)
    if args.scale != "ci":
        forwarded = ["--scale", args.scale] + forwarded
    return experiments_main(forwarded)


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=names(), help="registered stand-in")
    src.add_argument("--edgelist", help="path to a SNAP-style edge list")
    src.add_argument("--metis", help="path to a METIS graph file")
    src.add_argument("--mtx", help="path to a MatrixMarket coordinate file")
    p.add_argument("--model", choices=("IC", "LT"), default="IC")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-imm",
        description="Fast and scalable influence maximization (CLUSTER 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ds = sub.add_parser("datasets", help="list registered datasets")
    p_ds.set_defaults(func=_cmd_datasets)

    p_run = sub.add_parser("run", help="run an IMM variant")
    _add_graph_args(p_run)
    p_run.add_argument("--k", type=int, default=20)
    p_run.add_argument("--eps", type=float, default=0.5)
    p_run.add_argument(
        "--variant", choices=("serial", "mt", "dist"), default="serial"
    )
    p_run.add_argument(
        "--layout", choices=("sorted", "hypergraph"),
        default="sorted",
        help="RRR storage: 'sorted' (flat IMM-OPT buffers) or 'hypergraph' "
        "(reference); seeds are bit-identical",
    )
    p_run.add_argument("--threads", type=int, default=20, help="mt threads")
    p_run.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for real multicore sampling (serial and mt "
        "variants; >1 turns the mt cost model's run into measured parallel "
        "execution, output stays bit-identical). Results land through a "
        "zero-copy shared-memory output arena with adaptive chunk sizing",
    )
    p_run.add_argument("--nodes", type=int, default=8, help="dist nodes")
    p_run.add_argument("--machine", choices=tuple(_MACHINES), default="puma")
    p_run.add_argument("--theta-cap", type=int, default=None)
    p_run.add_argument(
        "--supervise", action="store_true",
        help="run the sampling pool under the self-healing supervisor "
        "(crash replay, spare workers, straggler speculation); serial "
        "variant only, output stays bit-identical",
    )
    p_run.add_argument(
        "--spares", type=int, default=None, metavar="N",
        help="pre-spawned idle spare pools promoted on worker crash "
        "(with --supervise; default 1)",
    )
    p_run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="overall run deadline; on expiry the run degrades gracefully "
        "to the landed samples and reports theta_effective/epsilon_effective "
        "(with --supervise)",
    )
    p_run.add_argument(
        "--checkpoint-out", default=None, metavar="DIR",
        help="spill landed sample blocks to a durable checkpoint under DIR "
        "(with --supervise)",
    )
    p_run.add_argument(
        "--resume-from", default=None, metavar="DIR",
        help="resume sampling from a checkpoint directory written by "
        "--checkpoint-out (with --supervise)",
    )
    p_run.add_argument("--evaluate", action="store_true", help="MC-evaluate the seeds")
    p_run.add_argument("--trials", type=int, default=500)
    p_run.add_argument("--profile", action="store_true", help="cProfile the run")
    p_run.set_defaults(func=_cmd_run)

    p_sp = sub.add_parser("spread", help="Monte-Carlo spread of a seed set")
    _add_graph_args(p_sp)
    p_sp.add_argument("--seeds", required=True, help="comma-separated vertex ids")
    p_sp.add_argument("--trials", type=int, default=1000)
    p_sp.set_defaults(func=_cmd_spread)

    p_sw = sub.add_parser(
        "sweep", help="IMM for several k values, sharing one RRR collection"
    )
    _add_graph_args(p_sw)
    p_sw.add_argument("--ks", required=True, help="comma-separated k values")
    p_sw.add_argument("--eps", type=float, default=0.5)
    p_sw.add_argument("--theta-cap", type=int, default=None)
    p_sw.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size shared across all sweep points",
    )
    p_sw.add_argument(
        "--supervise", action="store_true",
        help="run the shared pool under the self-healing supervisor",
    )
    p_sw.set_defaults(func=_cmd_sweep)

    p_co = sub.add_parser(
        "community", help="community-decomposed IMM (future-work extension)"
    )
    _add_graph_args(p_co)
    p_co.add_argument("--k", type=int, default=20)
    p_co.add_argument("--eps", type=float, default=0.5)
    p_co.add_argument("--theta-cap", type=int, default=None)
    p_co.add_argument("--evaluate", action="store_true")
    p_co.add_argument("--trials", type=int, default=500)
    p_co.set_defaults(func=_cmd_community)

    p_va = sub.add_parser(
        "validate",
        help="cross-implementation equivalence oracle + invariant checks",
    )
    mode = p_va.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true",
        help="seconds-scale sweep (default; the CI/regress.py gate)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="every registry graph x every driver/layout/cohort/rank axis",
    )
    p_va.add_argument(
        "--mutate", action="store_true",
        help="inject deliberate faults and demand the oracle kills each "
        "(combinable with --quick/--full; alone it runs only the mutants)",
    )
    p_va.add_argument(
        "--mutate-smoke", action="store_true",
        help="like --mutate but only the cheap smoke subset (the tier-1 set)",
    )
    faults = p_va.add_mutually_exclusive_group()
    faults.add_argument(
        "--faults", action="store_true",
        help="force the fault-injection x recovery-policy axes on",
    )
    faults.add_argument(
        "--no-faults", action="store_true",
        help="skip the fault-injection axes (faster sweep)",
    )
    p_va.add_argument(
        "--shard", default=None, metavar="I/M",
        help="run the I-th of M interleaved subject slices (1-based), "
        "e.g. --shard 2/4; RNG laws run on shard 1 only",
    )
    p_va.add_argument(
        "--dataset", action="append", choices=names(),
        help="restrict the oracle to specific registry graphs (repeatable)",
    )
    p_va.add_argument("--seed", type=int, default=None, help="oracle master seed")
    p_va.set_defaults(func=_cmd_validate)

    p_fr = sub.add_parser(
        "freeze", help="sample once and freeze a persistent RRR query index"
    )
    _add_graph_args(p_fr)
    p_fr.add_argument("--k", type=int, default=20)
    p_fr.add_argument("--eps", type=float, default=0.5)
    p_fr.add_argument("--theta-cap", type=int, default=None)
    p_fr.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory to write the frozen index into",
    )
    p_fr.set_defaults(func=_cmd_freeze)

    p_qu = sub.add_parser(
        "query", help="influence queries against a frozen index (no resampling)"
    )
    p_qu.add_argument(
        "--index", required=True, metavar="DIR",
        help="frozen index directory written by `repro-imm freeze`",
    )
    qsrc = p_qu.add_mutually_exclusive_group()
    qsrc.add_argument(
        "--dataset", choices=names(),
        help="attach the graph (fingerprint-verified; enables queries "
        "that must extend the index)",
    )
    qsrc.add_argument("--edgelist", help="path to a SNAP-style edge list")
    qsrc.add_argument("--metis", help="path to a METIS graph file")
    qsrc.add_argument("--mtx", help="path to a MatrixMarket coordinate file")
    p_qu.add_argument(
        "--model", choices=("IC", "LT"), default="IC",
        help="diffusion model for --edgelist/--metis/--mtx loading",
    )
    p_qu.add_argument("--k", type=int, default=None, help="default: frozen k")
    p_qu.add_argument(
        "--eps", type=float, default=None, help="default: frozen eps"
    )
    p_qu.add_argument(
        "--tighten", type=float, default=None, metavar="EPS",
        help="re-derive at a tighter eps, extending the index in place",
    )
    p_qu.add_argument(
        "--forced", default=None, metavar="IDS",
        help="comma-separated vertices seated first (what-if query)",
    )
    p_qu.add_argument(
        "--excluded", default=None, metavar="IDS",
        help="comma-separated vertices never picked (what-if query)",
    )
    p_qu.add_argument(
        "--marginal", default=None, metavar="IDS",
        help="estimate the spread of this seed set and per-vertex gains",
    )
    p_qu.set_defaults(func=_cmd_query)

    p_sv = sub.add_parser(
        "serve",
        help="drive a query batch through the async serving front end",
    )
    p_sv.add_argument(
        "--index", required=True, metavar="DIR",
        help="frozen index directory written by `repro-imm freeze`",
    )
    ssrc = p_sv.add_mutually_exclusive_group()
    ssrc.add_argument(
        "--dataset", choices=names(),
        help="attach the graph (enables extension past the frozen prefix)",
    )
    ssrc.add_argument("--edgelist", help="path to a SNAP-style edge list")
    ssrc.add_argument("--metis", help="path to a METIS graph file")
    ssrc.add_argument("--mtx", help="path to a MatrixMarket coordinate file")
    p_sv.add_argument(
        "--model", choices=("IC", "LT"), default="IC",
        help="diffusion model for --edgelist/--metis/--mtx loading",
    )
    p_sv.add_argument("--k", type=int, default=None, help="default: frozen k")
    p_sv.add_argument(
        "--requests", type=int, default=16,
        help="number of queries in the synthetic batch",
    )
    p_sv.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query deadline; late queries degrade or shed",
    )
    p_sv.add_argument("--max-pending", type=int, default=64)
    p_sv.add_argument("--concurrency", type=int, default=4)
    p_sv.add_argument(
        "--replicas", type=int, default=1,
        help="serve through a replicated cluster of this many front ends "
        "(health-checked routing, failover, hedged reads); 1 = single "
        "front end",
    )
    p_sv.add_argument(
        "--hedge-after", type=float, default=None, metavar="SECONDS",
        help="cluster hedge delay override (default: adaptive EWMA p99)",
    )
    p_sv.add_argument(
        "--fault-plan", default=None,
        help="serving fault spec, e.g. 'slowquery:0x0.05;stale:@1;"
        "extendfail:@0x2' (slowquery:QxS, stale:@Q, extendfail:@NxK); "
        "with --replicas also replicacrash:R@Q, replicaslow:RxS, "
        "partition:R@Q[xD]",
    )
    p_sv.set_defaults(func=_cmd_serve)

    p_di = sub.add_parser(
        "dist",
        help="distributed IMM with fault injection, recovery and checkpointing",
    )
    _add_graph_args(p_di)
    p_di.add_argument("--k", type=int, default=20)
    p_di.add_argument("--eps", type=float, default=0.5)
    p_di.add_argument("--nodes", type=int, default=8)
    p_di.add_argument("--machine", choices=tuple(_MACHINES), default="puma")
    p_di.add_argument("--theta-cap", type=int, default=None)
    p_di.add_argument(
        "--fault-plan", default=None,
        help="fault spec, e.g. 'crash:1@3;straggler:0x4' "
        "(crash:R@N, crash:R@phase=NAME, oom:R@N, straggler:RxF, "
        "transient:@N[xK], corrupt:R@N)",
    )
    p_di.add_argument(
        "--policy", choices=("abort", "retry", "respawn", "shrink"),
        default="abort", help="recovery policy when a fault fires",
    )
    p_di.add_argument("--max-retries", type=int, default=3)
    p_di.add_argument(
        "--checkpoint-out", default=None, metavar="FILE",
        help="write the per-round checkpoint trail to FILE as JSON",
    )
    p_di.add_argument(
        "--resume-from", default=None, metavar="FILE",
        help="resume from a checkpoint file written by --checkpoint-out",
    )
    p_di.set_defaults(func=_cmd_dist)

    p_ex = sub.add_parser("experiment", help="regenerate tables/figures")
    p_ex.add_argument("names", nargs="*", default=[])
    p_ex.add_argument("--scale", choices=("ci", "paper"), default="ci")
    p_ex.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into `head` etc. closed early — exit quietly the
        # way well-behaved Unix tools do.
        import os

        os.close(sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
