"""Run the repository benchmark.

    python3 perfbench/run.py --workload solve --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, once
    python3 perfbench/run.py --workload serve --repeat 5   # median and spread

Each run launches ``workload.py`` in a fresh process for the measured
run, then ``setup_repeats - 1`` more fresh processes that only set up,
and reports the median set-up time.  After every process it checks that
no child process, ``/dev/shm`` segment or work file it created survives;
a leak fails the run with exit code 2.  A failed correctness check
prints the result with ``"correct": false`` and exits 1.  The last line
of standard output is the result as JSON: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PR_SET_CHILD_SUBREAPER = 36


class RunFailed(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _orphans() -> list[int]:
    """Processes re-parented to this runner (it is a child subreaper)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                out.append(int(entry))
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _sweep_orphans(grace: float) -> list[int]:
    """Give re-parented processes ``grace`` seconds to exit, then kill them.

    Returns the ones that had to be killed.
    """
    deadline = time.monotonic() + grace
    while _orphans() and time.monotonic() < deadline:
        _reap()
        time.sleep(0.05)
    left = _orphans()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if left:
        time.sleep(0.2)
        _reap()
    return left


def launch(workload: str, seed: int, seconds: float, trace: int, *, setup_only: bool) -> dict:
    """One fresh workload process; raises RunFailed on a crash or a leak."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    (work / "tmp").mkdir(parents=True)
    out_file, err_file = OUT / f"result-{os.getpid()}.json", OUT / f"stderr-{os.getpid()}.txt"
    shm_before = set(os.listdir("/dev/shm"))
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--work", str(work), "--out", str(out_file), "--launched", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    timeout = 25 if setup_only else 120
    try:
        with open(err_file, "w") as err:
            proc = subprocess.Popen(cmd, stdout=err, stderr=err, env=env)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Also reached when this runner is told to stop.
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                    _sweep_orphans(0.0)
        problems = []
        left = _sweep_orphans(5.0)
        if left:
            problems.append(f"processes outlived the workload: {left}")
        stderr = err_file.read_text()
        if "leaked shared_memory" in stderr:
            problems.append("the resource tracker reported leaked shared memory")
        shm_new = sorted(set(os.listdir("/dev/shm")) - shm_before)
        if shm_new:
            problems.append(f"/dev/shm segments left: {shm_new}")
        try:
            result = json.loads(out_file.read_text())
        except (OSError, json.JSONDecodeError):
            result = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        err_file.unlink(missing_ok=True)
        out_file.unlink(missing_ok=True)
    if stderr.strip():
        sys.stderr.write(stderr)
    if code is None:
        raise RunFailed(f"{workload}: no result within {timeout} s", 1)
    if code != 0 or result is None:
        raise RunFailed(f"{workload}: workload process exited with {code}", 1)
    if "error" in result:
        raise RunFailed(f"{workload}: {result['error']}", 1)
    problems += result.get("leaks", [])
    if problems:
        raise RunFailed(f"{workload}: leak check failed: " + "; ".join(problems), 2)
    return result


def run_once(bench: dict, spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The measured run plus the extra set-up runs; the contract's result."""
    main = launch(workload, seed, seconds, trace, setup_only=False)
    setups = [main["setup_s"]] + [
        launch(workload, seed, seconds, 0, setup_only=True)["setup_s"]
        for _ in range(spec["setup_repeats"] - 1)
    ]
    main["end_to_end"]["setup_s"] = [statistics.median(setups), len(setups)]
    if trace:
        metrics = {
            m["name"]: {"value": main["per_layer"][m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": main["end_to_end"][m["name"]][0], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    return {
        "result": {
            "correct": main["correct"],
            "attempted": main["attempted"],
            "failed": main["failed"],
            "metrics": metrics,
        },
        "main": main,
    }


def report(bench: dict, run: dict, trace: int) -> None:
    main = run["main"]
    print(f"workload {main['workload']}  seed {main['seed']}  inputs sha256 {main['inputs_digest']}")
    gated = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, (value, samples) in main["end_to_end"].items():
        unit = gated.get(name, "s")
        note = "" if name in gated else "  (reported, not gated)"
        print(f"  {name:<20} {value:>14.6g} {unit:<9} n={samples}{note}")
    if trace:
        print("  self time per op by layer (timed window):")
        for layer, secs in main["layer_table"]:
            print(f"    {layer:<28} {secs:>12.6f} s")
        print(f"  spans: {OUT / 'trace' / (main['workload'] + '-seed' + str(main['seed']) + '.spans.jsonl')}")
    if "send_late" in main:
        print("  open-loop send lateness p50 {:.6f} s, p90 {:.6f} s".format(*main["send_late"]))
    for line in main["wrong"] + main["checks"] + main["errors"]:
        print(f"  FAILED: {line}")


def repeat(bench: dict, spec: dict, workload: str, seed: int, seconds: float, trace: int, n: int) -> dict:
    """Median and quartile spread of every metric over ``n`` seeds."""
    values: dict[str, list[float]] = {}
    ok = True
    for i in range(n):
        r = run_once(bench, spec, workload, seed + i, seconds, trace)
        ok = ok and r["result"]["correct"]
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed + i} inputs {r['main']['inputs_digest'][:12]}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in r["result"]["metrics"].items()
            if not trace or k in ("trace.overhead_frac",)))
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "n": len(vals)}
        print(f"  {name:<44} median {med:>12.6g}  spread {summary[name]['spread']:.3%}")
    return {"correct": ok, "summary": summary}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, seeds seed..seed+N-1")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("error: cannot become a child subreaper; leak checks need it", file=sys.stderr)
        return 1
    workloads = names if args.workload == "all" else [args.workload]
    try:
        if args.repeat:
            out = {w: repeat(bench, spec, w, args.seed, args.seconds, args.trace, args.repeat)
                   for w in workloads}
            print(json.dumps(out))
            return 0 if all(r["correct"] for r in out.values()) else 1
        results = {}
        for w in workloads:
            run = run_once(bench, spec, w, args.seed, args.seconds, args.trace)
            report(bench, run, args.trace)
            results[w] = run["result"]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
