"""Benchmark of stacky: four seeded, closed-loop workloads.

    python3 perfbench/run.py --workload tables|inertia|suite|cli|all \\
        --seed N --seconds S --trace 0|1

A run repeats passes of the workload's fixed job list, each pass in a fresh
process (``worker.py``), until about S seconds have gone (the last pass may
end up to half a pass after S) and at least
``stats.min_samples(90)`` job latencies are in hand.  One client sends the
jobs back to back; nothing runs concurrently, and the run and all it starts
are pinned to one CPU.  Every job's output is checked against
``expected.json``.

Every time is normalised to the machine's nominal speed: between jobs, and
every 50 ms inside a job that runs in the pass's own process, a pass runs
three fixed reference kernels, and it divides each job's wall-clock time by
how much slower than nominal they ran around and inside it (calib.py).  The
shared host's speed swings by tens of percent within a run; the normalised
times by a few percent.
The raw wall-clock figures are kept in the run's record in perfbench/out/.

With ``--trace 0`` the run reports the end-to-end metrics:

    wall_s       median over passes of the time to finish the job list
    job_p50_ms   median job latency over all jobs of all passes
    job_p90_ms   90th-percentile job latency (at least 10 samples beyond it)
    setup_s      median over passes of the set-up time (import stacky and build
                 the inputs; for cli, a child that only imports stacky.cli)
    peak_rss_mb  median over passes of the pass process's peak RSS (for cli,
                 the largest `stacky` child)

plus ``fail_frac`` (failed jobs / jobs attempted), which is the result's
``failed`` / ``attempted``.  With ``--trace 1`` it runs one untraced pass and
then traced passes, and reports the per-layer metrics (medians over the traced
passes) and the tracing overhead.  The last line of standard output is one
JSON object; a wrong output makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

import stats
from workloads import HERE, OUT_DIR, ROOT, SRC, WORKLOADS

END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("perms.self_s", "s"), ("perms.calls", "count"), ("perms.perm_new", "count"),
    ("perms.perm_mul", "count"), ("perms.group_elements", "count"),
    ("perms.cyclic_classes", "count"), ("perms.perm_op_s", "s"),
    ("cyclo.self_s", "s"), ("cyclo.mul", "count"), ("cyclo.add", "count"),
    ("cyclo.conj", "count"), ("cyclo.op_s", "s"),
    ("chars.self_s", "s"), ("chars.table_s", "s"), ("chars.ring_s", "s"),
    ("chars.tables", "count"), ("chars.inner_products", "count"),
    ("motives.self_s", "s"), ("motives.calls", "count"), ("motives.models", "count"),
    ("decomp.self_s", "s"), ("decomp.calls", "count"), ("decomp.components", "count"),
    ("corresp.self_s", "s"), ("corresp.calls", "count"),
    ("verify.self_s", "s"), ("verify.reports", "count"), ("verify.passed_frac", "ratio"),
    ("cli.startup_ms", "ms"), ("cli.parse_s", "s"), ("cli.cmd_s", "s"), ("cli.render_s", "s"),
    ("trace.overhead", "ratio"),
)
PERCENTILES = (50, 90)
MIN_PASSES = 3          # untraced passes per run, for the medians
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170       # a run must end within 180 s


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    """One pass in a fresh process group, killed whole if it overruns."""
    spans_out = OUT_DIR / f"spans-{workload}-seed{seed}-pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if trace else "0", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass {index} did not finish within the run's time limit")
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"{workload} pass {index} exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    baseline = run_pass(workload, seed, False, 0, deadline) if trace else None
    passes = []
    need_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    need_samples = 0 if trace else stats.min_samples(max(PERCENTILES))
    while True:
        passes.append(run_pass(workload, seed, trace, len(passes) + 1, deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / (len(passes) + (baseline is not None))
        samples = sum(len(p["jobs"]) for p in passes)
        enough = len(passes) >= need_passes and samples >= need_samples
        # stop once another pass would overshoot S by more than this one falls short
        if enough and elapsed + per_pass / 2 > seconds:
            break
        if elapsed + per_pass > RUN_LIMIT_S - 10:
            if not enough:
                raise PassError(f"{workload}: only {len(passes)} passes and {samples} job "
                                f"samples fit in the run's time limit")
            break
    return {"passes": passes, "baseline": baseline, "measured_s": time.monotonic() - start}


def end_to_end(passes: list) -> dict:
    lat_ms = [lat * 1000.0 for p in passes for _id, lat, _problems in p["jobs"]]
    out = {
        "wall_s": stats.median([p["wall_s"] for p in passes]),
        "setup_s": stats.median([p["setup_s"] for p in passes]),
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in passes]),
    }
    for q in PERCENTILES:
        out[f"job_p{q}_ms"] = stats.percentile(lat_ms, q)
    return out


def per_layer(passes: list, baseline: dict) -> dict:
    med = {name: stats.median([p["trace"][name] for p in passes])
           for name in passes[0]["trace"]}
    med["verify.passed_frac"] = (med["verify.passed"] / med["verify.reports"]
                                 if med["verify.reports"] else 0.0)
    med["trace.overhead"] = stats.median([p["wall_s"] for p in passes]) / baseline["wall_s"]
    return med


def pin_to_one_cpu() -> None:
    """Runs this process and all it starts on one CPU.

    The speed samples of calib.py then come from the CPU the jobs, the
    ``stacky`` children and the timed imports run on; the CPUs of a shared
    host are loaded differently from moment to moment.  Nothing runs
    concurrently, so one CPU is all a pass uses.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], ROOT) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = None
    tree = hashlib.sha256()
    for path in sorted((SRC / "stacky").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_sha": sha or "unknown (not a git checkout)",
            "src_sha256": tree.hexdigest()[:16]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    run = measure(workload, seed, seconds, trace)
    passes = run["passes"] + ([run["baseline"]] if run["baseline"] else [])
    jobs = [job for p in passes for job in p["jobs"]]
    failures = [(job_id, problems) for job_id, _lat, problems in jobs if problems]
    if trace:
        values = per_layer(run["passes"], run["baseline"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = end_to_end(run["passes"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not failures, "attempted": len(jobs), "failed": len(failures),
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "environment": env, "passes": len(run["passes"]),
              "jobs_per_pass": len(run["passes"][0]["jobs"]), "measured_s": run["measured_s"],
              "failures": failures[:50], **result,
              "pass_wall_s": [p["wall_s"] for p in run["passes"]],
              "pass_setup_s": [p["setup_s"] for p in run["passes"]],
              "pass_raw_wall_s": [p["raw_wall_s"] for p in run["passes"]],
              "pass_raw_setup_s": [p["raw_setup_s"] for p in run["passes"]],
              "pass_slowdown": [p["slowdown"] for p in run["passes"]],
              "pass_raw_job_s": [p["raw_job_s"] for p in run["passes"]],
              "pass_slowdown_edges": [p["slowdown_edges"] for p in run["passes"]],
              "pass_slowdown_inside": [p["slowdown_inside"] for p in run["passes"]],
              "pass_job_ms": [[lat * 1000.0 for _id, lat, _problems in p["jobs"]]
                              for p in run["passes"]]}
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return result


def report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']}: seed {record['seed']}, trace {record['trace']}, "
          f"{record['passes']} passes of {record['jobs_per_pass']} jobs in "
          f"{record['measured_s']:.1f} s; python {env['python']}, nproc {env['nproc']}, "
          f"git {env['git_sha']}, src {env['src_sha256']}")
    for name, m in record["metrics"].items():
        note = ""
        if name.startswith("job_p"):
            note = f"  (n={record['attempted']} job latencies)"
        print(f"{record['workload']:8s} {name:22s} {m['value']:14.6f} {m['unit']}{note}")
    print(f"{record['workload']:8s} {'fail_frac':22s} {record['failed'] / record['attempted']:14.6f} "
          f"ratio  ({record['failed']} of {record['attempted']} jobs)")
    if record["trace"] == 0:
        print(f"{record['workload']:8s} {'raw wall_s':22s} {stats.median(record['pass_raw_wall_s']):14.6f} "
              f"s  (wall clock; median slowdown {stats.median(record['pass_slowdown']):.3f})")
    for job_id, problems in record["failures"][:10]:
        print(f"FAIL {job_id}: {'; '.join(problems)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stacky" / "__init__.py").is_file() or not (ROOT / "sample_inputs").is_dir():
        print(f"error: the stacky sources are not under {ROOT}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    # installed users have byte-compiled modules; time the same state
    compileall.compile_dir(str(SRC / "stacky"), quiet=1)
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env)
                   for name in names}
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
