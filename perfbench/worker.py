"""One measured pass of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_OUT

Sets up the workload (import ``stacky``, timed in fresh children, and build
its groups, models and documents), runs its jobs back to back, then checks
every result and prints one JSON line: set-up time, the job-list wall time,
each job's latency and problems, the peak RSS, and with TRACE=1 the
per-layer trace summary (the spans go to SPANS_OUT).  Times are normalised
to the machine's nominal speed with speed samples taken between jobs and,
untraced, inside jobs that run in this process (calib.py); the raw
wall-clock figures are reported too.  A fresh process per pass keeps
``peak_rss_mb`` and the in-process caches of ``stacky`` (``lru_cache``,
cached conjugacy classes) from carrying over between passes.
"""

import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import calib
import workloads

# Set-up is short next to its noise, so each pass repeats it and keeps the
# median: the import (a fresh interpreter each time) SETUP_REPEATS times, the
# build BUILD_REPEATS times, as inertia's build takes 0.2 s of the run's passes.
SETUP_REPEATS = 5
BUILD_REPEATS = 3
IMPORT_TIMER = "import time\nt = time.perf_counter()\nimport stacky\nprint(time.perf_counter() - t)"


class Timed:
    """Times units of work with a speed sample before the first and after each.

    ``raw`` holds the wall-clock seconds of each unit, less the time of the
    speed samples taken inside it; ``normalised()`` the same divided by the
    machine's slowdown over it (see calib.py).  With ``sampler`` the samples
    are also taken inside each unit.
    """

    def __init__(self, sampler: calib.InJobSampler = None) -> None:
        self.sampler = sampler
        self.raw: list = []
        self.edges = [calib.speed_sample()]
        self.inside: list = []

    def __call__(self, fn):
        sampler = self.sampler
        start = time.perf_counter()
        if sampler is not None:
            sampler.start()
        try:
            return fn()
        finally:
            if sampler is not None:
                sampler.stop()
            elapsed = time.perf_counter() - start
            self.raw.append(elapsed - (sampler.spent if sampler else 0.0))
            self.inside.append(list(sampler.samples) if sampler else [])
            self.edges.append(calib.speed_sample())

    def record(self, fn) -> None:
        """Runs fn, which returns the seconds to record (a child's own clock)."""
        self.raw.append(fn())
        self.inside.append([])
        self.edges.append(calib.speed_sample())

    def normalised(self) -> list:
        factors = calib.job_factors(self.edges, self.inside)
        return [t / f for t, f in zip(self.raw, factors)]


def child(code: str) -> subprocess.CompletedProcess:
    env = {**workloads.base_env(), "PYTHONPATH": str(workloads.SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=workloads.ROOT, check=True,
                          timeout=60, capture_output=True, text=True)


def cli_setup() -> Timed:
    """Times SETUP_REPEATS children that only import stacky.cli."""
    timed = Timed()
    for _ in range(SETUP_REPEATS):
        timed(lambda: child("import stacky.cli"))
    return timed


def import_setup() -> Timed:
    """Times ``import stacky`` in SETUP_REPEATS fresh children, by their own clocks.

    An import runs once per process, so repeating it for a steadier median
    needs fresh interpreters; their start-up is not counted.
    """
    timed = Timed()
    for _ in range(SETUP_REPEATS):
        timed.record(lambda: float(child(IMPORT_TIMER).stdout))
    return timed


def main() -> int:
    name, seed, trace, spans_out = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    tracer = None
    ctx = {}
    if name == "cli":
        runner = workloads.CliRunner(workloads.OUT_DIR if trace else None)
        ctx["run_cli"] = runner
        work = workloads.build(name, seed)
        setup = cli_setup()
        setup_s, raw_setup_s = (statistics.median(v) for v in (setup.normalised(), setup.raw))
    else:
        imports = import_setup()
        workloads.import_stacky()
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        builds = Timed()
        for _ in range(BUILD_REPEATS):
            work = None
            work = builds(lambda: workloads.build(name, seed))
        setup_s, raw_setup_s = (statistics.median(i) + statistics.median(b) for i, b in
                                ((imports.normalised(), builds.normalised()),
                                 (imports.raw, builds.raw)))

    def run(job):
        try:
            if tracer is not None:
                with tracer.job(job.id):
                    return job.run(ctx)
            return job.run(ctx)
        except Exception as exc:  # a failing job is counted, the pass goes on
            return exc

    # Samples inside a job only where it runs in this process, untraced.
    sampler = None if trace or name == "cli" else calib.InJobSampler()
    timed = Timed(sampler)
    for job in work.jobs:
        ctx[job.id] = timed(lambda: run(job))
    if sampler is not None:
        sampler.close()
    latencies = timed.normalised()
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    expected = workloads.load_expected()
    report = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": sum(timed.raw),
        "slowdown": statistics.median(timed.edges + [x for xs in timed.inside for x in xs]),
        "raw_job_s": timed.raw,
        "slowdown_edges": timed.edges,
        "slowdown_inside": timed.inside,
        "peak_rss_mb": peak_rss_mb,
        "jobs": [[job.id, lat, workloads.check(job, ctx[job.id], expected)]
                 for job, lat in zip(work.jobs, latencies)],
    }
    if trace:
        if name == "cli":
            summary, spans = Counter(), []
            for t in runner.traces:
                summary.update(t["summary"])
                spans.append(t["spans"])
            summary = dict(summary)
            summary["cli.startup_ms"] = statistics.median(t["startup_ms"] for t in runner.traces)
        else:
            summary, spans = tracer.summary(), tracer.spans
            summary["cli.startup_ms"] = 0.0
        report["trace"] = summary
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
