"""Run one benchmark workload against errortail and print its metrics.

    python3 perfbench/run.py --workload experiment-ksweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: errortail is imported from its ``src``
directory, nowhere else. The process pins BLAS to one thread before numpy
loads, leaves pricing in-process, and works in a fresh empty directory
under ``.perfbench/work`` that is also its ``TMPDIR`` and
``XDG_CACHE_HOME`` and is removed at exit, so nothing on disk carries over
between runs.

Set-up is timed as the median of ``IMPORT_REPS`` fresh interpreters that
import what the run imports, plus the median of ``SETUP_REPS`` fixture
generations in this process. Then rounds of identical work repeat
until ``--seconds`` of timed work have passed. Every round must write
outputs byte-identical to the first round's. Peak memory is read after the
last round, and only then are that round's outputs checked, so the checks'
own allocations stay out of it. The last line of stdout is one JSON object. With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced, and it holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
IMPORT_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_times(reps: int) -> list[float]:
    """Wall time of ``reps`` fresh interpreters that import what a run imports
    before its set-up: interpreter start, errortail, numpy and this package."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)], check=True)
        times.append(time.perf_counter() - start)
    return times


def cpu_seconds() -> float:
    """User plus system CPU of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digests(where: Path, values) -> dict[str, str]:
    """SHA-256 of every file a round wrote, plus one of its returned values."""
    out = {
        str(p.relative_to(where)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(where.rglob("*"))
        if p.is_file()
    }
    if values is not None:
        out["values"] = hashlib.sha256(repr(values).encode("utf-8")).hexdigest()
    return out


def execute(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run ``workload`` in the current directory. Its paths are
    relative, because outputs such as ``errors.csv`` record the paths they
    were made from, and those must not differ between runs or checkouts."""
    from checks import CheckError
    from tracer import LAYER_METRICS, OVERHEAD_METRIC, Tracer

    tracer = Tracer() if trace else None
    imports = import_times(IMPORT_REPS)
    setup_times = []
    for rep in range(SETUP_REPS):
        where = Path(f"setup-{rep}")
        if rep:
            shutil.rmtree(f"setup-{rep - 1}")
        where.mkdir()
        start = time.perf_counter()
        with tracer.active(f"setup-{rep}") if tracer else nullcontext():
            fixture = workload.setup(seed, where)
        setup_times.append(time.perf_counter() - start)

    walls, cpus, traced_walls = [], [], []
    attempted = failed = 0
    first = rnd = peak_mb = None
    correct, problem = True, None
    out = Path("round")
    index = 0
    try:
        while sum(walls) + sum(traced_walls) < seconds or (trace and not traced_walls):
            traced = trace and index % 2 == 1
            rnd = None
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            cpu0, start = cpu_seconds(), time.perf_counter()
            with tracer.active(f"round-{index}") if traced else nullcontext():
                rnd = workload.run_round(fixture, out)
            wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                cpus.append(cpu)
            attempted += rnd.attempted
            failed += rnd.failed
            written = digests(out, rnd.values)
            if first is None:
                first = written
            elif written != first:
                changed = sorted(k for k in set(first) | set(written) if first.get(k) != written.get(k))
                raise CheckError(f"round {index} outputs differ from round 0: {changed}")
            index += 1
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_mb = max(own, kids) / 1024.0
        workload.check(fixture, rnd)  # the last round: its outputs equal the first's
        workload.final_check(fixture)
    except CheckError as exc:
        correct, problem = False, str(exc)

    if not correct:
        metrics = {}
    elif trace:
        values = tracer.metrics()
        values[OVERHEAD_METRIC[0]] = statistics.median(traced_walls) - statistics.median(walls)
        units = {m[0]: m[1] for m in LAYER_METRICS}
        units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(imports) + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "problem": problem,
        "import_times_s": imports,
        "setup_times_s": setup_times,
        "round_walls_s": walls,
        "round_cpus_s": cpus,
        "traced_round_walls_s": traced_walls,
        "outputs_sha256": first,
    }
    return {
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
        "detail": detail,
        "spans": tracer.spans if tracer else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "errortail"
    if not (package / "__init__.py").is_file():
        print(f"error: no errortail sources at {package}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    (work / "cache").mkdir()
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["XDG_CACHE_HOME"] = str(work / "cache")
    os.chdir(work)
    try:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import errortail

        if Path(errortail.__file__).resolve().parent != package.resolve():
            print(f"error: errortail imported from {errortail.__file__}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        report = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps({"result": report["result"], **report["detail"]}, indent=1) + "\n", encoding="utf-8"
    )
    if report["spans"] is not None:
        with gzip.open(results / f"{stem}-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            fh.write('["name", "phase", "parent", "start", "end", "count"]\n')
            for span in report["spans"]:
                fh.write(json.dumps(span) + "\n")
    if report["detail"]["problem"]:
        print(f"check failed: {report['detail']['problem']}", file=sys.stderr)
    for name, sha in sorted((report["detail"]["outputs_sha256"] or {}).items()):
        print(f"sha256 {sha} {name}")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
