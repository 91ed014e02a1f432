"""svkit benchmark: one workload, one run, one JSON result line.

Run from the root of an svkit checkout:

    python3 perfbench/run.py --workload score-warm --seed 3 --seconds 25 --trace 0

The benchmark imports svkit from `src/` of the checkout and drives the
public `svkit.cli.main(argv)` entry point in this process, one call at a
time (a closed loop with one client) and one BLAS thread. Work files go
to `.perfbench_run/` in the checkout.

A run sets the workload up several times (set-up is timed: importing
svkit, writing the seeded inputs, and the program calls that make
weights or a warm cache), then repeats passes of the workload for
`--seconds`, checking every pass's outputs.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json:
  setup_s       median set-up time.
  wall_s        median wall time of a pass's CLI calls.
  rtf           wall_s per second of audio the pass's calls take as input
                (embedded audio on embed-h-long and score-cold-q, the
                cached utterances on score-warm, augmented audio on
                train-prep).
  us_per_trial  wall_s in microseconds per trial the pass scores (each
                workload's class says what its trials are).
  peak_rss_mb   peak resident memory of this process.
  ok_frac       share of operations (CLI calls and output checks) that
                succeeded; the result line carries attempted and failed.

`--trace 1` alternates untraced and traced passes and prints the
per-layer metrics of BENCHMARK.json, per traced pass, from spans taken
at svkit's function boundaries (see tracing.py). Values derived from
shapes (`network.conv2d.gflop`, `network.conv2d.im2col_mb`,
`augment.rir.mmac`) are computed, not measured; their units say so.

Every earlier stdout line is a JSON record: the environment (nproc,
Python, numpy, BLAS and its threads, git commit, a digest of src/, seed)
and the raw per-pass numbers. The last line is the result. All three also
go to `.perfbench_run/<workload>/result.json`, and a traced run's spans to
`spans.jsonl` beside it. The run exits 2 without a result when the
checkout has no svkit source.

The benchmark's own tests: `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, and the benchmark modules that import it, are imported only after
# main() has set the BLAS thread count.

HERE = Path(__file__).resolve().parent
# Set-up repeats: at least SETUP_MIN, more while they stay cheap.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 4.0
WORK_DIR = ".perfbench_run"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _blas_threads() -> int | None:
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "svkit").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "seed": seed,
    }


def _import_svkit(src: Path):
    """Import svkit afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "svkit" or n.startswith("svkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("svkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported svkit from {cli.__file__}, not from {src}")
    return cli


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_digest_history(store: Path, key: str, digest: str) -> bool:
    """Outputs of a seed must match those of an earlier run of the same
    seed and source; the first run of a seed records them."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "svkit" / "cli.py").is_file():
        _log(f"no svkit source at {src}; run from the root of an svkit checkout")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # One BLAS thread: one client on one core reads steadiest on a shared
    # machine. BLAS reads this when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS, Session, expect

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 1
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _environment(root, args.seed)
    print(json.dumps({"environment": env, "workload": args.workload}))

    session = Session(None, _log)
    setup_times = []
    for i in range(1 if args.trace else SETUP_MAX):
        if i >= SETUP_MIN and sum(setup_times) >= SETUP_BUDGET_S:
            break
        # Every set-up writes to the same place: outputs name their inputs' paths.
        shutil.rmtree(work / "setup", ignore_errors=True)
        start = time.perf_counter()
        session.cli = _import_svkit(src)
        job = WORKLOADS[args.workload](work / "setup", args.seed, session)
        setup_times.append(time.perf_counter() - start)
    if session.failed:
        _log("set-up failed")
        return 1
    setup_rss_mb = _peak_rss_mb()

    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    first_digest = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        try:
            calls = job.run_pass(session)
        finally:
            tracer.uninstall()
        walls[traced].append(sum(c.seconds for c in calls))
        job.check_pass(session, calls)
        digest = job.digest()
        first_digest = first_digest or digest
        what = "traced output equals untraced output" if traced else "output equals first pass"
        session.check(what, expect, digest == first_digest, f"digest {digest} vs {first_digest}")
        done = len(walls[False]) + len(walls[True])
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > args.seconds and (not args.trace or walls[True]):
            break
    peak_rss_mb = _peak_rss_mb()
    job.check_once(session)
    key = f"{args.workload}:{args.seed}:{env['src_sha256']}"
    history = root / WORK_DIR / "digests.json"
    session.check("output equals earlier runs of this seed", lambda: expect(
        _check_digest_history(history, key, first_digest), "digest differs from an earlier run"))

    record = {"passes": walls[False], "setups": setup_times, "setup_peak_rss_mb": setup_rss_mb}
    if args.trace:
        tracer.write(work / "spans.jsonl")
        n = len(walls[True])
        values = tracing.summarize(tracer.spans, n, sys.modules["svkit.scoring"].plan_crops)
        traced_wall = sum(walls[True]) / n
        untraced_wall = sum(walls[False]) / len(walls[False])
        covered = sum(values[f"{name}.self_s"] for name in tracing.LAYERS)
        values |= {
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.covered_s": covered,
            "trace.uncovered_s": traced_wall - covered,
            "network.share_of_wall": values["network.self_s"] / traced_wall,
            "fail_frac": session.failed / session.attempted,
        }
        record |= {"traced_passes": walls[True], "missing_hooks": tracer.missing, "spans": len(tracer.spans)}
        declared = spec["per_layer"]
    else:
        wall = statistics.median(walls[False])
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "rtf": wall / job.audio_seconds,
            "us_per_trial": wall * 1e6 / job.trials,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (session.attempted - session.failed) / session.attempted,
        }
        declared = spec["end_to_end"]
    missing = {m["name"] for m in declared} - set(values)
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (work / "result.json").write_text(json.dumps({"environment": env, "raw": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
