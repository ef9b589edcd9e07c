#!/usr/bin/env python3
"""Benchmark of the burgerslab command line, end to end and layer by layer.

    python3 perfbench/run.py --workload dim --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.perfbench/``.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name and unit, the provenance, the digests
and each experiment's medians.

A workload is a session of CLI experiments run one after another (dim: the
``dim`` experiment; mc: ``persist``, ``rkhs-verify`` and ``chain``).  Load
model: a closed loop with one client.  Each experiment is a fresh CLI
process (``perfbench/launch.py``, which runs ``burgerslab.cli.main``) and the
next one starts only when it has exited.  Children get BURGERSLAB_WORKERS=2
and one BLAS/OpenMP thread, so at most two processes are busy.  The seed is
passed to the CLI as ``--seed``.

Every run starts with one unmeasured probe that imports the CLI, compiling
bytecode and recording provenance.  --trace 0 measures the end-to-end
metrics over rounds of the session until --seconds have passed (at least
three rounds).  --trace 1 measures the per-layer metrics: ``-X importtime``
probes, then rounds in which each experiment runs as an untraced 1-worker
process and as a serial in-process traced run (``perfbench/traced.py``)
until --seconds have passed, then one 2-worker round.

Correctness: every process must exit 0 and print one PASS line per expected
check; each process and each check is one operation, failed on a nonzero
exit, a FAIL line or a missing line; exit 2 (flagged estimates) with every
check passing is reported as flagged, not failed.  The result files of every
run of an experiment (all files except manifest.json) must hash to the same
digest, whatever the worker count.  ``perfbench/baseline.json`` records the
digests of the baseline and check seeds at the commit that defined the
benchmark; a differing digest is reported, not failed, since a change may
alter the random streams on purpose.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from traced import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKERS = 2
MIN_ROUNDS = 3
IMPORT_PROBES = 3
FLAGGED = 2     # CLI exit status: completed, some estimates flagged
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Experiment:
    name: str       # key of its digests in baseline.json
    argv: tuple     # CLI arguments besides --seed and --out
    paths: int      # sampled paths the config requests
    checks: int     # PASS lines expected from --check


# Replica counts are the README's cut so that one process does 1-4 s of work
# past its ~1 s import.  dim keeps 20 replicas per Hurst index and persist
# 8000 per horizon because their checks need them.
DIM = Experiment("dim", ("dim", "--hurst", "0.3,0.7", "--replicas", "20",
                         "--check"), 2 * 20, 2)
PERSIST = Experiment("persist", ("persist", "--hurst", "0.5", "--horizon",
                                 "64,128,256,512,1024", "--replicas", "8000",
                                 "--opt", "events=fbm_max", "--opt",
                                 "level=0.5", "--check"), 5 * 8000, 1)
SHIFT = Experiment("shift", ("rkhs-verify", "--hurst", "0.5", "--replicas",
                             "50000", "--opt", "trend=combined0", "--opt",
                             "level=2", "--check"), 50000, 1)
# max-mean replicas of verify_chain double the path count
CHAIN = Experiment("chain", ("chain", "--hurst", "0.3,0.5,0.7", "--replicas",
                             "2000", "--opt", "n=64", "--check"),
                   3 * 2 * 2000, 3)

# dim is the hull-bound session; mc holds the three Monte-Carlo experiments,
# which never call the hull.  The three share one workload because alone the
# shift run, half of it the import, is the one most moved by load from other
# tenants of a shared host; in a session it is a quarter of the time, and
# two workloads leave room for runs long enough to take medians over.
WORKLOADS = {"dim": (DIM,), "mc": (PERSIST, SHIFT, CHAIN)}

END_TO_END = {"wall_s": "s", "setup_s": "s", "paths_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}

# Counters per traced layer besides calls and self_s.
LAYER_QUANTITIES = {f"{module}.{path}": tuple(counts)
                    for module, path, counts in LAYERS}
IMPORTED_MODULES = ("burgerslab", "burgerslab.grids", "burgerslab.fbm",
                    "burgerslab.envelopes", "burgerslab.burgers",
                    "burgerslab.fractal", "burgerslab.fitting",
                    "burgerslab.persistence", "burgerslab.rkhs",
                    "burgerslab.experiments", "burgerslab.cli",
                    "numpy", "scipy.stats")


def layer_units() -> dict:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for layer, quantities in LAYER_QUANTITIES.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for quantity in quantities:
            units[f"{layer}.{quantity}"] = "count"
    units["envelopes.lower_envelope.node_frac"] = "ratio"
    for module in IMPORTED_MODULES:
        units[f"setup.import_s.{module}"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BURGERSLAB_WORKERS"] = str(workers)
    env.update({key: "1" for key in BLAS_ENV})
    return env


def run_process(cmd, workers: int, tag: str) -> dict:
    """Run one child to completion; wall time from spawn to exit, set-up
    time from spawn to the launcher's import mark, and this child's own CPU
    time and peak RSS from wait4 (its reaped pool workers included)."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        # own process group, so pool workers die with the CLI if we stop early
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(workers), start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    imported = [float(line.split()[1]) for line in stderr.splitlines()
                if line.startswith("perfbench-imported ")]
    return {"status": proc.returncode, "wall_s": wall,
            "setup_s": imported[0] - start if imported else None,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout, "stderr": stderr}


def digest(outdir: Path):
    """SHA-256 over every result file except the manifest, which carries
    the output path and the wall time."""
    if not outdir.is_dir():
        return None
    sha = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        data = path.read_bytes()
        sha.update(f"{path.relative_to(outdir)}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest()


def judge(run: dict, experiment: Experiment) -> None:
    """Count this process's operations and failures into the run record.

    Exit 2 means the run completed and wrote every result but flagged some
    estimates (dim flags a replica whose window collapsed into one shock,
    which happens on most seeds); with every check passing it is counted
    as flagged, not failed.
    """
    lines = run["stdout"].splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = sum(line.startswith("FAIL ") for line in lines)
    missing = max(0, experiment.checks - passed - failed)
    completed = run["status"] == 0 or (run["status"] == FLAGGED
                                        and passed == experiment.checks)
    run["experiment"] = experiment.name
    run["attempted"] = 1 + experiment.checks
    run["failed"] = int(not completed) + failed + missing
    run["flagged"] = run["status"] == FLAGGED


def cli_run(experiment: Experiment, seed: int, workers: int, tag: str,
            traced_files=None) -> dict:
    """One CLI process writing to a fresh directory; returns its record with
    the digest of its result files.  With ``traced_files`` = (summary, spans,
    run id) it runs the traced serial run instead of the launcher."""
    outdir = WORK / "out" / tag
    shutil.rmtree(outdir, ignore_errors=True)
    if traced_files is None:
        head = [str(HERE / "launch.py")]
    else:
        head = [str(HERE / "traced.py"), *map(str, traced_files)]
    cmd = [sys.executable, *head, *experiment.argv, "--seed", str(seed),
           "--out", str(outdir.relative_to(ROOT))]
    run = run_process(cmd, workers, tag)
    run["digest"] = digest(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    judge(run, experiment)
    return run


def probe(tag: str, importtime: bool = False) -> dict:
    """Import the CLI and exit; the child prints provenance."""
    flags = ["-X", "importtime"] if importtime else []
    run = run_process([sys.executable, *flags, str(HERE / "launch.py"),
                       "--probe"], WORKERS, tag)
    if run["status"] != 0 or run["setup_s"] is None:
        raise SystemExit(f"set-up probe failed (exit {run['status']}):\n"
                         f"{run['stderr']}")
    return run


def import_times(stderr: str) -> dict:
    """Cumulative import time per module from ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            times.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return times


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def source_state() -> dict:
    """Git commit when the checkout is a repository, and a hash of the
    package sources either way."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sha = hashlib.sha256()
    for path in sorted((SRC / "burgerslab").rglob("*.py")):
        sha.update(f"{path.relative_to(SRC)}\0".encode())
        sha.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": sha.hexdigest()}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure_end_to_end(name: str, seed: int, seconds: float):
    """Rounds of the workload's experiments, one process each, until
    --seconds have passed (at least MIN_ROUNDS).  A session's wall and CPU
    time are the sums over its experiments of their medians."""
    experiments = WORKLOADS[name]
    rounds = []
    start = time.monotonic()
    while True:
        k = len(rounds)
        rounds.append([cli_run(e, seed, WORKERS, f"{name}-{k}-{e.name}")
                       for e in experiments])
        elapsed = time.monotonic() - start
        typical = statistics.median(sum(r["wall_s"] for r in rnd)
                                    for rnd in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            break
    reps = [r for rnd in rounds for r in rnd]
    done = [r for r in reps if r["setup_s"] is not None]
    samples = {e.name: {key: [r[key] for r in done if r["experiment"] == e.name]
                        for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
               for e in experiments}
    for e in experiments:
        if not samples[e.name]["wall_s"]:
            raise SystemExit(f"no {e.name} run got past its import:\n"
                             f"{reps[experiments.index(e)]['stderr']}")
    medians = {e: {key: statistics.median(v) for key, v in s.items()}
               for e, s in samples.items()}
    paths = {e.name: e.paths for e in experiments}
    values = {
        "wall_s": sum(m["wall_s"] for m in medians.values()),
        "setup_s": statistics.median(r["setup_s"] for r in done),
        # throughput over the run: all paths over all time spent past set-up
        "paths_per_s": sum(paths[r["experiment"]] for r in done) / sum(
            r["wall_s"] - r["setup_s"] for r in done),
        "cpu_s": sum(m["cpu_s"] for m in medians.values()),
        "peak_rss_mb": max(m["peak_rss_mb"] for m in medians.values()),
    }
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in END_TO_END.items()}
    return reps, metrics, samples


def measure_layers(name: str, seed: int, seconds: float):
    """Import-time probes, then rounds in which each experiment runs as an
    untraced 1-worker process and as a traced one, then one 2-worker round
    for the digest check.  Layer metrics sum over a round's experiments and
    are medians over rounds."""
    experiments = WORKLOADS[name]
    probes = [probe(f"importtime-{i}", importtime=True)
              for i in range(IMPORT_PROBES)]
    imports = [import_times(p["stderr"]) for p in probes]
    start = time.monotonic()
    rounds, reps = [], []    # rounds: {experiment: (plain, traced, summary)}
    while True:
        k = len(rounds)
        run_id = f"{name}-seed{seed}-{time.time_ns()}-{k}"
        rnd = {}
        for e in experiments:
            files = (WORK / f"trace-{name}-{k}-{e.name}.json",
                     WORK / f"spans-{name}-{k}-{e.name}.json", run_id)
            plain = cli_run(e, seed, 1, f"{name}-serial-{k}-{e.name}")
            traced = cli_run(e, seed, 1, f"{name}-traced-{k}-{e.name}", files)
            reps += [plain, traced]
            if traced["failed"] or not files[0].exists():
                break
            rnd[e.name] = (plain, traced, json.loads(files[0].read_text()))
        if len(rnd) < len(experiments):
            if not rounds:
                raise SystemExit(f"traced run failed:\n{traced['stderr']}")
            break
        rounds.append(rnd)
        # leave room for one more round and the 2-worker round
        elapsed = time.monotonic() - start
        round_s = sum(p["wall_s"] + t["wall_s"] for p, t, _ in rnd.values())
        plain_s = sum(p["wall_s"] for p, _, _ in rnd.values())
        if elapsed + round_s + plain_s > seconds:
            break
    reps += [cli_run(e, seed, WORKERS, f"{name}-parallel-{e.name}")
             for e in experiments]

    def per_round(value):
        """value(plain, traced, summary) summed over each round's
        experiments, one number per round."""
        return [sum(value(*run) for run in rnd.values()) for rnd in rounds]

    metrics = {}
    units = layer_units()
    for layer, quantities in LAYER_QUANTITIES.items():
        metrics[f"{layer}.self_s"] = statistics.median(
            per_round(lambda p, t, s: s["layers"][layer]["self_s"]))
        for quantity in ("calls", *quantities):    # counts stay whole
            metrics[f"{layer}.{quantity}"] = statistics.median_low(
                per_round(lambda p, t, s: s["layers"][layer][quantity]))
    points = metrics["envelopes.lower_envelope.points"]
    metrics["envelopes.lower_envelope.node_frac"] = (
        metrics["envelopes.lower_envelope.nodes"] / points if points else 0.0)
    for module in IMPORTED_MODULES:
        metrics[f"setup.import_s.{module}"] = statistics.median(
            t.get(module, 0.0) for t in imports)
    # time past set-up of each traced process minus that of the untraced
    # serial process just before it
    metrics["trace.overhead_s"] = statistics.median(per_round(
        lambda p, t, s: (t["wall_s"] - t["setup_s"]) - (p["wall_s"] - p["setup_s"])))
    metrics["trace.unattributed_s"] = statistics.median(
        per_round(lambda p, t, s: s["unattributed_s"]))
    metrics = {key: {"value": metrics[key], "unit": unit}
               for key, unit in units.items()}
    # per experiment, for the bypass predictions: calls and self time of
    # every layer that ran in the first round
    by_experiment = {
        e: {layer: {"calls": q["calls"], "self_s": q["self_s"]}
            for layer, q in s["layers"].items() if q["calls"]}
        for e, (_, _, s) in rounds[0].items()}
    return reps, metrics, {"by_experiment": by_experiment, "imports": imports,
                           "summaries": [{e: s for e, (_, _, s) in rnd.items()}
                                         for rnd in rounds]}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def baseline_note(name: str, seed: int, value) -> str:
    try:
        recorded = json.loads((HERE / "baseline.json").read_text())
    except (OSError, ValueError):
        return "no baseline recorded"
    known = recorded.get("digests", {}).get(name, {}).get(str(seed))
    if known is None:
        return f"no baseline digest for seed {seed}"
    return "equals baseline" if known == value else "differs from baseline"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "burgerslab" / "cli.py").is_file():
        print(f"perfbench: no burgerslab sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # unmeasured: compiles bytecode and fills the page cache
    env = json.loads(probe("warmup")["stdout"])
    if Path(env["package_file"]).resolve().parent != (SRC / "burgerslab").resolve():
        print(f"perfbench: imported burgerslab from {env['package_file']}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    measure = measure_layers if args.trace else measure_end_to_end
    reps, metrics, samples = measure(args.workload, args.seed, args.seconds)
    provenance = {**source_state(), **env,
                  "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "workers": WORKERS,
                  "load": "closed loop, 1 client"}

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {e.name: sorted({r["digest"] for r in reps
                               if r["experiment"] == e.name}, key=str)
               for e in WORKLOADS[args.workload]}
    correct = failed == 0 and all(len(d) == 1 and d[0] is not None
                                  for d in digests.values())

    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(reps)}")
    for experiment, found in digests.items():
        runs = sum(r["experiment"] == experiment for r in reps)
        print(f"digest {experiment} {' '.join(map(str, found))}  "
              f"({'equal over' if len(found) == 1 else 'DIFFERENT across'} "
              f"{runs} runs; {baseline_note(experiment, args.seed, found[0])})")
    print(f"fail_frac {failed / attempted!r}  ({failed} of {attempted} "
          f"operations failed; {sum(r['flagged'] for r in reps)} of "
          f"{len(reps)} processes exited {FLAGGED}, flagged estimates)")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    if args.trace:
        for experiment, layers in samples["by_experiment"].items():
            top = max(layers, key=lambda layer: layers[layer]["self_s"])
            print(f"layers {experiment}: largest self time {top}; calls "
                  + " ".join(f"{layer}={q['calls']}"
                             for layer, q in layers.items()))
    else:
        for experiment, series in samples.items():
            parts = []
            for key, values in series.items():
                high = tail(values)
                parts.append(f"{key} median {statistics.median(values)!r}"
                             + (f" p{high[0]:.0f} {high[1]!r}" if high else ""))
            print(f"{experiment} ({len(series['wall_s'])} processes): "
                  + "; ".join(parts))

    report = {"provenance": provenance, "correct": correct,
              "attempted": attempted, "failed": failed, "digests": digests,
              "metrics": metrics, "samples": samples,
              "runs": [{k: v for k, v in r.items() if k not in ("stdout",)}
                       for r in reps]}
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
