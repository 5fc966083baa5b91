"""Benchmark of semdde: orbit solves, branches, convergence tables, CLI.

Run from the repository root:

    python3 perfbench/run.py --workload mg_branch --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  Their times are taken at the cores' full speed: a reference
kernel timed around and during every op takes out the drift in speed
of a shared host (see speed.py), and the uncorrected figures are
printed beside them.  Set-up time is the median of ``SETUP_REPEATS``
set-ups, each a fresh interpreter importing the package and its CLI
plus the construction of the workload's inputs.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
``--workload all`` runs every workload both ways in fresh processes,
prints every metric, and with ``--baseline FILE`` writes them to FILE
together with the environment stamp.  The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come
from BENCHMARK.json.  The package is imported from ``src/`` of this
checkout; without it the benchmark exits with code 2.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("mg_branch", "mg_convergence", "sdq_diagnostics",
                  "cli_convergence")

#: one BLAS thread per process, so the two `--jobs 2` workers of the CLI
#: workload use the machine's two cores and no more
BLAS_THREADS = "1"

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 5

#: the traced layers must account for at least this share of every op
COVERAGE_FLOOR = 0.9

#: a run makes at least this many passes, so every time it reports is
#: the median of several
MIN_PASSES = 2

#: which end-to-end metric each per-layer metric should move, and on
#: which workload, written down before any optimisation
LAYER_TARGETS = [
    (("collocation.jacobian.self_s", "collocation.jacobian.total_s",
      "collocation.jacobian.builds",
      "collocation.jacobian.residuals_per_build"),
     "orbits_per_s", "mg_branch and sdq_diagnostics; about half as much "
                     "on mg_convergence"),
    (("collocation.residual.calls", "collocation.residual.self_s",
      "collocation.lu.self_s", "collocation.newton.solves",
      "collocation.newton.iters", "collocation.newton.failed",
      "collocation.newton.halvings", "collocation.newton.s_per_iter",
      "collocation.resample.self_s"),
     "orbit_s_p50", "all workloads"),
    (("piecewise.eval.calls", "piecewise.eval.points",
      "piecewise.eval.self_s", "piecewise.sample.self_s",
      "piecewise.project.self_s", "problems.rhs.calls",
      "problems.rhs.self_s", "nodes.make_nodes.calls",
      "nodes.make_nodes.self_s"),
     "orbits_per_s", "mg_convergence most"),
    (("analysis.residual_err.self_s", "analysis.amplitude.self_s",
      "oracle.phi_defect.self_s"),
     "orbits_per_s", "mg_convergence; barely mg_branch"),
    (("oracle.phi_defect.max",), "none (a correctness value)", "all"),
    (("continuation.solves_per_point", "continuation.bisections",
      "continuation.self_s"),
     "orbits_per_s", "mg_branch only; no change elsewhere"),
    (("analysis.cells", "analysis.cells_failed",
      "analysis.circle_map.self_s"),
     "orbits_per_s", "sdq_diagnostics"),
    (("cli.startup_s", "cli.worker_busy_s", "cli.column_imbalance"),
     "orbits_per_s", "cli_convergence"),
    (("trace.overhead_frac", "trace.coverage_min"),
     "none (checks the tracing itself)", "all"),
    (("layer.<module>.self_s", "layer.<module>.share"),
     "orbits_per_s", "every workload, in proportion to the module's share"),
]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    """Versions, hardware and thread settings every result is stamped
    with."""
    import numpy as np
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads_per_process": int(BLAS_THREADS),
        "cli_jobs": 2,
        "git_commit": commit,
    }


def import_package() -> None:
    """Import the package and its CLI in a fresh interpreter."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import semdde.cli"
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) as ``statistics.quantiles`` cuts it."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class RunStats:
    """Counts over every pass, and every time each op and orbit took.

    Every pass repeats the same ops on the same inputs, so an op is known
    by its position in the pass and an orbit by its op's position and its
    place in the op's result.  In an untraced run each op's raw wall time
    is kept with the kernel samples taken around and inside it, and
    ``speed`` turns them into drift-corrected times when the run ends.
    """

    def __init__(self):
        self.passes = 0
        self.ops = 0
        self.attempted = 0
        self.ok = 0
        self.wrong = 0
        self.walls = []
        # op position, or (op position, item) for an orbit ->
        # [(wall, kernel seconds inside, mean kernel sample)] over passes
        self.op_runs = {}
        self.orbit_runs = {}
        self.errors = Counter()

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def run_pass(workload, stats: RunStats, tracer, speed) -> None:
    """One pass over the workload's plan, op after op; ``speed`` samples
    the CPU's speed around untraced ops, ``tracer`` records traced ones."""
    gen = workload.ops()
    ok = None
    position = 0
    pass_wall = 0.0
    while True:
        try:
            op = gen.send(ok)
        except StopIteration:
            break
        stats.ops += 1
        if tracer is None:
            value, error, start, wall, inside, mean = speed.measure(
                op.run, children=op.child_layer is not None)
        else:
            value = error = None
            start = perf_counter()
            try:
                with tracer.op(op.name, stats.ops):
                    if op.child_layer is None:
                        value = op.run()
                    else:
                        with tracer.span(op.child_layer + ".main"):
                            value = op.run()
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            wall = perf_counter() - start
            inside, mean = 0.0, 1.0
        ok = error is None
        pass_wall += wall - inside
        run = (wall, inside, mean)
        stats.op_runs.setdefault(position, []).append(run)
        if not ok:
            stats.errors[f"{op.name}: {type(error).__name__}: {error}"] += 1
        else:
            try:
                statuses = op.check(value, wall)
            except Exception as exc:  # a check that cannot run fails it
                statuses = [("wrong", None)]
                stats.errors[f"check {op.name}: {type(exc).__name__}: "
                             f"{exc}"] += 1
            # an in-process op's orbits ran one after another, so each is
            # set against the kernel samples of its own stretch of the op;
            # shares of the op's time, and orbits timed in a child process
            # that the samples did not interrupt, against the whole op
            offset = start
            for item, (status, orbit_s) in enumerate(statuses):
                stats.ok += status == "ok"
                stats.wrong += status == "wrong"
                if orbit_s is None:
                    continue
                if tracer is not None or op.child_layer is not None:
                    orbit = (orbit_s, 0.0, mean)
                elif op.shares:
                    orbit = (orbit_s, inside * orbit_s / wall, mean)
                else:
                    orbit = (orbit_s,) + speed.window(
                        offset, offset + orbit_s, mean)
                offset += orbit_s
                if status == "ok":
                    stats.orbit_runs.setdefault((position, item),
                                                []).append(orbit)
        position += 1
    stats.attempted += workload.plan_size
    stats.passes += 1
    stats.walls.append(pass_wall)


def end_to_end(stats: RunStats, setup_s: float, peak_rss_kb: float,
               raw: bool = False) -> dict:
    """Orbit rate and times from the drift-corrected op and orbit times
    (from raw wall times when ``raw``); each op and orbit counts with its
    median over the run's passes."""
    from speed import corrected

    def op_time(run):
        wall, inside, mean = run
        return wall - inside if raw else corrected(wall, inside, mean)

    op_times = [statistics.median(op_time(run) for run in runs)
                for runs in stats.op_runs.values()]
    times = [statistics.median(op_time(run) for run in runs)
             for runs in stats.orbit_runs.values()]
    return {
        "orbits_per_s": len(times) / sum(op_times),
        "orbit_s_p50": percentile(times, 50),
        # printed, not gated: with 10 to 21 distinct orbits in most
        # workloads fewer than ten samples lie beyond it
        "orbit_s_p90": percentile(times, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    from spans import Tracer, layer_metrics
    from speed import Speedometer, corrected

    cls = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Speedometer()
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            workload, error, _, wall, inside, mean = speed.measure(
                lambda: import_package() or cls(seed, workdir), children=True)
            if error is not None:
                raise error
            setups.append(corrected(wall, inside, mean))
            raw_setups.append(wall - inside)
        if hasattr(workload, "make_reference"):
            # the serial reference is the correctness oracle, made once
            # and kept out of setup_s
            workload.make_reference()

        # a traced run alternates untraced and traced passes, so the
        # tracing overhead is measured in the same run
        untraced, traced = RunStats(), RunStats()
        tracer = Tracer() if trace else None
        start = perf_counter()
        passes = 0
        last_pass = 0.0
        # whole passes only, and none that would end past ``seconds``
        while passes < MIN_PASSES or (
                perf_counter() - start + last_pass <= seconds):
            began = perf_counter()
            is_traced = trace and passes % 2 == 1
            if is_traced:
                tracer.install()
            try:
                run_pass(workload, traced if is_traced else untraced,
                         tracer if is_traced else None, speed)
            finally:
                if is_traced:
                    tracer.uninstall()
            passes += 1
            last_pass = perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_kb = getattr(workload, "peak_rss_kb", 0) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = end_to_end(untraced, statistics.median(setups), peak_rss_kb)
    raw = end_to_end(untraced, statistics.median(raw_setups), peak_rss_kb,
                     raw=True)
    kernel = sorted(k for _, k in speed.samples)
    result = {"workload": name, "seed": seed, "untraced": untraced,
              "traced": traced, "end_to_end": e2e, "raw": raw,
              "kernel": (kernel[len(kernel) // 20],
                         statistics.median(kernel), len(kernel))}
    if trace:
        layers = layer_metrics(tracer.spans, traced.passes)
        stats = getattr(workload, "stats", None)
        for i, key in enumerate(("cli.startup_s", "cli.worker_busy_s",
                                 "cli.column_imbalance")):
            layers[key] = statistics.median(s[i] for s in stats) \
                if stats else 0.0
        layers["trace.overhead_frac"] = (min(traced.walls)
                                         / min(untraced.walls) - 1.0)
        result["per_layer"] = layers
    return result


def report(result: dict, trace: bool, manifest: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    runs = [result["untraced"], result["traced"]]
    for label, stats in zip(("untraced", "traced"), runs):
        if not stats.passes:
            continue
        print(f"workload {result['workload']} seed {result['seed']} "
              f"{label} passes {stats.passes} ops {stats.ops} attempted "
              f"{stats.attempted} failed {stats.failed} failed_frac "
              f"{stats.failed / stats.attempted:.4f} wrong {stats.wrong} "
              f"orbits {len(stats.orbit_runs)}")
        print("  pass walls (s): "
              + " ".join(f"{w:.3f}" for w in stats.walls))
        for message, count in sorted(stats.errors.items()):
            print(f"  error x{count}: {message}")
    section = "per_layer" if trace else "end_to_end"
    values = result[section]
    metrics = {}
    for spec in manifest[section]:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:44s} {value:.6g} {spec['unit']}")
    if trace:
        coverage = values["trace.coverage_min"]
        verdict = "ok" if coverage >= COVERAGE_FLOOR else "FAILED"
        print(f"  coverage check {verdict}: every op at least "
              f"{coverage:.4f} traced (floor {COVERAGE_FLOOR})")
    else:
        stats = result["untraced"]
        print(f"  {'orbit_s_p90':44s} {values['orbit_s_p90']:.6g} s "
              f"(of {len(stats.orbit_runs)} orbits)")
        print(f"  {'failed_frac':44s} "
              f"{stats.failed / stats.attempted:.6g} frac")
        from speed import KERNEL_SECONDS

        fast, median, count = result["kernel"]
        raw = result["raw"]
        print(f"  reference kernel: {count} samples, fastest twentieth "
              f"{fast * 1e3:.4f} ms, median {median * 1e3:.4f} ms "
              f"(full speed taken as {KERNEL_SECONDS * 1e3:g} ms)")
        print("  uncorrected: " + ", ".join(
            f"{key} {raw[key]:.6g}" for key in
            ("orbits_per_s", "orbit_s_p50", "orbit_s_p90", "setup_s")))
    return {"correct": all(stats.wrong == 0 for stats in runs),
            "attempted": sum(stats.attempted for stats in runs),
            "failed": sum(stats.failed for stats in runs),
            "metrics": metrics}


def run_all(seed: int, seconds: float, baseline) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    doc = {"env": env, "seed": seed, "seconds": seconds, "workloads": {},
           "layer_targets": [
               {"metrics": list(names), "moves": moves, "workloads": where}
               for names, moves, where in LAYER_TARGETS]}
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[1:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return _fail(f"{name} --trace {trace} exited with "
                             f"{done.returncode}")
            last = json.loads(lines[-1])
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                key: value["value"] for key, value in last["metrics"].items()}
            entry.update({f"{key}_trace{trace}": last[key]
                          for key in ("correct", "attempted", "failed")})
        entry["module_share"] = {
            key.split(".")[1]: value
            for key, value in entry["per_layer"].items()
            if key.startswith("layer.") and key.endswith(".share")}
        doc["workloads"][name] = entry
    if baseline:
        Path(baseline).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {baseline}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the acceptance-suite inputs")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure whole passes while the next one "
                             "should end within this many seconds (at "
                             "least MIN_PASSES)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline",
                        help="with --workload all, write the results here")
    args = parser.parse_args(argv)

    if not (SRC / "semdde" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'semdde'}")
    if not MANIFEST.is_file():
        return _fail(f"no {MANIFEST.name} at {ROOT}")
    # before numpy is first imported, here and in every child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import semdde
    if Path(semdde.__file__).resolve().parent != SRC / "semdde":
        return _fail(f"imported semdde from {semdde.__file__}, not {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.baseline)

    manifest = json.loads(MANIFEST.read_text())
    print("env " + json.dumps(environment(), sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report(result, bool(args.trace), manifest)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
