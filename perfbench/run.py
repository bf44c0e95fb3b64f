"""pencilspec benchmark.

Drives the public CLI entry point ``pencilspec.cli.main(argv)`` in-process,
one command at a time (a closed loop with one client), on tuple files
generated from ``--seed``, and checks every report against the generator's
ground truth.  Run it from the root of a source checkout; the program is
imported from ``src/``:

    python3 perfbench/run.py --workload words|split|monomials \\
        --seed N --seconds S --trace 0|1

The timed phase repeats the workload's command list (a pass) as many times
as comes nearest to ``--seconds``, and at least once.  With ``--trace 1``
passes alternate between untraced and traced, and the per-layer metrics come
from the traced ones.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment, the report digest and any failures.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
TIMESTAMP_LINE = re.compile(rb'\n *"timestamp": "[^"\n]*",?')

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_ms.p50": "ms",
    "cmd_ms.p90": "ms",
    "tests_per_s": "1/s",
    "instances_per_s": "1/s",
    "pencil_mats_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span-derived per-layer metrics: span name -> statistics reported per pass.
SPAN_METRICS = {
    "charpoly.kth_power_test": ("calls", "busy_s", "self_s"),
    "charpoly.cluster_roots": ("calls", "busy_s"),
    "conditions.analyze": ("busy_s", "self_s"),
    "conditions.realize_word": ("busy_s",),
    "conditions.enumerate_words": ("busy_s",),
    "conditions.check_admissibility": ("busy_s",),
    "cli.cmd_analyze": ("self_s",),
    "cli.cmd_decompose": ("self_s",),
    "cli.cmd_corollary": ("self_s",),
    "cli.load_tuple": ("busy_s",),
    "linalg.eigendecompose_clustered": ("calls", "busy_s"),
    "linalg.shift_to_invertible": ("calls", "busy_s"),
    "decomposer.decompose": ("busy_s",),
    "decomposer.unify_layers": ("busy_s",),
    "decomposer.extend_closure": ("busy_s",),
    "decomposer.build_block_unitary": ("busy_s",),
    "decomposer.verify_decomposition": ("busy_s",),
}
DECOMPOSITION_ERRORS = (
    "SpectrumPatternViolation",
    "NotUnitaryScalar",
    "LayerInconsistency",
    "CycleInconsistency",
    "PartitionInconsistency",
    "ScalarizationFailed",
)
COUNT_METRICS = ("conditions.words", "decomposer.errors") + tuple(
    f"decomposer.errors.{name}" for name in DECOMPOSITION_ERRORS
)
LAYERS = ("cli", "conditions", "charpoly", "linalg", "decomposer")


def per_layer_units() -> dict:
    units = {}
    for span, stats in SPAN_METRICS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = "count" if stat == "calls" else "s"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({f"{layer}.cpu_frac": "fraction" for layer in LAYERS})
    units.update(
        {
            "conditions.sample_admissible.tries": "tries/call",
            "cli.report_bytes": "bytes",
            "instances.gen_s": "s",
            "trace.overhead_frac": "fraction",
            "trace.coverage_frac": "fraction",
        }
    )
    return units


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def import_program():
    """Import pencilspec from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pencilspec" / "cli.py").is_file():
        raise SystemExit(f"error: no pencilspec sources under {src}")
    sys.path.insert(0, str(src))
    import pencilspec

    if Path(pencilspec.__file__).resolve().parent != (src / "pencilspec").resolve():
        raise SystemExit(f"error: pencilspec imported from {pencilspec.__file__}")


def workdir(workload, seed, suffix=""):
    return WORK / f"{workload}-s{seed}{suffix}"


def setup_probe(workload, seed):
    """One set-up in this fresh process: import, generate, write tuple files."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    directory = workdir(workload, seed, f"-probe{os.getpid()}")
    try:
        _, _, gen_s = workloads.build(workload, seed, directory, ROOT)
        setup_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "gen_s": gen_s}))


def measure_setup(workload, seed):
    """Median set-up and generation time over fresh interpreter processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (
        statistics.median(s["setup_s"] for s in samples),
        statistics.median(s["gen_s"] for s in samples),
    )


# --------------------------------------------------------------------------
# timed phase
# --------------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list
    digest: str
    failures: list
    report_bytes: int


def run_commands(cli, commands):
    """One pass: every command through ``cli.main``; returns (wall, latencies, outcomes)."""
    latencies, outcomes = [], []
    t_pass = time.perf_counter()
    for cmd in commands:
        t0 = time.perf_counter()
        try:
            outcome = (cli.main(list(cmd.argv)), "")
        except SystemExit as exc:
            outcome = (exc.code, f"SystemExit({exc.code!r})")
        except Exception as exc:  # a crash is a failed command, not a benchmark abort
            outcome = (None, f"raised {exc!r}")
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return time.perf_counter() - t_pass, latencies, outcomes


def check_pass(workloads, commands, outcomes):
    """Gate every command; digest the reports with their timestamp removed."""
    digest = hashlib.sha256()
    failures = []
    report_bytes = 0
    for cmd, (rc, error) in zip(commands, outcomes):
        path = ROOT / cmd.out
        data = path.read_bytes() if path.is_file() else None
        report_bytes += len(data or b"")
        try:
            reason = error or workloads.check(cmd, rc, data)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"malformed report: {exc!r}"
        if reason:
            failures.append(f"{' '.join(cmd.argv)}: {reason}")
        digest.update(f"{' '.join(cmd.argv)} -> {rc}\n".encode())
        digest.update(TIMESTAMP_LINE.sub(b"", data or b""))
    return digest.hexdigest(), failures, report_bytes


def measure(workloads, cli, commands, seconds, tracer):
    """Repeat passes while the run ends nearer ``seconds`` with one more pass
    than without it; with a tracer, odd passes are traced and at least one
    pass of each kind runs."""
    passes = []
    start = time.perf_counter()
    while True:
        for cmd in commands:
            (ROOT / cmd.out).unlink(missing_ok=True)
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, latencies, outcomes = run_commands(cli, commands)
        finally:
            if traced:
                tracer.uninstall()
        digest, failures, report_bytes = check_pass(workloads, commands, outcomes)
        passes.append(Pass(traced, wall, latencies, digest, failures, report_bytes))
        both_kinds = tracer is None or len(passes) >= 2
        typical = statistics.median(p.wall for p in passes)
        if both_kinds and time.perf_counter() - start + typical / 2 > seconds:
            return passes


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(commands, n_instances, passes, setup_s):
    walls = [p.wall for p in passes]
    latencies_ms = [1e3 * t for p in passes for t in p.latencies]
    test_time = sum(t for p in passes for c, t in zip(commands, p.latencies) if c.tests)
    wall_s = statistics.median(walls)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cmd_ms.p50": statistics.median(latencies_ms),
        "cmd_ms.p90": percentile(latencies_ms, 0.9),
        "tests_per_s": len(passes) * sum(c.tests for c in commands) / test_time,
        "instances_per_s": n_instances / wall_s,
        "pencil_mats_per_s": len(passes) * sum(c.pencil_mats for c in commands) / test_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, passes, gen_s):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    rows = tracer.summary()
    values = {}
    for span, stats in SPAN_METRICS.items():
        row = rows.get(span, {})
        for stat in stats:
            values[f"{span}.{stat}"] = row.get(stat, 0) / n
    for name in COUNT_METRICS:
        values[name] = tracer.counts.get(name, 0) / n
    cpu_total = sum(row["self_cpu_s"] for row in rows.values())
    for layer in LAYERS:
        layer_cpu = sum(r["self_cpu_s"] for s, r in rows.items() if s.startswith(layer + "."))
        values[f"{layer}.cpu_frac"] = layer_cpu / cpu_total if cpu_total else 0.0
    sampler_calls = rows.get("conditions.sample_admissible", {}).get("calls", 0)
    tries = tracer.children_of("conditions.sample_admissible", "conditions.check_admissibility")
    traced_wall = sum(p.wall for p in traced)
    values.update(
        {
            "conditions.sample_admissible.tries": tries / sampler_calls if sampler_calls else 0.0,
            "cli.report_bytes": statistics.median(p.report_bytes for p in passes),
            "instances.gen_s": gen_s,
            "trace.overhead_frac": statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in untraced)
            - 1.0,
            "trace.coverage_frac": tracer.root_wall() / traced_wall,
        }
    )
    problems = [f"negative self time in {s}" for s, r in rows.items() if r["self_s"] < -1e-9]
    if values["trace.coverage_frac"] < 0.95:
        problems.append(f"spans cover only {values['trace.coverage_frac']:.1%} of the traced wall time")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    return metrics, problems


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    from pencilspec import conditions

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    worker_count = getattr(conditions, "worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "PENCIL_THREADS": os.environ.get("PENCIL_THREADS"),
        "worker_count": worker_count(sys.maxsize) if worker_count else None,
        "git_commit": _git_commit(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py")),
    }


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("words", "split", "monomials"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)  # command paths are relative to the checkout root
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    import tracing
    import workloads
    from pencilspec import cli

    directory = workdir(args.workload, args.seed)
    try:
        commands, n_instances, _ = workloads.build(args.workload, args.seed, directory, ROOT)
        setup_s, gen_s = measure_setup(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        passes = measure(workloads, cli, commands, args.seconds, tracer)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failures = [f for p in passes for f in p.failures]
    digests = sorted({p.digest for p in passes})
    problems = [] if len(digests) == 1 else [f"report bytes differ between passes: {digests}"]
    if args.trace:
        metrics, trace_problems = per_layer(tracer, passes, gen_s)
        problems += trace_problems
    else:
        metrics = end_to_end(commands, n_instances, passes, setup_s)
    attempted = len(passes) * len(commands)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "commands_per_pass": len(commands),
        "instances_per_pass": n_instances,
        "report_digest": digests[0],
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
        "environment": environment(),
    }
    for line in failures[:20] + problems:
        print(line, file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
