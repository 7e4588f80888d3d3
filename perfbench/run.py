#!/usr/bin/env python3
"""Benchmark of the causal-rules command line on the built-in cohort system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--label LABEL]

One workload runs in this process: it draws its inputs from ``--seed``,
then calls ``causalrules.cli.main`` with the flags a user would pass,
again and again for ``--seconds`` seconds, and checks every command's
output files.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced commands and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
prints that object with ``correct: false`` and exits with code 1.

``--all`` runs every workload, untraced and traced, each in a fresh
process, prints all metrics and writes ``perfbench/out/BENCH_<label>.json``.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

import argparse
import contextlib
import ctypes
import io
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"
OUT_DIR = HERE / "out"

# Set-up is repeated in fresh processes and reported as the median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def import_cli():
    """Import the package from this checkout's ``src``, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import causalrules.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import causalrules from {SRC}: {exc}")
    if not Path(causalrules.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: causalrules was imported from outside {SRC}")
    return causalrules.cli


def unit_of(metric: str) -> str:
    if metric.endswith(("calls", "iters", "_failed")):
        return "count"
    if metric.endswith(("share", "_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    return "s"


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p75..p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def blas_info() -> list[dict]:
    """Every OpenBLAS library loaded in this process, with its thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                break
            if "threads" in info:
                break
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# One workload in this process


def setup_only(args) -> int:
    """The set-up a user of the CLI pays before the first command."""
    import_cli()
    from workloads import WORKLOADS, tiny, write_inputs

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    write_inputs(workload, args.seed, Path(args.setup_only))
    return 0


def time_setup(args, work: Path) -> tuple[list[float], list[Path]]:
    walls, paths = [], []
    for i in range(SETUP_REPEATS):
        path = work / f"setup{i}.csv"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(path)]
        if args.tiny:
            cmd.append("--tiny")
        t = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t)
        paths.append(path)
    return walls, paths


def measure(args) -> int:
    cli = import_cli()
    from checks import check_diagnose, check_estimate, exact_truths, load_refs
    from tracer import COUNT_METRICS, Tracer
    from workloads import (
        SAMPLE_SEED, WORKLOADS, argv, cohort_system, pattern_shares, tiny, write_inputs,
    )

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    work = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        setup_walls, setup_paths = time_setup(args, work)
        csv_path = work / "input.csv"
        data = write_inputs(workload, args.seed, csv_path)
        if data is not None:
            own = csv_path.read_bytes()
            if any(p.read_bytes() != own for p in setup_paths):
                problems.append("the same seed gave different input files")
        for p in setup_paths:
            p.unlink(missing_ok=True)

        system = cohort_system()
        descriptors = {
            "workload": workload.name, "kind": workload.kind, "seed": args.seed,
            "replicates": workload.replicates,
        }
        refs = truths = None
        if data is None:
            descriptors.update(n_sim=workload.n, support_cells=int(system.support.shape[0]))
            truths = exact_truths(system)
        else:
            descriptors.update(pattern_shares(data, len(system.covariate_names)))
            descriptors["sample_seed"] = SAMPLE_SEED
            refs = load_refs(workload.n)
            descriptors["reference"] = refs is not None
        descriptors.update(environment())

        tracer = Tracer() if args.trace else None
        durations: dict[bool, list[float]] = {False: [], True: []}
        layer_runs: list[dict] = []
        spans: list[dict] = []
        attempted = failed = 0
        first_output = None
        begin = time.perf_counter()
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            outdir = work / f"out{i}"
            command = argv(workload, args.seed, csv_path, outdir)
            sink = io.StringIO()
            if traced:
                tracer.reset()
                tracer.install()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    t = time.perf_counter()
                    if traced:
                        root = tracer.open("cli")
                    rc = cli.main(command)
                    if traced:
                        tracer.close(root)
                    elapsed = time.perf_counter() - t
            finally:
                if traced:
                    tracer.uninstall()
            if rc != 0:
                sys.stderr.write(sink.getvalue())
                problems.append(f"command {i} exited with code {rc}")
                break
            durations[traced].append(elapsed)
            if workload.kind == "diagnose":
                outcome = check_diagnose(outdir, workload, truths)
                main_output = (outdir / "eta_bias.json").read_bytes()
            else:
                outcome = check_estimate(outdir, workload, refs)
                main_output = (outdir / "estimates.json").read_bytes()
            attempted += outcome.attempted
            failed += outcome.failed
            problems += [f"command {i}: {p}" for p in outcome.problems]
            if first_output is None:
                first_output = main_output
            elif main_output != first_output:
                problems.append(f"command {i}: output differs from command 0")
            shutil.rmtree(outdir)
            if traced:
                layer_runs.append(tracer.summary())
                spans = tracer.span_records(i)
            i += 1
            done = time.perf_counter() - begin >= args.seconds
            if problems or (done and (tracer is None or durations[True])):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it
    if attempted == 0:
        attempted = 1  # the command that failed
        failed = 1

    print("workload " + json.dumps(descriptors, sort_keys=True))
    setup_s = statistics.median(setup_walls)
    plain = durations[False]
    if tracer is None:
        metrics = {
            "command_s": statistics.median(plain) if plain else float("nan"),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        print_end_to_end(workload, metrics["command_s"], plain)
    else:
        metrics = {}
        for name in layer_runs[0] if layer_runs else ():
            values = [run[name] for run in layer_runs]
            if name in COUNT_METRICS:
                if len(set(values)) != 1:
                    problems.append(f"work count {name} differs between commands: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        if plain and durations[True]:
            metrics["trace.overhead_frac"] = (
                statistics.median(durations[True]) / statistics.median(plain) - 1.0
            )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans))
        print(f"traced {len(durations[True])} of {i} commands; spans of the last one in "
              f"{spans_path.relative_to(ROOT)}")
        print("wait time is zero by construction: the program is single-threaded "
              "and does no I/O inside its loops")
        if tracer.missing:
            print("not traced, missing from the package: " + ", ".join(tracer.missing))
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, value in metrics.items():
        line = f"  {name:48s} {value:.6g} {unit_of(name)}"
        if name.endswith("share"):
            line += f"  = {value * metrics['trace.command_s']:.4g} s"
        print(line)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def print_end_to_end(workload, cmd: float, durations: list[float]) -> None:
    """The workload's figures under the names used in the README."""
    if workload.kind == "estimate":
        print(f"estimate_s = {cmd:.4f} s (median of {len(durations)} commands)")
    else:
        name = "boot" if workload.kind == "bootstrap" else "diag"
        print(f"{name}_replicates_per_s = {workload.replicates / cmd:.4f} 1/s "
              f"({workload.replicates} replicates / median command_s over "
              f"{len(durations)} commands"
              + ("; the base includes the point grid)" if name == "boot" else ")"))
    print("command_s samples: " + " ".join(f"{d:.4f}" for d in durations))
    high = high_percentile(durations)
    if high is None:
        print(f"no percentile above the median has 10 of {len(durations)} samples beyond it")
    else:
        print(f"command_s p{high[0]} = {high[1]:.4f} s")


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process


def run_all(args) -> int:
    from workloads import WORKLOADS

    bench = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = bench["workloads"].setdefault(name, {})
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 30)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{name} --trace {trace} exited with code {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("workload "):
                    entry["descriptors"] = json.loads(line[len("workload "):])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry[key + "_ops"] = {"attempted": result["attempted"], "failed": result["failed"]}
            status |= not result["correct"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to repeat the command (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced per-layer run")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--label", default="local", help="label of the --all result file")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (for the harness's own smoke test)")
    parser.add_argument("--setup-only", dest="setup_only", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        return setup_only(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
