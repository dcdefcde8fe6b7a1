"""Seeded, closed-loop benchmark of photonstats.

    python3 perfbench/run.py --workload imaging --seed 1 --seconds 20 --trace 0

Run from the repository root. One process and one caller: each library call
returns before the next is made, with BLAS capped at one thread.
The library is imported from ``src/`` of this checkout; the benchmark only
calls its public functions with inputs generated from ``--seed``.

A run sets up the workload (imports, inputs, warm-up), then repeats passes
until ``--seconds`` are used, checking every pass's outputs against an
independent route outside the timed region. Set-up and pass times are
rescaled to a nominal machine speed by the yardstick in ``speed.py``,
whose slices run between the library calls of every pass and after every
set-up and are left out of the times they rescale. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Lines before it are ``#`` comments: environment, every
metric with its unit, and any failed check. Results, and the spans of a
traced run, are also written to ``.bench_out/`` at the root.

With ``--trace 1`` traced and untraced passes alternate; per-layer figures
come from the traced ones and ``trace.overhead_ratio`` compares the two.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
# Thread pools size themselves when numpy loads, so this precedes the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (loads numpy, so after the thread cap)

MIN_PASSES = 2
SETUP_CHILDREN = 2  # extra cold set-ups timed in fresh interpreters
SETUP_SLICES = 6  # yardstick slices that rescale one set-up


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("imaging", "exact_laws", "mc_twin", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up; for tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a non-negative 64-bit integer")
    return args


def import_library():
    """Import photonstats from this checkout's src/, never from elsewhere."""
    if not (SRC / "photonstats" / "__init__.py").is_file():
        sys.exit(f"error: no photonstats sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import photonstats

    if Path(photonstats.__file__).resolve().parent != SRC / "photonstats":
        sys.exit(f"error: imported photonstats from {photonstats.__file__}, not {SRC}")


def set_up(args, workdir):
    """Inputs and warm-up; returns the workload and its tracer."""
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tr = Tracer(args.workload)
    warm = cls(args.seed, True, workdir / "warm")
    warm.check(tr, warm.run(tr, 0), 0)
    tr.calls = tr.failed = 0
    return cls(args.seed, args.smoke, workdir / "run"), tr


def rescaled_set_up(ys) -> tuple[float, float]:
    """This process's set-up time so far: (rescaled, wall)."""
    wall = time.perf_counter() - _T0
    mark = ys.mark()
    for _ in range(SETUP_SLICES):
        ys.slice()
    return speed.rescale(wall, *ys.since(mark)), wall


def time_set_up(args, first: float) -> float:
    """Median of this process's set-up and SETUP_CHILDREN more in fresh
    interpreters (imports are cached per process, so repeats need one)."""
    samples = [first]
    if args.smoke:
        return samples[0]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def measure(args, wl, tr, ys):
    """Pass loop. Returns, by pass id, (wall time, yardstick time, slices)
    of the untraced and of the traced passes, the number of checks made,
    failures outside library calls, and a message per failure."""
    plain, traced = {}, {}
    checks = failed = 0
    failures = []
    start = time.perf_counter()
    pass_id = 0
    while True:
        tr.enabled = bool(args.trace) and pass_id % 2 == 0
        tr.pass_id = pass_id
        t = time.perf_counter()
        library_failures = tr.failed
        mark = ys.mark()
        ys.active = True
        try:
            with tr.span("pass"):
                out = wl.run(tr, pass_id)
        except Exception as exc:
            failed += tr.failed == library_failures  # else the span counted it
            failures.append(f"pass {pass_id}: {type(exc).__name__}: {exc}")
            break
        finally:
            ys.active = False
        slice_s, slices = ys.since(mark)
        work = time.perf_counter() - t - slice_s
        # one slice after every pass, so even a short pass has its own
        (traced if tr.enabled else plain)[pass_id] = (work, slice_s + ys.slice(), slices + 1)
        try:
            with tr.span("check"):
                results = wl.check(tr, out, pass_id)
        except Exception as exc:
            checks += 1
            failed += 1
            failures.append(f"pass {pass_id} check: {type(exc).__name__}: {exc}")
            break
        checks += len(results)
        bad = [f"pass {pass_id} check {name}: {value!r}" for name, ok, value in results if not ok]
        failed += len(bad)
        failures += bad
        pass_id += 1
        done = plain and (traced or not args.trace) and pass_id >= MIN_PASSES
        elapsed = time.perf_counter() - start
        if done and elapsed + 0.5 * statistics.median(p[0] for p in [*plain.values(), *traced.values()]) > args.seconds:
            break
    tr.enabled = False
    return plain, traced, checks, failed, failures


def rescaled_pass(passes: dict) -> float:
    """Mean pass time at the nominal speed. The ratio of the run's totals
    rather than a median of per-pass ratios: the few slices inside one pass
    sample the machine's speed too coarsely on their own."""
    work, slice_s, slices = (sum(col) for col in zip(*passes.values()))
    return speed.rescale(work / len(passes), slice_s, slices)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl, tr = set_up(args, workdir)
        ys = speed.Yardstick()
        setup_s, setup_wall_s = rescaled_set_up(ys)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_s = time_set_up(args, setup_s)
        tr.on_call = ys.after_call
        plain, traced, checks, other_failed, failures = measure(args, wl, tr, ys)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import metrics

    attempted = tr.calls + checks
    failed = tr.failed + other_failed
    extras = wl.extras
    if args.trace:
        overhead = rescaled_pass(traced) / rescaled_pass(plain) - 1.0 if plain and traced else 0.0
        values = metrics.per_layer(tr.spans, sorted(traced), extras, overhead) if traced else {}
        values["yardstick.slice_s"] = ys.total_s / ys.slices
        values["yardstick.slices"] = ys.slices
        catalogue = metrics.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": rescaled_pass(plain) if plain else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / max(attempted, 1),
        }
        catalogue = metrics.END_TO_END
    result = {
        "correct": not failures and len(values) == len(catalogue),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in catalogue},
    }

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(plain)} untraced + {len(traced)} traced")
    for name, unit in catalogue:
        print(f"# {name} = {values.get(name, 0.0):.6g} {unit}")
    if not args.trace and plain:
        print(f"# wall times, not rescaled: pass {statistics.median(p[0] for p in plain.values()):.6g} s, "
              f"set-up {setup_wall_s:.6g} s; yardstick slice {ys.total_s / ys.slices:.6g} s "
              f"(nominal {speed.NOMINAL_SLICE_S} s)")
    for key in ("imaging.rel_err", "imaging.contrast_gain", "cli.replay.failed"):
        if key in extras and not args.trace:
            print(f"# {key} = {statistics.median(extras[key]):.6g}")
    for line in failures:
        print(f"# FAILED {line}")
    record = {**result, "env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": {"untraced": plain, "traced": traced},
              "setup_wall_s": setup_wall_s, "yardstick": {"slice_s": ys.total_s, "slices": ys.slices},
              "failures": failures}
    if args.trace:
        record["spans"] = tr.spans
    smoke = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
