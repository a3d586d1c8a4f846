"""wavecnn benchmark: one workload in one process, closed loop.

    python3 bench/run.py --workload {train,eval,image} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/`` of the
same checkout.  The seed makes the workload's inputs; the program only sees
the generated arrays.  Units of work run back to back until ``--seconds`` is
spent (every unit at least once).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run spends the first half of its time untraced and the second half
traced, reports the difference as ``trace.overhead_pct``, then runs one
traced round of each other workload so that every per-layer metric is
reported, and writes its spans to ``.bench_out/``.  ``--out FILE`` appends
the run's record (result, per-unit samples, machine facts) to a JSON-lines
file for ``compare.py``.
"""

import os

# Pinned before NumPy is imported: one BLAS/OpenMP thread per process.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_PHASES = ("data", "build", "warmup")
# each workload's own throughput name, printed beside mpix_per_s
WORKLOAD_RATE = {"train": ("train_img_per_s", "images/s", 28 * 28),
                 "eval": ("eval_img_per_s", "images/s", 28 * 28),
                 "image": ("image_mpix_per_s", "Mpixel/s", 1e6)}


def import_library():
    """Import NumPy and wavecnn from this checkout's src/; seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import wavecnn
    where = Path(wavecnn.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"wavecnn imported from {where}, not from {ROOT / 'src'}")
    return time.perf_counter() - t0


def machine_facts() -> dict:
    import numpy
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "threads_env": {k: os.environ.get(k) for k in PINNED_THREADS}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}_per_core" if level != "3" else "L3"] = size
    return facts


def run_setup(workload, repeats: int) -> dict:
    """Set up ``repeats`` times from empty caches; median seconds per phase."""
    from workloads import clear_caches
    samples = {p: [] for p in SETUP_PHASES}
    totals = []
    for _ in range(repeats):
        clear_caches()
        times = {}

        @contextlib.contextmanager
        def phase(name):
            t0 = time.perf_counter()
            yield
            times[name] = time.perf_counter() - t0
        workload.setup(phase)
        for p in SETUP_PHASES:
            samples[p].append(times[p])
        totals.append(sum(times.values()))
    out = {p: statistics.median(v) for p, v in samples.items()}
    out["total"] = statistics.median(totals)
    return out


def measure(units, tracer, seconds: float, tally) -> dict:
    """Cycle through the units until ``seconds`` are spent; per-unit samples.

    The first round always runs in full.  After it, a unit starts only if its
    previous duration still fits before the deadline.
    """
    samples = {key: [] for key, _ in units}
    pixels = {}
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        key, fn = units[i % len(units)]
        if i >= len(units):
            last = samples[key][-1] if samples[key] else 0.0
            if time.perf_counter() + last > deadline:
                break
        try:
            sec, px = fn(tracer, tally)
        except Exception:  # a failed call is counted, reported, and the loop goes on
            tally.calls()
            tally.failures.append(f"{key}: {traceback.format_exc()}")
            continue
        samples[key].append(sec)
        pixels[key] = px
    return {"samples": samples, "pixels": pixels}


def cost(result) -> tuple:
    """(median seconds summed over units, pixels of those units)."""
    sec = px = 0.0
    for key, values in result["samples"].items():
        if values:
            sec += statistics.median(values)
            px += result["pixels"][key]
    return sec, px


def profile_others(name: str, seed: int, tmpdir, tally, out_dir) -> dict:
    """Per-layer metrics of every workload other than ``name``.

    A traced run reports every per-layer metric of the benchmark, so it also
    sets up each other workload once (untimed, caches left warm) and runs one
    traced round of its units.  Their checks count in the same tally.
    """
    import workloads
    from spans import Tracer

    @contextlib.contextmanager
    def untimed(_phase):
        yield
    metrics = {}
    for other, cls in workloads.WORKLOADS.items():
        if other == name:
            continue
        workload = cls(seed, tmpdir)
        workload.setup(untimed)
        tracer = Tracer()
        origin = time.perf_counter()
        measure(workload.units(), tracer, 0.0, tally)
        for metric, (value, unit) in workload.layer_metrics(tracer).items():
            metrics[metric] = {"value": value, "unit": unit}
        tracer.dump(out_dir / f"spans-{name}-seed{seed}.{other}.json", origin)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "image"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to a JSON-lines file")
    args = parser.parse_args(argv)

    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"bench: cannot import wavecnn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import NullTracer, Tracer

    out_dir = ROOT / ".bench_out"
    tmpdir = out_dir / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        setup = run_setup(workload, SETUP_REPEATS)
        tally = workloads.Tally()
        units = workload.units()
        if args.trace:
            t0 = time.perf_counter()
            plain = measure(units, NullTracer(), args.seconds / 2, tally)
            tracer = Tracer()
            origin = time.perf_counter()
            traced = measure(units, tracer, args.seconds - (origin - t0), tally)
            plain_s, _ = cost(plain)
            traced_s, _ = cost(traced)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in workload.layer_metrics(tracer).items()}
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (traced_s - plain_s) / plain_s, "unit": "%"}
            metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
            for p in SETUP_PHASES:
                metrics[f"setup.{p}_s"] = {"value": setup[p], "unit": "s"}
            tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json", origin)
            runs = {"untraced": plain, "traced": traced}
            metrics.update(profile_others(args.workload, args.seed, tmpdir, tally, out_dir))
        else:
            result = measure(units, NullTracer(), args.seconds, tally)
            sec, px = cost(result)
            metrics = {
                "mpix_per_s": {"value": px / sec / 1e6, "unit": "Mpixel/s"},
                "setup_s": {"value": import_s + setup["total"], "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MiB"},
            }
            runs = {"untraced": result}
            name, unit, px_per_item = WORKLOAD_RATE[args.workload]
            print(f"{name} {px / sec / px_per_item:.4f} {unit}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    for failure in tally.failures[:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"ops_failed_ratio {len(tally.failures)}/{tally.attempted}")
    final = {"correct": not tally.failures, "attempted": tally.attempted,
             "failed": len(tally.failures), "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": facts, "result": final,
                  "samples": {k: v["samples"] for k, v in runs.items()}}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
