"""Benchmark of nonlocal_bbm: one workload, one seed, one run.

    python3 bbmbench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  The run repeats whole
rounds of the workload until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds have run, checks the outputs
against the references in ``refs``, writes a result file under
``bbmbench/out/`` and prints the result as the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones; traced and untraced rounds must give bit-identical outputs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# One thread for BLAS and for the CLI's point pool: the load is this one
# process, and cpu_s shows any work a change moves onto threads.
BLAS_THREADS = "1"
# The machine's speed wanders by 15 to 40% in phases of 5 to 30 s, as other
# tenants load it.  Every operation runs at least three times, in rounds
# spread over the whole run, and counts with its median time.
MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "max_rel_err": "1",
}


def _since_process_start():
    """Seconds since the kernel started this process (10 ms resolution), or
    since this module started when the kernel's clock is not readable."""
    script = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return script
    return elapsed if script <= elapsed < script + 10.0 else script


def _machine():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nonlocal_bbm
    except ImportError as exc:
        raise SystemExit(f"bbmbench: cannot import nonlocal_bbm from {src}: {exc}")
    origin = Path(nonlocal_bbm.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"bbmbench: nonlocal_bbm imported from {origin}, not from {src}")


class _OpTimer:
    """Wall and CPU time of each named operation of one round."""

    def __init__(self):
        self.wall, self.cpu = {}, {}

    @contextlib.contextmanager
    def __call__(self, name):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall[name] = time.perf_counter() - w0
            self.cpu[name] = time.process_time() - c0


def _run_rounds(wl, seconds, tracer):
    """Whole rounds until ``seconds`` have passed and at least MIN_ROUNDS ran;
    with a tracer, untraced and traced rounds alternate, equal in number."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        timer = _OpTimer()
        if traced:
            tracer.reset()
            tracer.install()
            wl.trace(tracer)
        try:
            wl.run_round(timer)
        finally:
            if traced:
                wl.untrace()
                tracer.uninstall()
        rounds.append({
            "traced": traced, "wall": timer.wall, "cpu": timer.cpu,
            "layers": tracer.metrics() if traced else None,
            "outputs": wl.collect(),
        })
        done = time.perf_counter() - start >= seconds and len(rounds) >= MIN_ROUNDS
        if done and (tracer is None or len(rounds) % 2 == 0):
            return rounds


def _round_time(rounds, key):
    """Sum over a round's operations of each one's median over ``rounds``."""
    ops = rounds[0][key]
    return sum(statistics.median(rd[key][op] for rd in rounds) for op in ops)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    _import_package()

    import layers
    import workloads

    try:
        return _run(args, layers, workloads)
    except layers.TraceError as exc:
        print(f"bbmbench: trace: {exc}", file=sys.stderr)
        return 3


def _run(args, layers, workloads):
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bbmbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_s = _since_process_start()
        tracer = layers.Tracer() if args.trace else None
        rounds = _run_rounds(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]["outputs"]
    verdict = wl.check(first)
    errors = list(verdict.errors)
    for i, rd in enumerate(rounds[1:], start=1):
        if rd["outputs"] != first:
            kind = "traced" if rd["traced"] else "untraced"
            errors.append(f"round {i} ({kind}) outputs differ from round 0")

    plain = [rd for rd in rounds if not rd["traced"]]
    if args.trace:
        traced = [rd for rd in rounds if rd["traced"]]
        values = {
            name: statistics.median(rd["layers"][name] for rd in traced)
            for name in traced[0]["layers"]
        }
        # round 0 also pays first-touch costs; leave it out when it can be
        warm = plain[1:] or plain
        values["trace.overhead_s"] = _round_time(traced, "wall") - _round_time(warm, "wall")
        silent = [name for name in wl.required_layers if not values[name] > 0]
        if silent:
            raise layers.TraceError(
                f"layers recorded no work on {args.workload}: {', '.join(silent)}"
            )
        units = layers.PER_LAYER_UNITS
    else:
        values = {
            "wall_s": _round_time(plain, "wall"),
            "cpu_s": _round_time(plain, "cpu"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "max_rel_err": verdict.max_rel_err,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": verdict.failed * len(rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    for line in errors + verdict.failures:
        print(f"bbmbench: {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "rounds": [{k: rd[k] for k in ("traced", "wall", "cpu")} for rd in rounds],
        "result": result,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
