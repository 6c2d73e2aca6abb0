"""Benchmark runner for toriq.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --smoke

A single-workload run sets up its inputs, runs whole rounds of operations
until the operations have taken ``--seconds`` of CPU-bound wall time,
checks every result, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced replay of round 0 (see README.md).
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from importlib import import_module  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("quotient", "queries", "cones", "cli")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
COUNT_SUFFIXES = (".calls", ".events", "_ratio")
# operation time between two calibration slices, and the length of one slice
# at the reference speed (about the median on a 2-vCPU Xeon VM)
CALIBRATION_EVERY_S = 0.5
CALIBRATION_REF_S = 0.045


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import toriq from this checkout's src/ and nowhere else."""
    if not (SRC / "toriq" / "__init__.py").is_file():
        fail(f"no toriq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import toriq
    except ImportError as exc:
        fail(f"cannot import toriq: {exc}")
    if Path(toriq.__file__).resolve().parent != (SRC / "toriq").resolve():
        fail(f"toriq was imported from {toriq.__file__}, not from {SRC}")
    import workloads

    return toriq, workloads


# ---------------------------------------------------------------------------
# measurement


def execute(op):
    """Run one operation; returns (seconds, result, error)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
        err = None
    except Exception as exc:  # an operation that raises counts as failed
        result, err = None, exc
    return time.perf_counter() - t0, result, err


def checked(op, result, err) -> bool:
    if err is not None:
        return False
    try:
        return bool(op.check(result))
    except Exception:
        return False


def calibration_slice() -> float:
    """Seconds taken by a fixed slice of pure-Python work shaped like the
    kernel's hot loops (small tuples, exact fractions, dicts).  It runs no
    toriq code, so only the speed of the machine moves it."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 6000):
        v = tuple((i * k) % 97 - 48 for k in range(1, 6))
        acc += Fraction(sum(a * b for a, b in zip(v, v[::-1])), i % 89 + 1)
        seen[v] = acc.denominator % 7
    return time.perf_counter() - t0


def timed_phase(wl, seconds: float):
    """Whole rounds until the operations took `seconds` and at least
    `wl.min_ops` ran.  Checks run outside the clock.  A calibration slice
    runs before the first operation, after every CALIBRATION_EVERY_S of
    operation time and after the last operation; `marks` holds
    (index of the next operation, slice seconds)."""
    samples: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    marks: list[tuple[int, float]] = []
    busy = 0.0
    since_mark = CALIBRATION_EVERY_S
    rounds = 0
    round_times: list[float] = []
    while busy < seconds or len(samples) < wl.min_ops:
        spent = 0.0
        for op in wl.round(rounds):
            if since_mark >= CALIBRATION_EVERY_S:
                marks.append((len(samples), calibration_slice()))
                since_mark = 0.0
            dt, result, err = execute(op)
            spent += dt
            since_mark += dt
            samples.append(dt)
            kinds.append(op.kind)
            if not checked(op, result, err):
                failures.append(f"round {rounds} {op.kind}: {err!r}" if err else f"round {rounds} {op.kind}")
        busy += spent
        round_times.append(spent)
        rounds += 1
    marks.append((len(samples), calibration_slice()))
    return samples, kinds, failures, marks, busy, rounds, round_times


def at_reference_speed(samples: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Each operation time scaled to the reference machine speed: times
    CALIBRATION_REF_S over the mean of the calibration slices run just
    before and just after it.  On a shared VM the speed drifts by a quarter
    over tens of seconds; the slices drift with it, the scaled times much
    less."""
    out = []
    k = 0
    for j, dt in enumerate(samples):
        while marks[k + 1][0] <= j:
            k += 1
        out.append(dt * CALIBRATION_REF_S * 2 / (marks[k][1] + marks[k + 1][1]))
    return out


def typical_seconds(samples: list[float], kinds: list[str]) -> float:
    """Operation time of the phase with every operation charged the median
    time of its kind: a burst of load from outside the process, which hits
    a few operations, then barely moves the total."""
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(kinds, samples):
        by_kind.setdefault(kind, []).append(dt)
    return sum(len(v) * statistics.median(v) for v in by_kind.values())


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
    return sorted_values[rank - 1], n - rank


def tail(samples: list[float]):
    """The highest of p90, p99, p99.9 that has at least ten samples beyond it."""
    values = sorted(samples)
    best = None
    for q in (90, 99, 99.9):
        value, beyond = percentile(values, q)
        if beyond >= 10:
            best = (f"p{q:g}", value, beyond)
    return best


def measure_setups(args) -> list[float]:
    """Set-up time of fresh processes: spawn to inputs ready, on the shared
    monotonic clock (process start, imports, generation, warm-up)."""
    out = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
    return out


def import_ms() -> list[float]:
    """Cumulative import time of the toriq modules, from -X importtime."""
    out = []
    for _ in range(IMPORTTIME_REPEATS):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import toriq.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        total = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
            if m and m.group(2).startswith("toriq"):
                total += int(m.group(1))
        out.append(total / 1000)
    return out


# ---------------------------------------------------------------------------
# traced replay


def traced_replay(toriq, workloads, wl):
    """Replay round 0 with each operation run once untraced and once traced,
    back to back in alternating order, so slow spells of the machine hit both
    sides alike.  Returns the tracer, both totals and the traced failures."""
    import tracer as tr

    modules = {name: import_module(f"toriq.{name}") for name in tr.LAYERS}
    if wl.name == "cli":
        wl.in_process = True
        for op in wl.round(0):  # one untimed replay: lazy imports, first-call costs
            execute(op)
    ops = wl.round(0)
    tracer = tr.Tracer(modules, namespaces=[toriq, workloads])
    untraced = traced = 0.0
    results = []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced += execute(op)[0]
                continue
            tracer.current_op = i
            tracer.install()
            try:
                dt, result, err = execute(op)
            finally:
                tracer.uninstall()
            traced += dt
            results.append((op, result, err))
    failures = [f"traced {op.kind}" for op, result, err in results if not checked(op, result, err)]
    return tracer, untraced, traced, len(ops), failures


# ---------------------------------------------------------------------------
# provenance


def provenance(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None  # a repository around the checkout, not the checkout's own
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((SRC / "toriq").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    toriq, workloads = import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    wl.setup()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples, kinds, failures, marks, busy, rounds, round_times = timed_phase(wl, args.seconds)
    attempted, failed = len(samples), len(failures)
    report = {
        "workload": args.workload,
        "provenance": provenance(args),
        "sizes": wl.sizes(),
        "in_process_setup_s": ready - PROCESS_T0,
        "timed_phase": {"ops": attempted, "rounds": rounds, "busy_s": busy,
                        "round_s": round_times},
    }
    lines = []
    if args.trace == 0:
        setups = measure_setups(args)
        slices = [c for _, c in marks]
        # set-up runs right after the timed phase: scale it by the run's median slice
        speed = CALIBRATION_REF_S / statistics.median(slices)
        scaled = at_reference_speed(samples, marks)
        if args.workload == "cli":
            rss_kib, rss_of = wl.peak_child_kib, "largest toriq child process"
        else:
            rss_kib, rss_of = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "this process"
        typical = typical_seconds(scaled, kinds)
        metrics = {
            "setup_s": (statistics.median(setups) * speed, "s"),
            "ops_per_s": ((attempted - failed) / typical, "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
        }
        t = tail(scaled)
        report["samples"] = {
            "setup_s": {"wall_clock": setups},
            "op_p50_ms": {"samples": attempted, "beyond": attempted - (attempted + 1) // 2,
                          "wall_ms": statistics.median(samples) * 1000},
            "op_tail_ms": None if t is None else
            {"percentile": t[0], "value": t[1] * 1000, "samples": attempted, "beyond": t[2]},
            "peak_rss_mb": rss_of,
            "failed_frac": {"failed": failed, "attempted": attempted},
            "ops_per_s": {"kinds": len(set(kinds)), "typical_s": typical, "busy_s": busy,
                          "wall_ops_per_s": (attempted - failed) / typical_seconds(samples, kinds)},
            "calibration": {"slices": len(slices), "median_s": statistics.median(slices),
                            "min_s": min(slices), "max_s": max(slices),
                            "reference_s": CALIBRATION_REF_S},
        }
        lines.append(("setup_s", metrics["setup_s"],
                      f"median of {len(setups)} fresh-process set-ups; wall clock "
                      f"{statistics.median(setups):.6g}"))
        wall = report["samples"]
        lines.append(("ops_per_s", metrics["ops_per_s"],
                      f"{attempted - failed} correct ops, {len(set(kinds))} kinds at their median "
                      f"times; wall clock {wall['ops_per_s']['wall_ops_per_s']:.6g}"))
        lines.append(("op_p50_ms", metrics["op_p50_ms"],
                      f"{attempted} samples; wall clock {wall['op_p50_ms']['wall_ms']:.6g}"))
        if t is None:
            lines.append(("op_tail_ms", None, f"n/a: {attempted} samples, p90 needs 100"))
        else:
            lines.append(("op_tail_ms", (t[1] * 1000, "ms"), f"{t[0]}, {attempted} samples, {t[2]} beyond"))
        lines.append(("peak_rss_mb", metrics["peak_rss_mb"], rss_of))
        lines.append(("failed_frac", (failed / attempted, "ratio"), f"{failed} of {attempted}"))
        lines.append(("machine_speed", (speed, "x"),
                      f"reference slice ÷ median of {len(slices)} calibration slices"))
    else:
        import tracer as tr

        tracer, untraced, traced, n_ops, trace_failures = traced_replay(toriq, workloads, wl)
        failures += trace_failures
        attempted += n_ops
        failed = len(failures)
        summary = tracer.summary()
        derived = tr.layer_metrics(summary, tracer)
        metrics = dict(derived["metrics"])
        imports = import_ms()
        metrics["cli.import_ms"] = (statistics.median(imports), "ms")
        report["import_ms_samples"] = imports
        metrics["trace.overhead"] = (traced / untraced - 1, "ratio")
        report["trace"] = {
            "ops": n_ops, "untraced_s": untraced, "traced_s": traced,
            "spans": tracer.span_count(), "ratio_bases": derived["ratio_bases"],
            "layers": {layer: {
                "calls": sum(v["calls"] for k, v in summary.items() if k.split(".")[0] == layer),
                "errors": sum(v["errors"] for k, v in summary.items() if k.split(".")[0] == layer),
            } for layer in tr.LAYERS},
            "spans_file": str((OUT_DIR / f"{tag}.spans.tsv").relative_to(ROOT)),
            "by_name": summary,
        }
        tracer.write_spans(OUT_DIR / f"{tag}.spans.tsv")
        for name, value in metrics.items():
            lines.append((name, value, ""))
    report["failures"] = failures[:20]
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value, note in lines:
        shown = "n/a" if value is None else f"{value[0]:.6g} {value[1]}"
        print(f"  {name:36s} {shown:22s} {note}")
    if failures:
        print(f"  FAILED: {failed} of {attempted}: {failures[:5]}")
    print("report " + json.dumps({k: report[k] for k in ("provenance", "sizes", "timed_phase")}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# all workloads, and the smoke mode


def child_run(name: str, args, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def run_all(args) -> int:
    results = {}
    ok = True
    for name in NAMES:
        if args.smoke:
            # the smallest size, traced twice: counts must repeat exactly
            first = child_run(name, args, 1, 0)
            second = child_run(name, args, 1, 0)
            same = counts(first) == counts(second)
            good = first["correct"] and second["correct"] and same
            print(f"smoke {name}: correct={first['correct'] and second['correct']} "
                  f"counts_repeat={same} ops={first['attempted']}")
            results[name] = {"correct": good}
        else:
            results[name] = child_run(name, args, args.trace, args.seconds)
            good = results[name]["correct"]
        ok = ok and good
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="toriq benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload; with --workload all, "
                             "also check that traced counts repeat")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
