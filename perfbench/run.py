"""seqinvest benchmark: end-to-end metrics per workload, per-layer metrics from a trace.

Run from the root of a seqinvest checkout::

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced and traced

Each workload is a closed loop: one client, one process, one thread,
running the next task as soon as the previous one finished.  A task is
one public library call, or for ``cli`` one ``python -m seqinvest.cli``
process.  Every output is checked (see ``workloads.py``).

Every time reported is host-speed normalised (see ``hostspeed.py``): a
shared host switches between a fast and a 1.6x slower speed, so a fixed
calibration kernel is timed between tasks (every 20 ms) and each task's
time is divided by the kernel's slowdown around it.  The record line keeps
the raw times and the host speeds next to them.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median,
over fresh interpreters, of the time from process start until the first
task can run (imports plus building the inputs).  The timed loop runs
whole task cycles until ``--seconds`` have passed and at least 100 tasks
ran, so that ``task_p90_ms`` has ten samples beyond it; ``tasks_per_s``
is tasks over the loop's wall time, calibration excluded.  After the
loop, one untimed cycle runs on inputs made from a held-out seed.
``ok_frac`` is ``1 - failed / attempted`` over both.  Inputs that hit a
known defect stay in the mix and count as failures; ``correct`` turns
false only on a failure that is not a known defect.

``--trace 1`` prints the per-layer metrics.  It alternates untraced and
traced cycles (input building included, so construction work shows);
counts are those of one traced cycle and repeat exactly for a seed,
times are medians over the traced cycles, and ``trace.overhead_frac``
compares traced with untraced cycle wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seeds, sample counts, failures and the environment.
"""

import sys

# every import compiles seqinvest afresh, in this process and in the CLI
# processes, so set-up and CLI times do not depend on a bytecode cache
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("design", "play", "montecarlo", "cli")
MIN_SAMPLES = 100
SETUP_PROBES = 7
MARK_EVERY_S = 0.02
MODULES = ("rates", "solvers", "profiles", "rules", "equilibrium", "optima", "simulate", "cli", "errors")

END_TO_END = {
    "setup_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "tasks_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup(workload: str, seed: int):
    """Import the library and build the workload's tasks; the measured set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import seqinvest

    if workload == "cli":
        import seqinvest.cli  # noqa: F401  (traced runs call main in-process)
    if not Path(seqinvest.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported seqinvest from {seqinvest.__file__}, not this checkout")
    import reference
    import workloads

    cx = workloads.Context(ROOT, seqinvest, reference.load(ROOT, seqinvest.rules),
                           sys.executable, child_env())
    seeds = np.random.SeedSequence(seed).spawn(2)  # inputs, held-out inputs

    def build(which: int, **kwargs):
        rng = np.random.default_rng(seeds[which])
        return workloads.BUILDERS[workload](cx, rng, **kwargs)

    return cx, build, build(0)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}

    def merge(self, other: "Tally", prefix: str = "") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for name, entry in other.failures.items():
            mine = self.failures.setdefault(prefix + name, dict(entry, count=0))
            mine["count"] += entry["count"]

    def record(self, task, error) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        entry = self.failures.setdefault(
            task.name, {"count": 0, "error": error, "known_defect": task.known_defect})
        entry["count"] += 1

    @property
    def correct(self) -> bool:
        """No failure other than the known defects."""
        return all(f["known_defect"] for f in self.failures.values())


def run_cycle(tasks, tally: Tally, samples: list | None = None, counts=None, marks=None) -> dict:
    """Run every task once; with ``counts`` (a tracer's), record each task's share.

    With ``marks``, the host's speed is marked between tasks when due.
    """
    ctx: dict = {"task_counts": {}}
    for task in tasks:
        if marks is not None:
            marks.maybe_mark(len(samples))
        before = dict(counts) if counts is not None else None
        start = time.perf_counter()
        try:
            out, error = task.run(ctx), None
        except Exception as exc:  # a task that raises has failed; keep measuring
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = task.check(out, ctx)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        tally.record(task, error)
        if counts is not None:
            ctx["task_counts"][task.name] = {
                k: v - before.get(k, 0) for k, v in counts.items() if v != before.get(k, 0)}
        if samples is not None:
            samples.append((task.name, elapsed))
    return ctx


def spawn_ms(cmd: list[str], until_ready: bool = False) -> float:
    """Wall time of a child process, to its exit or to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        first = proc.stdout.readline() if until_ready else ""
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    end = time.perf_counter()
    if code != 0 or (until_ready and first != "ready\n"):
        raise RuntimeError(f"{' '.join(cmd[:4])} exited {code}")
    return ((ready if until_ready else end) - start) * 1e3


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def normalised_s(host, measure) -> tuple[float, float]:
    """``measure()`` seconds, normalised by the host speed before and after, and raw."""
    before = host.speed()
    raw = measure()
    return raw * 2.0 / (before + host.speed()), raw


def end_to_end(args, build, tasks) -> tuple[dict, dict, Tally]:
    from hostspeed import HostSpeed, Marks

    host = HostSpeed()
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    probes = [normalised_s(host, lambda: spawn_ms(probe, until_ready=True) / 1e3)
              for _ in range(SETUP_PROBES)]
    if args.workload != "cli":  # let lazy initialisation finish; CLI processes pay it every time
        run_cycle(tasks, Tally())
    tally, samples = Tally(), []
    marks = Marks(host, MARK_EVERY_S)
    start = time.perf_counter()
    cycles = 0
    while time.perf_counter() - start < args.seconds or len(samples) < MIN_SAMPLES:
        run_cycle(tasks, tally, samples, marks=marks)
        cycles += 1
    marks.mark(len(samples))
    normal, wall, raw_wall = marks.normalise(samples)
    by_task: dict[str, list[float]] = {}
    for name, elapsed in normal:
        by_task.setdefault(name, []).append(elapsed * 1e3)
    times = [elapsed for _, elapsed in normal]
    raw = [elapsed for _, elapsed in samples]
    heldout = Tally()
    # a correctness check, not a timing: the CLI cases run in-process here
    run_cycle(build(1, **({"in_process": True} if args.workload == "cli" else {})), heldout)
    tally.merge(heldout, prefix="heldout:")

    p90 = percentile(times, 0.9)
    speeds = marks.speeds()
    metrics = {
        "setup_s": statistics.median(s for s, _ in probes),
        "task_p50_ms": percentile(times, 0.5) * 1e3,
        "task_p90_ms": p90 * 1e3,
        "tasks_per_s": len(times) / wall,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        # the cli workload's tasks run in child processes: the largest counts
        "peak_rss_mb": peak_rss_mb(with_children=args.workload == "cli"),
    }
    record = {
        "raw": {"setup_s": statistics.median(r for _, r in probes),
                "task_p50_ms": percentile(raw, 0.5) * 1e3, "task_p90_ms": percentile(raw, 0.9) * 1e3,
                "tasks_per_s": len(raw) / raw_wall},
        "host_speed": {"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds),
                       "marks": len(speeds)},
        "tasks": len(times),
        "samples_beyond_p90": sum(t > p90 for t in times),
        "cycles": cycles,
        "task_median_ms": {name: statistics.median(v) for name, v in by_task.items()},
        "tasks_per_cycle": len(tasks),
        "loop_s": raw_wall,
        "heldout": {"attempted": heldout.attempted, "failed": heldout.failed},
    }
    return metrics, record, tally


def per_layer(args, cx, build) -> tuple[dict, dict, Tally]:
    from hostspeed import HostSpeed
    from tracer import METRICS, Tracer

    host = HostSpeed()
    tracer = Tracer(cx.si)
    tally = Tally()
    cli = args.workload == "cli"
    kwargs = {"in_process": True} if cli else {}
    plain_s, traced_s, layer_ms, counters, episode_rates = [], [], [], [], []
    main_ms, interpreter_ms, import_ms = [], [], []
    first: dict = {}
    oracle_err = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced_s) < 3:
        speed = host.speed()
        samples: list[tuple[str, float]] = []
        t0 = time.perf_counter()
        run_cycle(build(0, **kwargs), tally, samples)
        plain = time.perf_counter() - t0

        traced = Tally()
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            ctx = run_cycle(build(0, **kwargs), traced, counts=None if first else tracer.counts)
            traced_cycle = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tally.merge(traced)
        metrics = tracer.metrics()
        if not first:
            first = dict(metrics, task_counts=ctx["task_counts"], exit_mismatches=traced.failed)
        counters.append(tracer.counters())
        oracle_err = max(oracle_err, ctx.get("oracle_err", 0.0))
        spawned = ([spawn_ms([sys.executable, "-c", "pass"]),
                    spawn_ms([sys.executable, "-c", "import seqinvest.cli"])] if cli else [])

        # every time of this round, normalised by the host speed around it
        factor = 2.0 / (speed + host.speed())
        plain_s.append(plain * factor)
        traced_s.append(traced_cycle * factor)
        layer_ms.append({k: v * factor for k, v in metrics.items() if k.endswith("_ms")})
        summarize_ms = layer_ms[-1]["simulate.histogram_ms"] + layer_ms[-1]["simulate.aggregate_ms"]
        if summarize_ms > 0:
            episode_rates.append(tracer.episodes / summarize_ms * 1e3)
        if cli:
            main_ms += [elapsed * 1e3 * factor for _, elapsed in samples]
            interpreter_ms.append(spawned[0] * factor)
            import_ms.append(spawned[1] * factor)

    # counts are those of one cycle; times are medians over the traced cycles
    metrics = {name: statistics.median(m[name] for m in layer_ms) if name.endswith("_ms")
               else first[name] for name in METRICS}
    interpreter = statistics.median(interpreter_ms) if cli else 0.0
    metrics.update({
        "optima.oracle_err_max": oracle_err,
        "simulate.episodes_per_s": statistics.median(episode_rates) if episode_rates else 0.0,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": statistics.median(import_ms) - interpreter if cli else 0.0,
        "cli.main_ms": statistics.median(main_ms) if cli else 0.0,
        "cli.exit_mismatches": first["exit_mismatches"] if cli else 0,
    })
    for module in MODULES:
        metrics[f"{module}.sloc"] = sloc(ROOT / "src" / "seqinvest" / f"{module}.py")
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    record = {
        "cycles": len(traced_s),
        "counts_repeat": all(c == counters[0] for c in counters),
        "counters": counters[0],
        "task_counts": first["task_counts"],
        "plain_cycle_s": statistics.median(plain_s),
        "traced_cycle_s": statistics.median(traced_s),
        "draw_bytes": "computed from the per-step wave counts (8 bytes a uniform draw), not measured",
    }
    return metrics, record, tally


def units() -> dict[str, str]:
    from tracer import METRICS

    out = dict(METRICS)
    out.update({
        "optima.oracle_err_max": "abs",
        "simulate.episodes_per_s": "1/s",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.main_ms": "ms",
        "cli.exit_mismatches": "count",
        "trace.overhead_frac": "ratio",
    })
    out.update({f"{m}.sloc": "lines" for m in MODULES})
    return out


def sloc(path: Path) -> int:
    lines = path.read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def environment() -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqinvest").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "dont_write_bytecode": sys.dont_write_bytecode,
        "PYTHONDONTWRITEBYTECODE_inherited": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print(f"== {workload} trace={trace}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            merged.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    missing = [p for p in ("src/seqinvest/__init__.py", "tests/conftest.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a seqinvest checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # one CPU for the benchmark and every process it starts, so the host
    # speed marks are taken on the CPU the tasks run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    cx, build, tasks = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, record, tally = per_layer(args, cx, build)
        unit = units()
    else:
        metrics, record, tally = end_to_end(args, build, tasks)
        unit = END_TO_END

    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit[name]}")
    for name, entry in tally.failures.items():
        tag = f"known defect: {entry['known_defect']}" if entry["known_defect"] else "UNEXPECTED"
        print(f"failed {name} x{entry['count']}: {entry['error']} ({tag})")
    record.update(workload=args.workload, seed=args.seed, heldout_seed=f"SeedSequence({args.seed}).spawn(2)[1]",
                  trace=args.trace, failures=tally.failures, environment=environment())
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
