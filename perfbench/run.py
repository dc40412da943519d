"""spreadbias benchmark: seeded workloads through the real CLI, in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload ti-deep --seed 1 --seconds 25 --trace 0

The run generates the workload's games CSV from ``--seed``, then drives
``spreadbias.cli.main(argv)`` as a closed loop from this one process: one
command at a time, no worker threads or pools, BLAS pinned to one thread.
It repeats the workload's command sequence for ``--seconds`` seconds after
one warm-up pass, checks every command's outputs (the warm-up pass against
an independent oracle and, for recorded seeds, ``reference.json``; later
passes byte-for-byte against the warm-up pass), and prints a human-readable
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced passes and reports per-layer self times and counts,
plus the tracing overhead. Everything the run writes (inputs, command
outputs, results, spans) goes under ``.perfbench-out/`` in the current
directory.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child interpreter.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import at_reference_speed, probe  # noqa: E402

SETUP_REPEATS = 11
WORK_DIR = Path(".perfbench-out")
# Seeds whose exact outputs reference.json pins (record_reference.py writes them).
RECORDED_SEEDS = range(20)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "wagers_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter's cost of making the CLI importable, with the host's
# speed probed in the same process right after.
_IMPORT_TIMER = """
import time
start = time.perf_counter()
import spreadbias.cli
seconds = time.perf_counter() - start
import json, sys
sys.path.insert(0, sys.argv[1])
from probe import probe
print(json.dumps([seconds, [probe(), probe()]]))
"""

# A fresh interpreter running one pass of the workload; prints its peak RSS.
_RSS_CHILD = """
import contextlib, io, json, resource, sys
import spreadbias.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(spreadbias.cli.main(argv))
print(json.dumps({"codes": codes,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class Failure(Exception):
    """A command exited non-zero or its outputs failed the check."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def environment(seed: int) -> dict:
    """What produced a result: machine, interpreter, libraries, code."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spreadbias").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(repeats: int) -> tuple[list[float], list[float]]:
    """Cold import of ``spreadbias.cli``, each in a fresh interpreter; raw
    seconds and seconds at reference speed."""
    raw, scaled = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(HERE)],
                              env=child_env(), capture_output=True, text=True, timeout=120,
                              check=True)
        seconds, probes = json.loads(done.stdout)
        raw.append(seconds)
        scaled.append(at_reference_speed(seconds, probes))
    return raw, scaled


class Runner:
    """Runs one workload's command sequence and checks what it writes."""

    def __init__(self, workload, seed: int, work: Path, expected: dict, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = expected
        self.reference = reference
        self.input = work / "inputs" / f"{workload.name}-{seed}.csv"
        self.fingerprints: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def out_dir(self, command: str) -> Path:
        return self.work / "out" / command

    def argv(self, command: str) -> list[str]:
        argv = [command, "--input", str(self.input), "--out-dir", str(self.out_dir(command)),
                "--seed", str(self.seed)]
        if command == "simulate-ti":
            argv += ["--simulations", str(self.workload.simulations)]
        if command == "backtest-td":
            argv += ["--cutoff-year", str(self.workload.cutoff_year)]
        return argv

    def run_pass(self, main, full_check: bool, probed: bool = False, on_command=None):
        """One pass over the commands. Returns each command's wall seconds
        and, when ``probed``, each scaled to reference speed by the probes
        run just before and after it. Failures are counted, never raised."""
        seconds, scaled = [], []
        before = probe() if probed else 0.0
        for command in self.workload.commands:
            out = self.out_dir(command)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            gc.collect()
            stdout, stderr = io.StringIO(), io.StringIO()
            self.attempted += 1
            if on_command:
                on_command()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(self.argv(command))
            except Exception:  # a crashing command is a measured outcome
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
            seconds.append(elapsed)
            if probed:
                after = probe()
                scaled.append(at_reference_speed(elapsed, (before, after)))
                before = after
            try:
                if code != 0:
                    raise Failure(f"exit {code}: {stderr.getvalue().strip()}")
                self.verify(command, stdout.getvalue(), full_check)
            except Exception as exc:  # as is output that fails the check
                self.failed += 1
                detail = str(exc) if isinstance(exc, Failure) else traceback.format_exc()
                self.problems.append(f"{command}: {detail}")
        return seconds, scaled

    def verify(self, command: str, stdout: str, full_check: bool) -> None:
        out = self.out_dir(command)
        if full_check:
            observed = check.observe(command, out, stdout)
            problems = check.compare(observed, self.expected[command])
            if self.reference is not None and (
                    check.exact_digest(observed) != self.reference[command]):
                problems.append("exact outputs differ from those recorded for this seed")
            if problems:
                raise Failure("; ".join(problems))
            self.fingerprints[command] = check.fingerprint(out)
        elif check.fingerprint(out) != self.fingerprints.get(command):
            raise Failure("outputs differ from the checked warm-up pass")

    def written(self) -> tuple[int, int]:
        files = [p for c in self.workload.commands for p in self.out_dir(c).iterdir()]
        return len(files), sum(p.stat().st_size for p in files)

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh interpreter running one pass of the workload."""
        argvs = [self.argv(c) for c in self.workload.commands]
        for command in self.workload.commands:
            shutil.rmtree(self.out_dir(command), ignore_errors=True)
        self.attempted += len(argvs)
        done = subprocess.run([sys.executable, "-c", _RSS_CHILD, json.dumps(argvs)],
                              env=child_env(), capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            self.failed += len(argvs)
            self.problems.append(f"rss child: {done.stderr.strip()[-500:]}")
            return float("nan")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for command, code in zip(self.workload.commands, result["codes"]):
            try:
                if code != 0:
                    raise Failure(f"exit {code} in the rss child")
                self.verify(command, "", full_check=False)
            except Exception as exc:
                self.failed += 1
                self.problems.append(f"{command} (rss child): {exc}")
        return result["maxrss_kb"] / 1024.0


def distribution(values: list[float]) -> dict:
    """Samples, quartiles, and the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11
    return {
        "samples": n,
        "values": values,
        "quartiles": statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3,
        "tail_percentile": 100.0 * i / (n - 1) if i >= 0 and n > 1 else None,
        "tail_s": ordered[i] if i >= 0 else None,
    }


def work_per_pass(expected: dict, rows: int, workload) -> dict:
    wagers = sum(m[1] + m[2] for summary in expected.values()
                 for m in summary["exact"].get("models", {}).values())
    return {"rows": rows * len(workload.commands), "wagers": wagers,
            "simulations": workload.simulations}


def measure(runner: Runner, main, seconds: float) -> tuple[list[float], list[float]]:
    """Probed passes for ``seconds``: raw pass seconds, and pass seconds at
    reference speed."""
    walls, scaled = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not walls:
        raw, at_reference = runner.run_pass(main, full_check=False, probed=True)
        walls.append(sum(raw))
        scaled.append(sum(at_reference))
    return walls, scaled


def measure_traced(runner: Runner, cli, seconds: float):
    """Alternate untraced and traced probed passes for ``seconds``. Returns
    the tracer, untraced and traced pass seconds, and per-layer metrics of
    each traced pass, all at reference speed."""
    tracer = tracing.Tracer()
    tracer.calibrate()
    plain, traced, rows = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        plain.append(sum(runner.run_pass(cli.main, full_check=False, probed=True)[1]))
        mark = tracer.mark()
        with tracer.installed():
            # cli.main is looked up per call so the installed wrapper runs.
            raw, scaled = runner.run_pass(lambda argv: cli.main(argv), full_check=False,
                                          probed=True, on_command=tracer.begin_command)
        traced.append(sum(scaled))
        row = tracer.pass_metrics(mark, scale=sum(scaled) / sum(raw))
        row["cli.files_written"], row["cli.bytes_written"] = runner.written()
        row["trace.wall_s"] = traced[-1]
        rows.append(row)
    return tracer, plain, traced, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs through the same path (smoke test)")
    args = parser.parse_args(argv)

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "spreadbias" / "cli.py").is_file():
        print(f"spreadbias sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spreadbias.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "spreadbias").resolve():
        print(f"imported spreadbias from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = table[args.workload]
    work = WORK_DIR / ("tiny" if args.tiny else "full")
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    games = workloads.generate(workload.shape, args.seed)
    shape = workloads.describe(games, check.TI_MIN_SAMPLES)
    expected = check.expect(workload, games, args.seed)
    reference = None
    if not args.tiny and args.seed in RECORDED_SEEDS:
        recorded = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = recorded["workloads"][args.workload][str(args.seed)]
    runner = Runner(workload, args.seed, work, expected, reference)
    workloads.write_csv(games, runner.input)
    env = environment(args.seed)

    # Warm-up pass: fills caches and is the pass checked against the oracle.
    runner.run_pass(cli.main, full_check=True)
    files, size = runner.written()
    work_done = work_per_pass(expected, len(games), workload)

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "env": env, "shape": shape, "work_per_pass": work_done,
                    "files_written": files, "bytes_written": size}
    if args.trace == 0:
        setup_raw, setup = setup_seconds(SETUP_REPEATS)
        rss = runner.peak_rss_mb()
        walls_raw, walls = measure(runner, cli.main, args.seconds)
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "rows_per_s": work_done["rows"] / wall,
            "wagers_per_s": work_done["wagers"] / wall,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
        result.update({
            "wall": distribution(walls), "wall_raw": distribution(walls_raw),
            "setup": distribution(setup), "setup_raw": distribution(setup_raw),
            "sims_per_s": work_done["simulations"] / wall if work_done["simulations"] else None,
        })
    else:
        tracer, plain, traced, rows = measure_traced(runner, cli, args.seconds)
        metrics = {name: statistics.median(row.get(name, 0) for row in rows)
                   for name in tracing.LAYER_UNITS}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = tracing.LAYER_UNITS
        (work / "trace").mkdir(exist_ok=True)
        spans_path = work / "trace" / f"{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        result.update({"untraced_wall_s": statistics.median(plain), "traced_samples": traced,
                       "untraced_samples": plain, "spans": str(spans_path),
                       "layer_share": tracing.share_report(workload, metrics),
                       "leaf_overhead_s": tracer.leaf_overhead})

    failed_frac = runner.failed / runner.attempted
    result.update({"attempted": runner.attempted, "failed": runner.failed,
                   "failed_frac": failed_frac, "reference_checked": reference is not None,
                   "problems": runner.problems[:20],
                   "metrics": metrics})
    (work / "results").mkdir(exist_ok=True)
    results_path = work / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(shape)}")
    print(f"env: {json.dumps(env)}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed_frac:.6g} ratio "
          f"({runner.failed} of {runner.attempted} commands)")
    print(f"reference_checked = {reference is not None} "
          f"(recorded seeds {RECORDED_SEEDS.start}-{RECORDED_SEEDS.stop - 1}; "
          f"every seed is checked against the oracle)")
    if args.trace == 0:
        if result["sims_per_s"] is not None:
            print(f"sims_per_s = {result['sims_per_s']:.6g} 1/s")
        for key, label in (("wall", "at reference speed"), ("wall_raw", "at host speed")):
            d = result[key]
            q = d["quartiles"]
            tail_text = ("n/a, needs 11 passes" if d["tail_percentile"] is None
                         else f"p{d['tail_percentile']:.0f} = {d['tail_s']:.6g} s")
            print(f"pass seconds {label}: {d['samples']} passes, quartiles "
                  f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g} s, tail {tail_text}")
    else:
        share = result["layer_share"]
        print(f"tracing overhead = {metrics['trace.overhead_s']:.6g} s "
              f"(traced {metrics['trace.wall_s']:.6g} s vs untraced "
              f"{result['untraced_wall_s']:.6g} s)")
        print(f"layer shares: {json.dumps(share['layer_shares'])}; largest {share['largest']} "
              f"({share['largest_share']:.1%})")
        print(f"prediction ({share['prediction']}): "
              f"{'holds' if share['holds'] else 'CONTRADICTED, as measured'}")
    print(f"results: {results_path}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
