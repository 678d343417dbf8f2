"""koopcontrol benchmark: the CLI end to end, and each module from a traced replay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-finite --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

One process, one Python thread, a closed loop with one caller: each command
starts only after the previous one returns.  A pass is the workload's whole
command sequence, run in-process through ``koopcontrol.cli.main(argv)``;
passes repeat until ``--seconds`` would be exceeded.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see tracing.py).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: before the library is imported

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("exact-finite", "sampled-box", "identify")
SETUP_REPEATS = 5  # fresh interpreters whose setup times give the median setup_s
CHILD_TIMEOUT_S = 170
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
ENV_NOTE = (
    "the sandbox allows no CPU pinning, frequency control or cache dropping, "
    "so only medians of repeats are meaningful"
)


def _import_library():
    """Import ``koopcontrol.cli`` from this checkout's sources, never another copy."""
    src = ROOT / "src"
    if not (src / "koopcontrol" / "__init__.py").is_file():
        sys.exit(f"error: no koopcontrol sources under {src}; run from a repository checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import koopcontrol.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported koopcontrol from {cli.__file__}, not from {src}")
    return cli


def _setup(workload: str, seed: int, work: Path):
    """Import the library and write the workload's inputs; the part setup_s times."""
    cli = _import_library()
    import workloads

    work.mkdir(parents=True)
    return cli, workloads, workloads.generate(workload, seed, work)


def _commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "peak_rss_method": "getrusage(RUSAGE_SELF).ru_maxrss of the workload process (KiB) / 1024",
        "note": ENV_NOTE,
    }


def run_pass(cli, workloads, cmds: list) -> list:
    """Run one pass; returns ``(command, seconds, outcome)`` per command."""
    records = []
    for cmd in cmds:
        cmd.out.mkdir(parents=True, exist_ok=True)
        cmd.product.unlink(missing_ok=True)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(cmd.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation; its time still counts
            rc = "exception"
            buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        records.append((cmd, seconds, workloads.gate(cmd, rc, buf.getvalue())))
    return records


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def setup_samples(args, own: float) -> list:
    """This process's setup time plus that of SETUP_REPEATS - 1 fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def untraced_run(cli, workloads, cmds: list, seconds: float) -> tuple:
    passes = []
    start = time.perf_counter()
    while True:
        records = run_pass(cli, workloads, cmds)
        passes.append(records)
        wall = sum(s for _, s, _ in records)
        if time.perf_counter() - start + wall > seconds:
            return passes


def end_to_end(args, passes: list, setup: list) -> tuple:
    """The result's metrics, and report lines that also name each workload's own figures."""
    med = statistics.median
    walls = [sum(s for _, s, _ in p) for p in passes]
    outcomes = [o for p in passes for _, _, o in p]
    lines = [f"passes {len(passes)}; one process, one thread, closed loop, one caller"]
    # Throughput is total work over total command time of the run: every
    # pass weighs in, which averages over the machine's slow speed swings.
    kind = "fit" if args.workload == "identify" else "check"
    timed = [(s, o) for p in passes for c, s, o in p if c.kind == kind]
    rate = sum(o.work for _, o in timed) / sum(s for s, _ in timed)
    if args.workload == "identify":
        predict_ms = [1e3 * s for p in passes for c, s, _ in p if c.kind == "predict"]
        lines += [
            f"  fit_samples_per_s {rate:14.6g} 1/s    (transition triples / fit command time)",
            f"  predict_ms_p50    {nearest_rank(predict_ms, 0.5):14.6g} ms     (n = {len(predict_ms)})",
            f"  predict_ms_p90    {nearest_rank(predict_ms, 0.9):14.6g} ms     (n = {len(predict_ms)}, nearest rank)",
        ]
    else:
        lines.append(f"  evals_per_s       {rate:14.6g} 1/s    (identity evaluations / check command time)")
    values = {
        "setup_s": med(setup),
        "wall_s": med(walls),
        "work_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, unit in END_TO_END:
        lines.append(f"  {name:<17} {values[name]:14.6g} {unit}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines.append(f"  fail_frac         {failed / attempted:14.6g} ratio  ({failed} failed of {attempted} attempted)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, lines, outcomes


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    merged, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        out = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(out[-1])
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        cli, workloads, cmds = _setup(args.workload, args.seed, work)
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            print(own_setup)
            return 0
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            import tracing

            def untraced_pass(cmds):
                records = run_pass(cli, workloads, cmds)
                return sum(s for _, s, _ in records), [o for _, _, o in records]

            metrics, lines, outcomes, spans = tracing.traced_run(
                args.workload, args.seed, cmds, args.seconds, untraced_pass
            )
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"env": env, "workload": args.workload, "seed": args.seed, "spans": spans}
            ))
            lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            setup = setup_samples(args, own_setup)
            passes = untraced_run(cli, workloads, cmds, args.seconds)
            metrics, lines, outcomes = end_to_end(args, passes, setup)
            lines.insert(1, f"  setup samples {', '.join(f'{s:.4f}' for s in setup)} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    problems = [p for o in outcomes for p in o.problems]
    for p in problems[:20]:
        print(f"FAILED {p}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
