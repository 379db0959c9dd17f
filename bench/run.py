"""Run one workload of the hecketree benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in a fresh interpreter (``bench/workloads.py``), so that
caches start cold and the peak resident set belongs to that workload alone.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
5 to 15 set-ups (as many as fit in about 2 s), each timed from starting an
interpreter until it has imported hecketree, generated its seeded inputs
and warmed up; the last set-up is the one that then runs the timed passes.  ``run_s`` is the median time of
one pass over the workload's operations, ``op_p50_ms`` and ``op_tail_ms``
the median and tail latency of one operation.

The benchmark's host shares its cores, and its speed drifts by up to 2x
over seconds to minutes.  So every time above is scaled by the host speed
measured around it (``bench/reference.py``): it reads as it would on a host
where one burst of a fixed reference computation takes 1.5 ms, about this
2-vCPU host at its usual speed.  The unscaled wall times and the burst time
are printed beside them.

``--trace 1`` prints the per-layer metrics: an untraced process and then a
traced one each run for half of S, and ``trace_overhead_ratio`` is the
traced scaled median pass time ``run_s`` over the untraced one.  Per-layer
times are wall times, the sampler's bursts included (about 6%).

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0
means the run completed (``correct`` says whether every result checked out);
any other exit code means it could not run, and nothing is printed to stdout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_SCRIPT = os.path.join(ROOT, "bench", "workloads.py")
WORKLOADS = ("oracle-sweep", "dense-products", "cold-tables", "ktheory-snf")
#: set-ups a run times: at least the first, and more while they take under
#: SETUP_BUDGET_S together, up to the second
SETUP_SAMPLES = (5, 15)
SETUP_BUDGET_S = 2.0
#: the whole run must end within 180 s; no child may outlive this
DEADLINE_S = 160

#: the end-to-end metrics of the result, each bounded in BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


class ChildFailed(RuntimeError):
    """A workload process crashed, printed no result, or ran past the deadline."""


def _child(args: list, tmpdir: str, deadline: float) -> tuple:
    """Start a workload process; return (its set-up time, its result).

    The set-up time is scaled by the host speed the process sampled while
    it set up, and the time its sampler took is left out.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.makedirs(tmpdir)
    command = [sys.executable, WORKLOAD_SCRIPT, *args, "--tmp", tmpdir]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"workload process ran past the deadline: {command}")
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise ChildFailed(f"workload process failed (exit {proc.returncode}): {command}")
    speed = json.loads(ready[len("ready ") :])
    wall_setup_s = setup_s - speed["stolen_s"]
    setup_s = wall_setup_s * reference.NOMINAL_BURST_S / speed["burst_s"]
    lines = out.splitlines()
    if "--setup-only" in args:
        return (setup_s, wall_setup_s), None
    if not lines:
        raise ChildFailed(f"workload process printed no result: {command}")
    return (setup_s, wall_setup_s), json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, trace: bool, tmp: str) -> tuple:
    """Return (report lines, result object) for one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        setups = []
        least, most = SETUP_SAMPLES
        budget_end = time.monotonic() + SETUP_BUDGET_S
        while len(setups) < least - 1 or (len(setups) < most - 1 and time.monotonic() < budget_end):
            i = len(setups)
            setup, _ = _child(base + ["--seconds", "0", "--setup-only"], f"{tmp}/s{i}", deadline)
            setups.append(setup)
        setup, child = _child(base + ["--seconds", str(seconds)], f"{tmp}/run", deadline)
        setups.append(setup)
        children = [child]
        metrics = dict(child["e2e"], setup_s=statistics.median(s for s, _ in setups))
        wall = dict(child["wall"], setup_s=statistics.median(w for _, w in setups))
        units = shown = dict(END_TO_END_UNITS)
        tail = child["tail"]
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "run_s": f"median of {child['passes']} passes",
            "op_p50_ms": f"{child['attempted']} operations",
            "op_tail_ms": f"p{tail['pct']}, {tail['beyond']} of {tail['samples']} "
            "operations beyond it",
        }
        notes = {name: f"{note}; wall {wall[name]:.6g}" for name, note in notes.items()}
    else:
        import tracing  # noqa: E402  (needs hecketree, so only the traced mode imports it)

        half = seconds / 2
        _, plain = _child(base + ["--seconds", str(half)], f"{tmp}/plain", deadline)
        _, traced = _child(base + ["--seconds", str(half), "--trace"], f"{tmp}/traced", deadline)
        children = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace_overhead_ratio"] = traced["e2e"]["run_s"] / plain["e2e"]["run_s"]
        units = dict(tracing.metric_units(), trace_overhead_ratio="1")
        shown = dict(sorted(units.items()))
        notes = {"trace_overhead_ratio": f"{traced['passes']} traced, {plain['passes']} untraced passes"}
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = failed == 0 and all(c.get("restored", True) for c in children)
    lines = [
        f"hecketree benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}",
    ]
    for name, unit in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:40s} {metrics[name]!r:>24} {unit}{note}")
    lines.append(f"{'fail_ratio':40s} {failed / attempted!r:>24} 1  ({failed} of {attempted} failed)")
    lines.append(
        f"{'host burst_ms':40s} {children[-1]['burst_ms']!r:>24} ms  (median of "
        f"{children[-1]['bursts']} reference bursts; {reference.NOMINAL_BURST_S * 1e3} ms nominal)"
    )
    if trace and not traced["restored"]:
        lines.append("problem: a traced hecketree attribute was not restored")
    lines.extend(f"problem: {p}" for c in children for p in c["problems"])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hecketree", "__init__.py")):
        print(f"error: no hecketree sources under {SRC}", file=sys.stderr)
        return 2
    # the build step: byte-compile, so that no set-up sample pays for it
    if not compileall.compile_dir(os.path.join(SRC, "hecketree"), quiet=1):
        print("error: hecketree does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
