"""The four workloads of the hecketree benchmark, run in a fresh interpreter each.

Usage (normally started by ``bench/run.py``, with ``src`` on PYTHONPATH)::

    python3 bench/workloads.py --workload NAME --seed N --seconds S --tmp DIR
        [--setup-only | --trace]

The process sets up (imports hecketree, generates its inputs from the seed
into DIR, warms up), prints ``ready`` and a JSON object with the host speed
during set-up, then repeats passes over the workload's fixed operation list
for S seconds, and at least until the tail percentile has ten operations
beyond it.  Each pass starts with an untimed full garbage collection.  Each
operation is timed alone, and its time is scaled by the host speed sampled
around it (``bench/reference.py``); the unscaled times are reported too.
Every correctness check runs outside the timed region, and the checks that
call hecketree run after the passes, with no tracing wrappers installed.
The last line printed is one JSON object with the results.

An operation fails when it raises, when its result differs from the same
operation's result in the first pass, or when its first-pass result fails
the workload's check; a failing operation is counted and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import sys
from fractions import Fraction
from typing import NamedTuple

import reference

if __name__ == "__main__":  # set-up is timed from here, hecketree's import included
    SETUP_SAMPLER = reference.SpeedSampler().start()

import hecketree  # noqa: E402
from hecketree import cli, ktheory
from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra, toeplitz_bratteli
from hecketree.endstab import toeplitz_shift_alpha
from hecketree.iwahori import IwahoriAlgebra
from hecketree.ktheory import AbelianGroupPresentation, BratteliDiagram, IntMatrix
from hecketree.spherical import SphericalAlgebra, SphericalParams

import tracing


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    """``hecketree.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_problem(result: CliResult) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[:200]}"
    if result.stderr:
        return f"unexpected stderr: {result.stderr.strip()[:200]}"
    if not result.stdout:
        return "empty stdout"
    return None


class Workload:
    """A fixed list of ``(label, operation)`` pairs, with checks on the results."""

    #: percentile reported as ``op_tail_ms``; the run has ten operations beyond it
    tail_pct: int

    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list = []

    @property
    def min_ops(self) -> int:
        return math.ceil(10 / (1 - self.tail_pct / 100))

    def check(self, index: int, result) -> str | None:
        """Problem with the first-pass result of operation ``index``, or None."""
        raise NotImplementedError


class CliWorkload(Workload):
    """Fixed CLI commands through ``cli.main``.

    The seed does not reorder them: the order decides which large objects
    are freed before the next are allocated, and so the peak resident set.
    """

    commands: tuple = ()

    def __init__(self, seed: int, tmpdir: str):
        super().__init__(seed, tmpdir)
        self.ops = [(cmd, lambda argv=cmd.split(): run_cli(argv)) for cmd in self.commands]

    def check(self, index: int, result: CliResult) -> str | None:
        problem = cli_problem(result)
        if problem:
            return problem
        text = result.stdout
        # verify and nu print one indented document, table one record a line
        if text.startswith("{\n"):
            docs = [json.loads(text)]
        else:
            docs = [json.loads(line) for line in text.splitlines()]
        return self.check_docs(self.ops[index][0], docs)

    def check_docs(self, label: str, docs: list) -> str | None:
        return None


class OracleSweep(CliWorkload):
    name = "oracle-sweep"
    tail_pct = 90
    commands = (
        # every verify command of acceptance criterion 8
        "verify spherical --q 2 --max 5",
        "verify spherical --q 3 --max 5",
        "verify spherical --q 4 --max 5",
        "verify spherical --q0 2 --q1 2 --max 3",
        "verify spherical --q0 2 --q1 3 --max 3",
        "verify spherical --q0 3 --q1 2 --max 3",
        "verify iwahori --qs 2 --qt 2 --len 5",
        "verify iwahori --qs 2 --qt 3 --len 5",
        "verify affine --q 2 --max 4",
        "verify affine --q 3 --max 4",
        "verify affine --q 4 --max 4",
        # one deeper sweep per family (the iwahori --len 5 sweeps are already deep)
        "verify spherical --q 2 --max 8",
        "verify spherical --q 3 --max 6",
        "verify affine --q 2 --max 7",
        "verify affine --q 3 --max 5",
    )

    def check_docs(self, label, docs):
        doc = docs[0]
        if doc.get("ok") is not True or not doc.get("cells"):
            return f"verify reports ok={doc.get('ok')!r} over {doc.get('cells')!r} cells"
        return None


class ColdTables(CliWorkload):
    name = "cold-tables"
    tail_pct = 75  # five operations a pass: p90 would need twenty passes
    commands = (
        "nu --p 7 --depth 3",
        "nu --p 5 --depth 3",
        "table spherical --q 2 --max 40",
        "table iwahori --qs 2 --qt 3 --len 6",
        "table affine --q 3 --max 30",
    )

    def check_docs(self, label, docs):
        if label.startswith("nu") and not docs[0].get("table"):
            return "nu printed no table"
        return None


def _coefficient(rng: random.Random) -> Fraction:
    """A non-integer rational ``±n/d`` with small numerator and denominator."""
    while True:
        num, den = rng.randint(1, 9), rng.randint(2, 9)
        if num % den:
            return Fraction(rng.choice((-1, 1)) * num, den)


def _stratified(rng: random.Random, pool: list, k: int) -> list:
    """One index from each of ``k`` equal slices of ``pool``.

    Every seed then draws supports spread over the whole index range, so the
    cost of a product, and with it the timings, hardly depends on the seed.
    """
    n = len(pool)
    return [pool[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


class DenseProducts(Workload):
    """Products of dense seeded elements, with every product cache warmed in set-up."""

    name = "dense-products"
    # p90 lies among the spherical q=3 products, one in six and the costliest;
    # p99 is one seed's one or two costliest draws and spread 0.14 across seeds
    tail_pct = 90
    terms = 12
    products_per_algebra = 12

    def __init__(self, seed: int, tmpdir: str):
        super().__init__(seed, tmpdir)
        iw23, iw22 = IwahoriAlgebra(2, 3), IwahoriAlgebra(2, 2)
        families = (
            ("spherical q=3", SphericalAlgebra(SphericalParams.homogeneous(3)), range(41)),
            ("spherical (2,3)", SphericalAlgebra(SphericalParams.two_orbit(2, 3)), range(21)),
            # decorated words satisfy the algebra identities checked below only
            # at equal weights (see hecketree.verify.verify_iwahori), so the
            # inversion flag is drawn at (2,2) and plain words at (2,3)
            ("iwahori (2,3)", iw23, iw23.words_up_to(6, with_iflag=False)),
            ("iwahori (2,2)", iw22, iw22.words_up_to(6)),
            ("horocycle q=3", HorocycleAlgebra(3), range(31)),
            ("toeplitz q=2", ToeplitzAlgebra(2), [(a, b) for a in range(8) for b in range(8)]),
        )
        self.pairs = []
        for label, algebra, pool in families:
            pool = sorted(pool, key=algebra.basis_key)
            for _ in range(self.products_per_algebra):
                x, y = (
                    algebra.element(
                        {idx: _coefficient(self.rng) for idx in _stratified(self.rng, pool, self.terms)}
                    )
                    for _ in range(2)
                )
                self.pairs.append((label, x, y))
        self.rng.shuffle(self.pairs)
        self.ops = [(label, lambda x=x, y=y: x * y) for label, x, y in self.pairs]
        for _, op in self.ops:
            op()  # warm-up: every basis product the passes need is now cached
        self._recursive: dict = {}

    def check(self, index, z):
        _, x, y = self.pairs[index]
        if z.r_hom() != x.r_hom() * y.r_hom():
            return "r_hom is not multiplicative"
        if z.star() != y.star() * x.star():
            return "star is not anti-multiplicative"
        if isinstance(x.algebra, SphericalAlgebra) and z != self._recursive_product(x, y):
            return "product differs from the multiply_recursive route"
        return None

    def _recursive_product(self, x, y):
        """``x * y`` expanded over basis products from ``multiply_recursive``."""
        algebra = x.algebra
        acc: dict = {}
        for a, ca in x.terms():
            for b, cb in y.terms():
                key = (algebra, min(a, b), max(a, b))  # the algebra is commutative
                basis = self._recursive.get(key)
                if basis is None:
                    basis = self._recursive[key] = algebra.multiply_recursive(a, b).terms()
                for idx, n in basis:
                    acc[idx] = acc.get(idx, 0) + ca * cb * n
        return algebra.element(acc)


def random_bratteli(rng: random.Random, num_levels: int = 10) -> dict:
    """A Bratteli diagram whose multiplicities are carried along by its maps."""
    widths = [rng.randint(2, 5) for _ in range(num_levels)]
    levels = [[rng.randint(1, 3) for _ in range(widths[0])]]
    maps = []
    for k in range(num_levels - 1):
        rows = []
        for _ in range(widths[k + 1]):
            row = [rng.randint(0, 2) for _ in range(widths[k])]
            if not any(row):
                row[rng.randrange(widths[k])] = 1
            rows.append(row)
        maps.append(rows)
        levels.append([sum(r * x for r, x in zip(row, levels[-1])) for row in rows])
    return {"levels": levels, "maps": maps}


def _matmul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def snf_problem(m: IntMatrix, snf, coker, krank) -> str | None:
    """The criterion-7 postconditions, and cokernel and kernel rank read off D."""
    u, d, v = snf
    if u @ m @ v != d:
        return "U M V != D"
    if abs(u.det()) != 1 or abs(v.det()) != 1:
        return "a transform is not unimodular"
    if any(x for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j):
        return "D is not diagonal"
    diag = [d.entries[i][i] for i in range(min(m.rows, m.cols))]
    for prev, cur in zip(diag, diag[1:]):
        if prev < 0 or cur < 0 or (cur if prev == 0 else cur % prev):
            return f"divisor chain broken at {prev}, {cur}"
    rank = sum(1 for x in diag if x)
    if coker != AbelianGroupPresentation(m.rows - rank, tuple(x for x in diag if x > 1)):
        return "cokernel disagrees with D"
    if krank != m.cols - rank:
        return "kernel rank disagrees with D"
    return None


def limit_problem(diagram: BratteliDiagram, report: dict) -> str | None:
    """The truncated limit's composed map and level data, recomputed independently."""
    composed = [[int(i == j) for j in range(len(diagram.levels[0]))] for i in range(len(diagram.levels[0]))]
    for m in diagram.maps:
        composed = _matmul(m.to_lists(), composed)
    if report["composed_map"] != composed:
        return "composed map differs from the product of the maps"
    if [lv["k0_rank"] for lv in report["levels"]] != [len(lv) for lv in diagram.levels]:
        return "level ranks differ from the diagram"
    if len(report["stage_cokernels"]) != diagram.num_levels - 1:
        return "wrong number of stage cokernels"
    return None


class KTheorySNF(Workload):
    """Smith normal forms, Pimsner-Voiculescu K-groups and truncated Bratteli limits."""

    name = "ktheory-snf"
    tail_pct = 99
    # two matrices each at the costliest sizes, so that one seed's draw moves
    # the pass time less
    shapes = [(n, n) for n in (8, 12, 16, 20, 24, 28, 28, 32, 32)]
    shapes += [(8, 12), (12, 8), (16, 24), (24, 16)]
    pv_stages = range(3, 41)

    def __init__(self, seed: int, tmpdir: str):
        super().__init__(seed, tmpdir)
        rng = self.rng
        self.diagram_path = os.path.join(tmpdir, "bratteli.json")
        with open(self.diagram_path, "w", encoding="utf-8") as fh:
            json.dump(random_bratteli(rng), fh)
        self.kinds = []
        for rows, cols in self.shapes:
            m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            op = lambda m=m: (ktheory.smith_normal_form(m), ktheory.cokernel(m), ktheory.kernel_rank(m))
            self.ops.append((f"snf {rows}x{cols}", op))
            self.kinds.append(("snf", m))
        for n in self.pv_stages:
            alpha = toeplitz_shift_alpha(n)
            self.ops.append((f"pv_k_groups stage {n}", lambda a=alpha: ktheory.pv_k_groups(a)))
            self.kinds.append(("pv", alpha))
        self.diagram = ktheory.load_bratteli(self.diagram_path)
        for label, diagram in (("toeplitz_bratteli(40)", toeplitz_bratteli(40)), ("random", self.diagram)):
            self.ops.append((f"truncated_limit {label}", lambda d=diagram: ktheory.truncated_limit(d)))
            self.kinds.append(("limit", diagram))
        argv = ["ktheory", self.diagram_path]
        self.ops.append(("ktheory <file>", lambda: run_cli(argv)))
        self.kinds.append(("cli", self.diagram))

    def check(self, index, result):
        kind, payload = self.kinds[index]
        if kind == "snf":
            return snf_problem(payload, *result)
        if kind == "pv":
            if result != (AbelianGroupPresentation(1), 0):
                return f"Toeplitz K-groups are {result!r}, not (Z, 0)"
            return None
        if kind == "limit":
            return limit_problem(payload, result)
        problem = cli_problem(result)
        if problem:
            return problem
        expected = json.loads(json.dumps(ktheory.truncated_limit(payload)))
        if json.loads(result.stdout)["limit"] != expected:
            return "CLI limit differs from truncated_limit"
        return None


WORKLOADS = {w.name: w for w in (OracleSweep, DenseProducts, ColdTables, KTheorySNF)}


def percentile(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timing_summary(durations: list, per_pass: int, workload: Workload) -> dict:
    """Median pass time, median and tail operation latency of one run's durations."""
    pass_times = [sum(durations[k : k + per_pass]) for k in range(0, len(durations), per_pass)]
    ordered = sorted(durations)
    return {
        "run_s": statistics.median(pass_times),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": percentile(ordered, workload.tail_pct)[0] * 1e3,
    }


def execute(
    workload: Workload,
    seconds: float,
    tracer: tracing.Tracer | None = None,
    sampler: reference.SpeedSampler | None = None,
) -> dict:
    """Run timed passes for ``seconds`` (untraced: also until ``min_ops``), then check.

    ``sampler`` (started here if not given) is stopped when the passes end.
    """
    ops = workload.ops
    first = [None] * len(ops)
    failed = [0] * len(ops)
    problems: list = []
    spans: list = []  # (start, end) of every operation of every pass, in order
    passes = 0
    layer_passes: list = []
    min_ops = 0 if tracer else workload.min_ops
    sampler = sampler or reference.SpeedSampler().start()
    clock = sampler.clock
    deadline = clock() + seconds
    patched = []
    if tracer:
        tracer.install()
    try:
        while True:
            # untimed: every pass meets the collector in the same state, so a
            # full collection does not land in one operation now, another next pass
            gc.collect()
            for i, (label, op) in enumerate(ops):
                start = clock()
                try:
                    result = tracer.root(op) if tracer else op()
                except Exception as exc:  # a failed operation is counted; the run goes on
                    result = exc
                spans.append((start, clock()))
                if isinstance(result, Exception):
                    failed[i] += 1
                    problems.append(f"{label}: {result!r}")
                elif first[i] is None:
                    first[i] = result
                elif result != first[i]:
                    failed[i] += 1
                    problems.append(f"{label}: result differs from the first pass")
                if tracer and isinstance(result, CliResult):
                    tracer.count("cli.stdout_bytes", len(result.stdout.encode()))
            passes += 1
            if tracer:
                layer_passes.append(tracer.end_pass())
            if clock() >= deadline and len(spans) >= min_ops:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        sampler.stop()
        if tracer:
            patched = tracer.remove()
    for i, (label, _) in enumerate(ops):
        if first[i] is None:
            continue
        try:
            problem = workload.check(i, first[i])
        except Exception as exc:  # a check that raises is a failed check
            problem = repr(exc)
        if problem:
            failed[i] = passes
            problems.append(f"{label}: {problem}")
    attempted, n_failed = len(spans), sum(failed)
    scaled = timing_summary([sampler.scale(start, end) for start, end in spans], len(ops), workload)
    wall = timing_summary([end - start for start, end in spans], len(ops), workload)
    beyond = percentile(range(attempted), workload.tail_pct)[1]
    first_op = spans[0][0]
    during = [b for t, b in zip(sampler.times, sampler.samples) if t >= first_op]
    result = {
        "workload": workload.name,
        "passes": passes,
        "attempted": attempted,
        "failed": n_failed,
        "problems": problems[:20],
        "e2e": dict(scaled, peak_rss_mib=peak_rss_mib, fail_ratio=n_failed / attempted),
        "wall": wall,
        "burst_ms": statistics.median(during or sampler.samples) * 1e3,
        "bursts": len(during),
        "tail": {"pct": workload.tail_pct, "beyond": beyond, "samples": attempted},
    }
    if tracer:
        result["restored"] = tracing.all_restored(patched)
        result["layers"] = {
            name: statistics.median_low(p[name] for p in layer_passes) for name in layer_passes[0]
        }
    return result


def main(setup_sampler: reference.SpeedSampler, argv=None) -> int:
    """Set up and run one workload; ``setup_sampler`` has run since start-up."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True, help="directory for generated inputs")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.realpath(hecketree.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: hecketree imported from {hecketree.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    setup = {
        "stolen_s": setup_sampler.stolen,
        "burst_s": statistics.fmean(setup_sampler.samples or [reference.burst()]),
    }
    print("ready", json.dumps(setup), flush=True)
    if args.setup_only:
        setup_sampler.stop()
        return 0
    tracer = tracing.Tracer() if args.trace else None
    result = execute(workload, args.seconds, tracer, setup_sampler)
    result["seed"] = args.seed
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(SETUP_SAMPLER))
