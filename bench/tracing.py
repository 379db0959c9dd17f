"""Per-layer tracing of hecketree from outside the program.

A :class:`Tracer` replaces public functions of each hecketree module, and the
``_basis_product`` plug-in hook of each algebra class, with wrappers that
record spans.  A span is ``(name, start, end, parent, trace_id)``: ``parent``
is the index of the enclosing span in the same pass (-1 for none) and every
span of one benchmark operation shares its ``trace_id``.  Spans are kept in
memory for one pass and reduced to per-layer metrics when the pass ends, so
that a pass of ~300k spans never accumulates.  Self time is a span's duration
minus the time its child spans cover.  A layer's self share is its spans'
self time over the operations' time; its total share also counts what its
spans call in other layers.

Three hot leaf functions (``tree.distance``, ``tree.weyl_distance`` and
``sl2.prufer_add``, each called up to millions of times a pass) are counted
but not spanned; their time is part of the enclosing span's self time.

Only the traced run installs wrappers.  :meth:`Tracer.remove` puts back the
identical original objects, and :func:`all_restored` checks that with ``is``.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict

from hecketree import cli, core, endstab, iwahori, ktheory, sl2, spherical, tree, verify

#: The repository's modules, one layer each.
LAYERS = ("cli", "verify", "tree", "core", "spherical", "iwahori", "endstab", "sl2", "ktheory")

#: Root span the benchmark opens around each operation.
ROOT_SPAN = "bench.op"

#: (span name, owner, attribute); several attributes may share a span name.
SPANNED = (
    ("cli.main", cli, "main"),
    ("cli.render", cli, "product_record"),
    ("cli.render", cli, "emit_records"),
    ("tree.spherical_product", tree, "spherical_product"),
    ("tree.edges_by_weyl_word", tree, "edges_by_weyl_word"),
    ("tree.iwahori_constant", tree, "iwahori_constant"),
    ("tree.horocycle_members", tree, "horocycle_members"),
    ("tree.horocycle_class", tree, "horocycle_class"),
    ("core.mul", core.HeckeElement, "__mul__"),
    ("spherical.basis_product", spherical.SphericalAlgebra, "_basis_product"),
    ("spherical.multiply_recursive", spherical.SphericalAlgebra, "multiply_recursive"),
    ("iwahori.basis_product", iwahori.IwahoriAlgebra, "_basis_product"),
    ("iwahori.multiply_closed", iwahori.IwahoriAlgebra, "multiply_closed"),
    ("endstab.basis_product", endstab.HorocycleAlgebra, "_basis_product"),
    ("endstab.basis_product", endstab.ToeplitzAlgebra, "_basis_product"),
    ("endstab.nf_route", endstab, "m_to_nf"),
    ("endstab.nf_route", endstab, "nf_to_m"),
    ("sl2.basis_product", sl2.SL2EndAlgebra, "_basis_product"),
    ("sl2.prufer_basis_product", sl2.PruferGroupAlgebra, "_basis_product"),
    ("sl2.orbit", sl2, "orbit"),
    ("sl2.nu", sl2, "nu"),
    ("sl2.cosets_up_to_depth", sl2.SL2EndAlgebra, "cosets_up_to_depth"),
    ("ktheory.truncated_limit", ktheory, "truncated_limit"),
    ("ktheory.pv_k_groups", ktheory, "pv_k_groups"),
    ("ktheory.matmul", ktheory.IntMatrix, "__matmul__"),
)

#: Spans whose wrappers also record a count, installed by Tracer.install.
NOTED = ("cli.parse", "verify.sweep", "tree.build_ball", "core.multiply_basis", "ktheory.snf")

#: Hot leaf functions: call counts only.
COUNTED = (
    ("tree.distance", tree, "distance"),
    ("tree.weyl_distance", tree, "weyl_distance"),
    ("sl2.prufer_add", sl2, "prufer_add"),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [s[0] for s in SPANNED] + list(NOTED)))

#: Metrics that are neither a span's calls or self time nor a layer total.
DERIVED_UNITS = {
    "tree.ball_vertices": "count",
    "tree.ball_bytes": "B",
    "verify.cells": "count",
    "verify.cells_per_s": "1/s",
    "verify.mismatches": "count",
    "core.cache.hits": "count",
    "core.cache.misses": "count",
    "core.cache.hit_ratio": "1",
    "core.cache.entries": "count",
    "ktheory.snf.max_transform_digits": "count",
    "cli.stdout_bytes": "B",
}


def metric_units() -> dict:
    """Unit of every per-pass metric :meth:`Tracer.end_pass` reports."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, _, _ in COUNTED:
        units[f"{name}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "1"
        units[f"{layer}.total_share"] = "1"
    units.update(DERIVED_UNITS)
    return units


def _hecketree_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hecketree"]


class Tracer:
    """Span recorder; install() before the traced passes, remove() after."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self.algebras_seen: set = set()
        self.patched: list = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trace_id)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn):
        """Run ``fn`` as one benchmark operation: a root span with a new trace id."""
        self.trace_id += 1
        return self.wrap(ROOT_SPAN, fn)()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    # -- install and remove -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        bindings = [(owner, attr)]
        if isinstance(owner, types.ModuleType) and isinstance(original, types.FunctionType):
            # ``from .x import f [as g]`` makes bindings in other modules too
            bindings = [
                (module, name)
                for module in _hecketree_modules()
                for name, value in list(vars(module).items())
                if value is original
            ]
        for target, name in bindings:
            self.patched.append((target, name, original))
            setattr(target, name, replacement)

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr in SPANNED:
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self.counter(name, owner.__dict__[attr]))
        self._install_noted()

    def _install_noted(self) -> None:
        counts, seen = self.counts, self.algebras_seen

        parse = self.wrap("cli.parse", cli.build_parser)

        def build_parser():
            parser = parse()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", build_parser)

        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self.wrap("cli.render", json.dumps)
        self._patch(cli, "json", proxy)

        build = self.wrap("tree.build_ball", tree.build_ball)

        def build_ball(*args, **kwargs):
            ball = build(*args, **kwargs)
            counts["tree.ball_vertices"] += ball.num_vertices
            counts["tree.ball_bytes"] += sys.getsizeof(ball.parent) + sys.getsizeof(
                ball.sphere_start
            )
            return ball

        self._patch(tree, "build_ball", build_ball)

        original_multiply = core.HeckeAlgebra.__dict__["multiply_basis"]

        def probe_cache(algebra, a, b):
            # the cache is read from outside: membership before the call
            if id(algebra) not in seen:
                seen.add(id(algebra))
                counts["core.cache.entries"] += len(algebra._product_cache)
            if (a, b) in algebra._product_cache:
                counts["core.cache.hits"] += 1
            else:
                counts["core.cache.misses"] += 1
                counts["core.cache.entries"] += 1
            return original_multiply(algebra, a, b)

        self._patch(core.HeckeAlgebra, "multiply_basis", self.wrap("core.multiply_basis", probe_cache))

        snf = self.wrap("ktheory.snf", ktheory.smith_normal_form)

        def smith_normal_form(m):
            result = snf(m)
            largest = max(
                (abs(x) for t in (result.u, result.v) for row in t.entries for x in row),
                default=0,
            )
            digits = len(str(largest))
            if digits > counts["ktheory.snf.max_transform_digits"]:
                counts["ktheory.snf.max_transform_digits"] = digits
            return result

        self._patch(ktheory, "smith_normal_form", smith_normal_form)

        for name, sweep in (
            ("verify_spherical", verify.verify_spherical),
            ("verify_iwahori", verify.verify_iwahori),
            ("verify_affine", verify.verify_affine),
        ):
            self._patch(verify, name, self._noted_sweep(sweep))

    def _noted_sweep(self, original):
        counts = self.counts
        spanned = self.wrap("verify.sweep", original)

        def sweep(*args, **kwargs):
            report = spanned(*args, **kwargs)
            counts["verify.cells"] += report.cells
            counts["verify.mismatches"] += len(report.mismatches)
            return report

        return sweep

    def remove(self) -> list:
        """Put back every original object; return the ``(owner, attr, original)`` list."""
        patched, self.patched = self.patched, []
        for target, attr, original in reversed(patched):
            setattr(target, attr, original)
        return patched

    # -- reduction ----------------------------------------------------------

    def end_pass(self) -> dict:
        """Reduce this pass's spans and counts to per-layer metrics, then reset."""
        spans = self.spans
        covered = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        layer_total = defaultdict(float)
        enclosing = []  # per span: the layers of it and its ancestors
        for index, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            inclusive[name] += end - start
            self_s[name] += (end - start) - covered[index]
            layer = name.split(".")[0]
            above = enclosing[parent] if parent >= 0 else ()
            if layer not in above:  # outermost span of its layer
                layer_total[layer] += end - start
                above += (layer,)
            enclosing.append(above)
        counts = self.counts
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        for name, _, _ in COUNTED:
            metrics[f"{name}.calls"] = counts[name]
        total = sum(self_s.values())
        for layer in LAYERS:
            layer_self = sum(t for name, t in self_s.items() if name.split(".")[0] == layer)
            metrics[f"{layer}.self_s"] = layer_self
            metrics[f"{layer}.self_share"] = layer_self / total if total else 0.0
            metrics[f"{layer}.total_share"] = layer_total[layer] / total if total else 0.0
        for name in DERIVED_UNITS:
            metrics[name] = counts[name]
        sweep_s = inclusive["verify.sweep"]
        metrics["verify.cells_per_s"] = counts["verify.cells"] / sweep_s if sweep_s else 0.0
        lookups = counts["core.cache.hits"] + counts["core.cache.misses"]
        metrics["core.cache.hit_ratio"] = counts["core.cache.hits"] / lookups if lookups else 0.0
        spans.clear()
        counts.clear()
        self.algebras_seen.clear()
        return metrics


def all_restored(patched) -> bool:
    """Whether every patched attribute is bound again to its original, by identity."""
    return all(owner.__dict__[attr] is original for owner, attr, original in patched)
