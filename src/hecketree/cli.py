"""Command-line front end: multiplication tables, products, verification, K-theory, nu.

Output is byte-deterministic for fixed flags: records are emitted in the
canonical basis order with rationals rendered as ``num/den`` in lowest
terms.  Tables and single products stream one JSON object per line (or CSV
rows with ``label:num/den`` value lists); ``verify``, ``ktheory`` and ``nu``
print a single JSON document.

``table``, ``mul`` and ``nu`` key, label and JSON-encode each basis index
once per command (:class:`BasisMemo`) and join their records from those
fragments, byte for byte as ``json.dumps`` lays them out: with its default
separators one record a line, with ``indent=2`` in ``nu``'s document.
``table`` and ``mul`` share one cell loop (:func:`emit_records`), which
multiplies, checks and writes each cell in one pass, JSON and CSV alike.

``table``, ``mul`` and ``verify`` are generic over the families: one line
of :data:`FAMILIES` (its options, algebra, extent option and sweep), its
entry of :data:`hecketree.verify.CELLS` and, for ``verify``, its routes
declaration in :mod:`hecketree.verify` define a family for all three.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import verify as verify_mod
from .core import int_str_limit, unprintable_int
from .endstab import HorocycleAlgebra, ToeplitzAlgebra, toeplitz_bratteli, toeplitz_shift_alpha
from .iwahori import IwahoriAlgebra
from .ktheory import load_bratteli, pv_k_groups, truncated_limit
from .sl2 import SL2EndAlgebra
from .spherical import SphericalAlgebra, SphericalParams
from .tree import DEFAULT_MAX_VERTICES

#: The most integers a ``ktheory --example toeplitz`` report may hold (size 89
#: holds about 247,000 and prints 3.3 MB; the count grows as size^3 / 3).
MAX_TOEPLITZ_INTEGERS = 250_000


class BasisMemo(dict):
    """Basis index -> (sort key, label, JSON-encoded label, term fragment), filled on first use.

    One per command, so each index is keyed, labelled and encoded once
    however many records it appears in.  The term fragment opens the index's
    terms in ``fmt``: ``[<encoded label>, "`` for JSON, ``label:`` for CSV.
    """

    def __init__(self, algebra, fmt: str = "json"):
        super().__init__()
        self.algebra = algebra
        self.fmt = fmt

    def __missing__(self, idx):
        label = self.algebra.basis_label(idx)
        encoded = encode_basestring_ascii(label)
        fragment = f'[{encoded}, "' if self.fmt == "json" else label + ":"
        entry = self[idx] = (self.algebra.basis_key(idx), label, encoded, fragment)
        return entry


_ENTRY = operator.itemgetter(0)


def product_record(memo: BasisMemo, a, b) -> tuple:
    """One cell of ``mul`` or ``nu``: ``(left, right, value)``.

    ``left`` and ``right`` are the memo entries of ``a`` and ``b``; ``value``
    lists the product's terms as ``(entry, coefficient)`` pairs in the
    canonical basis order.  A coefficient is a structure constant, an ``int``
    (``multiply_basis`` checks), so the writers print it as ``n/1``.
    """
    terms = memo.algebra.multiply_basis(a, b).items()
    # memo entries sort by their first field, the basis key
    return memo[a], memo[b], sorted([(memo[idx], c) for idx, c in terms], key=_ENTRY)


def emit_records(family: str, memo: BasisMemo, cells, out) -> None:
    """Multiply each cell ``(a, b)`` and write its record where it is made.

    The one writer of ``table`` and ``mul``, in the format of ``memo``.  A
    JSON line is ``{"family": ..., "key": [a, b], "value": [[label, "n/d"],
    ...]}``, joined from the memo's fragments in the layout of ``json.dumps``
    with its default separators; a CSV row is ``family,left,right,value``
    with ``label:n/d`` terms joined by ``;``.  Each product is read from
    ``multiply_basis``, which checks its structure constants, and its terms
    are sorted only when there are several.  A coefficient too long to print
    is a ValueError naming ``PYTHONINTMAXSTRDIGITS``, raised after the
    records before it are written.
    """
    multiply = memo.algebra.multiply_basis
    if memo.fmt == "json":
        head = '{"family": ' + encode_basestring_ascii(family) + ', "key": ['
        sep, close = ", ", '/1"]'

        def write(left, right, value):
            out.write(f'{head}{left[2]}, {right[2]}], "value": [{value}]}}\n')

    else:
        import csv  # only --format csv needs it; every other command's process skips the import

        writerow = csv.writer(out, lineterminator="\n").writerow
        writerow(["family", "left", "right", "value"])
        sep, close = ";", "/1"

        def write(left, right, value):
            writerow([family, left[1], right[1], value])

    for a, b in cells:
        terms = multiply(a, b)._terms
        left, right = memo[a], memo[b]
        try:
            if len(terms) == 1:
                [(idx, c)] = terms.items()
                value = f"{memo[idx][3]}{c}{close}"
            else:
                # memo entries sort by their first field, the basis key
                entries = sorted([(memo[idx], c) for idx, c in terms.items()], key=_ENTRY)
                value = sep.join([f"{e[3]}{c}{close}" for e, c in entries])
        except ValueError:
            raise unprintable_int(f"a coefficient of {left[1]} * {right[1]}") from None
        write(left, right, value)


def _indented(open_: str, items: list, close: str, depth: int) -> str:
    """A JSON array or object laid out as ``json.dumps(indent=2)`` does.

    ``items`` are its rendered members and ``depth`` its nesting depth, 0 for
    the whole document.
    """
    if not items:
        return open_ + close
    inner = "\n" + "  " * (depth + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * depth + close


def _indented_term(encoded_label: str, coeff: str) -> str:
    """A ``[label, "n/d"]`` pair of ``nu``'s document."""
    return _indented("[", [encoded_label, f'"{coeff}"'], "]", 4)


def _indented_record(record) -> str:
    """A product record without its family, as an entry of ``nu``'s table."""
    left, right, value = record
    fields = [
        '"key": ' + _indented("[", [left[2], right[2]], "]", 3),
        '"value": ' + _indented("[", [_indented_term(e[2], f"{c}/1") for e, c in value], "]", 3),
    ]
    return _indented("{", fields, "}", 2)


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _required(*names: str) -> Callable:
    """An options reader: the values of the named flags, in order, each required."""
    return lambda args: tuple(_require(getattr(args, name), "--" + name) for name in names)


def _spherical(args) -> tuple:
    """The spherical options reader: ``(SphericalParams,)`` from ``--q`` or ``--q0/--q1``."""
    if args.q is not None:
        if args.q0 is not None or args.q1 is not None:
            raise ValueError("pass either --q or --q0/--q1, not both")
        return (SphericalParams.homogeneous(args.q),)
    if args.q0 is None or args.q1 is None:
        raise ValueError("spherical needs --q (homogeneous) or --q0 and --q1 (two-orbit)")
    return (SphericalParams.two_orbit(args.q0, args.q1),)


class Family(NamedTuple):
    """One family of ``table``, ``mul`` and ``verify``, declared as data.

    ``flags`` are the family options it reads, as attributes of the args
    (:func:`_family` rejects any other).  ``options(args)`` reads its
    parameters as a tuple and ``algebra(*options)`` builds its algebra.
    ``extent`` names the option bounding its cells, ``verify.CELLS[name]``,
    and ``verify`` the sweep in :mod:`hecketree.verify`, called as
    ``sweep(*options, extent)``; either is None when ``table`` or ``verify``
    does not take the family.
    """

    flags: tuple
    options: Callable
    algebra: Callable
    extent: str | None = None
    verify: str | None = None


FAMILIES = {
    "spherical": Family(
        ("q", "q0", "q1", "max", "max_ball_vertices"), _spherical, SphericalAlgebra, "max",
        "verify_spherical",
    ),
    "iwahori": Family(
        ("qs", "qt", "len", "max_ball_vertices"), _required("qs", "qt"), IwahoriAlgebra, "len",
        "verify_iwahori",
    ),
    "affine": Family(
        ("q", "max", "max_ball_vertices"), _required("q"), HorocycleAlgebra, "max",
        "verify_affine",
    ),
    "affine-nf": Family(("q",), _required("q"), ToeplitzAlgebra),
    "sl2": Family(("p", "max"), _required("p"), SL2EndAlgebra, "max", "verify_sl2"),
}

#: Every family option, in the order of first declaration.
_FAMILY_FLAGS = tuple(dict.fromkeys(name for f in FAMILIES.values() for name in f.flags))


def _family(args) -> Family:
    """The family the args name, after checking that it reads every family option given."""
    family = FAMILIES[args.family]
    for name in _FAMILY_FLAGS:
        if getattr(args, name, None) is not None and name not in family.flags:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to the {args.family} family")
    return family


def _extent(args, family: Family) -> int:
    """The value of the family's extent option, which ``table`` and ``verify`` require."""
    return _require(getattr(args, family.extent), "--" + family.extent)


def cmd_table(args) -> int:
    family = _family(args)
    algebra = family.algebra(*family.options(args))
    # CELLS lists a family's indices when called, so a bad extent fails before
    # the CSV header is written
    cells = verify_mod.CELLS[args.family](algebra, _extent(args, family))
    emit_records(args.family, BasisMemo(algebra, args.format), cells, sys.stdout)
    return 0


def cmd_mul(args) -> int:
    family = _family(args)
    if family.extent and getattr(args, family.extent) is not None:
        raise ValueError(f"--{family.extent} does not apply to mul")
    algebra = family.algebra(*family.options(args))
    a = algebra.parse_label(args.left)
    b = algebra.parse_label(args.right)
    memo = BasisMemo(algebra, args.format)
    _check_printable(product_record(memo, a, b))
    emit_records(args.family, memo, [(a, b)], sys.stdout)
    return 0


def _check_printable(record) -> None:
    """Refuse, before anything is written, a product with a constant too long to print."""
    limit = int_str_limit()
    if not limit:
        return
    left, right, value = record
    bound = 10**limit
    for entry, c in value:
        if abs(c) >= bound:
            raise unprintable_int(f"the coefficient of {entry[1]} in {left[1]} * {right[1]}")


def cmd_verify(args) -> int:
    family = _family(args)
    budget = {} if args.max_ball_vertices is None else {"max_vertices": args.max_ball_vertices}
    sweep = getattr(verify_mod, family.verify)  # looked up now, so a rebound sweep is called
    report = sweep(*family.options(args), _extent(args, family), **budget)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.ok else 1


def cmd_ktheory(args) -> int:
    if args.example is not None:
        if args.path is not None:
            raise ValueError("pass a Bratteli diagram path or --example, not both")
        if args.depth is not None:
            raise ValueError("--depth applies to a Bratteli diagram path, not to --example")
        size = 6 if args.size is None else args.size
        if size < 1:
            raise ValueError(f"--size must be >= 1, got {size}")
        # entries of the diagram's levels, of its maps (level k to k + 1 has
        # (k + 2)(k + 1)) and of alpha: all but O(size) of the report's integers
        count = size * (size + 1) // 2 + (size - 1) * size * (size + 1) // 3 + (size + 1) * size
        if count > MAX_TOEPLITZ_INTEGERS:
            raise ValueError(
                f"--size {size} would report {count:,} integers,"
                f" over the limit of {MAX_TOEPLITZ_INTEGERS:,}"
            )
        diagram = toeplitz_bratteli(size)
        alpha = toeplitz_shift_alpha(size)
        k0, k1_rank = pv_k_groups(alpha)
        doc = {
            "example": "toeplitz",
            "size": size,
            "diagram": diagram.to_json(),
            "limit": truncated_limit(diagram),
            "alpha": alpha.to_lists(),
            "K0": k0.to_json(),
            "K1_rank": k1_rank,
        }
    else:
        if args.size is not None:
            raise ValueError("--size applies to --example only")
        if args.path is None:
            raise ValueError("pass a Bratteli diagram path or --example toeplitz")
        diagram = load_bratteli(args.path)
        depth = args.depth if args.depth is not None else diagram.num_levels - 1
        doc = {"path": args.path, "limit": truncated_limit(diagram, depth)}
    try:
        text = json.dumps(doc, indent=2)
    except ValueError:
        raise unprintable_int("the report holds an integer that") from None
    print(text)
    return 0


def cmd_nu(args) -> int:
    algebra = SL2EndAlgebra(args.p)
    cosets = algebra.cosets_up_to_depth(args.depth)
    coset_docs = []
    for c in cosets:
        # each point lies in one orbit, so each is encoded once; the first
        # member is the representative, and nu(c) is the orbit sum, each
        # member with coefficient 1, in the same order as the orbit
        points = [encode_basestring_ascii(g.label()) for g in c.members]
        fields = [
            '"representative": ' + points[0],
            '"orbit": ' + _indented("[", points, "]", 3),
            f'"size": {len(points)}',
            '"nu": ' + _indented("[", [_indented_term(e, "1/1") for e in points], "]", 3),
        ]
        coset_docs.append(_indented("{", fields, "}", 2))
    memo = BasisMemo(algebra)
    table = [
        _indented_record(product_record(memo, a, b))
        for a, b in itertools.product(cosets, repeat=2)
    ]
    fields = [
        f'"p": {args.p}',
        f'"depth": {args.depth}',
        '"cosets": ' + _indented("[", coset_docs, "]", 1),
        '"table": ' + _indented("[", table, "]", 1),
    ]
    print(_indented("{", fields, "}", 0))
    return 0


def nonnegative_int(text: str) -> int:
    """argparse type for counts: an int >= 0, else an error naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # reported the same way as a negative count
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, help="homogeneous branching number")
    parser.add_argument("--q0", type=int, help="even-type branching number (two-orbit)")
    parser.add_argument("--q1", type=int, help="odd-type branching number (two-orbit)")
    parser.add_argument("--qs", type=int, help="weight of the letter s")
    parser.add_argument("--qt", type=int, help="weight of the letter t")
    parser.add_argument("--max", type=nonnegative_int, help="largest basis index")
    parser.add_argument("--len", type=nonnegative_int, help="largest word length")
    parser.add_argument("--p", type=int, help="prime for the sl2 family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecketree",
        description="exact Hecke-algebra tables for groups acting on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a multiplication table")
    p_table.add_argument("family", choices=[n for n, f in FAMILIES.items() if f.extent])
    _add_family_options(p_table)
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.set_defaults(func=cmd_table)

    p_mul = sub.add_parser("mul", help="multiply two basis elements")
    p_mul.add_argument("family", choices=list(FAMILIES))
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    _add_family_options(p_mul)
    p_mul.add_argument("--format", choices=["json", "csv"], default="json")
    p_mul.set_defaults(func=cmd_mul)

    p_verify = sub.add_parser("verify", help="run an oracle-vs-table sweep")
    p_verify.add_argument("family", choices=[n for n, f in FAMILIES.items() if f.verify])
    _add_family_options(p_verify)
    p_verify.add_argument(
        "--max-ball-vertices",
        type=nonnegative_int,
        help="largest vertex range (sphere or edge block) an oracle count may visit"
        f" (default {DEFAULT_MAX_VERTICES:,})",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_k = sub.add_parser("ktheory", help="Bratteli limit / crossed-product K-groups")
    p_k.add_argument("path", nargs="?", help="Bratteli diagram JSON file")
    p_k.add_argument("--depth", type=int, help="truncation level (default: all provided)")
    p_k.add_argument("--example", choices=["toeplitz"], help="run a built-in example")
    p_k.add_argument("--size", type=int, help="stage size for --example (default: 6)")
    p_k.set_defaults(func=cmd_ktheory)

    p_nu = sub.add_parser("nu", help="unit-square orbit map and sl2 table")
    p_nu.add_argument("--p", type=int, required=True)
    p_nu.add_argument("--depth", type=nonnegative_int, required=True)
    p_nu.set_defaults(func=cmd_nu)

    return parser


#: The parser :func:`main` builds on its first call and reuses for the rest
#: of the process; building one costs about a millisecond.
_PARSER: list = []


def main(argv=None) -> int:
    if not _PARSER:
        _PARSER.append(build_parser())
    args = _PARSER[0].parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
