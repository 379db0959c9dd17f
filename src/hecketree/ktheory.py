"""Integer linear algebra for AF direct limits and crossed-product K-groups.

Provides Smith normal form with unimodular transform witnesses, cokernel and
kernel-rank extraction, truncated Bratteli direct limits with a stabilization
flag, and the kernel/cokernel computation that the six-term sequence reduces
to for an AF algebra crossed by a single endomorphism (both odd K-groups of
the coefficient algebra vanish, so the K-groups of the crossed product are
the cokernel and kernel of the induced map minus the identity).

The module has two eliminations.  The Smith elimination serves
``smith_normal_form``, ``cokernel`` and ``pv_k_groups``.  Only
``smith_normal_form`` returns the witnesses U and V, which ride along in the
elimination as identities appended to M's rows and stacked below them;
``cokernel`` and ``pv_k_groups`` read the diagonal alone, so they run the
same elimination on M's bare rows.  The elimination clears each pivot's
column by a Euclid loop of row operations before it touches the pivot's
row, which keeps V's entries to a few hundred digits and U's to a few dozen
on a 32 x 32 matrix of one-digit entries.  The tests check that diagonal
against ``smith_normal_form`` and, independently, against the determinantal
divisors (gcds of k x k minors); they pin the bytes of D, which the Smith
form fixes, apart from those of U and V, which the pivot rule fixes.

The fraction-free (Bareiss) elimination serves ``IntMatrix.det`` and
``kernel_rank``: rank over Z is rank over Q, so a kernel rank needs no
invariant factors.  Its entries are minors of M, so they stay exact
integers without a Euclid loop.  Rank thus has two independent routes, the
Smith diagonal (``SNFResult.rank``) and the fraction-free loop, which
``test_transform_free_routes_match_smith_normal_form`` compares.

Truncated limits, not symbolic ones: the machinery reports finite stages and
flags when consecutive stages agree, which is what desk-scale verification
needs.
"""

from __future__ import annotations

import json
import operator
from typing import NamedTuple

from .core import Frozen, _rebuild, int_limit_error, int_str_limit, unprintable_int


def _index(x) -> int:
    """``operator.index(x)``, except that a bool is a TypeError, never read as 0 or 1."""
    if x.__class__ is bool:
        raise TypeError(f"expected an integer, got the bool {x!r}")
    return operator.index(x)


class IntMatrix(Frozen):
    """Immutable rectangular matrix with exact integer entries.

    The column count is a field, so a matrix with no rows keeps it:
    ``IntMatrix.zeros(0, 3)`` maps Z^3 to 0.  The constructor reads it off
    the first row (0 when there is none).
    """

    __slots__ = ("entries", "cols")

    def __init__(self, entries: tuple):
        rows = tuple(tuple(map(_index, row)) for row in entries)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows have unequal lengths")
        self._set(rows, len(rows[0]) if rows else 0)

    @classmethod
    def _of(cls, rows: tuple, cols: int) -> "IntMatrix":
        """Wrap a tuple of tuples of ``cols`` ints each without checking or copying it."""
        return _rebuild(cls, (rows, cols))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def to_lists(self) -> list:
        return [list(row) for row in self.entries]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = list(zip(*other.entries)) or [()] * other.cols
        mul = operator.mul
        return IntMatrix._of(
            tuple(tuple(sum(map(mul, row, col)) for col in ot) for row in self.entries),
            other.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return IntMatrix._of(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.cols,
        )

    def det(self) -> int:
        """Exact determinant: the last pivot of the fraction-free elimination, signed.

        The last pivot is the minor of every pivot row and column, so it is
        the determinant up to the row swaps' sign when the rank is full; a
        smaller rank means a zero determinant.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rank, sign, pivot = _fraction_free(self.to_lists(), n, n)
        return sign * pivot if rank == n else 0


def _fraction_free(a: list, rows: int, cols: int) -> tuple:
    """Fraction-free (Bareiss) elimination of the ``rows`` x ``cols`` list of rows ``a``, in place.

    Returns ``(rank, sign, pivot)``: the rank, the sign of the row swaps and
    the last pivot (1 for rank 0).  Columns are taken in order.  The first
    row not yet a pivot row with a nonzero entry in the column is swapped up
    to be the next pivot row; a column with none is skipped.  After a pivot
    p, with ``prev`` the one before it, each entry z right of the pivot
    column in a row below becomes ``(z * p - x * y) // prev``, where x is
    the row's pivot-column entry and y the pivot row's entry above z.  Every
    entry is then a minor of the matrix ``a`` held (Sylvester's identity),
    so each quotient is exact and the last pivot is the minor of all pivot
    rows and columns.  What would change nothing is skipped: a row with
    x = 0 while p = prev, and a pair with z = y = 0.
    """
    rank, sign, prev = 0, 1, 1
    for k in range(cols):
        if rank == rows:
            break
        for i in range(rank, rows):
            if a[i][k]:
                break
        else:
            continue
        if i != rank:
            a[rank], a[i] = a[i], a[rank]
            sign = -sign
        pivot_row = a[rank]
        p = pivot_row[k]
        for i in range(rank + 1, rows):
            row = a[i]
            x = row[k]
            if x or p != prev:
                for j in range(k + 1, cols):
                    z, y = row[j], pivot_row[j]
                    if z or y:
                        row[j] = (z * p - x * y) // prev
        prev = p
        rank += 1
    return rank, sign, prev


class SNFResult(NamedTuple):
    """U @ M @ V == D with U, V unimodular and D diagonal with a divisor chain."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> list:
        return [self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))]

    @property
    def rank(self) -> int:
        return _rank(self.diagonal)

    @property
    def cokernel(self) -> "AbelianGroupPresentation":
        """Target space modulo the image of M."""
        return _cokernel(self.d.rows, self.diagonal)

    @property
    def kernel_rank(self) -> int:
        """Rank of the integer kernel of M (the kernel is free)."""
        return _kernel_rank(self.d.cols, self.diagonal)


def _rank(diagonal: list) -> int:
    return sum(1 for x in diagonal if x)


def _cokernel(rows: int, diagonal: list) -> "AbelianGroupPresentation":
    return AbelianGroupPresentation(rows - _rank(diagonal), tuple(x for x in diagonal if x > 1))


def _kernel_rank(cols: int, diagonal: list) -> int:
    return cols - _rank(diagonal)


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Diagonalize over the integers, tracking the row and column transforms.

    U's identity rides along appended to M's rows and V's stacked below
    them.  Pivoting is deterministic, so the returned transforms are
    reproducible.  Step t starts from the entry of smallest nonzero absolute
    value in the remaining block (the first one in row-major order on a
    tie).  It then runs Euclid down column t with row operations: the pivot
    is made positive, quotients round to the nearest integer, and the
    smallest remainder left in the column (the first row on a tie) becomes
    the next pivot.  Once the column is clear, row t is reduced with column
    operations; the smallest remainder left there is swapped in as the pivot
    and the column is cleared again.  Each swap at least halves the pivot, so
    the step ends, and a pivot that does not divide the rest of the block
    has the first offending row added to its row.
    """
    rows, cols = m.rows, m.cols
    a = [[*row, *(1 if i == j else 0 for j in range(rows))] for i, row in enumerate(m.entries)]
    a += ([1 if i == j else 0 for j in range(cols)] for i in range(cols))
    _smith_eliminate(a, rows, cols)
    return SNFResult(
        IntMatrix._of(tuple(tuple(row[cols:]) for row in a[:rows]), rows),
        IntMatrix._of(tuple(tuple(row[:cols]) for row in a[:rows]), cols),
        IntMatrix._of(tuple(map(tuple, a[rows:])), cols),
    )


def _smith_diagonal(a: list, rows: int, cols: int) -> list:
    """The Smith diagonal of the ``rows`` x ``cols`` list of rows ``a``, eliminated in place."""
    _smith_eliminate(a, rows, cols)
    return [a[i][i] for i in range(min(rows, cols))]


def _smith_eliminate(a: list, rows: int, cols: int) -> None:
    """Smith elimination of the leading ``rows`` x ``cols`` block of ``a``, in place.

    A row operation acts on the whole row and a column operation on every row
    from the pivot down, so what ``a`` holds right of column ``cols`` and
    below row ``rows`` rides along: U and V when ``smith_normal_form``
    appends their identities, nothing for ``_smith_diagonal``.  Pivots and
    quotients read the block alone, so the block ends the same either way.
    The Euclid loops skip what would add zero: a row operation visits the
    source row's nonzero entries, a column operation the rows whose entry
    in the pivot column is nonzero.  Every sum that changes an entry is the
    same, in the same order, so U, D and V are too.
    """
    # row operations stay inside the block, so these rows are never moved
    below = a[rows:]

    # Rows and columns of the block before the current pivot t are zero
    # outside the diagonal, so the operations at step t touch ``a`` from t on.
    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i != j:
            for k in range(t, len(a)):
                row = a[k]
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row dst += factor * row src
        arow, asrc = a[dst], a[src]
        for j in range(t, len(arow)):
            arow[j] += factor * asrc[j]

    def find_pivot(t):
        # no entry is smaller than a unit, so the first unit is the pivot
        best, smallest = None, 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    x = abs(x)
                    if best is None or x < smallest:
                        best, smallest = (i, j), x
                        if x == 1:
                            return best
        return best

    # The pivot rule is the one ``smith_normal_form`` describes.  Quotients
    # round to the nearest integer, a tie leaving the positive remainder, so
    # every remainder is at most half the pivot.  Each step ends with its
    # pivot positive and later steps touch only rows below it, so the
    # diagonal needs no closing sign pass.
    t = 0
    while t < min(rows, cols):
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            while True:
                row = a[t]
                if row[t] < 0:
                    row = a[t] = [-x for x in row]
                pivot = row[t]
                half = (pivot - 1) // 2
                # the round's row operations leave the pivot row as it is,
                # so its nonzero entries are listed once and the zeros,
                # which would add nothing, are skipped
                nonzero = [(j, x) for j, x in enumerate(row) if x]
                low, smallest = None, 0
                for i in range(t + 1, rows):
                    dst = a[i]
                    x = dst[t]
                    if x:
                        q = (x + half) // pivot
                        if q:
                            for j, y in nonzero:
                                dst[j] -= q * y
                            x -= q * pivot
                        if x and (low is None or abs(x) < smallest):
                            low, smallest = i, abs(x)
                if low is None:
                    break
                swap_rows(t, low)
            # column t is clear below the pivot in the block, so a column
            # operation changes row t and the rows below the block alone;
            # column operations leave column t as it is, so the rows below
            # with a nonzero entry there are listed once
            pivot_column = [(r, r[t]) for r in below if r[t]]
            low, smallest = None, 0
            for j in range(t + 1, cols):
                x = row[j]
                if x:
                    q = (x + half) // pivot
                    if q:
                        x -= q * pivot
                        row[j] = x
                        for r, y in pivot_column:
                            r[j] -= q * y
                    if x and (low is None or abs(x) < smallest):
                        low, smallest = j, abs(x)
            if low is not None:
                swap_cols(t, low)
                continue
            # cross is clear; enforce divisibility of the remaining block
            offender = None
            if pivot != 1:
                for i in range(t + 1, rows):
                    row = a[i]
                    for j in range(t + 1, cols):
                        if row[j] % pivot:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1


class AbelianGroupPresentation(Frozen):
    """Finitely generated abelian group: free rank plus invariant factors."""

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple = ()):
        free_rank = _index(free_rank)
        factors = tuple(map(_index, invariant_factors))
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for i, x in enumerate(factors):
            if x < 2:
                raise ValueError(f"invariant factor {x} < 2")
            if i and factors[i] % factors[i - 1]:
                raise ValueError(f"invariant factors {factors} violate divisibility")
        self._set(free_rank, factors)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        try:
            parts.extend(f"Z/{d}" for d in self.invariant_factors)
        except ValueError:
            raise unprintable_int("an invariant factor") from None
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
            "description": self.describe(),
        }


def cokernel(m: IntMatrix) -> AbelianGroupPresentation:
    """Target space modulo the image, read off the Smith diagonal."""
    return _cokernel(m.rows, _smith_diagonal(m.to_lists(), m.rows, m.cols))


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the integer kernel (the kernel is free): the columns less the rank over Q.

    The rank comes from the fraction-free elimination, not the Smith
    diagonal, which would find the invariant factors too.
    """
    return m.cols - _fraction_free(m.to_lists(), m.rows, m.cols)[0]


class BratteliDiagram(Frozen):
    """Leveled multiplicity vectors with nonnegative integer connecting maps."""

    __slots__ = ("levels", "maps")

    def __init__(self, levels: tuple, maps: tuple = ()):
        levels = tuple(tuple(map(_index, level)) for level in levels)
        maps = tuple(m if isinstance(m, IntMatrix) else IntMatrix.from_rows(m) for m in maps)
        if not levels:
            raise ValueError("diagram needs at least one level")
        for level in levels:
            if not level or any(x < 1 for x in level):
                raise ValueError(f"multiplicities must be positive, got {level}")
        if len(maps) != len(levels) - 1:
            raise ValueError(
                f"{len(levels)} levels require {len(levels) - 1} maps, got {len(maps)}"
            )
        for k, m in enumerate(maps):
            if (m.rows, m.cols) != (len(levels[k + 1]), len(levels[k])):
                raise ValueError(
                    f"map {k} has shape {m.rows}x{m.cols}, "
                    f"expected {len(levels[k + 1])}x{len(levels[k])}"
                )
            if any(x < 0 for row in m.entries for x in row):
                raise ValueError(f"map {k} has a negative entry")
        self._set(levels, maps)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def to_json(self) -> dict:
        return {
            "levels": [list(level) for level in self.levels],
            "maps": [m.to_lists() for m in self.maps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BratteliDiagram":
        """Diagram from decoded JSON; any other shape or a non-integer entry is a ValueError."""
        if not isinstance(data, dict) or not {"levels", "maps"} <= data.keys():
            raise ValueError('a Bratteli diagram is a JSON object with "levels" and "maps"')
        for key, depth, shape in (
            ("levels", 2, "a list of lists of integers"),
            ("maps", 3, "a list of matrices, each a list of lists of integers"),
        ):
            if not _nested_integers(data[key], depth):
                raise ValueError(f'"{key}" must be {shape}')
        return cls(tuple(data["levels"]), tuple(data["maps"]))


def _nested_integers(value, depth: int) -> bool:
    """Whether ``value`` is ``depth`` nested JSON lists of integers (booleans excluded)."""
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_nested_integers(x, depth - 1) for x in value)


def load_bratteli(path) -> BratteliDiagram:
    """The diagram in a JSON file; an integer too long for the interpreter to read is a ValueError.

    ``json.load`` reads such an integer with ``int()``, whose error advises a
    call a command line cannot make, so it is replaced by one naming
    ``PYTHONINTMAXSTRDIGITS``; decoding errors keep their own messages.
    Nesting deeper than the decoder's recursion limit is a ValueError too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to decode as JSON") from None
        except ValueError:
            raise int_limit_error(
                f"{path} holds an integer of more than {int_str_limit()} digits", "reading"
            ) from None
    return BratteliDiagram.from_json(data)


def truncated_limit(diagram: BratteliDiagram, depth: int | None = None) -> dict:
    """Finite-stage report on the direct limit of free groups along the diagram.

    Lists each level's free group, composes the connecting maps from level 0,
    and flags stabilization when the last two composed cokernels agree.
    """
    if depth is None:
        depth = diagram.num_levels - 1
    if depth < 0 or depth >= diagram.num_levels:
        raise ValueError(f"depth {depth} outside the {diagram.num_levels} provided levels")
    levels_report = [
        {"level": k, "summands": list(diagram.levels[k]), "k0_rank": len(diagram.levels[k])}
        for k in range(depth + 1)
    ]
    composed = IntMatrix.identity(len(diagram.levels[0]))
    stage_cokernels = []
    map_kernel_ranks = []
    for k in range(depth):
        composed = diagram.maps[k] @ composed
        map_kernel_ranks.append(kernel_rank(diagram.maps[k]))
        stage_cokernels.append(cokernel(composed))
    stabilized = len(stage_cokernels) >= 2 and stage_cokernels[-1] == stage_cokernels[-2]
    return {
        "levels": levels_report,
        "map_kernel_ranks": map_kernel_ranks,
        "composed_map": composed.to_lists(),
        "composed_cokernel": stage_cokernels[-1].to_json() if stage_cokernels else None,
        "stage_cokernels": [c.to_json() for c in stage_cokernels],
        "stabilized": stabilized,
    }


def pv_k_groups(alpha: IntMatrix) -> tuple:
    """K-groups of an AF algebra crossed by one endomorphism, via (id - alpha).

    ``alpha`` maps a rank-``cols`` truncation stage into a stage of rank
    ``rows >= cols``; the identity is the canonical coordinate inclusion, so
    a square ``alpha`` gives the plain I - alpha.  Returns the even K-group
    presentation (cokernel) and the odd K-group rank (kernel rank).
    """
    if alpha.rows < alpha.cols:
        raise ValueError(
            f"alpha maps into a smaller stage ({alpha.rows} < {alpha.cols}); "
            "the truncation must not shrink"
        )
    difference = [[-x for x in row] for row in alpha.entries]
    for i in range(alpha.cols):
        difference[i][i] += 1
    diagonal = _smith_diagonal(difference, alpha.rows, alpha.cols)
    return _cokernel(alpha.rows, diagonal), _kernel_rank(alpha.cols, diagonal)
