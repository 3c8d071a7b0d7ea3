"""Exact linear algebra over the integers and rationals.

Everything here runs on arbitrary-precision integers and ``Fraction``s; no
floating point enters any decision.  The module provides Smith and Hermite
normal forms with unimodular witnesses, finitely generated abelian groups
presented as cokernels, saturated kernels, an exact linear solver, and the
lexicographically smallest nonnegative solution of a linear system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


class DimensionMismatch(ValueError):
    pass


def rational_vector(entries: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major.

    Attributes:
        entries: tuple of rows, each a tuple of ints.
        rows, cols: dimensions; a 0xN or Nx0 matrix is allowed.
    """

    entries: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0 if cols is None else cols
        return cls(data, len(data), width)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls.from_rows([[0] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        return IntMatrix.from_rows(
            [
                [
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector; works for int or Fraction entries of v."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.entries)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Witnessed Smith normal form: u @ a @ v == d.

    d is diagonal with nonnegative entries satisfying d[i] | d[i+1]; u and v
    are unimodular.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Compute the Smith normal form with transformation witnesses.

    Args:
        a: any integer matrix, including empty shapes.

    Returns:
        SmithDecomposition with u @ a @ v == d exactly.
    """
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = [list(row) for row in IntMatrix.identity(rows).entries]
    v = [list(row) for row in IntMatrix.identity(cols).entries]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        for j in range(cols):
            m[dst][j] += c * m[src][j]
        for j in range(rows):
            u[dst][j] += c * u[src][j]

    def add_col(src, dst, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        for j in range(cols):
            m[i][j] = -m[i][j]
        for j in range(rows):
            u[i][j] = -u[i][j]

    t = 0
    while t < min(rows, cols):
        # Pick the nonzero entry of smallest absolute value as pivot.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if m[t][t] < 0:
            negate_row(t)
        # Clear the pivot row and column; restart when a remainder survives.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        if m[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # Enforce divisibility of the remaining block by the pivot.
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    return SmithDecomposition(
        IntMatrix.from_rows(u, cols=rows),
        IntMatrix.from_rows(m, cols=cols),
        IntMatrix.from_rows(v, cols=cols),
    )


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form with positive pivots.

    Entries above each pivot are reduced into [0, pivot); zero rows are
    dropped.  The result depends only on the row lattice of ``a``.
    """
    m = [list(row) for row in a.entries]
    rows, cols = a.rows, a.cols
    pivot_row = 0
    for j in range(cols):
        if pivot_row == rows:
            break
        # gcd out column j below pivot_row
        k = None
        for i in range(pivot_row, rows):
            if m[i][j] != 0:
                k = i
                break
        if k is None:
            continue
        m[pivot_row], m[k] = m[k], m[pivot_row]
        for i in range(pivot_row + 1, rows):
            while m[i][j] != 0:
                if abs(m[i][j]) < abs(m[pivot_row][j]):
                    m[pivot_row], m[i] = m[i], m[pivot_row]
                q = m[i][j] // m[pivot_row][j]
                for c in range(cols):
                    m[i][c] -= q * m[pivot_row][c]
        if m[pivot_row][j] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
        for i in range(pivot_row):
            q = m[i][j] // m[pivot_row][j]
            if q:
                for c in range(cols):
                    m[i][c] -= q * m[pivot_row][c]
        pivot_row += 1
    result = [row for row in m[:pivot_row] if any(row)]
    return IntMatrix.from_rows(result, cols=cols)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group Z^free_rank + sum Z/d_i.

    Presented as a quotient of an ambient Z^n: ``quotient_map`` has
    free_rank + len(torsion) rows and n columns; the first free_rank rows
    map onto the free part, the remaining rows are read modulo the
    corresponding torsion order.
    """

    free_rank: int
    torsion: tuple[int, ...]
    quotient_map: IntMatrix

    @property
    def ambient_dim(self) -> int:
        return self.quotient_map.cols

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def element(self, ambient: Sequence[int]) -> "GroupElement":
        image = self.quotient_map.apply([int(x) for x in ambient])
        free = image[: self.free_rank]
        tors = tuple(x % d for x, d in zip(image[self.free_rank:], self.torsion))
        return GroupElement(self, free, tors)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.free_rank, (0,) * len(self.torsion))


@dataclass(frozen=True)
class GroupElement:
    group: FGAbelianGroup
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple((a + b) % d for a, b, d in zip(self.torsion, other.torsion, self.group.torsion)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple(-a for a in self.free),
            tuple((-a) % d for a, d in zip(self.torsion, self.group.torsion)),
        )

    def scale(self, c: int) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple(c * a for a in self.free),
            tuple((c * a) % d for a, d in zip(self.torsion, self.group.torsion)),
        )

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def _check(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise DimensionMismatch("elements of different groups")

    def __str__(self) -> str:
        return "(" + ", ".join(
            [str(x) for x in self.free] + ["%d mod %d" % (x, d) for x, d in zip(self.torsion, self.group.torsion)]
        ) + ")"


def cokernel(a: IntMatrix) -> FGAbelianGroup:
    """Present Z^rows / (column span of a) as an FGAbelianGroup.

    The free block of the quotient map is the Hermite basis of the saturated
    left kernel of ``a``, so presentations of isomorphic quotients by
    matrices with equal column spans coincide.  Torsion rows come from the
    Smith decomposition, reduced modulo their orders.
    """
    snf = smith_normal_form(a)
    diag = snf.diagonal
    torsion = tuple(d for d in diag if d >= 2)
    rank = sum(1 for d in diag if d != 0)
    free_rank = a.rows - rank

    free_block = saturated_kernel(a.transpose())
    assert free_block.rows == free_rank

    torsion_rows = []
    for i, d in enumerate(diag):
        if d >= 2:
            torsion_rows.append([x % d for x in snf.u.row(i)])

    qmap = IntMatrix.from_rows(list(free_block.entries) + torsion_rows, cols=a.rows)
    return FGAbelianGroup(free_rank, torsion, qmap)


def saturated_kernel(a: IntMatrix) -> IntMatrix:
    """Hermite basis of {x in Z^cols : a x = 0}, one basis vector per row.

    The kernel of an integer matrix is automatically saturated; Hermite
    reduction makes the basis deterministic.
    """
    snf = smith_normal_form(a)
    diag = snf.diagonal
    rank = sum(1 for d in diag if d != 0)
    basis = [snf.v.col(j) for j in range(rank, a.cols)]
    return hermite_normal_form(IntMatrix.from_rows(basis, cols=a.cols))


# ---------------------------------------------------------------------------
# Rational solving


def _row_reduce(aug: list[list[Fraction]], ncols: int) -> tuple[list[int], bool]:
    """In-place reduced row echelon form of an augmented matrix.

    Returns (pivot column per pivot row, consistent) where consistency means
    no row reduces to 0 = nonzero.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(aug)):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    consistent = all(any(row[c] != 0 for c in range(ncols)) or row[ncols] == 0 for row in aug)
    return pivots, consistent


def solve_rational(a: IntMatrix, b: Sequence):
    """Solve a x = b over the rationals.

    Args:
        a: coefficient matrix.
        b: right-hand side (ints or Fractions).

    Returns:
        None when no solution exists, else a pair (solution,
        nullspace_basis) where the particular solution sets all free
        variables to zero and the basis spans the rational kernel of ``a``.
        ``feasible_lexmin`` solves with x >= 0.
    """
    if len(b) != a.rows:
        raise DimensionMismatch("right-hand side length mismatch")
    n = a.cols
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a.entries)]
    pivots, consistent = _row_reduce(aug, n)
    if not consistent:
        return None
    x0 = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x0[c] = aug[r][n]
    return tuple(x0), _nullspace_from_rref(aug, pivots, n)


def _nullspace_from_rref(aug, pivots, n):
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][fc]
        basis.append(tuple(vec))
    return tuple(basis)


def feasible_lexmin(a: IntMatrix, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """The lexicographically smallest x >= 0 with a x = b, or None.

    Phase one minimises the sum of artificial variables with Bland's rule,
    then pivots every artificial still basic (at zero) out of the basis,
    dropping the rows that are linear combinations of the others.  Then
    x_0, x_1, ... are minimised in turn.  After each step every optimal
    point has the nonbasic columns of positive reduced cost at zero, so
    dropping them leaves exactly the optimal face for the next step.
    Bland's rule makes every phase terminate.
    """
    m, n = a.rows, a.cols
    if len(b) != m:
        raise DimensionMismatch("right-hand side length mismatch")
    tableau = []
    for i in range(m):
        row = [Fraction(x) for x in a.row(i)] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        tableau.append(row[:n] + [Fraction(int(i == k)) for k in range(m)] + row[-1:])
    basis = [n + i for i in range(m)]
    reduced = _minimise(tableau, basis, [0] * n + [1] * m, range(n + m))
    if reduced[-1] != 0:  # some artificial variable stays positive
        return None
    r = 0
    while r < len(tableau):
        if basis[r] >= n:
            enter = next((j for j in range(n) if tableau[r][j] != 0), None)
            if enter is None:
                del tableau[r], basis[r]
                continue
            _pivot(tableau, basis, r, enter)
        r += 1
    tableau = [row[:n] + row[-1:] for row in tableau]
    columns = list(range(n))
    for k in range(n):
        reduced = _minimise(tableau, basis, [int(j == k) for j in range(n)], columns)
        columns = [j for j in columns if reduced[j] == 0]
    x = [Fraction(0)] * n
    for row, j in zip(tableau, basis):
        x[j] = row[-1]
    return tuple(x)


def _pivot(tableau: list[list[Fraction]], basis: list[int], r: int, enter: int) -> None:
    pivot = tableau[r][enter]
    tableau[r] = [x / pivot for x in tableau[r]]
    for i, row in enumerate(tableau):
        f = row[enter]
        if i != r and f != 0:
            tableau[i] = [x - f * y for x, y in zip(row, tableau[r])]
    basis[r] = enter


def _minimise(tableau, basis, cost, columns) -> list[Fraction]:
    """Minimise cost . x over the tableau's feasible region, letting only
    ``columns`` (ascending) enter the basis, by Bland's rule.  Returns the
    reduced costs of the optimal basis, with minus the optimum last.  The
    objective must be bounded below, as a nonnegative cost is."""
    reduced = [Fraction(c) for c in cost] + [Fraction(0)]
    for row, j in zip(tableau, basis):
        if cost[j]:
            reduced = [d - cost[j] * x for d, x in zip(reduced, row)]
    while True:
        enter = next((j for j in columns if reduced[j] < 0), None)
        if enter is None:
            return reduced
        leave = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        _pivot(tableau, basis, leave, enter)
        f = reduced[enter]
        reduced = [d - f * x for d, x in zip(reduced, tableau[leave])]
