"""Exact sparse linear algebra over QQ, ZZ, and prime fields Z/p.

Vectors are dicts {index: nonzero scalar}; matrices are dicts of row dicts.
Everything is exact: rationals are Fraction, integer arithmetic stays in int,
and Z/p values are reduced into range(p) after every operation.  The Smith
normal form is the one elimination kernel: it tracks the row and column
transforms and their inverses, keeps each in the layout it builds it in
(U and Vinv by rows, Uinv and V by columns), and rank, kernels, cokernels
and SmithForm.solve, the one solve routine, read that layout as it is.
Every form, of any shape and whichever transforms it tracks, runs that
one elimination.

Inside the Smith kernel a rational entry whose denominator is 1 is held as
an int, normalised on every write, so that integral work (the usual case:
Koszul differentials have integer entries and most pivots are units) runs
in int arithmetic; the diagonal and the transforms are turned back into
Fractions before they are returned.  A row operation is a column operation
on the transpose, so the kernel writes each elementary operation (swap,
add a multiple) once and runs it on one of two sides, rows or columns;
only rows are ever scaled.  The pivot search caches the least key
(|a|, Markowitz product, i, j) of every active row.  One rule marks what
it must refresh: an operation marks the lines it changed and every
crossing line that gained or lost an entry, and the search refreshes the
marked rows and the rows that meet a marked column, so the pivot sequence
is that of a full scan of the active submatrix.

unit_pivot_rank reads a rank off unit pivots, with no Smith form, or
leaves the matrix to the Smith form when a column has none.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Least strong pseudoprime to all of _MR_BASES (Sorenson and Webster 2015).
_MODULUS_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin on the first 13 prime bases; exact for
    p < _MODULUS_LIMIT, about 3.3e24."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoefficientRing:
    """One of QQ, ZZ, or the prime field Z/p.

    Elements are plain ints (ZZ, Z/p) or Fractions (QQ); the ring object
    only carries normalization and inversion rules.  Hot loops do native
    arithmetic and reduce mod ``modulus`` (None outside Z/p) afterwards.
    """

    __slots__ = ("kind", "modulus")

    def __init__(self, kind, modulus=None):
        if kind not in ("QQ", "ZZ", "Zmod"):
            raise ValueError("unknown ring kind %r" % (kind,))
        if (kind == "Zmod") != (modulus is not None):
            raise ValueError("modulus must be given exactly for Zmod")
        self.kind = kind
        self.modulus = modulus

    @classmethod
    def rationals(cls):
        return cls("QQ")

    @classmethod
    def integers(cls):
        return cls("ZZ")

    @classmethod
    def integers_mod(cls, p):
        if p >= _MODULUS_LIMIT:
            raise ValueError("modulus %d is too large: primality is "
                             "certified only below %d" % (p, _MODULUS_LIMIT))
        if not _is_prime(p):
            raise ValueError("modulus must be a prime, got %r" % (p,))
        return cls("Zmod", p)

    @property
    def is_field(self):
        return self.kind != "ZZ"

    def zero(self):
        return Fraction(0) if self.kind == "QQ" else 0

    def one(self):
        return Fraction(1) if self.kind == "QQ" else 1

    def convert(self, x):
        """Coerce an int or Fraction into this ring; raise if impossible."""
        if self.kind == "QQ":
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
        elif self.kind == "ZZ":
            if isinstance(x, int):
                return x
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return int(x)
                raise ValueError("%s is not an integer" % (x,))
        else:
            p = self.modulus
            if isinstance(x, int):
                return x % p
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ValueError("denominator of %s vanishes mod %d" % (x, p))
                return x.numerator * pow(x.denominator, -1, p) % p
        raise TypeError("cannot coerce %r into %s" % (x, self))

    def neg(self, x):
        return (-x) % self.modulus if self.modulus else -x

    def is_unit(self, x):
        if self.kind == "ZZ":
            return x == 1 or x == -1
        return x != 0

    def inverse(self, x):
        if not self.is_unit(x):
            raise ZeroDivisionError("%r is not a unit in %s" % (x, self))
        if self.kind == "QQ":
            return 1 / Fraction(x)
        if self.kind == "ZZ":
            return x
        return pow(x, -1, self.modulus)

    def exact_div(self, a, b):
        """a/b when it exists in the ring, else None."""
        if b == 0:
            return None
        if self.kind == "QQ":
            return Fraction(a) / b
        if self.kind == "ZZ":
            q, r = divmod(a, b)
            return q if r == 0 else None
        return a * pow(b, -1, self.modulus) % self.modulus

    def __eq__(self, other):
        return (isinstance(other, CoefficientRing)
                and self.kind == other.kind and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == "Zmod":
            return "Z/%d" % self.modulus
        return self.kind


class ExactMatrix:
    """Sparse exact matrix; rows[i] is a dict {col: nonzero value}."""

    __slots__ = ("nrows", "ncols", "ring", "rows")

    def __init__(self, nrows, ncols, ring):
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        self.rows = {}

    @classmethod
    def from_columns(cls, columns, nrows, ring):
        """Build from a list of sparse column vectors (dicts over rows)."""
        out = cls(nrows, len(columns), ring)
        for j, col in enumerate(columns):
            for i, x in col.items():
                if not (0 <= i < nrows):
                    raise ValueError("row index %r out of range" % (i,))
                v = ring.convert(x)
                if v:
                    out.rows.setdefault(i, {})[j] = v
        return out

    @classmethod
    def identity(cls, n, ring):
        out = cls(n, n, ring)
        one = ring.one()
        for i in range(n):
            out.rows[i] = {i: one}
        return out

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, self.ring.zero())

    def set(self, i, j, x):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        v = self.ring.convert(x)
        if v:
            self.rows.setdefault(i, {})[j] = v
        else:
            row = self.rows.get(i)
            if row:
                row.pop(j, None)
                if not row:
                    del self.rows[i]

    def transpose(self):
        out = ExactMatrix(self.ncols, self.nrows, self.ring)
        for i, row in self.rows.items():
            for j, v in row.items():
                out.rows.setdefault(j, {})[i] = v
        return out

    def column(self, j):
        return {i: row[j] for i, row in self.rows.items() if j in row}

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows or self.ring != other.ring:
            raise ValueError("shape or ring mismatch in matmul")
        mod = self.ring.modulus
        out = ExactMatrix(self.nrows, other.ncols, self.ring)
        for i, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                brow = other.rows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    acc[j] = acc.get(j, 0) + a * b
            red = {}
            for j, v in acc.items():
                if mod:
                    v %= mod
                if v:
                    red[j] = v
            if red:
                out.rows[i] = red
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        nnz = sum(len(r) for r in self.rows.values())
        return "<ExactMatrix %dx%d over %s, %d nonzero>" % (
            self.nrows, self.ncols, self.ring, nnz)

    def rank(self):
        return len(self.smith_normal_form(want=()).diagonal)

    def smith_normal_form(self, want=("U", "Uinv", "V", "Vinv")):
        """Diagonalize: U @ A @ V == S with U, V invertible over the ring.

        Over ZZ the diagonal is positive with each entry dividing the next;
        over a field it is all ones.  ``want`` selects which transforms to
        track; the rest come back as None.
        """
        return _smith(self, want)

    def kernel_basis(self):
        """Basis of {x : A x = 0}; over ZZ it spans the saturated kernel."""
        sf = self.smith_normal_form(want=("V",))
        return sf.v_cols[sf.rank:]

    def cokernel_structure(self):
        """Structure of R^nrows / (column span of A)."""
        sf = self.smith_normal_form(want=("U", "Uinv"))
        return CokernelStructure(sf, self.ring)

    def solve(self, b):
        """One x with A x = b, or None.  b is a sparse dict over rows.

        Over ZZ, None means no integral solution.  Index out of range
        raises ValueError (a malformed call, not an unsolvable system).
        """
        return self.smith_normal_form(want=("U", "V")).solve(b)


class SmithForm:
    """Result of smith_normal_form: U @ A @ V == S, transforms invertible.

    Each transform stays in the slots the kernel built (None if not
    wanted): u_rows, the rows of U; uinv_cols, the columns of Uinv; v_cols,
    the columns of V; vinv_rows, the rows of Vinv.  The properties U, Uinv,
    V and Vinv build their ExactMatrix on request.
    """

    __slots__ = ("nrows", "ncols", "ring", "diagonal",
                 "u_rows", "uinv_cols", "v_cols", "vinv_rows")

    def __init__(self, nrows, ncols, ring, diagonal,
                 u_rows, uinv_cols, v_cols, vinv_rows):
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        self.diagonal = diagonal
        self.u_rows = u_rows
        self.uinv_cols = uinv_cols
        self.v_cols = v_cols
        self.vinv_rows = vinv_rows

    U = property(lambda self: self._transform(self.u_rows, True))
    Uinv = property(lambda self: self._transform(self.uinv_cols, False))
    V = property(lambda self: self._transform(self.v_cols, False))
    Vinv = property(lambda self: self._transform(self.vinv_rows, True))

    def _transform(self, slots, by_rows):
        """The ExactMatrix of a transform kept as its rows or its columns."""
        if slots is None:
            return None
        out = ExactMatrix(len(slots), len(slots), self.ring)
        out.rows = {i: slot for i, slot in enumerate(slots) if slot}
        return out if by_rows else out.transpose()

    @property
    def rank(self):
        return len(self.diagonal)

    def matrix(self):
        out = ExactMatrix(self.nrows, self.ncols, self.ring)
        for t, d in enumerate(self.diagonal):
            out.rows[t] = {t: d}
        return out

    def solve(self, b):
        """One x with A x = b, or None: the one solve routine, on a form
        that kept U and V.  y = U b must vanish past the rank and each y_i
        be divisible by d_i; x is the sum of y_i / d_i times V's column i."""
        for i in b:
            if not (0 <= i < self.nrows):
                raise ValueError("row index %r out of range" % (i,))
        ring, mod = self.ring, self.ring.modulus
        x = {}
        for i, row in enumerate(self.u_rows):
            y = sum(row[j] * b[j] for j in row.keys() & b.keys())
            if mod:
                y %= mod
            if not y:
                continue
            if i >= self.rank:
                return None
            z = ring.exact_div(y, self.diagonal[i])
            if z is None:
                return None
            for k, v in self.v_cols[i].items():
                w = x.get(k, 0) + z * v
                x[k] = w % mod if mod else w
        return {k: w for k, w in x.items() if w}


class _SnfState:
    """Working matrix with mirrored row/column indexes plus transforms.

    The worked copy satisfies current = U0 @ A @ V0 throughout, where U0, V0
    are the accumulated transforms.  U and Vinv are kept row-major, Uinv and
    V column-major, so every elementary operation touches one slot of each.

    A row operation on the working matrix is a column operation on its
    transpose, so each elementary operation is written once and runs on one
    of two sides, ``row`` or ``col``.  A side is the tuple (lines, cross,
    fwd, inv, dirty, cross_dirty): its lines and the crossing lines, the
    transform slots an operation on its lines updates (U, Uinv for rows;
    V, Vinv for columns; None when not wanted), and the dirty sets of its
    lines and of the crossing lines.

    Over QQ an entry with denominator 1 is held as an int (_smith turns
    everything back into Fractions).  One rule marks dirty: an operation
    marks each line it changed, and each crossing line in which an entry
    appeared or vanished; best maps every active row to its least pivot
    key, refreshed by _find_pivot.
    """

    __slots__ = ("ring", "mod", "rows", "cols", "row", "col",
                 "best", "dirty_rows", "dirty_cols")

    def __init__(self, matrix, want):
        self.ring = matrix.ring
        self.mod = matrix.ring.modulus
        if self.ring.kind == "QQ":
            self.rows = {i: {j: _integral(v) for j, v in row.items()}
                         for i, row in matrix.rows.items()}
        else:
            self.rows = {i: dict(row) for i, row in matrix.rows.items()}
        self.cols = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                self.cols.setdefault(j, {})[i] = v
        m, n = matrix.nrows, matrix.ncols
        u = [{i: 1} for i in range(m)] if "U" in want else None
        uinv = [{i: 1} for i in range(m)] if "Uinv" in want else None
        v = [{j: 1} for j in range(n)] if "V" in want else None
        vinv = [{j: 1} for j in range(n)] if "Vinv" in want else None
        self.best = {}
        self.dirty_rows = set(self.rows)
        self.dirty_cols = set()
        self.row = (self.rows, self.cols, u, uinv,
                    self.dirty_rows, self.dirty_cols)
        self.col = (self.cols, self.rows, v, vinv,
                    self.dirty_cols, self.dirty_rows)

    def inverse(self, u):
        return _integral(self.ring.inverse(u))

    def row_scale(self, i, u):
        """row_i *= u for a unit u."""
        rows, cols, u_rows, uinv_cols, dirty_rows, _ = self.row
        mod = self.mod
        ri = rows.get(i, {})
        for j in list(ri):
            w = u * ri[j]
            if mod:
                w %= mod
            elif w.__class__ is Fraction and w.denominator == 1:
                w = w.numerator
            ri[j] = w
            cols[j][i] = w
        dirty_rows.add(i)
        if u_rows is not None:
            u_rows[i] = _scaled(u, u_rows[i], mod)
        if uinv_cols is not None:
            uinv_cols[i] = _scaled(self.inverse(u), uinv_cols[i], mod)


# Elementary operations on one side.  A row operation current' = E @ current
# means U' = E @ U (the same row operation) and Uinv' = Uinv @ E^-1 (the
# inverse column operation); a column operation current' = current @ F
# means V' = V @ F and Vinv' = F^-1 @ Vinv.

def _swap(side, a, b):
    """Swap lines a and b of one side."""
    if a == b:
        return
    lines, cross, fwd, inv, dirty, _ = side
    la, lb = lines.pop(a, None), lines.pop(b, None)
    if lb is not None:
        lines[a] = lb
    if la is not None:
        lines[b] = la
    for j in set(la or ()) | set(lb or ()):
        cj = cross[j]
        va, vb = cj.pop(a, None), cj.pop(b, None)
        if vb is not None:
            cj[a] = vb
        if va is not None:
            cj[b] = va
    dirty.update((a, b))
    if fwd is not None:
        fwd[a], fwd[b] = fwd[b], fwd[a]
    if inv is not None:
        inv[a], inv[b] = inv[b], inv[a]


def _add(side, mod, i, k, c):
    """line_i += c * line_k on one side (i != k)."""
    lines, cross, fwd, inv, dirty, cross_dirty = side
    li = lines.get(i)
    if li is None:
        li = lines[i] = {}
    for j, v in lines.get(k, {}).items():
        old = li.get(j, 0)
        w = old + c * v
        if mod:
            w %= mod
        elif w.__class__ is Fraction and w.denominator == 1:
            w = w.numerator
        # a crossing line that gains or loses an entry is dirty: its length
        # enters the Markowitz keys, and a row that leaves a column is not
        # reached by refreshing that column
        cj = cross[j]
        if w:
            if not old:
                cross_dirty.add(j)
            li[j] = w
            cj[i] = w
        else:
            cross_dirty.add(j)
            li.pop(j, None)
            cj.pop(i, None)
            if not cj:
                del cross[j]
    if not li:
        del lines[i]
    dirty.add(i)
    if fwd is not None:
        _axpy(fwd[i], c, fwd[k], mod)
    if inv is not None:
        _axpy(inv[k], -c, inv[i], mod)


def _integral(x):
    """A Fraction with denominator 1 as an int; anything else unchanged."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _axpy(dst, c, src, mod):
    """dst += c * src for transform slots, in place; drops zeros and keeps
    integral rationals as ints."""
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if mod:
            w %= mod
        elif w.__class__ is Fraction and w.denominator == 1:
            w = w.numerator
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def _scaled(c, src, mod):
    """c * src for transform slots, keeping integral rationals as ints."""
    if mod:
        out = {}
        for k, v in src.items():
            w = c * v % mod
            if w:
                out[k] = w
        return out
    return {k: _integral(c * v) for k, v in src.items()}


def _find_pivot(state, t):
    """Deterministic pivot in the submatrix [t:, t:]: minimal absolute
    value, then least Markowitz fill, then row-major position.

    Refreshes the cached least key of every row that is dirty or meets a
    dirty column; rows below t have been eliminated and leave the cache.
    Called with t = 0, 1, 2, ... on one state."""
    rows, cols, best = state.rows, state.cols, state.best
    todo = state.dirty_rows
    for j in state.dirty_cols:
        cj = cols.get(j)
        if cj:
            todo.update(cj)
    for i in todo:
        row = rows.get(i)
        if row is None or i < t:
            best.pop(i, None)
            continue
        rfill = len(row) - 1
        best[i] = min((abs(v), rfill * (len(cols[j]) - 1), i, j)
                      for j, v in row.items())
    todo.clear()
    state.dirty_cols.clear()
    best.pop(t - 1, None)
    if not best:
        return None
    return min(best.values())[2:]


def _clear_cross_integer(state, t):
    """Clear row t and column t (beyond t) over ZZ; pivot at (t,t) stays
    nonzero and ends positive."""
    sides = (state.row, state.col)
    # column t is the crossing line t of the row side, row t that of the
    # column side; both hold the pivot
    while len(state.cols[t]) > 1 or len(state.rows[t]) > 1:
        # the first least entry of pivot, column t, row t moves to (t,t)
        least, bv = None, abs(state.rows[t][t])
        for side in sides:
            cross_t = side[1][t]
            for i in sorted(cross_t):
                a = abs(cross_t[i])
                if i != t and a < bv:
                    least, bv = (side, i), a
        if least is not None:
            _swap(least[0], t, least[1])
        p = state.rows[t][t]
        for side in sides:
            for i in sorted(i for i in side[1][t] if i != t):
                q = side[1][t][i] // p
                if q:
                    _add(side, None, i, t, -q)
    if state.rows[t][t] < 0:
        state.row_scale(t, -1)


def _eliminate_at(state, t):
    """Produce the next diagonal entry at (t,t); False if submatrix is 0."""
    piv = _find_pivot(state, t)
    if piv is None:
        return False
    _swap(state.row, t, piv[0])
    _swap(state.col, t, piv[1])
    if state.ring.is_field:
        p = state.rows[t][t]
        if p != 1:
            state.row_scale(t, state.inverse(p))
        for side in (state.row, state.col):
            for i in sorted(i for i in side[1][t] if i != t):
                _add(side, state.mod, i, t, state.ring.neg(side[1][t][i]))
    else:
        _clear_cross_integer(state, t)
    return True


def _smith(matrix, want):
    want = tuple(want)
    for name in want:
        if name not in ("U", "Uinv", "V", "Vinv"):
            raise ValueError("unknown transform %r" % (name,))
    m, n = matrix.nrows, matrix.ncols
    ring = matrix.ring
    state = _SnfState(matrix, want)
    t = 0
    while _eliminate_at(state, t):
        t += 1
    r = t
    if ring.kind == "ZZ":
        # Enforce the divisibility chain; each fix stays inside the 2x2
        # block {t, s} and strictly shrinks the entry at (t, t); a unit
        # divides every later entry.
        t = 0
        while t + 1 < r:
            dt = state.rows[t][t]
            bad = None
            if dt != 1 and dt != -1:
                for s in range(t + 1, r):
                    if state.rows[s][s] % dt:
                        bad = s
                        break
            if bad is None:
                t += 1
                continue
            _add(state.col, None, t, bad, 1)
            _clear_cross_integer(state, t)
        for s in range(r):
            if state.rows[s][s] < 0:
                state.row_scale(s, -1)

    diagonal = [state.rows[t][t] for t in range(r)]
    _, _, u_rows, uinv_cols, _, _ = state.row
    _, _, v_cols, vinv_rows, _, _ = state.col
    if ring.kind == "QQ":
        diagonal = [Fraction(d) for d in diagonal]
        for slots in (u_rows, uinv_cols, v_cols, vinv_rows):
            if slots is not None:
                _fractions_in_place(slots)

    return SmithForm(m, n, ring, diagonal,
                     u_rows, uinv_cols, v_cols, vinv_rows)


def _fractions_in_place(slots):
    """Turn the int entries of QQ transform slots back into Fractions;
    equal values share one Fraction."""
    cache = {}
    for slot in slots:
        for k, v in slot.items():
            if v.__class__ is int:
                f = cache.get(v)
                if f is None:
                    f = cache[v] = Fraction(v)
                slot[k] = f


def unit_pivot_rank(columns):
    """The rank r of integer columns {row: int} when unit pivots certify
    it, else None.  Each column, reduced against the earlier pivots in
    pivot order (a heap), becomes a pivot at its first entry +-1 or
    stalls.  The pivot rows carry a unit triangular minor and the pivot
    columns span every column over ZZ, so the rank is r over QQ, ZZ and
    every Z/p, each Smith invariant 1."""
    pivot_of, pivots = {}, []  # row -> position; (row, reduced column)
    for col in columns:
        col = dict(col)
        heap = sorted(pivot_of[i] for i in col if i in pivot_of)
        while heap:
            row, pcol = pivots[heappop(heap)]
            c = col.get(row, 0) * pcol[row]
            if not c:  # cancelled, or met twice
                continue
            # pcol vanishes on the earlier pivot rows: the heap stays ordered
            for i, v in pcol.items():
                if i not in col and i in pivot_of:
                    heappush(heap, pivot_of[i])
                col[i] = col.get(i, 0) - c * v
                if not col[i]:
                    del col[i]
        if col:
            row = next((i for i, v in col.items() if v == 1 or v == -1), None)
            if row is None:
                return None
            pivot_of[row] = len(pivots)
            pivots.append((row, col))
    return len(pivots)


class CokernelStructure:
    """coker(A) = R^m / (column span of A): free part plus cyclic torsion.

    Generators live in R^m, as columns of Uinv; project() rewrites any
    vector in them through the matching rows of U, with torsion
    coordinates reduced mod their orders.  Coordinate order is all free
    coordinates first, then torsion.
    """

    __slots__ = ("ring", "free_rank", "torsion",
                 "free_generators", "torsion_generators", "_nrows", "_rows")

    def __init__(self, sf, ring):
        r = sf.rank
        self.ring = ring
        torsion_rows = [t for t in range(r) if not ring.is_unit(sf.diagonal[t])]
        self.torsion = [sf.diagonal[t] for t in torsion_rows]
        self.free_rank = sf.nrows - r
        self.free_generators = sf.uinv_cols[r:]
        self.torsion_generators = [sf.uinv_cols[t] for t in torsion_rows]
        self._nrows = sf.nrows
        self._rows = sf.u_rows[r:] + [sf.u_rows[t] for t in torsion_rows]

    def project(self, w):
        """Coordinates of w in the cokernel: (free tuple, torsion tuple)."""
        for i in w:
            if not (0 <= i < self._nrows):
                raise ValueError("index %r out of range" % (i,))
        mod = self.ring.modulus
        y = []
        for row in self._rows:
            s = sum(row[j] * w[j] for j in row.keys() & w.keys())
            y.append(s % mod if mod else s or 0)
        f = self.free_rank
        return tuple(y[:f]), tuple(c % d for c, d in zip(y[f:], self.torsion))


class PreparedSolver:
    """A fixed field matrix prepared for repeated solves.

    The Smith form U @ A @ V == S is computed once, keeping U by rows and
    V by columns; solve(b) runs SmithForm.solve on it, the routine that
    ExactMatrix.solve runs.  With full column rank the solution is unique.
    Only the face ring's restriction oracle (FaceRing._degree_system)
    builds one.
    """

    __slots__ = ("ncols", "rank", "_sf")

    def __init__(self, matrix):
        if not matrix.ring.is_field:
            raise ValueError("PreparedSolver requires a field")
        self.ncols = matrix.ncols
        self._sf = matrix.smith_normal_form(want=("U", "V"))
        self.rank = self._sf.rank

    @property
    def full_column_rank(self):
        return self.rank == self.ncols

    def solve(self, b):
        """One x with A x = b, or None if inconsistent."""
        return self._sf.solve(b)
