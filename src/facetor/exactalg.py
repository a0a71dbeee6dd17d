"""Exact sparse linear algebra over QQ, ZZ, and prime fields Z/p.

Vectors are dicts {index: nonzero scalar}; matrices are dicts of row dicts.
Everything is exact: rationals are Fraction, integer arithmetic stays in int,
and Z/p values are reduced into range(p) after every operation.  The Smith
normal form is the one elimination kernel: it tracks the row and column
transforms together with their inverses, which is what the cohomology
reducers downstream consume, and PreparedSolver, rank, kernels, cokernels
and solve are all built on it.

Inside the Smith kernel a rational entry whose denominator is 1 is held as
an int, normalised on every write, so that integral work (the usual case:
Koszul differentials have integer entries and most pivots are units) runs
in int arithmetic; the diagonal and the transforms are turned back into
Fractions before they are returned.  The pivot search caches the least key
(|a|, Markowitz product, i, j) of every active row and refreshes only the
rows that an elementary operation touched, or that meet a column whose
length or position it changed, so the pivot sequence is that of a full
scan of the active submatrix.
"""

from __future__ import annotations

from fractions import Fraction


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
    def from_dense(cls, dense_rows, ring, ncols=None):
        nrows = len(dense_rows)
        if ncols is None:
            ncols = len(dense_rows[0]) if dense_rows else 0
        out = cls(nrows, ncols, ring)
        for i, row in enumerate(dense_rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            r = {}
            for j, x in enumerate(row):
                v = ring.convert(x)
                if v:
                    r[j] = v
            if r:
                out.rows[i] = r
        return out

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

    def columns(self):
        """All nonzero columns as {col: {row: value}} in one pass."""
        out = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                out.setdefault(j, {})[i] = v
        return out

    def mul_vec(self, x):
        """Matrix times sparse column vector: (A x) as a sparse dict."""
        mod = self.ring.modulus
        out = {}
        for i, row in self.rows.items():
            common = row.keys() & x.keys()
            if not common:
                continue
            s = sum(row[j] * x[j] for j in common)
            if mod:
                s %= mod
            if s:
                out[i] = s
        return out

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

    def to_dense(self):
        z = self.ring.zero()
        out = [[z] * self.ncols for _ in range(self.nrows)]
        for i, row in self.rows.items():
            for j, v in row.items():
                out[i][j] = v
        return out

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
        cols = sf.V.columns()
        return [cols.get(t, {}) for t in range(sf.rank, self.ncols)]

    def cokernel_structure(self):
        """Structure of R^nrows / (column span of A)."""
        sf = self.smith_normal_form(want=("U", "Uinv"))
        return CokernelStructure(sf, self.ring)

    def solve(self, b):
        """One x with A x = b, or None.  b is a sparse dict over rows.

        Over ZZ, None means no integral solution.  Index out of range
        raises ValueError (a malformed call, not an unsolvable system).
        """
        for i in b:
            if not (0 <= i < self.nrows):
                raise ValueError("row index %r out of range" % (i,))
        sf = self.smith_normal_form(want=("U", "V"))
        y = sf.U.mul_vec(b)
        r = sf.rank
        z = {}
        for i, yi in y.items():
            if i >= r:
                return None
            q = self.ring.exact_div(yi, sf.diagonal[i])
            if q is None:
                return None
            if q:
                z[i] = q
        return sf.V.mul_vec(z)


class SmithForm:
    """Result of smith_normal_form: U @ A @ V == S, transforms invertible."""

    __slots__ = ("nrows", "ncols", "ring", "diagonal", "U", "Uinv", "V", "Vinv")

    def __init__(self, nrows, ncols, ring, diagonal, U, Uinv, V, Vinv):
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        self.diagonal = diagonal
        self.U = U
        self.Uinv = Uinv
        self.V = V
        self.Vinv = Vinv

    @property
    def rank(self):
        return len(self.diagonal)

    def matrix(self):
        out = ExactMatrix(self.nrows, self.ncols, self.ring)
        for t, d in enumerate(self.diagonal):
            out.rows[t] = {t: d}
        return out


class _SnfState:
    """Working matrix with mirrored row/column indexes plus transforms.

    The worked copy satisfies current = U0 @ A @ V0 throughout, where U0, V0
    are the accumulated transforms.  U and Vinv are kept row-major, Uinv and
    V column-major, so every elementary operation touches one slot of each.

    Over QQ an entry with denominator 1 is held as an int (_smith turns
    everything back into Fractions).  Each operation marks the rows and
    columns whose values, index or length it changed as dirty; best maps
    every active row to its least pivot key, refreshed by _find_pivot.
    """

    __slots__ = ("ring", "mod", "rows", "cols",
                 "u_rows", "uinv_cols", "v_cols", "vinv_rows",
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
        self.u_rows = [{i: 1} for i in range(m)] if "U" in want else None
        self.uinv_cols = [{i: 1} for i in range(m)] if "Uinv" in want else None
        self.v_cols = [{j: 1} for j in range(n)] if "V" in want else None
        self.vinv_rows = [{j: 1} for j in range(n)] if "Vinv" in want else None
        self.best = {}
        self.dirty_rows = set(self.rows)
        self.dirty_cols = set()

    def inverse(self, u):
        return _integral(self.ring.inverse(u))

    # Elementary row operations.  current' = E @ current means U' = E @ U
    # (same row op) and Uinv' = Uinv @ E^-1 (inverse column op).

    def row_swap(self, i1, i2):
        if i1 == i2:
            return
        rows, cols = self.rows, self.cols
        r1, r2 = rows.pop(i1, None), rows.pop(i2, None)
        if r2 is not None:
            rows[i1] = r2
        if r1 is not None:
            rows[i2] = r1
        for j in set(r1 or ()) | set(r2 or ()):
            cj = cols[j]
            v1, v2 = cj.pop(i1, None), cj.pop(i2, None)
            if v2 is not None:
                cj[i1] = v2
            if v1 is not None:
                cj[i2] = v1
        self.dirty_rows.update((i1, i2))
        u = self.u_rows
        if u is not None:
            u[i1], u[i2] = u[i2], u[i1]
        ui = self.uinv_cols
        if ui is not None:
            ui[i1], ui[i2] = ui[i2], ui[i1]

    def row_axpy(self, i, k, c):
        """row_i += c * row_k (i != k)."""
        rows, cols, mod = self.rows, self.cols, self.mod
        dirty_cols = self.dirty_cols
        ri = rows.get(i)
        if ri is None:
            ri = rows[i] = {}
        for j, v in rows.get(k, {}).items():
            w = ri.get(j, 0) + c * v
            if mod:
                w %= mod
            elif w.__class__ is Fraction and w.denominator == 1:
                w = w.numerator
            cj = cols[j]
            if w:
                if j not in ri:
                    dirty_cols.add(j)
                ri[j] = w
                cj[i] = w
            else:
                dirty_cols.add(j)
                ri.pop(j, None)
                cj.pop(i, None)
                if not cj:
                    del cols[j]
        if not ri:
            del rows[i]
        self.dirty_rows.add(i)
        if self.u_rows is not None:
            _axpy(self.u_rows[i], c, self.u_rows[k], mod)
        if self.uinv_cols is not None:
            _axpy(self.uinv_cols[k], -c, self.uinv_cols[i], mod)

    def row_scale(self, i, u):
        """row_i *= u for a unit u."""
        rows, cols, mod = self.rows, self.cols, self.mod
        ri = rows.get(i, {})
        for j in list(ri):
            w = u * ri[j]
            if mod:
                w %= mod
            elif w.__class__ is Fraction and w.denominator == 1:
                w = w.numerator
            ri[j] = w
            cols[j][i] = w
        self.dirty_rows.add(i)
        if self.u_rows is not None:
            self.u_rows[i] = _scaled(u, self.u_rows[i], mod)
        if self.uinv_cols is not None:
            self.uinv_cols[i] = _scaled(self.inverse(u), self.uinv_cols[i], mod)

    # Column operations.  current' = current @ F means V' = V @ F and
    # Vinv' = F^-1 @ Vinv (inverse row op).

    def col_swap(self, j1, j2):
        if j1 == j2:
            return
        rows, cols = self.rows, self.cols
        c1, c2 = cols.pop(j1, None), cols.pop(j2, None)
        if c2 is not None:
            cols[j1] = c2
        if c1 is not None:
            cols[j2] = c1
        for i in set(c1 or ()) | set(c2 or ()):
            ri = rows[i]
            v1, v2 = ri.pop(j1, None), ri.pop(j2, None)
            if v2 is not None:
                ri[j1] = v2
            if v1 is not None:
                ri[j2] = v1
        self.dirty_cols.update((j1, j2))
        v = self.v_cols
        if v is not None:
            v[j1], v[j2] = v[j2], v[j1]
        vi = self.vinv_rows
        if vi is not None:
            vi[j1], vi[j2] = vi[j2], vi[j1]

    def col_axpy(self, j, k, c):
        """col_j += c * col_k (j != k)."""
        rows, cols, mod = self.rows, self.cols, self.mod
        dirty_rows = self.dirty_rows
        cj = cols.get(j)
        if cj is None:
            cj = cols[j] = {}
        for i, v in cols.get(k, {}).items():
            w = cj.get(i, 0) + c * v
            if mod:
                w %= mod
            elif w.__class__ is Fraction and w.denominator == 1:
                w = w.numerator
            ri = rows[i]
            if w:
                cj[i] = w
                ri[j] = w
            else:
                # row i leaves column j, so refreshing j will not reach it
                dirty_rows.add(i)
                cj.pop(i, None)
                ri.pop(j, None)
                if not ri:
                    del rows[i]
        if not cj:
            del cols[j]
        self.dirty_cols.add(j)
        if self.v_cols is not None:
            _axpy(self.v_cols[j], c, self.v_cols[k], mod)
        if self.vinv_rows is not None:
            _axpy(self.vinv_rows[k], -c, self.vinv_rows[j], mod)


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
    rows, cols = state.rows, state.cols
    while True:
        centries = [i for i in cols.get(t, {}) if i != t]
        rentries = [j for j in rows.get(t, {}) if j != t]
        if not centries and not rentries:
            break
        bi, bj, bv = t, t, abs(rows[t][t])
        for i in sorted(centries):
            a = abs(cols[t][i])
            if a < bv:
                bi, bj, bv = i, t, a
        for j in sorted(rentries):
            a = abs(rows[t][j])
            if a < bv:
                bi, bj, bv = t, j, a
        if bi != t:
            state.row_swap(t, bi)
        elif bj != t:
            state.col_swap(t, bj)
        p = rows[t][t]
        for i in sorted(i for i in cols[t] if i != t):
            q = cols[t][i] // p
            if q:
                state.row_axpy(i, t, -q)
        for j in sorted(j for j in rows.get(t, {}) if j != t):
            q = rows[t][j] // p
            if q:
                state.col_axpy(j, t, -q)
    if rows[t][t] < 0:
        state.row_scale(t, -1)


def _eliminate_at(state, t):
    """Produce the next diagonal entry at (t,t); False if submatrix is 0."""
    piv = _find_pivot(state, t)
    if piv is None:
        return False
    state.row_swap(t, piv[0])
    state.col_swap(t, piv[1])
    if state.ring.is_field:
        p = state.rows[t][t]
        if p != 1:
            state.row_scale(t, state.inverse(p))
        for i in sorted(i for i in state.cols[t] if i != t):
            state.row_axpy(i, t, state.ring.neg(state.cols[t][i]))
        for j in sorted(j for j in state.rows.get(t, {}) if j != t):
            state.col_axpy(j, t, state.ring.neg(state.rows[t][j]))
    else:
        _clear_cross_integer(state, t)
    return True


def _smith(matrix, want):
    want = tuple(want)
    for name in want:
        if name not in ("U", "Uinv", "V", "Vinv"):
            raise ValueError("unknown transform %r" % (name,))
    state = _SnfState(matrix, want)
    t = 0
    while _eliminate_at(state, t):
        t += 1
    r = t
    if matrix.ring.kind == "ZZ":
        # Enforce the divisibility chain; each fix stays inside the 2x2
        # block {t, s} and strictly shrinks the entry at (t, t).
        t = 0
        while t + 1 < r:
            dt = state.rows[t][t]
            bad = None
            for s in range(t + 1, r):
                if state.rows[s][s] % dt:
                    bad = s
                    break
            if bad is None:
                t += 1
                continue
            state.col_axpy(t, bad, 1)
            _clear_cross_integer(state, t)
        for s in range(r):
            if state.rows[s][s] < 0:
                state.row_scale(s, -1)

    diagonal = [state.rows[t][t] for t in range(r)]
    m, n = matrix.nrows, matrix.ncols
    ring = matrix.ring
    if ring.kind == "QQ":
        diagonal = [Fraction(d) for d in diagonal]
        for slots in (state.u_rows, state.uinv_cols, state.v_cols,
                      state.vinv_rows):
            if slots is not None:
                _fractions_in_place(slots)

    def rows_to_matrix(row_dicts, size):
        out = ExactMatrix(size, size, ring)
        for i, row in enumerate(row_dicts):
            if row:
                out.rows[i] = row
        return out

    def cols_to_matrix(col_dicts, size):
        out = ExactMatrix(size, size, ring)
        for j, col in enumerate(col_dicts):
            for i, v in col.items():
                out.rows.setdefault(i, {})[j] = v
        return out

    U = rows_to_matrix(state.u_rows, m) if state.u_rows is not None else None
    Uinv = cols_to_matrix(state.uinv_cols, m) if state.uinv_cols is not None else None
    V = cols_to_matrix(state.v_cols, n) if state.v_cols is not None else None
    Vinv = rows_to_matrix(state.vinv_rows, n) if state.vinv_rows is not None else None
    return SmithForm(m, n, ring, diagonal, U, Uinv, V, Vinv)


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


class CokernelStructure:
    """coker(A) = R^m / (column span of A): free part plus cyclic torsion.

    Generators live in R^m; project() rewrites any vector in them, with
    torsion coordinates reduced mod their orders.  Coordinate order is all
    free coordinates first, then torsion.
    """

    __slots__ = ("ring", "free_rank", "torsion",
                 "free_generators", "torsion_generators",
                 "_U", "_free_rows", "_torsion_rows")

    def __init__(self, sf, ring):
        m = sf.nrows
        r = sf.rank
        self.ring = ring
        self._U = sf.U
        self._free_rows = list(range(r, m))
        self._torsion_rows = [t for t in range(r) if not ring.is_unit(sf.diagonal[t])]
        self.torsion = [sf.diagonal[t] for t in self._torsion_rows]
        self.free_rank = m - r
        cols = sf.Uinv.columns()
        self.free_generators = [cols.get(i, {}) for i in self._free_rows]
        self.torsion_generators = [cols.get(i, {}) for i in self._torsion_rows]

    def project(self, w):
        """Coordinates of w in the cokernel: (free tuple, torsion tuple)."""
        for i in w:
            if not (0 <= i < self._U.nrows):
                raise ValueError("index %r out of range" % (i,))
        y = self._U.mul_vec(w)
        free = tuple(y.get(i, 0) for i in self._free_rows)
        tors = tuple(y.get(i, 0) % d
                     for i, d in zip(self._torsion_rows, self.torsion))
        return free, tors


class PreparedSolver:
    """A fixed field matrix prepared for repeated solves.

    One Smith form U @ A @ V == S (S has r ones on its diagonal) gives the
    solution matrix V[:, :r] @ U[:r, :] and the consistency rows U[r:, :].
    solve(b) returns that matrix times b, or None when the consistency rows
    do not annihilate b.  With full column rank the solution is unique.
    Only the face ring's restriction oracle (FaceRing._degree_system)
    builds one.
    """

    __slots__ = ("nrows", "ncols", "rank", "_solution", "_consistency")

    def __init__(self, matrix):
        if not matrix.ring.is_field:
            raise ValueError("PreparedSolver requires a field")
        self.nrows = m = matrix.nrows
        self.ncols = matrix.ncols
        sf = matrix.smith_normal_form(want=("U", "V"))
        self.rank = r = sf.rank
        # Over a field S^T is the pseudo-inverse of S, so V @ S^T @ U is
        # V[:, :r] @ U[:r, :].
        self._solution = sf.V @ sf.matrix().transpose() @ sf.U
        self._consistency = ExactMatrix(m - r, m, matrix.ring)
        self._consistency.rows = {i - r: row for i, row in sf.U.rows.items()
                                  if i >= r}

    @property
    def full_column_rank(self):
        return self.rank == self.ncols

    def solve(self, b):
        """One x with A x = b, or None if inconsistent."""
        for i in b:
            if not (0 <= i < self.nrows):
                raise ValueError("row index %r out of range" % (i,))
        if self._consistency.mul_vec(b):
            return None
        return self._solution.mul_vec(b)
