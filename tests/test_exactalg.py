import contextlib
import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import facetor.exactalg as exactalg
from facetor.documents import parse_data_document
from facetor.exactalg import (
    CoefficientRing,
    ExactMatrix,
    PreparedSolver,
)
from facetor.torcohomology import compute_tor

from helpers import QUOTIENT_LARGE, dense, mul_vec, to_dense

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F3 = CoefficientRing.integers_mod(3)
F5 = CoefficientRing.integers_mod(5)
F7 = CoefficientRing.integers_mod(7)


# ---------------------------------------------------------------------------
# Independent oracles.  Both are written dense and use a different algorithm
# (Bezout row/column blocks, resp. gcds of k x k minors) than the engine.

def _extgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def naive_smith_diagonal(rows, ncols):
    """Dense Smith diagonal via Bezout 2x2 blocks, then gcd/lcm smoothing."""
    M = [list(r) for r in rows]
    m, n = len(M), ncols

    def row_bez(t, i):
        # Plain elimination when the pivot divides (no refill); a true
        # Bezout block otherwise, which strictly shrinks |pivot|.
        a, b = M[t][t], M[i][t]
        if b == 0:
            return
        if a and b % a == 0:
            q = b // a
            for j in range(n):
                M[i][j] -= q * M[t][j]
            return
        g, x, y = _extgcd(a, b)
        u, v = -(b // g), a // g
        for j in range(n):
            M[t][j], M[i][j] = x * M[t][j] + y * M[i][j], u * M[t][j] + v * M[i][j]

    def col_bez(t, j):
        a, b = M[t][t], M[t][j]
        if b == 0:
            return
        if a and b % a == 0:
            q = b // a
            for i in range(m):
                M[i][j] -= q * M[i][t]
            return
        g, x, y = _extgcd(a, b)
        u, v = -(b // g), a // g
        for i in range(m):
            M[i][t], M[i][j] = x * M[i][t] + y * M[i][j], u * M[i][t] + v * M[i][j]

    t = 0
    while True:
        piv = next(((i, j) for i in range(t, m) for j in range(t, n) if M[i][j]),
                   None)
        if piv is None:
            break
        i0, j0 = piv
        M[t], M[i0] = M[i0], M[t]
        for r_ in range(m):
            M[r_][t], M[r_][j0] = M[r_][j0], M[r_][t]
        while True:
            for i in range(t + 1, m):
                row_bez(t, i)
            for j in range(t + 1, n):
                col_bez(t, j)
            if (all(M[i][t] == 0 for i in range(t + 1, m))
                    and all(M[t][j] == 0 for j in range(t + 1, n))):
                break
        t += 1
    r = t
    diag = [abs(M[s][s]) for s in range(r)]
    changed = True
    while changed:
        changed = False
        for s in range(r - 1):
            a, b = diag[s], diag[s + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[s], diag[s + 1] = g, a * b // g
                changed = True
    return diag


def _perm_sign(perm):
    inv = sum(1 for a, b in combinations(range(len(perm)), 2)
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def _det(sub):
    k = len(sub)
    total = 0
    for perm in permutations(range(k)):
        p = _perm_sign(perm)
        for i in range(k):
            p *= sub[i][perm[i]]
        total += p
    return total


def minors_smith_diagonal(rows, ncols):
    """Smith diagonal from gcds of k x k minors: s_k = d_k / d_{k-1}."""
    m, n = len(rows), ncols
    dk = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rset in combinations(range(m), k):
            for cset in combinations(range(n), k):
                g = math.gcd(g, _det([[rows[i][j] for j in cset] for i in rset]))
        if g == 0:
            break
        dk.append(g)
    out = []
    prev = 1
    for g in dk:
        out.append(g // prev)
        prev = g
    return out


def dense_rank_mod(rows, ncols, p):
    """Row reduction rank over Z/p (p prime), dense and independent."""
    M = [[x % p for x in r] for r in rows]
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][j]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][j], -1, p)
        M[rank] = [inv * x % p for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][j]:
                c = M[i][j]
                M[i] = [(x - c * y) % p for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Hypothesis strategies.

@st.composite
def int_matrix(draw, max_dim=4, bound=6):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rows = [[draw(st.integers(-bound, bound)) for _ in range(n)]
            for _ in range(m)]
    return rows, n


@st.composite
def frac_matrix(draw, max_dim=4):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    elt = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = [[draw(elt) for _ in range(n)] for _ in range(m)]
    return rows, n


# ---------------------------------------------------------------------------
# Coefficient rings.

def test_ring_basics():
    assert QQ.is_field and F5.is_field and not ZZ.is_field
    assert QQ.convert(3) == Fraction(3)
    assert ZZ.convert(Fraction(6, 2)) == 3
    assert F5.convert(-1) == 4
    assert F5.convert(Fraction(1, 2)) == 3  # 2 * 3 == 1 mod 5
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert F5.inverse(2) == 3
    assert QQ.inverse(Fraction(2, 3)) == Fraction(3, 2)
    assert ZZ.exact_div(6, 3) == 2
    assert ZZ.exact_div(7, 3) is None
    assert QQ.exact_div(7, 3) == Fraction(7, 3)
    assert F5.exact_div(1, 3) == 2


def test_ring_errors():
    with pytest.raises(ValueError):
        CoefficientRing.integers_mod(6)
    with pytest.raises(ValueError):
        ZZ.convert(Fraction(1, 2))
    with pytest.raises(ValueError):
        F5.convert(Fraction(1, 5))
    with pytest.raises(TypeError):
        QQ.convert("1")
    with pytest.raises(ZeroDivisionError):
        ZZ.inverse(2)


def test_large_prime_moduli():
    import time
    start = time.perf_counter()
    big = CoefficientRing.integers_mod(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert big.convert(-1) == 2 ** 61 - 2
    with pytest.raises(ValueError, match="prime"):
        CoefficientRing.integers_mod(2 ** 61 + 1)
    # strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="prime"):
        CoefficientRing.integers_mod(3215031751)
    with pytest.raises(ValueError, match="too large"):
        CoefficientRing.integers_mod(2 ** 89 - 1)


def test_small_moduli_match_trial_division():
    from facetor.exactalg import _is_prime
    for p in range(-2, 3000):
        trial = p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
        assert _is_prime(p) == trial, p


def test_ring_equality():
    assert CoefficientRing.rationals() == QQ
    assert CoefficientRing.integers_mod(5) == F5
    assert CoefficientRing.integers_mod(7) != F5
    assert ZZ != QQ


# ---------------------------------------------------------------------------
# Matrix basics.

def test_matrix_construction_and_access():
    A = dense([[1, 0], [2, 3]], ZZ)
    assert A.get(0, 0) == 1 and A.get(0, 1) == 0
    assert A.rows == {0: {0: 1}, 1: {0: 2, 1: 3}}
    A.set(0, 0, 0)
    assert A.rows == {1: {0: 2, 1: 3}}
    assert A.column(0) == {1: 2}
    assert to_dense(A.transpose()) == [[0, 2], [0, 3]]
    B = ExactMatrix.from_columns([{0: 1}, {1: 2}], 2, ZZ)
    assert to_dense(B) == [[1, 0], [0, 2]]
    with pytest.raises(IndexError):
        A.set(5, 0, 1)
    with pytest.raises(ValueError, match="ragged rows"):
        dense([[1, 0], [2]], ZZ)


@given(int_matrix(max_dim=3), int_matrix(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_matmul_matches_dense(ab, cd):
    rows_a, n_a = ab
    rows_b, n_b = cd
    A = dense(rows_a, ZZ, ncols=n_a)
    # Reshape B to be composable: use transpose trickery instead; just skip
    # incompatible draws.
    if len(rows_b) != n_a:
        rows_b = [[1] * n_b for _ in range(n_a)]
    B = dense(rows_b, ZZ, ncols=n_b)
    C = to_dense(A @ B)
    for i in range(len(rows_a)):
        for j in range(n_b):
            assert C[i][j] == sum(rows_a[i][k] * rows_b[k][j] for k in range(n_a))


def test_mul_vec():
    A = dense([[1, 2], [3, 4]], ZZ)
    assert mul_vec(A, {0: 1, 1: 1}) == {0: 3, 1: 7}
    assert mul_vec(A, {}) == {}


# ---------------------------------------------------------------------------
# Smith normal form.

def assert_snf_valid(A, sf):
    ring = A.ring
    m, n = A.nrows, A.ncols
    assert (sf.U @ A @ sf.V) == sf.matrix()
    assert sf.U @ sf.Uinv == ExactMatrix.identity(m, ring)
    assert sf.Uinv @ sf.U == ExactMatrix.identity(m, ring)
    assert sf.V @ sf.Vinv == ExactMatrix.identity(n, ring)
    assert sf.Vinv @ sf.V == ExactMatrix.identity(n, ring)
    diag = sf.diagonal
    if ring.is_field:
        assert all(d == ring.one() for d in diag)
    else:
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_snf_known_values():
    A = dense([[2, 4], [6, 8]], ZZ)
    assert A.smith_normal_form().diagonal == [2, 4]
    B = dense([[1, 2], [3, 4]], ZZ)
    assert B.smith_normal_form().diagonal == [1, 2]
    C = dense([[2, 0], [0, 3]], ZZ)
    assert C.smith_normal_form().diagonal == [1, 6]
    Z = ExactMatrix(2, 3, ZZ)
    assert Z.smith_normal_form().diagonal == []
    E = ExactMatrix(0, 3, ZZ)
    sf = E.smith_normal_form()
    assert sf.diagonal == [] and sf.V.nrows == 3


def test_snf_rejects_unknown_transform():
    A = dense([[1]], ZZ)
    with pytest.raises(ValueError):
        A.smith_normal_form(want=("W",))


@given(int_matrix())
@settings(max_examples=120, deadline=None)
def test_snf_integer_properties(data):
    rows, n = data
    A = dense(rows, ZZ, ncols=n)
    sf = A.smith_normal_form()
    assert_snf_valid(A, sf)
    assert sf.diagonal == naive_smith_diagonal(rows, n)


@given(int_matrix(max_dim=4, bound=5))
@settings(max_examples=80, deadline=None)
def test_snf_matches_minors_oracle(data):
    rows, n = data
    A = dense(rows, ZZ, ncols=n)
    assert A.smith_normal_form(want=()).diagonal == minors_smith_diagonal(rows, n)


@given(frac_matrix())
@settings(max_examples=60, deadline=None)
def test_snf_rational_properties(data):
    rows, n = data
    A = dense(rows, QQ, ncols=n)
    sf = A.smith_normal_form()
    assert_snf_valid(A, sf)
    int_rows = [[x * 840 for x in row] for row in rows]  # clear denominators
    assert sf.rank == len(minors_smith_diagonal(
        [[int(x) for x in row] for row in int_rows], n))


@given(int_matrix(bound=9))
@settings(max_examples=60, deadline=None)
def test_snf_mod_p_properties(data):
    rows, n = data
    A = dense(rows, F5, ncols=n)
    sf = A.smith_normal_form()
    assert_snf_valid(A, sf)
    assert sf.rank == dense_rank_mod(rows, n, 5)


def test_snf_deterministic_across_insertion_order():
    entries = [(0, 1, 4), (1, 0, 6), (1, 1, 2), (0, 0, 2), (2, 2, 8)]
    A = ExactMatrix(3, 3, ZZ)
    for i, j, v in entries:
        A.set(i, j, v)
    B = ExactMatrix(3, 3, ZZ)
    for i, j, v in reversed(entries):
        B.set(i, j, v)
    sa = A.smith_normal_form()
    sb = B.smith_normal_form()
    assert sa.diagonal == sb.diagonal
    for name in ("U", "Uinv", "V", "Vinv"):
        assert getattr(sa, name) == getattr(sb, name)


@st.composite
def zero_or_one_column_matrix(draw):
    """A matrix with no nonzero entry, of any shape up to 6 x 4, or with
    one column of up to 6 entries, over QQ, ZZ or Z/3."""
    ring = draw(st.sampled_from((QQ, ZZ, F3)))
    m = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return ExactMatrix(m, draw(st.integers(0, 4)), ring)
    if ring is QQ:
        value = st.fractions(min_value=-9, max_value=9, max_denominator=3)
    else:
        value = st.integers(-12, 12)
    column = draw(st.dictionaries(st.integers(0, m - 1), value)) if m else {}
    return ExactMatrix.from_columns([column], m, ring)


def typed_slots(slots):
    return None if slots is None else [typed_items(s) for s in slots]


@given(zero_or_one_column_matrix())
@settings(max_examples=200, deadline=None)
@example(dense([[4], [-6], [10]], ZZ))
@example(dense([[0], [-3]], ZZ))
@example(dense([[Fraction(2, 3)], [4]], QQ))
@example(ExactMatrix(0, 3, QQ))
@example(ExactMatrix(3, 0, ZZ))
def test_kernel_forms_of_trivial_shape_match_full_elimination(A):
    # forms without U and Uinv on a zero or one-column matrix return at
    # once; the form that wants all four transforms is eliminated in full
    full = A.smith_normal_form()
    for want in (("V", "Vinv"), ("V",), ("Vinv",), ()):
        sf = A.smith_normal_form(want=want)
        assert typed_tuple(sf.diagonal) == typed_tuple(full.diagonal)
        assert typed_slots(sf.v_cols) == (
            typed_slots(full.v_cols) if "V" in want else None)
        assert typed_slots(sf.vinv_rows) == (
            typed_slots(full.vinv_rows) if "Vinv" in want else None)
        assert sf.u_rows is None and sf.uinv_cols is None


def smith_output_sample():
    """A seeded sample of matrices up to 9x9 over QQ (with fractional
    entries), ZZ, Z/3 and Z/7, plus integer diagonal matrices whose entries
    do not divide each other, so ZZ runs the divisibility fix."""
    rnd = random.Random(20211907)
    values = {
        QQ: lambda: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)),
        ZZ: lambda: rnd.randint(-6, 6),
        F3: lambda: rnd.randint(0, 2),
        F7: lambda: rnd.randint(0, 6),
    }
    for k in range(2400):
        ring = (QQ, ZZ, F3, F7)[k % 4]
        m, n = rnd.randint(1, 9), rnd.randint(1, 9)
        density = rnd.random()
        A = ExactMatrix(m, n, ring)
        for i in range(m):
            for j in range(n):
                if rnd.random() < density:
                    A.set(i, j, values[ring]())
        yield A
    for _ in range(600):
        m = rnd.randint(2, 6)
        A = ExactMatrix(m, m, ZZ)
        for i in range(m):
            A.set(i, i, rnd.choice((-1, 1)) * rnd.randint(1, 30))
        yield A


def smith_output_digest():
    """sha256 of the diagonal and the four transforms, each entry with its
    type, over smith_output_sample."""
    h = hashlib.sha256()
    for A in smith_output_sample():
        sf = A.smith_normal_form()
        h.update(repr([(type(d).__name__, d) for d in sf.diagonal]).encode())
        for M in (sf.U, sf.Uinv, sf.V, sf.Vinv):
            h.update(repr(sorted((i, j, type(v).__name__, v)
                                 for i, row in M.rows.items()
                                 for j, v in row.items())).encode())
    return h.hexdigest()


def test_smith_outputs_are_unchanged():
    # Pins pivots, transforms and entry types of the Smith kernel, not only
    # their validity: a rewrite of the kernel must reproduce this digest.
    assert smith_output_digest() == SMITH_OUTPUT_DIGEST


SMITH_OUTPUT_DIGEST = (
    "1565f91e10750966042dabd4992947111ff50eeda37afe07a7ef978ba6093b47")


def typed_items(vec):
    """A sparse vector as its sorted items, each value with its type; None
    stays None.  Sorting keeps the digest free of dict key order."""
    if vec is None:
        return None
    return sorted((k, type(v).__name__, v) for k, v in vec.items())


def typed_tuple(values):
    return [(type(v).__name__, v) for v in values]


def derived_output_digest():
    """sha256 of what the readers derive from the Smith form over
    smith_output_sample: kernel_basis, the cokernel structure with
    project of every unit vector and of one seeded vector, solve of A x0
    and of every unit vector, and PreparedSolver.solve of the same
    vectors on the field matrices, each value with its type."""
    rnd = random.Random(20261020)
    h = hashlib.sha256()
    for A in smith_output_sample():
        ring, m, n = A.ring, A.nrows, A.ncols

        def draw():
            if ring == QQ:
                return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            return ring.convert(rnd.randint(-6, 6))

        h.update(repr([typed_items(x) for x in A.kernel_basis()]).encode())
        ck = A.cokernel_structure()
        h.update(repr((ck.free_rank, typed_tuple(ck.torsion),
                       [typed_items(g) for g in ck.free_generators],
                       [typed_items(g) for g in ck.torsion_generators])
                      ).encode())
        units = [{i: ring.one()} for i in range(m)]
        seeded = {i: v for i in range(m) for v in (draw(),) if v}
        for w in units + [seeded]:
            free, tors = ck.project(w)
            h.update(repr((typed_tuple(free), typed_tuple(tors))).encode())
        with pytest.raises(ValueError, match="^index %d out of range$" % m):
            ck.project({m: ring.one()})
        x0 = {j: v for j in range(n) for v in (draw(),) if v}
        probes = [mul_vec(A, x0)] + units
        h.update(repr([typed_items(A.solve(b)) for b in probes]).encode())
        if ring.is_field:
            ps = PreparedSolver(A)
            h.update(repr([typed_items(ps.solve(b)) for b in probes]
                          ).encode())
    return h.hexdigest()


def test_derived_outputs_are_unchanged():
    # Pins the values and entry types that the kernel, cokernel and solve
    # readers take from the Smith form, independently of how the form
    # hands its transforms over.
    assert derived_output_digest() == DERIVED_OUTPUT_DIGEST


DERIVED_OUTPUT_DIGEST = (
    "1fe451c626d0a03433d02c02cf744f2f4094af90ebd667d3f01080702cb9a7c4")


# ---------------------------------------------------------------------------
# Kernel, cokernel, solve.

@given(int_matrix())
@settings(max_examples=80, deadline=None)
def test_kernel_basis_integer(data):
    rows, n = data
    A = dense(rows, ZZ, ncols=n)
    basis = A.kernel_basis()
    assert len(basis) == n - A.rank()
    for x in basis:
        assert mul_vec(A, x) == {}
    if basis:
        K = ExactMatrix.from_columns(basis, n, ZZ)
        # Saturated: the basis extends to a basis of Z^n.
        assert all(d == 1 for d in K.smith_normal_form(want=()).diagonal)
        assert K.rank() == len(basis)


@given(int_matrix(max_dim=3), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_solve_roundtrip_integer(data, xs):
    rows, n = data
    A = dense(rows, ZZ, ncols=n)
    x0 = {j: xs[j] for j in range(n) if xs[j]}
    b = mul_vec(A, x0)
    x = A.solve(b)
    assert x is not None
    assert mul_vec(A, x) == b


@given(frac_matrix(max_dim=3), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_roundtrip_rational(data, xs):
    rows, n = data
    A = dense(rows, QQ, ncols=n)
    x0 = {j: Fraction(xs[j]) for j in range(n) if xs[j]}
    b = mul_vec(A, x0)
    x = A.solve(b)
    assert x is not None and mul_vec(A, x) == b


def test_solve_edge_cases():
    A = dense([[2]], ZZ)
    assert A.solve({0: 1}) is None
    assert A.solve({0: 4}) == {0: 2}
    AQ = dense([[2]], QQ)
    assert AQ.solve({0: 1}) == {0: Fraction(1, 2)}
    B = dense([[1], [1]], ZZ)
    assert B.solve({0: 1, 1: 2}) is None
    assert B.solve({0: 1, 1: 1}) == {0: 1}
    assert A.solve({}) == {}
    with pytest.raises(ValueError):
        A.solve({3: 1})


def test_cokernel_known():
    A = dense([[2, 0], [0, 3]], ZZ)
    ck = A.cokernel_structure()
    assert ck.free_rank == 0 and ck.torsion == [6]
    B = dense([[2, 0]], ZZ)
    ck = B.cokernel_structure()
    assert ck.free_rank == 0 and ck.torsion == [2]
    C = ExactMatrix(2, 1, ZZ)
    ck = C.cokernel_structure()
    assert ck.free_rank == 2 and ck.torsion == []
    assert len(ck.free_generators) == 2


@given(int_matrix(max_dim=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_cokernel_kills_image(data, xs):
    rows, n = data
    A = dense(rows, ZZ, ncols=n)
    ck = A.cokernel_structure()
    w = mul_vec(A, {j: xs[j] for j in range(n) if xs[j]})
    free, tors = ck.project(w)
    assert all(c == 0 for c in free)
    assert all(c == 0 for c in tors)
    assert len(free) == ck.free_rank and len(tors) == len(ck.torsion)


def test_cokernel_generators_project_to_unit_vectors():
    A = dense([[2, 0], [0, 1]], ZZ)
    ck = A.cokernel_structure()
    assert ck.free_rank == 0 and ck.torsion == [2]
    free, tors = ck.project(ck.torsion_generators[0])
    assert free == () and tors == (1,)


# ---------------------------------------------------------------------------
# PreparedSolver.

@given(frac_matrix(max_dim=4), st.lists(st.integers(-4, 4), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_prepared_solver_agrees_with_solve(data, xs):
    rows, n = data
    A = dense(rows, QQ, ncols=n)
    ps = PreparedSolver(A)
    assert ps.full_column_rank == (A.rank() == n)
    x0 = {j: Fraction(xs[j]) for j in range(n) if xs[j]}
    b = mul_vec(A, x0)
    x = ps.solve(b)
    assert x is not None and mul_vec(A, x) == b
    if ps.full_column_rank:
        assert x == x0
    # When A is not onto, some unit vector lies outside its column span.
    probes = [{i: Fraction(1)} for i in range(len(rows))]
    probes.append({i: Fraction(1 + i) for i in range(len(rows))})
    for probe in probes:
        x = ps.solve(probe)
        assert (x is None) == (A.solve(probe) is None)
        if x is not None:
            assert mul_vec(A, x) == probe


def test_prepared_solver_basic():
    A = dense([[1, 1], [0, 1], [1, 0]], QQ)
    ps = PreparedSolver(A)
    assert ps.full_column_rank
    assert ps.solve({0: 2, 1: 1, 2: 1}) == {0: 1, 1: 1}
    assert ps.solve({0: 1}) is None
    with pytest.raises(ValueError):
        ps.solve({9: 1})
    with pytest.raises(ValueError):
        PreparedSolver(dense([[1]], ZZ))


def test_prepared_solver_mod_p():
    A = dense([[2, 1], [1, 1]], F5)
    ps = PreparedSolver(A)
    b = mul_vec(A, {0: 3, 1: 4})
    x = ps.solve(b)
    assert mul_vec(A, x) == b
    # rank deficient: row 1 = 2 row 0, row 3 = row 0 + row 2, and
    # column 1 = 2 column 0
    A = dense(
        [[1, 2, 0], [2, 4, 0], [0, 0, 1], [1, 2, 1]], F5)
    ps = PreparedSolver(A)
    assert ps.rank == 2 and not ps.full_column_rank
    b = mul_vec(A, {0: 1, 1: 3, 2: 4})
    x = ps.solve(b)
    assert mul_vec(A, x) == b
    assert all(v in range(1, 5) for v in x.values())
    for probe in ({1: 1}, {3: 2}, {0: 1, 1: 1}):
        assert ps.solve(probe) is None and A.solve(probe) is None
    assert ps.solve({}) == {}


# ---------------------------------------------------------------------------
# Pivot search: the cached search must pick what a full scan picks.

def full_scan_pivot(state, t):
    """Reference pivot: scan every entry of the submatrix [t:, t:] for the
    least (|a|, Markowitz product, i, j)."""
    best = None
    best_key = None
    cols = state.cols
    for i in sorted(state.rows):
        if i < t:
            continue
        row = state.rows[i]
        rfill = len(row) - 1
        for j in sorted(row):
            if j < t:
                continue
            key = (abs(row[j]), rfill * (len(cols[j]) - 1), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
    return best


@contextlib.contextmanager
def checked_pivots():
    """Within the block every pivot pick must equal the full scan; yields
    the list of picks."""
    real = exactalg._find_pivot
    picks = []

    def checked(state, t):
        want = full_scan_pivot(state, t)
        got = real(state, t)
        assert got == want, (t, got, want)
        picks.append(got)
        return got

    exactalg._find_pivot = checked
    try:
        yield picks
    finally:
        exactalg._find_pivot = real


@st.composite
def sparse_matrix(draw):
    ring = draw(st.sampled_from((QQ, ZZ, F3)))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    if ring is QQ:
        value = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        value = st.integers(-4, 4)
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), value,
        max_size=m * n))
    A = ExactMatrix(m, n, ring)
    for (i, j), v in entries.items():
        A.set(i, j, v)
    return A


@given(sparse_matrix())
@settings(max_examples=200, deadline=None)
def test_cached_pivots_match_full_scan(A):
    with checked_pivots() as picks:
        sf = A.smith_normal_form()
    assert_snf_valid(A, sf)
    assert picks[-1] is None and len(picks) == sf.rank + 1
    if A.ring == QQ:
        values = list(sf.diagonal)
        for M in (sf.U, sf.Uinv, sf.V, sf.Vinv):
            values.extend(v for row in M.rows.values() for v in row.values())
        assert all(type(v) is Fraction for v in values)


def test_cached_pivots_match_full_scan_on_a_quotient():
    data = parse_data_document(QUOTIENT_LARGE)
    with checked_pivots() as picks:
        table = compute_tor(data, QQ)
        # and the blocks of the bidegrees above the dimension, on demand
        for bd, entry in table.entries.items():
            if not entry.blocks:
                table.multidegree_block(bd, ())
    assert len(table.entries) == 24
    assert len(picks) > 1000


def state_matrices(state, m, n, ring):
    """The working matrix and U, Uinv, V, Vinv of a Smith state."""
    def from_slots(slots, size):
        out = ExactMatrix(size, size, ring)
        out.rows = {i: dict(s) for i, s in enumerate(slots) if s}
        return out

    current = ExactMatrix(m, n, ring)
    current.rows = {i: dict(row) for i, row in state.rows.items()}
    _, _, u_rows, uinv_cols, _, _ = state.row
    _, _, v_cols, vinv_rows, _, _ = state.col
    return (current, from_slots(u_rows, m), from_slots(uinv_cols, m).transpose(),
            from_slots(v_cols, n).transpose(), from_slots(vinv_rows, n))


def test_cached_pivots_follow_any_operation_sequence():
    # The kernel calls _swap, _add and row_scale in one fixed pattern, which
    # can hide a stale cached key; after any sequence of them, on either
    # side, the cache must still pick what a full scan picks.
    rnd = random.Random(7041)
    for draw in range(3000):
        ring = (QQ, ZZ, F3)[draw % 3]
        m, n = rnd.randint(1, 6), rnd.randint(1, 6)
        A = ExactMatrix(m, n, ring)
        for i in range(m):
            for j in range(n):
                if rnd.random() < 0.5:
                    A.set(i, j, Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                          if ring is QQ else rnd.randint(-3, 3))
        state = exactalg._SnfState(A, ("U", "Uinv", "V", "Vinv"))
        for _ in range(8):
            side, size = rnd.choice(((state.row, m), (state.col, n)))
            a, b = rnd.randrange(size), rnd.randrange(size)
            op = rnd.randrange(3)
            if op == 0:
                exactalg._swap(side, a, b)
            elif op == 1 and a != b:
                # mostly a multiple that zeroes a shared entry
                la, lb = side[0].get(a, {}), side[0].get(b, {})
                shared = sorted(la.keys() & lb.keys())
                c = None
                if shared and rnd.random() < 0.7:
                    j = rnd.choice(shared)
                    c = ring.exact_div(ring.neg(la[j]), lb[j])
                if not c:
                    c = ring.convert(rnd.choice((-2, -1, 1, 2)))
                exactalg._add(side, state.mod, a, b, exactalg._integral(c))
            elif op == 2:
                unit = {QQ: Fraction(rnd.choice((-3, -1, 2)), rnd.randint(1, 2)),
                        ZZ: -1, F3: rnd.randint(1, 2)}[ring]
                state.row_scale(rnd.randrange(m), exactalg._integral(unit))
            assert exactalg._find_pivot(state, 0) == full_scan_pivot(state, 0)
        current, U, Uinv, V, Vinv = state_matrices(state, m, n, ring)
        assert current.transpose().rows == state.cols
        assert U @ A @ V == current
        assert U @ Uinv == ExactMatrix.identity(m, ring)
        assert V @ Vinv == ExactMatrix.identity(n, ring)
