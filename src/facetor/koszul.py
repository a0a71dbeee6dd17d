"""Koszul complexes of characteristic data, with twisted products.

The complex is Lambda(a_1, ..., a_n) tensor k[Sigma]: an element is a dict
{(S, mono): scalar} where S is a strictly increasing tuple of exterior
indices from 1..n and mono is a standard monomial of the face ring.  The
term (S, m) has bidegree (-|S|, deg m + 2|S|) and total degree |S| + deg m.

The differential d = -sum_v iota(x_v) tensor t_v contracts against the
characteristic vectors and multiplies by the vertex generators; ghost
vertices drop out since their t_v is zero.  Its structure constants are
integers that do not depend on the coefficient ring, so the column of a
key (S, m) is built once as {(S', m'): int}: the contraction terms come
from a cache per index set S, the products m * t_v from the face ring's
integer product memo.  differential is the linear extension of these
columns, with the coefficients in the ring; a TorTable keeps the columns
of its keys, so each one is built once per table.

The twisted product extends the generator rule
a*b = ab + sum_{i>=j} a(x_i)b(x_j) q_ij by Clifford normal ordering, with
the twist values q_ij central face-ring elements.  Since the q_ij are
central with integer coefficients, a_S * a_T normal-orders to
sum_U P_U a_U with integer face-ring elements P_U that do not depend on
the coefficient ring; a TwistData keeps them per face ring and pair
(S, T), and star_product multiplies them by the products of the
face-ring parts from the face ring's memo, as wedge_product does with
the shuffle sign.
"""

from itertools import combinations

from .exactalg import CoefficientRing
from .facering import FaceRing, convert_element, monomial_degree

_ZZ = CoefficientRing.integers()


def bidegree(poset, key):
    S, mono = key
    k = len(S)
    return (-k, monomial_degree(poset, mono) + 2 * k)


def total_degree(poset, key):
    S, mono = key
    return len(S) + monomial_degree(poset, mono)


def element_total_degree(poset, z):
    """Common total degree of a nonzero homogeneous element."""
    degrees = {total_degree(poset, key) for key in z}
    if len(degrees) != 1:
        raise ValueError("element is not homogeneous: degrees %s"
                         % sorted(degrees))
    return degrees.pop()


def _add_term(out, key, c, modulus):
    w = out.get(key, 0) + c
    if modulus:
        w %= modulus
    if w:
        out[key] = w
    else:
        out.pop(key, None)


def single_contract(S, j):
    """iota of the j-th coordinate vector: (sign, S without j), or None."""
    if j not in S:
        return None
    pos = S.index(j)
    return (-1 if pos % 2 else 1), S[:pos] + S[pos + 1:]


def double_contract(S, i, j):
    """iota(x_i) iota(x_j) with i > j, the j contraction applied first."""
    first = single_contract(S, j)
    if first is None:
        return None
    sign, S1 = first
    second = single_contract(S1, i)
    if second is None:
        return None
    sign2, S2 = second
    return sign * sign2, S2


def contract(x, S):
    """iota(x) for an integer vector x: list of (coefficient, S') terms.
    An index of S outside 1..len(x) raises ValueError."""
    out = []
    for pos, idx in enumerate(S):
        if not 1 <= idx <= len(x):
            raise ValueError("exterior index %r outside 1..%d" % (idx, len(x)))
        c = x[idx - 1]
        if c:
            out.append((-c if pos % 2 else c, S[:pos] + S[pos + 1:]))
    return out


class TwistData:
    """Twisting coefficients q_ij for 1 <= j <= i <= n, each a degree-2
    face-ring element with integer coefficients (zeros omitted)."""

    __slots__ = ("n", "q", "_orderings")

    def __init__(self, n, q):
        self.n = n
        self.q = {pair: dict(val) for pair, val in q.items() if val}
        self._orderings = {}

    def normal_ordering(self, S, T, face):
        """a_S * a_T normal-ordered over ZZ, as ((U, ((mono, int), ...)),
        ...): the face-ring coefficient of each a_U, memoised per face
        ring and pair of index sets."""
        memo = self._orderings.setdefault(face, {})
        key = (S, T)
        found = memo.get(key)
        if found is None:
            grouped = {}
            for (U, mono), k in _normal_order_into(
                    {}, S + T, {(): 1}, self, _ZZ, face).items():
                grouped.setdefault(U, []).append((mono, k))
            found = memo[key] = tuple((U, tuple(terms))
                                      for U, terms in grouped.items())
        return found

    @property
    def is_zero(self):
        return not self.q

    def get(self, i, j):
        if not 1 <= j <= i <= self.n:
            raise ValueError("twist index pair (%d, %d) out of range"
                             % (i, j))
        return self.q.get((i, j), {})

    def __eq__(self, other):
        return (isinstance(other, TwistData)
                and self.n == other.n and self.q == other.q)

    def __repr__(self):
        return "TwistData(n=%d, %d nonzero)" % (self.n, len(self.q))


def compute_q(data):
    """Twist of characteristic data: q_ii = sum_v x_v^i(x_v^i - 1)/2 t_v
    (an integer coefficient) and q_ij = sum_v x_v^i x_v^j t_v for i > j;
    only poset vertices contribute, ghost terms vanish with t_v = 0."""
    poset = data.poset
    q = {}
    for v in poset.vertices:
        x = data.chi[v]
        tv = ((poset.atom[v], 1),)
        for i in range(1, data.n + 1):
            xi = x[i - 1]
            c = xi * (xi - 1) // 2
            if c:
                _add_term(q.setdefault((i, i), {}), tv, c, 0)
            for j in range(1, i):
                c = xi * x[j - 1]
                if c:
                    _add_term(q.setdefault((i, j), {}), tv, c, 0)
    return TwistData(data.n, q)


def _contraction_terms(data, face, S):
    """The terms of d(a_S) = -sum_v iota(x_v)(a_S) t_v: (t_v, ((-c, S'),
    ...)) for each poset vertex v with a nonzero contraction."""
    out = []
    for v in data.poset.vertices:
        terms = contract(data.chi[v], S)
        if terms:
            out.append((face.t_vertex(v),
                        tuple((-c, S1) for c, S1 in terms)))
    return tuple(out)


def integer_column(key, data, face, contractions):
    """d(a_S tensor m) as {(S', m'): int}, summed in the loop order
    vertices, contraction terms, product terms.  On a basis key each
    (S', m') arises once (the vertex fixes the multidegree of m', the
    contracted index fixes S'), so reducing mod p later keeps the key
    order a column built mod p has.  contractions is a cache {S: terms
    of d(a_S)}, read and filled."""
    S, mono = key
    terms = contractions.get(S)
    if terms is None:
        terms = contractions[S] = _contraction_terms(data, face, S)
    col = {}
    for tv, cterms in terms:
        prod = face.monomial_product(mono, tv)
        for c, S1 in cterms:
            for m1, k in prod:
                key2 = (S1, m1)
                w = col.get(key2, 0) + c * k
                if w:
                    col[key2] = w
                else:
                    del col[key2]
    return col


def differential(z, data, ring, face=None, columns=None):
    """d(a_S tensor m) = -sum_v iota(x_v)(a_S) tensor t_v m.

    The linear extension of the integer columns (integer_column), read
    from columns (a callable key -> column, as a TorTable passes its
    cache) or built for this call; c * ring.one() keeps QQ values
    Fractions."""
    if columns is None:
        if face is None:
            face = FaceRing(data.poset)
        contractions = {}

        def columns(key):
            return integer_column(key, data, face, contractions)

    out = {}
    mod = ring.modulus
    one = ring.one()
    for key, c in z.items():
        c = c * one
        for key2, k in columns(key).items():
            _add_term(out, key2, c * k, mod)
    return out


def wedge_product(a, b, ring, face):
    """Untwisted product: shuffle sign on disjoint index sets, zero else;
    the face-ring parts multiply by monomial_product."""
    out = {}
    mod = ring.modulus
    for (S, mf), ca in a.items():
        sset = set(S)
        for (T, mg), cb in b.items():
            if sset & set(T):
                continue
            U = tuple(sorted(S + T))
            c = _merge_sign(S, T) * ca * cb
            for mono, k in face.monomial_product(mf, mg):
                _add_term(out, (U, mono), c * k, mod)
    return out


def _merge_sign(S, T):
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1


def star_product(a, b, q, ring, face):
    """Twisted product for the twist q (a TwistData): for each pair of
    terms, the integer normal ordering of a_S * a_T (q.normal_ordering)
    times the product of the face-ring parts, with the integer structure
    constants summed before the coefficient is applied."""
    out = {}
    mod = ring.modulus
    product = face.monomial_product
    for (S, mf), ca in a.items():
        for (T, mg), cb in b.items():
            ordering = q.normal_ordering(S, T, face)
            if not ordering:
                continue
            base = product(mf, mg)
            if not base:
                continue
            acc = {}
            for U, poly in ordering:
                for m1, k1 in base:
                    for m2, k2 in poly:
                        for m3, k3 in product(m1, m2):
                            key = (U, m3)
                            acc[key] = acc.get(key, 0) + k1 * k2 * k3
            c = ca * cb
            for key, k in acc.items():
                if k:
                    _add_term(out, key, c * k, mod)
    return out


def _normal_order_into(out, word, fcoef, q, ring, face):
    mod = ring.modulus
    stack = [(word, fcoef)]
    while stack:
        w, f = stack.pop()
        if not f:
            continue
        k = next((i for i in range(len(w) - 1) if w[i] >= w[i + 1]), None)
        if k is None:
            for mono, c in f.items():
                _add_term(out, (w, mono), c, mod)
            continue
        x, y = w[k], w[k + 1]
        rest = w[:k] + w[k + 2:]
        if x == y:
            qv = convert_element(q.get(x, x), ring)
            stack.append((rest, face.multiply(f, qv, ring)))
        else:
            flipped = w[:k] + (y, x) + w[k + 2:]
            stack.append((flipped, {m: ring.neg(c) for m, c in f.items()}))
            qv = convert_element(q.get(x, y), ring)
            stack.append((rest, face.multiply(f, qv, ring)))
    return out


def bidegree_basis(face, n, k, t):
    """Keys (S, m) with |S| = k and internal degree t, in canonical order:
    index sets lexicographically, then monomials in basis order."""
    if k < 0 or k > n:
        return ()
    monos = face.basis_of_degree(t - 2 * k)
    if not monos:
        return ()
    return tuple((S, mono)
                 for S in combinations(range(1, n + 1), k)
                 for mono in monos)

