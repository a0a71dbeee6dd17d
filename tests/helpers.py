"""Shared strategies and small builders for the test suite, and the
test-only helpers the library does not need: dense matrix builders and
readers, the Koszul element printer and total-degree bases, and the
universal-coefficient cross-check of the Tor tables."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import assume
import hypothesis.strategies as st

from facetor.exactalg import CoefficientRing, ExactMatrix
from facetor.facering import FaceRing, format_monomial, format_sum
from facetor.koszul import bidegree_basis, compute_q
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.torcohomology import compute_tor, product_table
from facetor.toricmorphism import Lift


def dense(rows, ring, ncols=None):
    """The ExactMatrix of a list of dense rows over ring."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    return ExactMatrix.from_columns(
        [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)],
        len(rows), ring)


def to_dense(A):
    """The rows of A as dense lists, zeros in the ring's zero."""
    z = A.ring.zero()
    out = [[z] * A.ncols for _ in range(A.nrows)]
    for i, row in A.rows.items():
        for j, v in row.items():
            out[i][j] = v
    return out


def mul_vec(A, x):
    """A times a sparse column vector, as a sparse dict."""
    mod = A.ring.modulus
    out = {}
    for i, row in A.rows.items():
        s = sum(row[j] * x[j] for j in row.keys() & x.keys())
        if mod:
            s %= mod
        if s:
            out[i] = s
    return out


def format_koszul(z):
    """Deterministic human-readable form, terms ordered by (S, mono)."""
    terms = []
    for S, mono in sorted(z, key=lambda key: (len(key[0]), key)):
        bits = ["".join("a[%d]" % i for i in S)] if S else []
        if mono:
            bits.append(format_monomial(mono))
        terms.append((z[S, mono], "*".join(bits)))
    return format_sum(terms)


def total_degree_basis(data, d, face=None):
    """Deterministic ordered basis of the total-degree-d component: the
    bidegree bases (-k, d + k), largest k first."""
    if face is None:
        face = FaceRing(data.poset)
    return tuple(key for k in range(min(data.n, d), -1, -1)
                 for key in bidegree_basis(face, data.n, k, d + k))


def uct_report(data, p, bound=None):
    """Universal-coefficient consistency of the mod-p table against the
    rational and integral ones; returns a list of problem strings."""
    table_q = compute_tor(data, CoefficientRing.rationals(), bound=bound)
    table_z = compute_tor(data, CoefficientRing.integers(), bound=bound)
    table_p = compute_tor(data, CoefficientRing.integers_mod(p), bound=bound)

    def tp(bd):
        return sum(1 for d in table_z.torsion(bd) if d % p == 0)

    problems = []
    seen = set(table_q.entries) | set(table_z.entries) | set(table_p.entries)
    for bd in sorted(seen):
        rq = table_q.rank(bd)
        if rq != table_z.rank(bd):
            problems.append("free rank mismatch at %r: QQ %d vs ZZ %d"
                            % (bd, rq, table_z.rank(bd)))
        expected = rq + tp(bd) + tp((bd[0] + 1, bd[1]))
        got = table_p.rank(bd)
        if got != expected:
            problems.append(
                "mod-%d dimension at %r is %d, universal coefficients "
                "predict %d" % (p, bd, got, expected))
    return problems


def _lift(f):
    return {mono: Fraction(c) for mono, c in f.items()}


def _poly_mul_linear(poly, form):
    """Multiply a dense-exponent-keyed polynomial by a linear form given as
    {variable position: coefficient}."""
    out = {}
    for key, c in poly.items():
        for pos, a in form.items():
            k2 = key[:pos] + (key[pos] + 1,) + key[pos + 1:]
            w = out.get(k2, 0) + c * a
            if w:
                out[k2] = w
            else:
                out.pop(k2, None)
    return out


def pullback_restrictions(fmap, f):
    """Restrictions of the pullback of f to every maximal source face, by
    restricting f to nu of the face and substituting the linear forms the
    columns give, bucketed as {degree: {(maximal index, exponent tuple):
    QQ coefficient}}: with fmap.source._resolve, the restriction oracle
    for FaceRingMap.  Restrictions that do not glue make _resolve raise
    LimitPresentationError."""
    fq = _lift(f)
    src, tgt = fmap.source, fmap.target
    h = {}
    for ti, tau_s in enumerate(src.poset.maximal):
        tau_t = fmap.nu[tau_s]
        p = tgt.restrict(fq, tau_t)
        if not p:
            continue
        sverts = src.face_vertices(tau_s)
        spos = {v: i for i, v in enumerate(sverts)}
        forms = []
        for v in tgt.face_vertices(tau_t):
            form = {}
            for v2 in sverts:
                a = fmap.columns.get(v2, {}).get(v, 0)
                if a:
                    form[spos[v2]] = Fraction(a)
            forms.append(form)
        acc = {}
        for expvec, c in p.items():
            term = {(0,) * len(sverts): c}
            for pos, a in enumerate(expvec):
                for _ in range(a):
                    term = _poly_mul_linear(term, forms[pos])
            for key, cc in term.items():
                w = acc.get(key, 0) + cc
                if w:
                    acc[key] = w
                else:
                    del acc[key]
        for key, c in acc.items():
            h.setdefault(2 * sum(key), {})[(ti, key)] = c
    return h


def product_restrictions(face, f, g):
    """Restrictions of f*g to every maximal face of a face ring, bucketed
    by degree as {degree: {(maximal index, exponent tuple): QQ
    coefficient}}: with face._resolve, the restriction oracle for the
    face ring's products."""
    fq, gq = _lift(f), _lift(g)
    h = {}
    for ti, tau in enumerate(face.poset.maximal):
        pf = face.restrict(fq, tau)
        if not pf:
            continue
        pg = face.restrict(gq, tau)
        if not pg:
            continue
        prod = {}
        for a, ca in pf.items():
            for b, cb in pg.items():
                key = tuple(x + y for x, y in zip(a, b))
                prod[key] = prod.get(key, 0) + ca * cb
        for key, c in prod.items():
            if c:
                h.setdefault(2 * sum(key), {})[(ti, key)] = c
    return h


def double_edge_poset():
    """Two vertices joined by two distinct edges (not a complex)."""
    return SimplicialPoset.from_elements([
        ("0", [], []), ("a", ["a"], ["0"]), ("b", ["b"], ["0"]),
        ("e1", ["a", "b"], ["a", "b"]), ("e2", ["a", "b"], ["a", "b"]),
    ], vertices=["a", "b"])


def solid_simplex(k):
    verts = [chr(97 + i) for i in range(k + 1)]
    return SimplicialPoset.from_facets([verts], vertices=verts)


def cycle_facets(n):
    return [[str(i + 1), str((i + 1) % n + 1)] for i in range(n)]


def cstar2_data():
    """Two disjoint vertices in rank 3 with two ghost vertices."""
    poset = SimplicialPoset.from_facets([["v"], ["w"]], vertices=["v", "w"])
    chi = {"v": (1, 1, 1), "w": (-1, -1, -1),
           "g1": (1, 0, 0), "g2": (0, 1, 0)}
    return CharacteristicData(poset, ["v", "w", "g1", "g2"], chi, 3,
                              name="cstar2-p1")


def seed_lift(phi, columns):
    """Put a lift with the given columns in phi's memo, where hat_q and the
    chain maps read it, in place of the one lift would build."""
    phi._cache["lift"] = Lift(phi, columns)
    return phi


def rebased(data):
    """data after a unimodular change of lattice basis of chi: row 2 +=
    row 1 (row 1 negated in rank 1).  The new chi is not the identity, so
    compute_tor solves each bidegree whole; theta'_i = sum_j A_ij theta_j
    makes the two Koszul complexes isomorphic, so their rank and torsion
    tables agree: the reference for the multidegree blocks."""
    def move(col):
        if len(col) == 1:
            return (-col[0],)
        return (col[0], col[1] + col[0]) + col[2:]
    return CharacteristicData(data.poset, data.vertices,
                              {v: move(col) for v, col in data.chi.items()},
                              data.n, name=data.name)


@st.composite
def small_complex_facets(draw, max_vertices=5, max_facets=6):
    nv = draw(st.integers(0, max_vertices))
    verts = [chr(97 + i) for i in range(nv)]
    facets = []
    if nv:
        for _ in range(draw(st.integers(0, max_facets))):
            facets.append(draw(st.lists(
                st.sampled_from(verts), min_size=1, max_size=nv, unique=True)))
    return facets, verts


def _primitive_vectors(n, bound=2):
    out = []

    def rec(prefix):
        if len(prefix) == n:
            g = 0
            for x in prefix:
                g = gcd(g, x)
            if g == 1:
                out.append(tuple(prefix))
            return
        for x in range(-bound, bound + 1):
            rec(prefix + [x])

    rec([])
    return out


_PRIMITIVE = {n: _primitive_vectors(n) for n in (1, 2, 3)}
_PRIMITIVE_SMALL = {n: _primitive_vectors(n, 1) for n in (2, 3)}


@st.composite
def small_characteristic_data(draw, max_vertices=4, n_max=3):
    """Validated characteristic data on a random small complex, facet sizes
    capped at the lattice rank, with up to two ghost vertices."""
    n = draw(st.integers(1, n_max))
    nv = draw(st.integers(0, max_vertices))
    verts = [chr(97 + i) for i in range(nv)]
    facets = []
    if nv:
        for _ in range(draw(st.integers(0, 5))):
            facets.append(draw(st.lists(
                st.sampled_from(verts), min_size=1,
                max_size=min(nv, n), unique=True)))
    poset = SimplicialPoset.from_facets(facets, vertices=verts)
    ambient = list(poset.vertices)
    for i in range(draw(st.integers(0, 2))):
        ambient.append("z%d" % i)
    chi = {v: draw(st.sampled_from(_PRIMITIVE[n])) for v in ambient}
    data = CharacteristicData(poset, ambient, chi, n)
    assume(data.validate() == [])
    return data


def rp2_facets():
    """Six vertex triangulation of the real projective plane."""
    return [["1", "2", "3"], ["1", "3", "4"], ["1", "4", "5"],
            ["1", "2", "6"], ["1", "5", "6"], ["2", "3", "5"],
            ["2", "4", "5"], ["2", "4", "6"], ["3", "4", "6"],
            ["3", "5", "6"]]


def _extends_to_basis(vectors):
    """Whether integer vectors are part of a lattice basis: the gcd of
    their maximal minors, expanded by cofactors, is 1."""
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * rows[0][j]
                   * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(len(rows)))

    k, n = len(vectors), len(vectors[0])
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, det([[v[c] for c in cols] for v in vectors]))
    return g == 1


@st.composite
def small_poset_data(draw, max_vertices=4, n_max=3, max_copies=2):
    """Characteristic data on a random simplicial poset in the style of
    the doubled polygons: every vertex pair whose chi vectors extend to a
    lattice basis gets up to max_copies parallel edges, and in rank 3 the
    triangle abc may get two parallel 2-faces.  Random chi, up to two
    ghost vertices; often not a complex."""
    n = draw(st.integers(2, n_max))
    nv = draw(st.integers(2, max_vertices))
    verts = [chr(97 + i) for i in range(nv)]
    ambient = verts + ["z%d" % i for i in range(draw(st.integers(0, 2)))]
    chi = {v: draw(st.sampled_from(_PRIMITIVE_SMALL[n])) for v in ambient}
    triangle = n == 3 and nv >= 3 and draw(st.booleans())
    if triangle:  # chi on a, b, c spans the lattice
        chi["a"], chi["b"] = (1, 0, 0), (0, 1, 0)
        chi["c"] = draw(st.sampled_from(
            [x for x in _PRIMITIVE_SMALL[3] if x[2] in (1, -1)]))
    sides = list(combinations("abc", 2)) if triangle else []
    items = [("0", [], [])] + [(v, [v], ["0"]) for v in verts]
    edges = {}
    for a, b in combinations(verts, 2):
        if _extends_to_basis([chi[a], chi[b]]):
            least = 1 if (a, b) in sides else 0
            copies = draw(st.integers(least, max_copies)
                          | st.just(max_copies))
            edges[(a, b)] = ["%s%s%d" % (a, b, i) for i in range(copies)]
            items += [(e, [a, b], [a, b]) for e in edges[(a, b)]]
    if triangle:
        covers = [edges[pair][0] for pair in sides]
        items += [("T%d" % i, ["a", "b", "c"], covers) for i in range(2)]
    poset = SimplicialPoset.from_elements(items, vertices=verts)
    data = CharacteristicData(poset, ambient, chi, n)
    assert data.validate() == []
    return data


# Simplicial spheres as (d, facets over 0..m-1), d the facet size: the
# polygon boundaries on 3 to 6 vertices and the simplex boundaries of
# dimension 0 to 2.
_SPHERES = ([(2, [[i, (i + 1) % k] for i in range(k)]) for k in range(3, 7)]
            + [(d, [list(f) for f in combinations(range(d + 1), d)])
               for d in (1, 2, 3)])


@st.composite
def sphere_data(draw, n_max=3):
    """Characteristic data on a simplicial sphere: a join of the spheres
    of _SPHERES with facets of at most n_max vertices, in a lattice of
    rank n between the facet size and n_max.  chi is drawn one vertex at
    a time among the primitive vectors with entries in {-1, 0, 1} that
    keep every facet part of a lattice basis.  X is then a closed
    orientable manifold of dimension n + d, d the facet size."""
    facets, d = [[]], 0
    while d < n_max and (d == 0 or draw(st.booleans())):
        piece_d, piece = draw(st.sampled_from(
            [sphere for sphere in _SPHERES if d + sphere[0] <= n_max]))
        tag = chr(97 + d)
        facets = [f + ["%s%d" % (tag, v) for v in g]
                  for f in facets for g in piece]
        d += piece_d
    poset = SimplicialPoset.from_facets(facets)
    n = draw(st.integers(d, n_max))
    vectors = _primitive_vectors(n, 1)
    chi = {}
    for v in poset.vertices:
        fits = [x for x in vectors
                if all(_extends_to_basis([chi[u] for u in f if u in chi]
                                         + [x])
                       for f in facets if v in f)]
        assume(fits)
        chi[v] = draw(st.sampled_from(fits))
    data = CharacteristicData(poset, poset.vertices, chi, n)
    assert data.validate() == []
    return data


def poincare_duality_problems(data, ring):
    """Poincare duality of X = Z_P x_{T^m} T^n over a field, for sphere
    data, where X is a closed orientable manifold of dimension N = n + d
    (d the largest element rank): rank H^N = 1, rank H^j = rank H^(N-j)
    for every j up to the table bound (zero above N), and the pairing
    H^j x H^(N-j) -> H^N of the twisted product table is perfect.  N is
    read off the poset here, not off the table.  Returns a list of
    problem strings."""
    table = compute_tor(data, ring)
    top = data.n + max(len(vs) for vs in data.poset.vertex_set.values())
    ranks = [table.layout(j).size for j in range(table.bound + 1)]
    problems = []
    if ranks[top] != 1:
        problems.append("rank H^%d is %d, not 1" % (top, ranks[top]))
    for j, r in enumerate(ranks):
        dual = ranks[top - j] if j <= top else 0
        if r != dual:
            problems.append("rank H^%d is %d, rank H^%d is %d"
                            % (j, r, top - j, dual))
    if problems:
        return problems
    products = product_table(table, compute_q(data))
    by_total = {}
    for g in table.generator_list():
        by_total.setdefault(g.total, []).append(g.gid)
    for j in range(top + 1):
        left, right = by_total.get(j, ()), by_total.get(top - j, ())
        pairing = ExactMatrix(len(left), len(right), ring)
        for a, ga in enumerate(left):
            for b, gb in enumerate(right):
                pairing.set(a, b, products.product(ga, gb).coords[0])
        if left and pairing.rank() != len(left):
            problems.append("the pairing of H^%d with H^%d is degenerate"
                            % (j, top - j))
    return problems


# The quotient-large document of the quotient-cli benchmark at its default
# seed: a partial quotient on six vertices in a rank-4 lattice, one large
# Smith form per bidegree.
QUOTIENT_LARGE = {
    "name": "quotient-large", "lattice_rank": 4,
    "vertices": [{"id": "x1", "chi": [1, 0, 0, 0]},
                 {"id": "x2", "chi": [0, 1, -1, 0]},
                 {"id": "x3", "chi": [0, 0, 0, -1]},
                 {"id": "x4", "chi": [-1, 1, 0, -1]},
                 {"id": "x5", "chi": [0, 0, -1, 0]},
                 {"id": "x6", "chi": [0, 0, -1, 0]}],
    "facets": [["x1", "x2", "x4", "x6"], ["x1", "x2", "x6"], ["x1", "x5"],
               ["x1", "x5"], ["x2", "x3", "x5"], ["x2", "x3"],
               ["x1", "x3", "x4"]],
}


def _doubled_polygon_elements(k):
    """Boundary of a k-gon with every edge doubled, as document elements."""
    out = [{"id": "0", "vertices": [], "covers": []}]
    out += [{"id": "v%d" % i, "vertices": [str(i)], "covers": ["0"]}
            for i in range(1, k + 1)]
    for i in range(1, k + 1):
        j = i % k + 1
        out += [{"id": "e%d%s" % (i, tag), "vertices": [str(i), str(j)],
                 "covers": ["v%d" % i, "v%d" % j]} for tag in "ab"]
    return out


# Quotient data on the doubled pentagon, a simplicial poset that is not a
# complex: the rays of the smooth complete pentagon fan on its vertices.
DOUBLED_PENTAGON = {
    "name": "doubled-5-gon", "lattice_rank": 2,
    "vertices": [{"id": str(i + 1), "chi": chi} for i, chi in enumerate(
        [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]])],
    "elements": _doubled_polygon_elements(5),
}


# The doubled hexagon, with the rays of the smooth complete hexagon fan.
DOUBLED_HEXAGON = {
    "name": "doubled-6-gon", "lattice_rank": 2,
    "vertices": [{"id": str(i + 1), "chi": chi} for i, chi in enumerate(
        [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]])],
    "elements": _doubled_polygon_elements(6),
}


def subset_block_keys(table, mu, k, t):
    """The basis keys of block mu with |S| = k in internal degree t on a
    squarefree table, by trying every k-subset S of the support of mu:
    the monomials of exponent vector mu - S, none when that vector is
    positive on a ghost vertex.  The oracle for TorTable._block_keys."""
    if k < 0:
        return ()
    keys = []
    for S in combinations([i + 1 for i, x in enumerate(mu) if x], k):
        rest = list(mu)
        for i in S:
            rest[i - 1] -= 1
        vec = [0] * len(table.face.poset.vertices)
        for x, p in zip(rest, table._poset_pos):
            if x:
                if p is None:  # t_v vanishes on a ghost
                    break
                vec[p] = x
        else:
            keys.extend((S, mono)
                        for mono in table.face.monomials_from_exponents(vec))
    return tuple(keys)
