"""Face rings of simplicial posets, with exact products and pullbacks.

A standard monomial t_{s1}^{i1} * ... * t_{sk}^{ik} is indexed by a
strictly increasing chain of nonempty faces with all exponents >= 1; the
standard monomials are a basis of the face ring over every coefficient
ring.  A monomial is stored as a tuple of (element id, exponent) pairs in
chain order, the empty tuple being 1, and a ring element is a dict
{monomial: coefficient}.  Generator t_s has degree 2 * rank(s).  The
exponent vector of a monomial sums the exponents over the vertices of each
element; monomials_from_exponents inverts it, with one standard monomial
per element rho whose vertex set is the support (zero or one on a
complex): chain_monomial, the chain below rho read off the Boolean
interval face_map[rho].

The structure constants a * b of two standard monomials are integers and
do not depend on the coefficient ring, so each face ring keeps one memo
of them, monomial_product, filled pair by pair in closed form: on a
simplicial complex by adding exponent vectors, on a poset by Stanley's
relation t_s * t_t = t_{s meet t} * sum of t_rho over the minimal upper
bounds rho of s and t, applied until the generators form a chain
(Stanley, "f-vectors and h-vectors of simplicial posets", JPAA 71, 1991).
multiply is the bilinear extension of that memo on complexes and posets
alike.

A pullback along a face map (FaceRingMap) is the product of its
generators' images, each a closed form over the same integer memo; it
solves no linear system.  The joint restriction to the polynomial rings of
the maximal faces is injective, and restrict with _resolve, one solver per
degree prepared over QQ, resolves an element against the standard basis
through it: no running path uses that route, which stays as the
independent oracle for products and pullbacks.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import CoefficientRing, ExactMatrix, PreparedSolver

_QQ = CoefficientRing.rationals()
_ZZ = CoefficientRing.integers()


class LimitPresentationError(RuntimeError):
    """A face-ring map or restriction system that cannot give a value:
    lift columns that do not respect the face map, or restrictions to the
    maximal faces that do not glue."""


def monomial_degree(poset, mono):
    return 2 * sum(i * poset.rank(e) for e, i in mono)


def format_monomial(mono):
    if not mono:
        return "1"
    return "*".join("t[%s]" % e + ("^%d" % i if i > 1 else "")
                    for e, i in mono)


def format_sum(terms, spaced=False):
    """The sum of c * text over the (c, text) pairs of terms, in order;
    text "" stands for 1.  Zero terms and unit coefficients are left out,
    constants printed bare, and each later term is joined by its sign:
    2*t[a]-t[b] unspaced, 2 g - g' spaced.  The empty sum is "0"."""
    sep = " " if spaced else ""
    times = sep or "*"
    out = []
    for c, text in terms:
        if not c:
            continue
        if not text:
            term = str(abs(c))
        elif abs(c) == 1:
            term = text
        else:
            term = "%s%s%s" % (abs(c), times, text)
        if out:
            out.append(("-" if c < 0 else "+") + sep + term)
        else:
            out.append("-" + term if c < 0 else term)
    return sep.join(out) or "0"


def format_element(f):
    """Deterministic human-readable form of a face-ring element."""
    return format_sum((f[mono], format_monomial(mono) if mono else "")
                      for mono in sorted(f, key=lambda m: (len(m), m)))


def convert_element(f, ring):
    """Convert the coefficients of a face-ring element, dropping zeros."""
    out = {}
    for mono, c in f.items():
        v = ring.convert(c)
        if v:
            out[mono] = v
    return out


class FaceRing:
    """The face ring of a simplicial poset (coefficients chosen per call)."""

    __slots__ = ("poset", "_mono_cache", "_system_cache", "_by_vset",
                 "_products", "_joins", "_positions")

    def __init__(self, poset):
        self.poset = poset
        self._mono_cache = {}
        self._system_cache = {}
        self._products = {}
        self._joins = {}
        self._positions = {}
        self._by_vset = {}
        for e in poset.elements:
            self._by_vset.setdefault(poset.vertex_set[e], []).append(e)

    def t_vertex(self, v):
        """The monomial t_v for a vertex id."""
        return ((self.poset.atom[v], 1),)

    def monomial_product(self, a, b):
        """a * b for standard monomials a and b, as a tuple of (monomial,
        int) pairs in basis_of_degree order, memoised per ordered pair.
        On a complex the product is the monomial of the summed exponent
        vectors, or zero when its support is not a face; on a poset it is
        the straightening of the generators of a and b (_straighten)."""
        key = (a, b)
        terms = self._products.get(key)
        if terms is None:
            if self.poset.is_complex:
                vec = [x + y for x, y in zip(self.exponent_vector(a),
                                             self.exponent_vector(b))]
                terms = tuple((mono, 1)
                              for mono in self.monomials_from_exponents(vec))
            else:
                gens = tuple(e for mono in (a, b) for e, i in mono
                             for _ in range(i))
                pos = self._basis_positions(
                    monomial_degree(self.poset, a)
                    + monomial_degree(self.poset, b))
                terms = tuple(sorted(self._straighten(gens).items(),
                                     key=lambda term: pos[term[0]]))
            self._products[key] = terms
        return terms

    def _straighten(self, gens):
        """The product of the generators t_e, e in gens, as {standard
        monomial: int}: Stanley's relation t_s * t_t = t_{s meet t} * (sum
        of t_rho over the minimal upper bounds rho of s and t), zero when
        there is none, replaces an incomparable pair until the generators
        of every term form a chain; t_bottom is 1."""
        p = self.poset
        out = {}
        stack = [gens]
        while stack:
            gens = stack.pop()
            pair = next(((i, j) for j in range(len(gens)) for i in range(j)
                         if not (p.le(gens[i], gens[j])
                                 or p.le(gens[j], gens[i]))), None)
            if pair is None:
                counts = {}
                for e in gens:
                    counts[e] = counts.get(e, 0) + 1
                mono = tuple(sorted(counts.items(),
                                    key=lambda term: p.rank(term[0])))
                out[mono] = out.get(mono, 0) + 1
                continue
            i, j = pair
            meet, uppers = self._meet_and_joins(gens[i], gens[j])
            rest = gens[:i] + gens[i + 1:j] + gens[j + 1:] + meet
            stack.extend(rest + (rho,) for rho in uppers)
        return out

    def _meet_and_joins(self, s, t):
        """((s meet t,) or () when the meet is the bottom, the elements of
        rank |V(s) u V(t)| above s and t), memoised per pair.  The meet
        lies in the Boolean interval below any common upper bound rho:
        face_map[rho][V(s) & V(t)]."""
        key = (s, t)
        found = self._joins.get(key)
        if found is None:
            p = self.poset
            vs, vt = p.vertex_set[s], p.vertex_set[t]
            uppers = tuple(rho for rho in p.by_rank.get(len(vs | vt), ())
                           if p.le(s, rho) and p.le(t, rho))
            meet = ()
            if uppers:
                m = p.face_map[uppers[0]][vs & vt]
                if m != p.bottom:
                    meet = (m,)
            found = self._joins[key] = (meet, uppers)
        return found

    def _basis_positions(self, d):
        """{standard monomial: position in basis_of_degree(d)}."""
        pos = self._positions.get(d)
        if pos is None:
            pos = self._positions[d] = {
                mono: i for i, mono in enumerate(self.basis_of_degree(d))}
        return pos

    def basis_of_degree(self, d):
        """All standard monomials of the given degree, canonically ordered."""
        if d < 0 or d % 2:
            return ()
        return self._monos_below(None, d // 2)

    def _monos_below(self, top, m):
        key = (top, m)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        if m == 0:
            out = ((),)
        else:
            p = self.poset
            pool = (p.elements if top is None
                    else [e for e in p.elements if e != top and p.le(e, top)])
            found = []
            for e in pool:
                r = p.rank(e)
                if r == 0 or r > m:
                    continue
                for i in range(1, m // r + 1):
                    for tail in self._monos_below(e, m - i * r):
                        found.append(tail + ((e, i),))
            out = tuple(found)
        self._mono_cache[key] = out
        return out

    def face_vertices(self, tau):
        p = self.poset
        return tuple(p.vertices[i] for i in p.vkey[tau])

    def restrict(self, f, tau):
        """Restriction to the polynomial ring on V(tau): maps a ring element
        to {dense exponent tuple over face_vertices(tau): coefficient}.
        Generators t_s with s <= tau go to squarefree monomials, others to 0.
        """
        p = self.poset
        verts = self.face_vertices(tau)
        idx = {v: i for i, v in enumerate(verts)}
        out = {}
        for mono, c in f.items():
            if not all(p.le(e, tau) for e, _ in mono):
                continue
            acc = [0] * len(verts)
            for e, i in mono:
                for vp in p.vkey[e]:
                    acc[idx[p.vertices[vp]]] += i
            key = tuple(acc)
            w = out.get(key, 0) + c
            if w:
                out[key] = w
            else:
                out.pop(key, None)
        return out

    def exponent_vector(self, mono):
        """Multidegree: dense exponent tuple over the poset vertex order."""
        p = self.poset
        acc = [0] * len(p.vertices)
        for e, i in mono:
            for vp in p.vkey[e]:
                acc[vp] += i
        return tuple(acc)

    def monomials_from_exponents(self, vec):
        """The standard monomials with exponent vector vec, in
        basis_of_degree order: one per element rho whose vertex set is the
        support of vec (zero or one on a complex), each chain_monomial."""
        supp = frozenset(v for v, x in zip(self.poset.vertices, vec) if x)
        return tuple(self.chain_monomial(rho, vec)
                     for rho in self._by_vset.get(supp, ()))

    def chain_monomial(self, rho, vec):
        """The standard monomial with exponent vector vec whose top element
        is rho, an element whose vertex set is the support of vec: the
        chain below rho read off face_map[rho]."""
        p = self.poset
        below = p.face_map[rho]
        rest = list(vec)
        live, e = [i for i, x in enumerate(vec) if x], rho
        chain = []
        while live:
            low = min(rest[i] for i in live)
            chain.append((e, low))
            for i in live:
                rest[i] -= low
            live = [i for i in live if rest[i]]
            if live:
                e = below[frozenset(p.vertices[i] for i in live)]
        return tuple(reversed(chain))

    def multiply(self, f, g, ring):
        """Product of two elements with coefficients in ring: the bilinear
        extension of monomial_product."""
        mod = ring.modulus
        out = {}
        for a, ca in f.items():
            for b, cb in g.items():
                c = ca * cb
                if mod:
                    c %= mod
                if not c:
                    continue
                for mono, k in self.monomial_product(a, b):
                    w = out.get(mono, 0) + (c if k == 1 else c * k)
                    if mod:
                        w %= mod
                    if w:
                        out[mono] = w
                    else:
                        out.pop(mono, None)
        return out

    def _degree_system(self, d):
        """(basis, row index, prepared solver) for the joint restriction of
        the degree-d component into the maximal polynomial rings."""
        cached = self._system_cache.get(d)
        if cached is not None:
            return cached
        basis = self.basis_of_degree(d)
        rowidx = {}
        cols = []
        one = Fraction(1)
        for mono in basis:
            col = {}
            for ti, tau in enumerate(self.poset.maximal):
                r = self.restrict({mono: one}, tau)
                if r:
                    (key,) = r
                    row = rowidx.setdefault((ti, key), len(rowidx))
                    col[row] = one
            cols.append(col)
        solver = PreparedSolver(
            ExactMatrix.from_columns(cols, len(rowidx), _QQ))
        if not solver.full_column_rank:
            raise LimitPresentationError(
                "joint restriction is not injective in degree %d" % d)
        out = (basis, rowidx, solver)
        self._system_cache[d] = out
        return out

    def _resolve(self, h_by_degree, ring):
        """Solve the joint-restriction system per degree and convert the
        monomial coordinates into ring."""
        out = {}
        for d in sorted(h_by_degree):
            h = h_by_degree[d]
            basis, rowidx, solver = self._degree_system(d)
            b = {}
            for rk, c in h.items():
                row = rowidx.get(rk)
                if row is None:
                    raise LimitPresentationError(
                        "restriction value outside the face ring in "
                        "degree %d" % d)
                b[row] = c
            x = solver.solve(b)
            if x is None:
                raise LimitPresentationError(
                    "inconsistent restriction system in degree %d" % d)
            for col, c in x.items():
                v = ring.convert(c)
                if v:
                    out[basis[col]] = v
        return out


class FaceRingMap:
    """Degree-preserving ring map k[target] -> k[source] induced by a face
    map nu (source poset elements -> target poset elements) and integer
    vertex columns {source vertex: {target vertex: int}}.

    With L_v = sum over source vertices v' of col[v'][v] * t_{v'}, the
    image of t_tau is the product of L_v over the vertices v of tau, taken
    through the integer product memo, less the monomials whose top element
    rho misses tau <= nu(rho): a product of vertex generators is the sum of
    the standard monomials of its exponent vector, one per element rho
    over its support.  A monomial maps to the product of its generators'
    images.  Columns that do not respect nu (col[v'][v] nonzero with v
    outside V(nu(v'))) raise LimitPresentationError when the map is called.
    """

    __slots__ = ("target", "source", "nu", "columns", "_stray")

    def __init__(self, target, source, nu, columns):
        self.target = target
        self.source = source
        self.nu = dict(nu)
        self.columns = {v: dict(col) for v, col in columns.items()}
        sp, tp = source.poset, target.poset
        for e in sp.elements:
            img = self.nu.get(e)
            if img is None:
                raise ValueError("nu does not cover source element %r" % e)
            if img not in tp.vertex_set:
                raise ValueError("nu image %r is not a target element" % img)
        if self.nu[sp.bottom] != tp.bottom:
            raise ValueError("nu must send the empty face to the empty face")
        for vp in self.columns:
            if vp not in sp.atom:
                raise ValueError("column key %r is not a source vertex"
                                 % (vp,))
        self._stray = [(vp, v) for vp, col in self.columns.items()
                       for v, a in col.items()
                       if a and v not in tp.vertex_set[self.nu[sp.atom[vp]]]]

    def __call__(self, f, ring):
        if self._stray:
            raise LimitPresentationError(
                "lift columns reach outside nu of their vertex: %r"
                % (self._stray,))
        out = {}
        for mono, c in convert_element(f, ring).items():
            img = {(): c}
            for e, i in mono:
                gen = convert_element(self._generator_image(e), ring)
                for _ in range(i):
                    img = self.source.multiply(img, gen, ring)
            for m, v in img.items():
                out[m] = out.get(m, 0) + v
        return convert_element(out, ring)

    def _generator_image(self, tau):
        """The image of t_tau, over ZZ."""
        src, tp = self.source, self.target.poset
        img = {(): 1}
        for v in self.target.face_vertices(tau):
            img = src.multiply(img, {src.t_vertex(vp): col[v]
                                     for vp, col in self.columns.items()
                                     if col.get(v)}, _ZZ)
        return {mono: c for mono, c in img.items()
                if tp.le(tau, self.nu[mono[-1][0]])}


def pullback(target, source, nu, columns, f, ring):
    """One-shot face-ring pullback; see FaceRingMap."""
    return FaceRingMap(target, source, nu, columns)(f, ring)
