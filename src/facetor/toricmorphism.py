"""Morphisms of characteristic data and the maps they induce.

A morphism is a pair (A, nu): an integer matrix mapping the source lattice
into the target lattice together with a face map nu from the source poset
to the target poset, subject to the carrier condition that A sends the
vector of each source vertex into the nonnegative span of the vectors on
nu of that vertex.  From the pair everything else is derived: the lifted
matrix on vertex coordinates, the twisting corrections q_hat, the chain
maps (plain and corrected), and the induced maps between Tor tables.
"""

from .exactalg import CoefficientRing, ExactMatrix
from .facering import FaceRing, FaceRingMap, convert_element
from .koszul import (TwistData, _add_term, compute_q, double_contract,
                     star_product, wedge_product)
from .simplicial import CharacteristicData, _integer, \
    same_data as _same_data
from .torcohomology import CohomologyClass, _combination

_ZZ = CoefficientRing.integers()


class ToricMorphism:
    """A lattice map with a compatible face map.

    A has target.n rows and source.n columns; nu maps every source poset
    element to a target poset element.  Ghost vertices are not in the
    posets and need no nu value.
    """

    __slots__ = ("source", "target", "A", "nu", "name", "_cache")

    def __init__(self, source, target, A, nu, name=""):
        self.source = source
        self.target = target
        self.A = tuple(tuple(_integer(x, "matrix entry A[%d][%d]", i, j)
                             for j, x in enumerate(row))
                       for i, row in enumerate(A))
        if len(self.A) != target.n or any(len(row) != source.n
                                          for row in self.A):
            raise ValueError("matrix must be %d x %d, got %d x %d"
                             % (target.n, source.n, len(self.A),
                                len(self.A[0]) if self.A else 0))
        self.nu = dict(nu)
        self.name = name
        self._cache = {}

    def apply_lattice(self, x):
        """A applied to a source lattice vector."""
        return tuple(sum(row[j] * x[j] for j in range(self.source.n))
                     for row in self.A)

    def validate(self):
        """List of problems; empty means the morphism is valid."""
        problems = []
        src, tgt = self.source.poset, self.target.poset
        for e in src.elements:
            img = self.nu.get(e)
            if img is None:
                problems.append("nu is missing source element %r" % e)
            elif img not in tgt.vertex_set:
                problems.append("nu image %r of %r is not a target element"
                                % (img, e))
        if problems:
            return problems
        if self.nu[src.bottom] != tgt.bottom:
            problems.append("nu must send the empty face to the empty face")
        for e in src.elements:
            for c in src.covers[e]:
                if not tgt.le(self.nu[c], self.nu[e]):
                    problems.append(
                        "nu is not order-preserving: %r < %r but %r is "
                        "not a face of %r" % (c, e, self.nu[c], self.nu[e]))
        for vp in src.vertices:
            tau = self.nu[src.atom[vp]]
            b = self.apply_lattice(self.source.chi[vp])
            sol = self._carrier_solve(tau, b)
            if sol is None:
                problems.append(
                    "A maps vertex %r to %s, which is not an integer "
                    "combination of the vectors on %r" % (vp, list(b), tau))
            elif any(c < 0 for c in sol.values()):
                problems.append(
                    "A maps vertex %r to a combination with negative "
                    "coefficients over %r" % (vp, tau))
        return problems

    def _carrier_solve(self, tau, b):
        """Integer coefficients over the vertices of the target face tau
        with A x = b, or None; keys are target vertex ids."""
        tgt = self.target
        carrier = sorted(tgt.poset.vertex_set[tau],
                         key=tgt.vertex_index.__getitem__)
        bs = {i: x for i, x in enumerate(b) if x}
        if not carrier:
            return {} if not bs else None
        cols = [{i: x for i, x in enumerate(tgt.chi[v]) if x}
                for v in carrier]
        sol = ExactMatrix.from_columns(cols, tgt.n, _ZZ).solve(bs)
        if sol is None:
            return None
        return {carrier[k]: c for k, c in sol.items() if c}

    def ensure_valid(self):
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def __repr__(self):
        return "<ToricMorphism %r: %r -> %r>" % (
            self.name, self.source.name, self.target.name)


def validate_morphism(phi):
    """List of problems; empty means the morphism is valid."""
    return phi.validate()


class Lift:
    """Integer columns {source vertex: {target vertex: coefficient}} of the
    matrix on vertex coordinates covering A, as lift builds them.  It keeps
    phi's name, not phi, so a morphism's memo holds no reference back to
    the morphism."""

    __slots__ = ("name", "columns", "is_identity")

    def __init__(self, phi, columns):
        src, tgt = phi.source, phi.target
        self.name = phi.name
        self.columns = columns
        self.is_identity = src.vertices == tgt.vertices and all(
            columns[vp] == {vp: 1} for vp in src.vertices)

    def __repr__(self):
        return "<Lift of %r>" % (self.name,)


def lift(phi):
    """The matrix on vertex coordinates covering A.

    Columns of poset vertices are the unique nonnegative solutions over
    the carrier nu(v'); a ghost column takes the matching target vertex
    when ids and vectors agree and falls back to an arbitrary integral
    solve otherwise.  hat_q and the chain maps read only the columns of
    poset vertices, since t_v = 0 for a ghost.
    """
    phi.ensure_valid()
    src, tgt = phi.source, phi.target
    columns = {}
    for vp in src.vertices:
        b = phi.apply_lattice(src.chi[vp])
        if vp not in src.ghosts:
            # ensure_valid checked this solve is nonnegative
            columns[vp] = phi._carrier_solve(phi.nu[src.poset.atom[vp]], b)
        elif vp in tgt.vertex_index and tgt.chi[vp] == b:
            columns[vp] = {vp: 1}
        else:
            bs = {i: x for i, x in enumerate(b) if x}
            sol = tgt.chi_matrix().solve(bs)
            if sol is None:
                raise ValueError("no integral lift column for ghost %r"
                                 % (vp,))
            columns[vp] = {tgt.vertices[i]: c for i, c in sol.items() if c}
    return Lift(phi, columns)


def hat_q(phi):
    """Twisting corrections of the lift: for 1 <= j < i <= n a degree-2
    element of the source face ring,

        q^_ij = -sum over source vertices v' of
                ( sum_v a(a-1)/2 x_v^i x_v^j
                  + sum_{v<w} a_v a_w x_v^i x_w^j ) t_{v'},

    where a runs over the column of v'.  Ghost source vertices contribute
    nothing, so the output never depends on ghost column choices.
    """
    lft = _memo(phi, "lift", lift)
    tgt = phi.target
    n = tgt.n
    q = {}
    for vp in phi.source.poset.vertices:
        col = lft.columns[vp]
        support = [v for v in tgt.vertices if col.get(v)]
        if not support:
            continue
        tvp = ((phi.source.poset.atom[vp], 1),)
        for i in range(2, n + 1):
            for j in range(1, i):
                total = 0
                for v in support:
                    a = col[v]
                    total += a * (a - 1) // 2 * tgt.chi[v][i - 1] \
                        * tgt.chi[v][j - 1]
                for s in range(len(support)):
                    for t in range(s + 1, len(support)):
                        v, w = support[s], support[t]
                        total += col[v] * col[w] * tgt.chi[v][i - 1] \
                            * tgt.chi[w][j - 1]
                if total:
                    _add_term(q.setdefault((i, j), {}), tvp, -total, 0)
    return TwistData(n, q)


def _memo(phi, key, build):
    """phi's value under key, built by build(phi) on first use."""
    if key not in phi._cache:
        phi._cache[key] = build(phi)
    return phi._cache[key]


class _ChainMaps:
    """Evaluation caches for the chain maps of one morphism and ring; kept
    in the morphism's memo, so they hold no reference to the morphism."""

    __slots__ = ("ring", "face", "twist", "ringmap", "rows", "hatq",
                 "_words", "_fimage")

    def __init__(self, phi, ring):
        self.ring = ring
        self.face = FaceRing(phi.source.poset)
        self.twist = compute_q(phi.source)
        lft = _memo(phi, "lift", lift)
        columns = {vp: lft.columns[vp] for vp in phi.source.poset.vertices}
        self.ringmap = FaceRingMap(FaceRing(phi.target.poset), self.face,
                                   phi.nu, columns)
        self.rows = {}
        for i in range(1, phi.target.n + 1):
            row = {}
            for j in range(1, phi.source.n + 1):
                a = phi.A[i - 1][j - 1]
                if a:
                    row[((j,), ())] = ring.convert(a)
            self.rows[i] = row
        self.hatq = {pair: convert_element(val, ring)
                     for pair, val in _memo(phi, "hatq", hat_q).q.items()}
        self._words = {}
        self._fimage = {}

    def _star(self, a, b):
        return star_product(a, b, self.twist, self.ring, self.face)

    def _wedge(self, a, b):
        return wedge_product(a, b, self.ring, self.face)

    def _word(self, product, S):
        """Left-to-right product of the pulled-back generators a_i, i in S,
        cached per product."""
        key = (product.__name__, S)
        if key not in self._words:
            self._words[key] = (
                product(self._word(product, S[:-1]), self.rows[S[-1]]) if S
                else {((), ()): self.ring.one()})
        return self._words[key]

    def _face_image(self, mono):
        if mono not in self._fimage:
            img = self.ringmap({mono: self.ring.one()}, self.ring)
            self._fimage[mono] = {((), m): c for m, c in img.items()}
        return self._fimage[mono]

    def _apply(self, z, product):
        """Products of the pulled-back generators times the pulled-back
        face part, summed over the terms of z."""
        out = {}
        mod = self.ring.modulus
        for (S, mono), c in z.items():
            fim = self._face_image(mono)
            if fim:
                for key, ci in product(self._word(product, S), fim).items():
                    _add_term(out, key, c * ci, mod)
        return out

    def xi(self, z):
        """Star products of the pulled-back generators, times the
        pulled-back face part."""
        return self._apply(z, self._star)

    def exterior(self, z):
        """The exterior-power chain map: wedges instead of stars."""
        return self._apply(z, self._wedge)

    def hat_xi(self, z):
        """xi plus the contraction corrections against q^."""
        out = self.xi(z)
        for (i, j), qel in self.hatq.items():
            w = _double_contraction(z, i, j, self.ring.modulus)
            if w:
                _add_product(out, self.xi(w), qel, self.face, self.ring)
        return out


def _double_contraction(z, i, j, mod):
    """iota_i iota_j z, term by term."""
    w = {}
    for (S, mono), c in z.items():
        dc = double_contract(S, i, j)
        if dc is not None:
            sign, S2 = dc
            _add_term(w, (S2, mono), sign * c, mod)
    return w


def _add_product(out, w, element, face, ring):
    """Add w . element to out: the face part of every term of w times a
    face-ring element."""
    mod = ring.modulus
    for (T, m1), c1 in w.items():
        for m2, c2 in face.multiply({m1: c1}, element, ring).items():
            _add_term(out, (T, m2), c2, mod)


def _chain_maps(phi, ring):
    return _memo(phi, ("maps", ring), lambda phi: _ChainMaps(phi, ring))


def xi(phi, z, ring):
    """Chain map from the target complex to the source complex sending
    a_{i1}...a_{ik} tensor f to the left-to-right star product of the
    pulled-back generators and the pulled-back face part."""
    return _chain_maps(phi, ring).xi(z)


def hat_xi(phi, z, ring):
    """xi corrected by double contractions against q^; preserves total
    degree and induces the multiplicative map on classes."""
    return _chain_maps(phi, ring).hat_xi(z)


class InducedMap:
    """Images of every domain generator class under a chain map.

    domain and codomain are Tor tables; images maps generator ids to
    codomain classes and apply extends by linearity.
    """

    __slots__ = ("domain", "codomain", "images", "label")

    def __init__(self, domain, codomain, images, label=""):
        self.domain = domain
        self.codomain = codomain
        self.images = dict(images)
        self.label = label

    def apply(self, cls):
        if cls.table is not self.domain:
            raise ValueError("class does not live in the domain table")
        return _combination(self.codomain, cls.total, (
            (self.images[g.gid], c)
            for g, c in zip(self.domain.layout(cls.total).generators,
                            cls.coords) if c))

    def matrix(self, total):
        """Codomain coordinates of the image of each domain generator at
        one total degree, one row per generator in layout order."""
        return tuple(self.images[g.gid].coords
                     for g in self.domain.layout(total).generators)

    def __repr__(self):
        return "<InducedMap %r: %d generators>" % (self.label,
                                                   len(self.images))


def product_failures(induced, domain_products, codomain_products):
    """Where an induced map fails to respect products.

    Compares f(g1 * g2) with f(g1) * f(g2) for every ordered pair of
    domain generators whose total degree fits the domain bound, products
    taken in domain_products and codomain_products.  Returns the failing
    pairs of generator ids and the number of pairs compared."""
    images = induced.images
    failures = []
    pairs = 0
    for g1, g2 in induced.domain.generator_pairs():
        pairs += 1
        lhs = induced.apply(domain_products.product(g1.gid, g2.gid))
        rhs = codomain_products.multiply_classes(images[g1.gid],
                                                 images[g2.gid])
        if lhs != rhs:
            failures.append((g1.gid, g2.gid))
    return failures, pairs


def _induced(domain, codomain, chain, label):
    """The map of a chain map on classes: the class of the image of every
    domain generator's representative, in generator order."""
    images = {g.gid: codomain.reduce(chain(g.element), total=g.total)
              for g in domain.generator_list()}
    return InducedMap(domain, codomain, images, label=label)


def _morphism_map(phi, target_table, source_table, chain, label):
    if target_table.ring != source_table.ring:
        raise ValueError("tables use different rings")
    if not _same_data(target_table.data, phi.target):
        raise ValueError("first table must be computed from the target data")
    if not _same_data(source_table.data, phi.source):
        raise ValueError("second table must be computed from the source data")
    if source_table.bound < target_table.bound:
        raise ValueError(
            "source table bound %d cannot hold every image; recompute "
            "with bound >= %d" % (source_table.bound, target_table.bound))
    return _induced(target_table, source_table, chain, label)


def tor_phi(phi, target_table, source_table):
    """Map induced by the exterior-power chain map, from the table of the
    target data to the table of the source data.  Preserves bidegree but
    in general not products."""
    ev = _chain_maps(phi, target_table.ring)
    return _morphism_map(phi, target_table, source_table, ev.exterior,
                         "tor(%s)" % (phi.name,))


def hat_tor_phi(phi, target_table, source_table):
    """Map induced by the corrected chain map; preserves total degree and
    the twisted products."""
    ev = _chain_maps(phi, target_table.ring)
    return _morphism_map(phi, target_table, source_table, ev.hat_xi,
                         "hat_tor(%s)" % (phi.name,))


def omega(data, table):
    """The automorphism z -> z + (1/2) sum_{i>j} iota_i iota_j z . q_ij of
    the table onto itself; needs 2 invertible.  It carries the twisted
    products to the untwisted ones.  Its chain map adds the corrections
    of hat_xi, with (1/2) q_ij, scaled once, in place of q^ and z itself
    in place of xi(z)."""
    ring = table.ring
    if not _same_data(table.data, data):
        raise ValueError("table was not computed from this data")
    two = ring.convert(2)
    if not ring.is_unit(two):
        raise ValueError("omega needs 2 invertible in the coefficient ring")
    half = ring.inverse(two)
    qel = {pair: convert_element({m: half * c for m, c in val.items()}, ring)
           for pair, val in compute_q(data).q.items() if pair[0] > pair[1]}

    def chain(z):
        out = dict(z)
        for (i, j), element in qel.items():
            _add_product(out, _double_contraction(z, i, j, ring.modulus),
                         element, table.face, ring)
        return out

    return _induced(table, table, chain, "omega")


def cox_projection(data, name=""):
    """The morphism from the moment-angle data over the same poset and
    vertex list: A is the characteristic matrix, nu the identity."""
    data.ensure_valid()
    source = CharacteristicData.moment_angle(
        data.poset, vertices=data.vertices,
        name=("Z(%s)" % data.name) if data.name else "")
    A = [[data.chi[v][i] for v in data.vertices] for i in range(data.n)]
    nu = {e: e for e in data.poset.elements}
    return ToricMorphism(source, data, A, nu, name=name or "cox")


def ideal_I_sigma(data, table, cox_table):
    """Per-total-degree kernel of the map induced by the projection from
    the moment-angle data: {total: tuple of classes of table}.  Kernel
    bases are computed over a field."""
    if not table.ring.is_field:
        raise ValueError("kernel bases need a field")
    kappa = cox_projection(data)
    if not _same_data(cox_table.data, kappa.source):
        raise ValueError("cox_table must be computed from "
                         "cox_projection(data).source")
    induced = tor_phi(kappa, table, cox_table)
    out = {}
    for total in range(table.bound + 1):
        rows = induced.matrix(total)
        if not rows:
            continue
        height = cox_table.layout(total).size
        cols = [{i: x for i, x in enumerate(row) if x} for row in rows]
        kernel = ExactMatrix.from_columns(cols, height,
                                          table.ring).kernel_basis()
        classes = []
        for vec in kernel:
            coords = [0] * len(rows)
            for i, c in vec.items():
                coords[i] = c
            classes.append(CohomologyClass(table, total, tuple(coords)))
        if classes:
            out[total] = tuple(classes)
    return out


def diagonal_morphism(data, name=""):
    """The diagonal into the join of the data with itself; the stacked
    identity matrix and nu(e) = (e, e).  With the first copy ordered
    before the second all q^ vanish."""
    data.ensure_valid()
    double = data.join(data, name=("%s x %s" % (data.name, data.name))
                       if data.name else "")
    n = data.n
    A = [[1 if j == i % n else 0 for j in range(n)] for i in range(2 * n)]
    nu = {e: "(%s,%s)" % (e, e) for e in data.poset.elements}
    return ToricMorphism(data, double, A, nu, name=name or "diagonal")


def cross_element(diag, za, zb, ring):
    """Outer product of two source elements inside the double: the wedge
    of za with the shifted zb, face parts multiplied through the two
    copies.  diag must come from diagonal_morphism."""
    data = diag.source
    n = data.n
    bottom = data.poset.bottom
    face = FaceRing(diag.target.poset)
    mod = ring.modulus
    out = {}
    for (S, m1), c1 in za.items():
        left = tuple(("(%s,%s)" % (e, bottom), k) for e, k in m1)
        for (T, m2), c2 in zb.items():
            right = tuple(("(%s,%s)" % (bottom, e), k) for e, k in m2)
            word = S + tuple(i + n for i in T)
            for m3, c3 in face.multiply({left: c1}, {right: c2},
                                        ring).items():
                _add_term(out, (word, m3), c3, mod)
    return out


def power_morphism(data, r):
    """A = r times the identity and nu the identity; valid for r >= 0."""
    if r < 0:
        raise ValueError("power morphisms need r >= 0")
    n = data.n
    A = [[r if i == j else 0 for j in range(n)] for i in range(n)]
    nu = {e: e for e in data.poset.elements}
    return ToricMorphism(data, data, A, nu, name="power %d" % r)
