"""Cohomology of Koszul complexes: Tor tables, classes, and products.

compute_tor runs the differential bidegree by bidegree.  Within one
internal degree the complex is a finite chain of free modules; the kernel
at each spot comes from a Smith form of the outgoing map (saturated over
the integers), the incoming image is rewritten in kernel coordinates, and
its cokernel structure yields ranks, torsion invariants, and deterministic
representative cocycles.  Most blocks carry no cohomology, and the kernel
Smith forms alone tell which: H_k = 0 exactly when rank d_k + rank
d_(k+1) is the number of keys and, over ZZ, every Smith diagonal entry of
d_(k+1) is a unit, since ker d_k is a direct summand (see _Block).  Such
a block shares one zero cokernel and builds its image only when
coboundary_witness asks for it.  The table owns one cache of the integer
Koszul columns of its keys (koszul.integer_column); each column is built
once and converted into the ring when a block's matrix is built, and the
cocycle check of reduce and the blocks built on demand read the same
cache.  Each block keeps its kernel rows by column, so the kernel
coordinates of a vector cost as much as its few nonzeros, not the number
of kernel rows.  When chi is the identity the differential also
preserves the fine multidegree, so each bidegree splits into small blocks
that are solved independently, and only the squarefree multidegrees are
built: a key (S, t_sigma) with the element sigma disjoint from S, grouped
by W = S + V(sigma); several elements of a simplicial poset may share a
vertex set, and each gives its own key.  The block of W is the cochain
complex of the full subcomplex K_W, its keys read off the faces inside
W.  The Koszul complex of the face
ring is exact over every coefficient ring in the other multidegrees
(Hochster's formula for complexes; Lu and Panov, "Moment-angle complexes
from simplicial posets", for posets), so those blocks carry no
cohomology.  With any other chi each bidegree is solved whole, as the one
block of the trivial multidegree ().  The table decides this grading in
one place: it lists the multidegrees built in an internal degree, the
keys of a block, and the multidegree of a key, and compute_tor, reduce,
multidegree_block and coboundary_witness read only these.

Two more cuts build no block that topology proves zero.  The table is the
cohomology of X = Z_P x_{T^m} T^n, a CW complex of dimension N = n + d,
d the largest element rank (Franz, arXiv:1907.04791), so every bidegree
of total degree above N is zero over every ring, torsion included: it
keeps its entry, with no blocks (the dimension cut, for every chi).  On a
complex with identity chi a multidegree W whose full subcomplex K_W is a
cone is contractible, so all its blocks are zero (the cone cut); posets
keep those blocks, since a digon passes the same test yet is a circle.
compute_tor records every block it builds in the table's block store,
and every reader finds the block of a key there, under the key's
multidegree.  One rule covers every key outside the built blocks: reduce
gives a basis key there zero coordinates after the cocycle check, and
coboundary_witness reaches each block that holds a key of its element,
built or not, through multidegree_block, which builds a missing one on
demand.

Classes are coordinate vectors over the representatives of one total
degree, free coordinates first and torsion coordinates reduced mod their
invariants; the layout of a total degree lists its generators once, in
coordinate order, for every reader of coordinates, and each block keeps
the offset of its generators within its entry.  The zero class of each
total degree is built once.  One routine, _product,
builds and reduces a product of two representatives, except in a total
degree that holds no generator over the table's ring: such a product
can only be zero, and it is the zero class without being built.  The
twist enters only through the contractions iota_i iota_j against q_ij,
so a factor of exterior degree 0 makes the twisted and untwisted
products equal: compare_products builds only the pairs whose two
factors both have positive exterior degree, and none at all when every
q_ij is zero.  Sums of scaled classes add
coordinates and make them canonical once (_combination).  A
Hochster-style oracle recomputes moment-angle ranks from the reduced
cohomology of full subposets, euler_oracle gives the alternating rank
sum of every internal degree from the f-vector alone, for every chi.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .exactalg import ExactMatrix
from .facering import FaceRing, format_sum
from .koszul import (_add_term, bidegree, bidegree_basis, compute_q,
                     differential, element_total_degree, integer_column,
                     monomial_degree, star_product, wedge_product)


def _has_monomials(face, d):
    """Whether the face ring has standard monomials of degree d: 1 in
    degree 0, and t_v^(d/2) in every positive even degree."""
    return d == 0 or (d > 0 and d % 2 == 0 and bool(face.poset.vertices))


def _canonical_invariants(invs):
    """Invariant factors of a direct sum of cyclic groups Z/d.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); after pairing d_i with every
    later d_j, d_i divides all of them, so one pass gives the chain."""
    invs = sorted(d for d in invs if d not in (0, 1))
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            a, b = invs[i], invs[j]
            g = gcd(a, b)
            invs[i], invs[j] = g, a // g * b
    return tuple(d for d in invs if d != 1)


class _ZeroCokernel:
    """The cokernel of an image that fills the kernel: no generators, and
    every vector projects to empty coordinates.  One instance is shared by
    all acyclic blocks."""

    __slots__ = ()
    free_rank = 0
    torsion = ()
    free_generators = ()
    torsion_generators = ()

    def project(self, w):
        return (), ()


_ZERO_COKERNEL = _ZeroCokernel()


class _Block:
    """One multidegree block of a bidegree: basis keys, kernel data, and
    the cokernel of the incoming image in kernel coordinates.

    The constructor runs the Smith form of the outgoing map d_k and keeps
    its rank and whether every diagonal entry is a unit; finish then sets
    the cokernel.  H_k = ker d_k / im d_{k+1} is zero exactly when rank
    d_k + rank d_{k+1} is the number of keys and, over ZZ, every Smith
    diagonal entry of d_{k+1} is a unit: C_k / ker d_k embeds in the free
    C_(k-1), so ker d_k is a direct summand and the torsion of H_k is the
    torsion of C_k / im d_{k+1}.  Such a block gets the shared zero
    cokernel and builds its image only on demand (image)."""

    __slots__ = ("keys", "index", "kernel_by_col", "kernel_cols", "coker",
                 "incoming", "_image", "modulus", "rank", "units", "offset")

    def __init__(self, ring, keys, out_index, incoming, dvec):
        # dvec(key) is the differential of a key, with ring or integer
        # values: from_columns and kernel_coords bring them into the ring
        self.modulus = ring.modulus
        self.keys = keys
        self.index = {key: i for i, key in enumerate(keys)}
        cols = []
        for key in keys:
            col = {}
            for key2, c in dvec(key).items():
                row = out_index.get(key2)
                if row is None:
                    raise AssertionError(
                        "differential left the bidegree basis at %r" % (key2,))
                col[row] = c
            cols.append(col)
        a_out = ExactMatrix.from_columns(cols, len(out_index), ring)
        sf = a_out.smith_normal_form(want=("V", "Vinv"))
        r = self.rank = sf.rank
        self.units = all(ring.is_unit(d) for d in sf.diagonal)
        # the kernel rows Vinv[r:] by column: {j: [(i - r, value), ...]}
        self.kernel_by_col = {}
        for i, row in enumerate(sf.vinv_rows[r:]):
            for j, a in row.items():
                self.kernel_by_col.setdefault(j, []).append((i, a))
        self.kernel_cols = sf.v_cols[r:]
        self.incoming = incoming
        self._image = None
        self.coker = None
        self.offset = None  # of its generators in the entry, set by TorEntry

    def finish(self, ring, dvec, acyclic=False):
        """Set the cokernel: the shared zero one for an acyclic block, else
        the cokernel structure of the image."""
        self.coker = (_ZERO_COKERNEL if acyclic
                      else self.image(ring, dvec).cokernel_structure())

    def image(self, ring, dvec):
        """The incoming image in kernel coordinates, built on first use.
        dvec is passed per call, not kept: the table's column cache would
        make the block and its table a reference cycle."""
        if self._image is None:
            xcols = [self.kernel_coords(
                         ring, {self.index[key2]: c
                                for key2, c in dvec(key).items()})
                     for key in self.incoming]
            self._image = ExactMatrix.from_columns(
                xcols, len(self.kernel_cols), ring)
        return self._image

    def element_of(self, y):
        """Kernel-coordinate vector -> element dict over this block's keys."""
        mod = self.modulus
        out = {}
        for i, c in y.items():
            for pos, v in self.kernel_cols[i].items():
                w = out.get(pos, 0) + c * v
                if mod:
                    w %= mod
                if w:
                    out[pos] = w
                else:
                    del out[pos]
        return {self.keys[pos]: c for pos, c in out.items()}

    @property
    def size(self):
        """Number of generators: free ones, then torsion ones."""
        return self.coker.free_rank + len(self.coker.torsion)

    def local(self, comp):
        """{position: coefficient} of the keys of comp in this block."""
        out = {}
        for key, c in comp.items():
            i = self.index.get(key)
            if i is not None:
                out[i] = c
        return out

    def kernel_coords(self, ring, w_local):
        """Coordinates Vinv[r:] w of a local vector in the kernel basis, as
        {i: value} with ascending keys: the sum of w_j times the kernel
        column j over the support of w, reduced at the end."""
        acc = {}
        for j, b in w_local.items():
            for i, a in self.kernel_by_col.get(j, ()):
                acc[i] = acc.get(i, 0) + a * b
        mod = ring.modulus
        y = {}
        for i in sorted(acc):
            v = acc[i] % mod if mod else acc[i]
            if v:
                y[i] = v
        return y


class TorEntry:
    """Cohomology of one bidegree: rank, torsion, and representatives."""

    __slots__ = ("bidegree", "blocks", "free_rank", "torsion", "generators")

    def __init__(self, bidegree, blocks):
        self.bidegree = bidegree
        self.blocks = blocks
        self.free_rank = sum(b.coker.free_rank for b in blocks)
        self.torsion = _canonical_invariants(
            [d for b in blocks for d in b.coker.torsion])
        gens = []
        for b in blocks:
            b.offset = len(gens)
            for y in b.coker.free_generators:
                gens.append((b.element_of(y), 0))
            for y, d in zip(b.coker.torsion_generators, b.coker.torsion):
                gens.append((b.element_of(y), d))
        self.generators = tuple(gens)

    @property
    def size(self):
        return len(self.generators)

    def __repr__(self):
        return "TorEntry(%r, rank=%d, torsion=%s)" % (
            self.bidegree, self.free_rank, list(self.torsion))


class CohomologyClass:
    """Coordinates over the representatives of one total degree: for each
    bidegree (smallest homological shift first) the free coordinates, then
    torsion coordinates in canonical range."""

    __slots__ = ("table", "total", "coords")

    def __init__(self, table, total, coords):
        moduli = table.layout(total).moduli
        if len(coords) != len(moduli):
            raise ValueError("coordinate length %d, layout needs %d"
                             % (len(coords), len(moduli)))
        self.table = table
        self.total = total
        self.coords = tuple(self._canon(c, m) for c, m in zip(coords, moduli))

    @classmethod
    def _from_canonical(cls, table, total, coords):
        """A class from coordinates that are already canonical."""
        self = object.__new__(cls)
        self.table = table
        self.total = total
        self.coords = coords
        return self

    def _canon(self, c, m):
        """c as a coefficient of the table's ring, reduced mod m when m is
        nonzero.  Only ints and Fractions are exact; over ZZ a value that
        is not integral raises ValueError."""
        if not isinstance(c, (int, Fraction)):
            raise TypeError("coefficient %r is not an int or a Fraction"
                            % (c,))
        c = self.table.ring.convert(c)
        return c % m if m else c

    def _zip(self, other, op):
        if other.table is not self.table or other.total != self.total:
            raise ValueError("classes live in different groups")
        return CohomologyClass(self.table, self.total, tuple(
            op(a, b) for a, b in zip(self.coords, other.coords)))

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self._canon(c, 0)
        return CohomologyClass(self.table, self.total,
                               tuple(c * a for a in self.coords))

    @property
    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass)
                and self.table is other.table and self.total == other.total
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.table), self.total, self.coords))

    def by_bidegree(self):
        """{bidegree: coordinate tuple} for the nonzero parts."""
        layout = self.table.layout(self.total)
        out = {}
        for bd, offset, entry in layout.parts:
            part = self.coords[offset:offset + entry.size]
            if any(part):
                out[bd] = part
        return out

    def __repr__(self):
        return "<class total=%d %s>" % (self.total, dict(self.by_bidegree()))


class _TotalLayout:
    """The coordinates of one total degree: parts are (bidegree, offset,
    entry), smallest homological shift first, and generators holds the
    _Generator of each coordinate, in coordinate order."""

    __slots__ = ("total", "parts", "generators", "moduli")

    def __init__(self, total, parts):
        self.total = total
        self.parts = parts
        self.generators = tuple(
            _Generator((bd, i), bd, i, total, element, modulus)
            for bd, _, entry in parts
            for i, (element, modulus) in enumerate(entry.generators))
        self.moduli = tuple(g.modulus for g in self.generators)

    @property
    def size(self):
        return len(self.moduli)


class _Generator:
    __slots__ = ("gid", "bidegree", "index", "total", "element", "modulus")

    def __init__(self, gid, bidegree, index, total, element, modulus):
        self.gid = gid
        self.bidegree = bidegree
        self.index = index
        self.total = total
        self.element = element
        self.modulus = modulus

    def __repr__(self):
        return "<generator %r #%d>" % (self.bidegree, self.index)


class TorTable:
    """All bidegrees with total degree up to the bound, over one ring.

    squarefree is true when chi is the identity: the entries then hold
    only the squarefree multidegree blocks, otherwise one block per
    bidegree, of multidegree () (the grading routines _multidegrees,
    _block_keys, which reads the faces by vertex bit mask, a map built on
    its first call, and _key_multidegree).  top is the dimension n + d of the
    space, d the largest element rank: the entries of higher total degree
    hold no block."""

    __slots__ = ("data", "ring", "bound", "squarefree", "top", "face",
                 "entries", "_layouts", "_poset_pos", "_blocks",
                 "_columns", "_contractions", "_zeros", "_vset_masks")

    def __init__(self, data, ring, bound, face):
        self.data = data
        self.ring = ring
        self.bound = bound
        self.squarefree = data.is_identity_chi
        self.top = data.n + max(data.poset.by_rank)
        self.face = face
        self.entries = {}
        self._layouts = {}
        # poset vertex position of each ambient vertex, None for ghosts
        self._poset_pos = [data.poset.vertex_pos.get(v)
                           for v in data.vertices]
        self._blocks = {}
        self._columns = {}
        self._contractions = {}
        self._zeros = {}
        self._vset_masks = None

    def column(self, key):
        """The integer Koszul column d(key) as {key: int}, built once per
        table (koszul.integer_column)."""
        col = self._columns.get(key)
        if col is None:
            col = self._columns[key] = integer_column(
                key, self.data, self.face, self._contractions)
        return col

    def rank(self, bidegree):
        entry = self.entries.get(bidegree)
        return entry.free_rank if entry else 0

    def torsion(self, bidegree):
        entry = self.entries.get(bidegree)
        return entry.torsion if entry else ()

    def rank_table(self):
        return {bd: e.free_rank for bd, e in sorted(self.entries.items())
                if e.free_rank}

    def torsion_table(self):
        return {bd: e.torsion for bd, e in sorted(self.entries.items())
                if e.torsion}

    def total_ranks(self):
        """Free rank per total degree, zero degrees omitted."""
        out = {}
        for (j, t), e in self.entries.items():
            if e.free_rank:
                out[t + j] = out.get(t + j, 0) + e.free_rank
        return dict(sorted(out.items()))

    def bidegrees_of_total(self, total):
        return sorted((bd for bd in self.entries if bd[0] + bd[1] == total),
                      key=lambda bd: -bd[0])

    def layout(self, total):
        layout = self._layouts.get(total)
        if layout is None:
            if not 0 <= total <= self.bound:
                raise ValueError("total degree %d outside table bound %d"
                                 % (total, self.bound))
            parts = []
            offset = 0
            for bd in self.bidegrees_of_total(total):
                entry = self.entries[bd]
                parts.append((bd, offset, entry))
                offset += entry.size
            layout = _TotalLayout(total, tuple(parts))
            self._layouts[total] = layout
        return layout

    def zero_class(self, total):
        """The zero class of a total degree.  Its canonical coordinates
        are built once per total degree; the class is not kept, since it
        refers back to the table and would keep the table alive until the
        cycle collector runs."""
        coords = self._zeros.get(total)
        if coords is None:
            coords = self._zeros[total] = CohomologyClass(
                self, total, (0,) * self.layout(total).size).coords
        return CohomologyClass._from_canonical(self, total, coords)

    def generator_class(self, bidegree, index):
        entry = self.entries.get(bidegree)
        if entry is None or not 0 <= index < entry.size:
            raise ValueError("generator index out of range")
        total = bidegree[0] + bidegree[1]
        gid = (bidegree, index)
        return CohomologyClass(self, total, tuple(
            int(g.gid == gid) for g in self.layout(total).generators))

    def generator_list(self):
        """All representatives, ordered by total degree and bidegree: the
        generators of each layout in turn."""
        return [g for total in sorted({bd[0] + bd[1] for bd in self.entries})
                for g in self.layout(total).generators]

    def generator_pairs(self):
        """Ordered pairs (g1, g2) of generator_list() whose total degrees
        add up to at most the bound: the pairs that have a product."""
        gens = self.generator_list()
        for g1 in gens:
            for g2 in gens:
                if g1.total + g2.total <= self.bound:
                    yield g1, g2

    def reduce(self, z, total=None):
        """Class of a cocycle; raises if z is not a cocycle or exceeds the
        table bound."""
        if not z:
            if total is None:
                raise ValueError("zero element needs an explicit total "
                                 "degree; use zero_class")
            return self.zero_class(total)
        ztotal = element_total_degree(self.data.poset, z)
        if total is not None and total != ztotal:
            raise ValueError("element has total degree %d, not %d"
                             % (ztotal, total))
        if not 0 <= ztotal <= self.bound:
            raise ValueError("total degree %d outside table bound %d"
                             % (ztotal, self.bound))
        if differential(z, self.data, self.ring, self.face, self.column):
            raise ValueError("element is not a cocycle")
        layout = self.layout(ztotal)
        coords = [0] * layout.size
        offsets = {bd: offset for bd, offset, _ in layout.parts}
        for bd, comp in self._components(z).items():
            if bd not in self.entries:
                raise ValueError("no basis at bidegree %r" % (bd,))
            parts = {}
            for key, c in comp.items():
                block = self._blocks.get((bd, self._key_multidegree(key)))
                if block is None or key not in block.index:
                    # a basis key outside every stored block lies in a
                    # zero block
                    if not self._is_basis_key(key):
                        raise ValueError("element key outside the bidegree "
                                         "basis at %r" % (bd,))
                elif block.size:  # blocks built on demand have size 0
                    parts.setdefault(block, {})[key] = c
            for block, part in parts.items():
                pos = offsets[bd] + block.offset
                free, tors = block.coker.project(
                    block.kernel_coords(self.ring, block.local(part)))
                coords[pos:pos + block.size] = free + tors
        return CohomologyClass(self, ztotal, tuple(coords))

    def coboundary_witness(self, z):
        """w with d(w) = z, for a cocycle reducing to zero: the block of
        each multidegree that holds keys of z (multidegree_block) solves
        its part against its incoming image."""
        cls = self.reduce(z)
        if not cls.is_zero:
            raise ValueError("class is not zero; no witness exists")
        mod = self.ring.modulus
        witness = {}
        for bd, comp in self._components(z).items():
            for mu in sorted({self._key_multidegree(key) for key in comp}):
                block = self.multidegree_block(bd, mu)
                y = block.kernel_coords(self.ring, block.local(comp))
                if not y:
                    continue
                u = block.image(self.ring, self.column).solve(y)
                if u is None:
                    raise AssertionError("zero class without a witness")
                for j, c in u.items():
                    _add_term(witness, block.incoming[j], c, mod)
        return witness

    def multidegree_block(self, bidegree, mu):
        """The block of multidegree mu in a bidegree: the one compute_tor
        built, or else, for a block it leaves out, one built on demand
        with its cokernel and kept in the same store.  On a squarefree
        table mu is a tuple of non-negative ints over the ambient vertices;
        any other table has one block per bidegree, with mu = ()."""
        k, t = -bidegree[0], bidegree[1]
        if bidegree not in self.entries:
            raise ValueError("no basis at bidegree %r" % (bidegree,))
        if not self.squarefree:
            if mu != ():
                raise ValueError("the blocks of a table without multidegree "
                                 "blocks are whole bidegrees, mu = ()")
        elif type(mu) is not tuple or not all(
                type(x) is int and x >= 0 for x in mu):
            raise ValueError("multidegree %r is not a tuple of non-negative "
                             "ints" % (mu,))
        elif len(mu) != len(self.data.vertices) or 2 * sum(mu) != t:
            raise ValueError("multidegree %r does not lie in bidegree %r"
                             % (mu, bidegree))
        block = self._blocks.get((bidegree, mu))
        if block is None:
            keys = self._block_keys(mu, t, range(k - 1, k + 2))
            block = _Block(self.ring, keys[k],
                           {key: i for i, key in enumerate(keys[k - 1])},
                           keys[k + 1], self.column)
            block.finish(self.ring, self.column)
            self._blocks[(bidegree, mu)] = block
        return block

    def _components(self, z):
        """{bidegree: part of z} of a homogeneous element."""
        poset = self.data.poset
        comps = {}
        for key, c in z.items():
            comps.setdefault(bidegree(poset, key), {})[key] = c
        return comps

    def _is_basis_key(self, key):
        """Whether (S, mono) is a Koszul basis key: S strictly increasing
        in 1..n, mono a standard monomial of its degree."""
        S, mono = key
        if not all(a < b for a, b in zip((0,) + S, S + (self.data.n + 1,))):
            return False
        return mono in self.face._basis_positions(
            monomial_degree(self.data.poset, mono))

    def _multidegrees(self, t, is_cone):
        """The multidegrees compute_tor builds in internal degree t: on a
        squarefree table each vertex set W of size t/2, as a 0/1 tuple
        over the ambient vertices, that is_cone (_cone_test; None accepts
        none) does not accept; on any other table the one multidegree ()
        of the whole bidegree."""
        if not self.squarefree:
            return [()]
        m = len(self.data.vertices)
        return [tuple(1 if i in w else 0 for i in range(m))
                for w in combinations(range(m), t // 2)
                if is_cone is None or not is_cone(sum(1 << i for i in w))]

    def _block_keys(self, mu, t, ks):
        """{k: the basis keys (S, m) of block mu with |S| = k in internal
        degree t, in basis order} for each k of ks: on a squarefree table,
        for each element rho with D <= V(rho) <= supp(mu), D the vertices
        of exponent >= 2, and each T inside D, S = supp(mu) - V(rho) + T
        and m of exponent vector mu - S over rho (face.chain_monomial;
        ((rho, 1),), or () for the bottom, when mu is 0/1).  A ghost lies
        in no face, so always in S.  A stable sort by S keeps the elements
        of one vertex set in the face ring's order.  On any other table:
        the whole bidegree basis."""
        if not self.squarefree:
            return {k: bidegree_basis(self.face, self.data.n, k, t)
                    for k in ks}
        if self._vset_masks is None:
            index = self.data.vertex_index
            self._vset_masks = [
                (sum(1 << index[v] for v in vset), elements)
                for vset, elements in self.face._by_vset.items()]
        support = [i for i, x in enumerate(mu, 1) if x]
        dpos = [i for i in support if mu[i - 1] > 1]
        wmask = sum(1 << (i - 1) for i in support)
        dmask = sum(1 << (i - 1) for i in dpos)
        keys = {k: [] for k in ks}
        for vmask, elements in self._vset_masks:
            if dmask & ~vmask or vmask & ~wmask:
                continue
            outside = [i for i in support if not vmask >> (i - 1) & 1]
            for r in range(len(dpos) + 1):
                group = keys.get(len(outside) + r)
                if group is None:
                    continue
                for T in combinations(dpos, r):
                    S = tuple(sorted(outside + list(T)))
                    if dmask:  # over the poset vertices, in ambient order
                        vec = [mu[i] - (i + 1 in T) if vmask >> i & 1 else 0
                               for i, p in enumerate(self._poset_pos)
                               if p is not None]
                        monos = [self.face.chain_monomial(rho, vec)
                                 for rho in elements]
                    else:
                        monos = [((rho, 1),) if vmask else ()
                                 for rho in elements]
                    group.extend((S, mono) for mono in monos)
        return {k: tuple(sorted(group, key=lambda key: key[0]))
                for k, group in keys.items()}

    def _key_multidegree(self, key):
        """The multidegree of the block that holds a key: on a squarefree
        table the exponents of (S, m) over the ambient vertices, otherwise
        ().  It reads S by membership, never as positions, so a key that
        is no basis key gets some tuple too, and no block holds it."""
        if not self.squarefree:
            return ()
        S, mono = key
        vec = self.face.exponent_vector(mono)
        return tuple((0 if p is None else vec[p]) + (i in S)
                     for i, p in enumerate(self._poset_pos, 1))

    def __repr__(self):
        return "<TorTable %s over %s, bound %d>" % (
            self.data.name or "data", self.ring, self.bound)


def _cone_test(poset, poset_pos):
    """On a simplicial complex, whether the full subcomplex K_W on a
    vertex set W, a bit mask over the ambient vertices, is a cone: some
    vertex v of W with sigma + v a face for every face sigma inside W.
    Each such sigma lies in F & W for a facet F, and faces are closed
    under subsets, so the facets suffice.  None on a simplicial poset:
    the two edges of a digon pass the test, yet it is a circle."""
    if not poset.is_complex:
        return None
    bits = {p: 1 << i for i, p in enumerate(poset_pos) if p is not None}
    faces = {sum(bits[p] for p in poset.vkey[e]) for e in poset.elements}
    facets = [sum(bits[p] for p in poset.vkey[e]) for e in poset.maximal]

    def is_cone(w):
        traces = {f & w for f in facets}
        return any(all((tr | v) in faces for tr in traces)
                   for v in bits.values() if v & w)
    return is_cone


def compute_tor(data, ring, bound=None):
    """Tor table of characteristic data up to a total-degree bound
    (default: number of vertices plus the lattice rank).

    With identity chi each bidegree is split into its squarefree
    multidegree blocks, on complexes and posets alike; with any other chi
    each bidegree is solved whole; the table decides which, in one place.
    Bidegrees of total degree above table.top get an entry without
    blocks, and on a complex identity chi builds no multidegree whose
    full subcomplex is a cone.  Per internal degree one _block_keys call
    per multidegree gives the keys of every k that a block reads (k - 1,
    k and k + 1); every block runs its kernel Smith form first, in
    ascending k and sorted multidegree; then each block is finished from
    the rank and the unit diagonal of the block one step up in the same
    multidegree: an acyclic block gets the zero cokernel, any other one
    the cokernel of its image."""
    data.ensure_valid()
    if bound is None:
        bound = len(data.vertices) + data.n
    if bound < 0:
        raise ValueError("bound must be >= 0")
    face = FaceRing(data.poset)
    table = TorTable(data, ring, bound, face)
    n = data.n
    is_cone = _cone_test(data.poset, table._poset_pos)
    for t in range(0, bound + n + 1, 2):
        kmax = min(n, t // 2)
        kmin = max(0, t - bound)
        # blocks from kcut on: total degree t - k at most top
        kcut = max(kmin, t - table.top)
        ks = range(kcut - 1, kmax + 2)
        grouped = {k: {} for k in ks}
        for mu in table._multidegrees(t, is_cone) if kcut <= kmax else ():
            for k, keys in table._block_keys(mu, t, ks).items():
                if keys:
                    grouped[k][mu] = keys
        # every kernel form first, in ascending k: {k: {mu: block}}
        blocks = {}
        for k in range(kmin, kmax + 1):
            if not _has_monomials(face, t - 2 * k):
                continue  # the bidegree basis is empty
            if k < kcut:
                blocks[k] = {}  # zero above top: an entry without blocks
                continue
            here, out, inc = grouped[k], grouped[k - 1], grouped[k + 1]
            blocks[k] = {
                mu: _Block(ring, here[mu],
                           {key: i for i, key in enumerate(out.get(mu, ()))},
                           inc.get(mu, ()), table.column)
                for mu in sorted(here)}
        # block (k + 1, mu) eliminated the incoming map of block (k, mu)
        for k, row in blocks.items():
            above = blocks.get(k + 1, {})
            for mu, block in row.items():
                nxt = above.get(mu)
                if nxt is None:
                    if block.incoming:
                        raise AssertionError("incoming keys without a block")
                    rank_in, units = 0, True
                else:
                    rank_in, units = nxt.rank, nxt.units
                block.finish(ring, table.column,
                             units and block.rank + rank_in == len(block.keys))
                table._blocks[((-k, t), mu)] = block
            table.entries[(-k, t)] = TorEntry((-k, t), tuple(row.values()))
    return table


def generator_name(gid):
    """Stable printable name of a table generator: g(j,t;index)."""
    (j, t), i = gid
    return "g(%d,%d;%d)" % (j, t, i)


def format_class(cls):
    """Deterministic linear combination of generator names."""
    gens = cls.table.layout(cls.total).generators
    return format_sum(((c, generator_name(g.gid))
                       for g, c in zip(gens, cls.coords)),
                      spaced=True)


def _combination(table, total, terms):
    """The class of sum c * x over (x, c) in terms, classes of one total
    degree of table: the coordinates are summed as they are and made
    canonical once, with no class built per term."""
    acc = [0] * table.layout(total).size
    for x, c in terms:
        for i, a in enumerate(x.coords):
            if a:
                acc[i] += c * a
    return CohomologyClass(table, total, acc)


class ProductTable:
    """All pairwise products of representatives, reduced to classes."""

    __slots__ = ("table", "twist", "products")

    def __init__(self, table, twist, products):
        self.table = table
        self.twist = twist
        self.products = products

    def product(self, gid_a, gid_b):
        return self.products[(gid_a, gid_b)]

    def multiply_classes(self, x, y):
        """Bilinear extension of the generator products to classes."""
        table = self.table
        if x.table is not table or y.table is not table:
            raise ValueError("class does not live in the product table")
        total = x.total + y.total
        if not table.layout(total).size:
            return table.zero_class(total)
        gy = tuple(zip(table.layout(y.total).generators, y.coords))
        return _combination(table, total, (
            (self.products[(ga.gid, gb.gid)], ca * cb)
            for ga, ca in zip(table.layout(x.total).generators, x.coords)
            if ca for gb, cb in gy if cb))


def _product(table, g1, g2, twist):
    """The class of the product of two generators, twisted by twist or,
    when it is None, the wedge product.  In a total degree with an empty
    layout, no free and no torsion generator over the table's ring, the
    product can only be zero: it is the zero class, neither built nor
    reduced."""
    total = g1.total + g2.total
    if not table.layout(total).size:
        return table.zero_class(total)
    if twist is None:
        z = wedge_product(g1.element, g2.element, table.ring, table.face)
    else:
        z = star_product(g1.element, g2.element, twist, table.ring,
                         table.face)
    return table.reduce(z, total=total)


def product_table(table, twist=None):
    """Reduce all products of representatives; twist None means the
    untwisted wedge product (see _product for the empty-layout rule)."""
    return ProductTable(table, twist, {
        (g1.gid, g2.gid): _product(table, g1, g2, twist)
        for g1, g2 in table.generator_pairs()})


class ComparisonReport:
    """Structure-constant differences between two product tables."""

    __slots__ = ("differences",)

    def __init__(self, differences):
        self.differences = differences

    @property
    def agree(self):
        return not self.differences

    def __repr__(self):
        return "<products %s: %d differences>" % (
            "agree" if self.agree else "differ", len(self.differences))


def compare_products(table, twist=None):
    """Compare the twisted products (twist defaults to the one of the
    table's characteristic data) against the untwisted ones, as
    (gid, gid, twisted, untwisted) in generator_pairs() order.  The twist
    enters only through contractions iota_i iota_j against q_ij, so a
    product with a factor of exterior degree 0 is the same twisted or
    not: only the pairs whose two factors both have positive exterior
    degree are built, once per variant by _product, the routine
    product_table runs on every pair.  With no twist coefficient at all
    (q = 0) the star product is the wedge product and nothing is built."""
    if twist is None:
        twist = compute_q(table.data)
    if not twist.q:
        return ComparisonReport(())
    diffs = []
    for g1, g2 in table.generator_pairs():
        if g1.bidegree[0] and g2.bidegree[0]:
            a = _product(table, g1, g2, twist)
            b = _product(table, g1, g2, None)
            if a != b:
                diffs.append((g1.gid, g2.gid, a, b))
    return ComparisonReport(tuple(diffs))


def _reduced_cohomology_ranks(poset, ring):
    """Ranks of the reduced cohomology of a simplicial poset (its cell
    complex), including the empty one with its rank one in degree -1."""
    by_rank = {}
    for e in poset.elements:
        by_rank.setdefault(poset.rank(e), []).append(e)
    top = max(by_rank)
    # coboundary matrices keyed by cochain degree j = rank - 1
    dims = {r - 1: len(by_rank.get(r, ())) for r in range(0, top + 1)}
    rank_d = {}
    for j in range(-1, top):
        dom = by_rank.get(j + 1, ())
        codom = by_rank.get(j + 2, ())
        idx = {e: i for i, e in enumerate(dom)}
        cols = {i: {} for i in range(len(dom))}
        for row, tau in enumerate(codom):
            tverts = sorted(poset.vkey[tau])
            for pos in range(len(tverts)):
                rest = frozenset(tverts[:pos] + tverts[pos + 1:])
                sigma = poset.face_map[tau][frozenset(
                    poset.vertices[i] for i in rest)]
                col = idx[sigma]
                sign = ring.one() if pos % 2 == 0 else ring.neg(ring.one())
                cols[col][row] = sign
        mat = ExactMatrix.from_columns([cols[i] for i in range(len(dom))],
                                       len(codom), ring)
        rank_d[j] = mat.rank()
    out = {}
    for j in range(-1, top):
        h = dims.get(j, 0) - rank_d.get(j, 0) - rank_d.get(j - 1, 0)
        if h:
            out[j] = h
    return out


def hochster_oracle(data, ring, bound=None):
    """Independent rank oracle for chi = identity: the rank at bidegree
    (-k, 2m) is the sum over m-element vertex subsets W of the reduced
    cohomology rank of the full subposet on W in degree m - k - 1
    (Hochster; for simplicial posets, Lu and Panov).  Ghost vertices
    participate in the subsets W."""
    if not data.is_identity_chi:
        raise ValueError("the oracle needs chi = identity")
    if not ring.is_field:
        raise ValueError("the oracle computes ranks over a field")
    verts = data.vertices
    real = set(data.poset.vertices)
    out = {}
    for bits in range(1 << len(verts)):
        W = [verts[i] for i in range(len(verts)) if bits >> i & 1]
        m = len(W)
        sub = data.poset.full_subcomplex(set(W) & real)
        for j, h in _reduced_cohomology_ranks(sub, ring).items():
            k = m - j - 1
            if bound is not None and 2 * m - k > bound:
                continue
            bd = (-k, 2 * m)
            out[bd] = out.get(bd, 0) + h
    return dict(sorted(out.items()))


def euler_oracle(data, bound=None):
    """Independent rank check for every chi, complexes and posets alike:
    for each even internal degree t <= bound (default as in compute_tor),
    sum_k (-1)^k C(n, k) dim k[P]_{t-2k}, the Euler characteristic of the
    degree-t strand of the Koszul complex.  It equals the alternating sum
    over k of the free ranks at (-k, t), over every ring.  The Hilbert
    function comes from the f-vector: dim k[P]_0 = 1 and dim k[P]_{2d} is
    the sum over faces sigma != 0 of C(d - 1, rank sigma - 1).  Internal
    degrees above the bound are left out, because the table is cut by
    total degree there.  Returns {t: value}, zero values omitted."""
    if bound is None:
        bound = len(data.vertices) + data.n
    f = {r: len(es) for r, es in data.poset.by_rank.items() if r}

    def hilbert(d):
        if d == 0:
            return 1
        return sum(count * comb(d - 1, r - 1) for r, count in f.items())

    out = {}
    for t in range(0, bound + 1, 2):
        chi = sum((-1) ** k * comb(data.n, k) * hilbert(t // 2 - k)
                  for k in range(min(data.n, t // 2) + 1))
        if chi:
            out[t] = chi
    return out

