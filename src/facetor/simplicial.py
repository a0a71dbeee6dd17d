"""Simplicial posets and characteristic data over an ordered vertex set.

A simplicial poset is a finite poset with a least element in which every
lower interval is a Boolean lattice.  Elements are identified by string
ids; the rank of an element equals the size of its vertex set.  Simplicial
complexes are the special case where an element is determined by its
vertex set.

CharacteristicData pairs a poset with an integer characteristic vector per
vertex.  The ambient vertex list is totally ordered and may include ghost
vertices, which belong to no face.
"""

from __future__ import annotations

from .exactalg import CoefficientRing, ExactMatrix

_ZZ = CoefficientRing.integers()


def _integer(x, what, *args):
    """x as an int; ValueError naming what % args when x is not an
    integer, where int(x) alone would truncate 1.9 or 3/2 and parse "1"."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%s is not an integer: %r" % (what % args, x))


class SimplicialPoset:
    """Finite simplicial poset with explicit elements and cover relations."""

    __slots__ = ("vertices", "vertex_pos", "elements", "vertex_set", "vkey",
                 "covers", "face_map", "bottom", "maximal",
                 "is_complex", "by_rank", "atom")

    def __init__(self, items, vertices=None):
        """items: iterable of (id, vertex ids, ids of codimension-1 faces).

        The empty face must be listed.  vertices fixes the vertex order;
        by default vertices are sorted by id.
        """
        items = [(str(e), tuple(str(v) for v in vs), tuple(str(c) for c in cs))
                 for e, vs, cs in items]
        ids = [e for e, _, _ in items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate element ids")
        vertex_of_atom = {}
        used_vertices = set()
        for e, vs, _ in items:
            if len(set(vs)) != len(vs):
                raise ValueError("repeated vertex in element %r" % e)
            used_vertices.update(vs)
            if len(vs) == 1:
                if vs[0] in vertex_of_atom:
                    raise ValueError("two rank-1 elements share vertex %r" % vs[0])
                vertex_of_atom[vs[0]] = e
        if vertices is None:
            vertices = sorted(used_vertices)
        else:
            vertices = [str(v) for v in vertices]
            missing = used_vertices - set(vertices)
            if missing:
                raise ValueError("vertex order is missing %s" % sorted(missing))
            vertices = [v for v in vertices if v in used_vertices]
        if set(vertex_of_atom) != used_vertices:
            lost = sorted(used_vertices - set(vertex_of_atom))
            raise ValueError("vertices %s have no rank-1 element" % lost)

        self.vertices = tuple(vertices)
        self.vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self.atom = dict(vertex_of_atom)
        self.vertex_set = {e: frozenset(vs) for e, vs, _ in items}
        self.vkey = {e: tuple(sorted(self.vertex_pos[v] for v in vs))
                     for e, vs, _ in items}
        self.covers = {e: cs for e, vs, cs in items}

        bottoms = [e for e in ids if not self.vertex_set[e]]
        if len(bottoms) != 1:
            raise ValueError("need exactly one empty face, found %d" % len(bottoms))
        self.bottom = bottoms[0]
        if self.covers[self.bottom]:
            raise ValueError("the empty face covers nothing")

        order = sorted(ids, key=lambda e: (len(self.vkey[e]), self.vkey[e], e))
        self.elements = tuple(order)
        known = set(ids)
        for e in order:
            for c in self.covers[e]:
                if c not in known:
                    raise ValueError("unknown cover %r of %r" % (c, e))
                if len(self.vertex_set[c]) != len(self.vertex_set[e]) - 1:
                    raise ValueError("cover %r of %r is not one rank down" % (c, e))
                if not self.vertex_set[c] < self.vertex_set[e]:
                    raise ValueError("cover %r of %r is not a vertex subset" % (c, e))

        self.face_map = {}
        for e in order:  # order is by rank, so covers are already done
            fm = {self.vertex_set[e]: e}
            for c in self.covers[e]:
                for key, f in self.face_map[c].items():
                    if fm.setdefault(key, f) != f:
                        raise ValueError(
                            "interval below %r is not Boolean: %r and %r "
                            "share vertex set" % (e, fm[key], f))
            if len(fm) != 1 << len(self.vertex_set[e]):
                raise ValueError("interval below %r is not Boolean" % e)
            self.face_map[e] = fm

        covered = {c for e in order for c in self.covers[e]}
        self.maximal = tuple(e for e in order if e not in covered)
        self.is_complex = len(set(self.vertex_set.values())) == len(order)
        self.by_rank = {}
        for e in order:
            self.by_rank.setdefault(len(self.vkey[e]), []).append(e)

    @classmethod
    def from_elements(cls, items, vertices=None):
        return cls(items, vertices=vertices)

    @classmethod
    def from_facets(cls, facets, vertices=None):
        """Simplicial complex generated by the given facets.

        Element ids are canonical: the sorted vertex list in braces, e.g.
        "{}", "{v}", "{v,w}".  Sorting follows the vertex order.
        """
        facets = [tuple(str(v) for v in f) for f in facets]
        used = []
        for f in facets:
            if len(set(f)) != len(f):
                raise ValueError("facet %r repeats a vertex" % (f,))
            for v in f:
                if v not in used:
                    used.append(v)
        if vertices is None:
            order = sorted(used)
        else:
            order = [str(v) for v in vertices]
            missing = set(used) - set(order)
            if missing:
                raise ValueError("vertex order is missing %s" % sorted(missing))
        pos = {v: i for i, v in enumerate(order)}

        faces = {frozenset()}
        for f in facets:
            f = frozenset(f)
            faces.update(frozenset(s) for s in _subsets(tuple(f)))
        def fid(w):
            return "{%s}" % ",".join(sorted(w, key=pos.__getitem__))
        items = []
        for w in faces:
            covers = [fid(w - {v}) for v in sorted(w, key=pos.__getitem__)]
            items.append((fid(w), sorted(w, key=pos.__getitem__), covers))
        return cls(items, vertices=order)

    def rank(self, e):
        return len(self.vkey[e])

    def le(self, a, b):
        return self.face_map[b].get(self.vertex_set[a]) == a

    def full_subcomplex(self, w):
        """Subposet of all elements whose vertex set lies inside w."""
        w = {str(v) for v in w}
        keep = [e for e in self.elements if self.vertex_set[e] <= w]
        kept = set(keep)
        items = [(e, sorted(self.vertex_set[e], key=self.vertex_pos.__getitem__),
                  [c for c in self.covers[e] if c in kept])
                 for e in keep]
        return SimplicialPoset(items,
                               vertices=[v for v in self.vertices if v in w])

    def join(self, other, lmap=None, rmap=None):
        """Join: elements are pairs, vertex sets are disjoint unions.

        Vertex ids get ".1"/".2" suffixes when the two vertex sets clash;
        explicit rename maps override that rule.  Element (a, b) has id
        "(a,b)".
        """
        if lmap is None or rmap is None:
            lmap, rmap = join_vertex_maps(self.vertices, other.vertices)
        items = []
        for a in self.elements:
            for b in other.elements:
                vs = ([lmap[v] for v in sorted(self.vertex_set[a],
                                               key=self.vertex_pos.__getitem__)]
                      + [rmap[v] for v in sorted(other.vertex_set[b],
                                                 key=other.vertex_pos.__getitem__)])
                covers = ["(%s,%s)" % (c, b) for c in self.covers[a]]
                covers += ["(%s,%s)" % (a, c) for c in other.covers[b]]
                items.append(("(%s,%s)" % (a, b), vs, covers))
        order = [lmap[v] for v in self.vertices] + [rmap[v] for v in other.vertices]
        return SimplicialPoset(items, vertices=order)

    def __eq__(self, other):
        if not isinstance(other, SimplicialPoset):
            return NotImplemented
        return (self.vertices == other.vertices
                and set(self.elements) == set(other.elements)
                and self.vertex_set == other.vertex_set
                and {e: set(cs) for e, cs in self.covers.items()}
                    == {e: set(cs) for e, cs in other.covers.items()})

    def __repr__(self):
        return "<SimplicialPoset %d elements, %d vertices%s>" % (
            len(self.elements), len(self.vertices),
            "" if self.is_complex else ", not a complex")


def _subsets(seq):
    out = [()]
    for x in seq:
        out += [s + (x,) for s in out]
    return out


def join_vertex_maps(left, right):
    """Rename maps making two vertex lists disjoint: suffix ".1"/".2" on
    every vertex when any id clashes, identity otherwise."""
    if set(left) & set(right):
        return ({v: v + ".1" for v in left}, {v: v + ".2" for v in right})
    return ({v: v for v in left}, {v: v for v in right})


class CharacteristicData:
    """A simplicial poset plus an integer vector per vertex.

    vertices is the ambient totally ordered vertex list; entries that are
    not vertices of the poset are ghosts.  chi maps each vertex id to a
    tuple of n integers.
    """

    __slots__ = ("poset", "vertices", "ghosts", "chi", "n",
                 "vertex_index", "name")

    def __init__(self, poset, vertices, chi, n, name=""):
        self.poset = poset
        self.vertices = tuple(str(v) for v in vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.ghosts = frozenset(self.vertices) - set(poset.vertices)
        self.chi = {str(v): tuple(
            _integer(x, "entry %d of chi[%r]", i, str(v))
            for i, x in enumerate(col)) for v, col in chi.items()}
        self.n = _integer(n, "lattice rank")
        self.name = name

    @classmethod
    def moment_angle(cls, poset, vertices=None, name=""):
        """Identity characteristic data on the full vertex list."""
        if vertices is None:
            vertices = poset.vertices
        vertices = [str(v) for v in vertices]
        n = len(vertices)
        chi = {v: tuple(1 if j == i else 0 for j in range(n))
               for i, v in enumerate(vertices)}
        return cls(poset, vertices, chi, n, name=name)

    @classmethod
    def from_fan(cls, rays, cones, ghost_rays=(), name=""):
        """Simplicial fan: rays are integer vectors, cones list ray indices.

        Vertex ids are "r0", "r1", ... in ray order; ghost_rays are indices
        of rays belonging to no cone.
        """
        rays = [tuple(_integer(x, "entry %d of ray %d", i, r)
                      for i, x in enumerate(ray))
                for r, ray in enumerate(rays)]
        if rays:
            n = len(rays[0])
            if any(len(r) != n for r in rays):
                raise ValueError("rays of unequal length")
        else:
            n = 0
        ghost_rays = set(ghost_rays)
        for i in ghost_rays:
            if not (0 <= i < len(rays)):
                raise ValueError("ghost ray index %r out of range" % (i,))
        ids = ["r%d" % i for i in range(len(rays))]
        facets = []
        for cone in cones:
            cone = list(cone)
            for i in cone:
                if not (0 <= i < len(rays)):
                    raise ValueError("cone ray index %r out of range" % (i,))
                if i in ghost_rays:
                    raise ValueError("ghost ray %d used in a cone" % i)
            facets.append([ids[i] for i in cone])
        poset = SimplicialPoset.from_facets(facets, vertices=[
            ids[i] for i in range(len(rays)) if i not in ghost_rays])
        chi = {ids[i]: rays[i] for i in range(len(rays))}
        return cls(poset, ids, chi, n, name=name)

    @property
    def is_identity_chi(self):
        if self.n != len(self.vertices):
            return False
        for i, v in enumerate(self.vertices):
            if self.chi[v] != tuple(1 if j == i else 0 for j in range(self.n)):
                return False
        return True

    def chi_matrix(self):
        """n x |V| integer matrix whose columns are the chi vectors."""
        cols = [dict(enumerate(self.chi[v])) for v in self.vertices]
        cols = [{i: x for i, x in col.items() if x} for col in cols]
        return ExactMatrix.from_columns(cols, self.n, _ZZ)

    def validate(self):
        """List of problems; empty means the data is valid."""
        problems = []
        if len(set(self.vertices)) != len(self.vertices):
            problems.append("duplicate vertex ids")
        pv = set(self.poset.vertices)
        if not pv <= set(self.vertices):
            problems.append("poset vertices %s missing from vertex list"
                            % sorted(pv - set(self.vertices)))
            return problems
        order = tuple(v for v in self.vertices if v in pv)
        if order != self.poset.vertices:
            problems.append("vertex list order disagrees with the poset order")
        for v in self.vertices:
            col = self.chi.get(v)
            if col is None:
                problems.append("vertex %r has no characteristic vector" % v)
            elif len(col) != self.n:
                problems.append("characteristic vector of %r has length %d, "
                                "expected %d" % (v, len(col), self.n))
        if problems:
            return problems
        for e in self.poset.maximal:
            vs = [self.vertices[i] for i in sorted(
                self.vertex_index[v] for v in self.poset.vertex_set[e])]
            if not vs:
                continue
            cols = [{i: x for i, x in enumerate(self.chi[v]) if x} for v in vs]
            sf = ExactMatrix.from_columns(cols, self.n, _ZZ).smith_normal_form(want=())
            if sf.rank != len(vs) or any(d != 1 for d in sf.diagonal):
                problems.append(
                    "characteristic vectors on face %r do not extend to a "
                    "lattice basis" % e)
        return problems

    def ensure_valid(self):
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def join(self, other, name=""):
        """Join of posets with stacked characteristic vectors."""
        lmap, rmap = join_vertex_maps(self.vertices, other.vertices)
        poset = self.poset.join(other.poset,
                                lmap={v: lmap[v] for v in self.poset.vertices},
                                rmap={v: rmap[v] for v in other.poset.vertices})
        vertices = [lmap[v] for v in self.vertices] + [rmap[v] for v in other.vertices]
        zl, zr = (0,) * self.n, (0,) * other.n
        chi = {lmap[v]: self.chi[v] + zr for v in self.vertices}
        chi.update({rmap[v]: zl + other.chi[v] for v in other.vertices})
        return CharacteristicData(poset, vertices, chi, self.n + other.n,
                                  name=name)

    def __repr__(self):
        return "<CharacteristicData %r: %d vertices (%d ghost), rank %d>" % (
            self.name, len(self.vertices), len(self.ghosts), self.n)


def same_data(a, b):
    """Structural equality of characteristic data (the name is ignored), so
    that independently rebuilt data matches the instance a table was
    computed from."""
    return a is b or (a.vertices == b.vertices and a.chi == b.chi
                      and a.n == b.n and a.poset == b.poset)
