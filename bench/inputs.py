"""Seeded inputs for the benchmark workloads.

Every workload starts from reference inputs drawn once from fixed random
streams; the default seed uses them as they are.  Any other seed renames
the vertices and shuffles facets, elements and cones, but keeps the
vertex order and the characteristic vectors, so the engine sees other
documents and names while doing the same work.  On purpose, the seed
neither draws new complexes nor reorders vertices: fresh samples from
the same distribution differ by about a fifth in total cost from seed to
seed, and a new vertex order changes single operations by up to four
times, both wider than any regression bound worth having.
"""

import random

from facetor.documents import morphism_document, parse_data_document
from facetor.koszul import compute_q
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.toricmorphism import ToricMorphism, power_morphism

DEFAULT_SEED = 20260819

# Vertex-count mix of the fixed-seed acceptance sample in the test suite.
SAMPLE_SIZES = [2] * 6 + [3] * 12 + [4] * 14 + [5] * 12 + [6] * 8


def _draw_facets(rng, nv):
    names = [str(i) for i in range(1, nv + 1)]
    facets = [rng.sample(names, rng.randint(1, min(nv, 4)))
              for _ in range(rng.randint(1, nv + 2))]
    return names, facets


def acceptance_sample():
    """(index, vertex count, ambient vertex list, facets) of the 52 data
    sets drawn by random.Random(20260819): identity chi, at most two
    ghost vertices appended after the used ones."""
    rng = random.Random(DEFAULT_SEED)
    out = []
    for count, nv in enumerate(SAMPLE_SIZES):
        names, facets = _draw_facets(rng, nv)
        used = list(SimplicialPoset.from_facets(facets).vertices)
        ghosts = [v for v in names if v not in set(used)][:2]
        out.append((count, nv, used + ghosts, facets))
    return out


def thin_evenly(items, key, every):
    """Every `every`-th item of each group with the same key, first
    included, in the original order."""
    seen = {}
    out = []
    for item in items:
        k = key(item)
        pos = seen.get(k, 0)
        seen[k] = pos + 1
        if pos % every == 0:
            out.append(item)
    return out


def _rename(names, rng):
    shuffled = list(names)
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def moment_angle_data(ambient, facets, name, rng=None):
    """Identity-chi data on the given facets; with rng, vertices are
    renamed in place and the facets shuffled."""
    if rng is not None:
        ren = _rename(ambient, rng)
        facets = _shuffled([_shuffled([ren[v] for v in f], rng)
                            for f in facets], rng)
        ambient = [ren[v] for v in ambient]
    poset = SimplicialPoset.from_facets(facets, vertices=ambient)
    return CharacteristicData.moment_angle(poset, vertices=ambient, name=name)


def moment_angle_elements(items, name, rng=None):
    """Identity-chi data on a simplicial poset given by (id, vertices,
    covers) items, vertices in order of first appearance; with rng,
    vertices are renamed in place and the items shuffled."""
    order = []
    for _, vs, _ in items:
        order.extend(v for v in vs if v not in order)
    if rng is not None:
        ren = _rename(order, rng)
        items = _shuffled([(e, [ren[v] for v in vs], cs)
                           for e, vs, cs in items], rng)
        order = [ren[v] for v in order]
    poset = SimplicialPoset.from_elements(items, vertices=order)
    return CharacteristicData.moment_angle(poset, vertices=order, name=name)


def cycle_facets(k):
    return [[str(i + 1), str((i + 1) % k + 1)] for i in range(k)]


def doubled_polygon_items(k):
    """Boundary of a k-gon with every edge doubled: a simplicial poset
    that is not a simplicial complex."""
    items = [("0", [], [])]
    items += [("v%d" % i, [str(i)], ["0"]) for i in range(1, k + 1)]
    for i in range(1, k + 1):
        j = i % k + 1
        for tag in "ab":
            items.append(("e%d%s" % (i, tag), [str(i), str(j)],
                          ["v%d" % i, "v%d" % j]))
    return items


# Smooth complete fans: rays and maximal cones.
FANS = {
    "P3": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "dP6": ([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]),
    "P1xP1xP1": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [0, 0, 1], [0, 0, -1]],
                 [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]),
}

# Rays of smooth complete plane fans, adjacent rays spanning the lattice;
# they give quotient data on the doubled polygons.
POLYGON_RAYS = {
    4: [[1, 0], [0, 1], [-1, 0], [0, -1]],
    5: [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
    6: [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
}


def fan_document(name, rng=None):
    """Fan document; with rng, the cones and their rays are shuffled (the
    vertex ids r0, r1, ... follow the ray order, which stays)."""
    rays, cones = FANS[name]
    if rng is not None:
        cones = _shuffled([_shuffled(c, rng) for c in cones], rng)
    return {"name": name, "fan": {"rays": [list(r) for r in rays],
                                  "cones": [list(c) for c in cones]}}


def doubled_polygon_document(k, rng=None):
    items = doubled_polygon_items(k)
    verts = [str(i) for i in range(1, k + 1)]
    chi = dict(zip(verts, POLYGON_RAYS[k]))
    doc = {"name": "doubled-%d-gon" % k, "lattice_rank": 2,
           "vertices": [{"id": v, "chi": list(chi[v])} for v in verts],
           "elements": [{"id": e, "vertices": vs, "covers": cs}
                        for e, vs, cs in items]}
    return relabel_document(doc, rng) if rng is not None else doc


def relabel_document(doc, rng):
    """Rename the vertices of a facets or elements document in place and
    shuffle its facets or elements."""
    ren = _rename([v["id"] for v in doc["vertices"]], rng)
    out = dict(doc, vertices=[dict(v, id=ren[v["id"]])
                              for v in doc["vertices"]])
    if "facets" in doc:
        out["facets"] = _shuffled([_shuffled([ren[v] for v in f], rng)
                                   for f in doc["facets"]], rng)
    else:
        out["elements"] = _shuffled(
            [dict(e, vertices=[ren[v] for v in e["vertices"]])
             for e in doc["elements"]], rng)
    return out


def _unimodular(n, rng, steps):
    """A random integer matrix of determinant +-1 and its inverse, as a
    product of elementary row operations."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # mat <- E mat with E = I + c e_ij; inv <- inv E^-1
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        for row in inv:
            row[j] -= c * row[i]
    return mat, inv


def _mat_vec(mat, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def random_quotient_document(rng, name, m, n, faces, max_tries=20000):
    """Facets document of a partial quotient: a random complex on m
    vertices (facets of at most min(n, 4) vertices, a number of faces in
    the range `faces`, which sets the cost of one table) with random
    characteristic vectors in a rank-n lattice that pass validation and
    give a nonzero twist."""
    names = ["x%d" % i for i in range(1, m + 1)]
    for _ in range(max_tries):
        facets = [sorted(rng.sample(names, rng.randint(1, min(n, 4))))
                  for _ in range(rng.randint(2, m + 1))]
        used = {v for f in facets for v in f}
        if len(used) != m:
            continue
        doc = {"name": name, "lattice_rank": n,
               "vertices": [{"id": v, "chi": [rng.choice((-1, 0, 0, 1))
                                              for _ in range(n)]}
                            for v in names],
               "facets": facets}
        data = parse_data_document(doc)
        if len(data.poset.elements) not in faces:
            continue
        if data.validate() or compute_q(data).is_zero:
            continue
        return doc
    raise RuntimeError("no valid quotient found for %s" % name)


def basis_change_documents(doc, rng, steps=3):
    """(source document, morphism document) for a unimodular change of
    lattice basis into the given data: the source carries U chi and the
    morphism matrix is U^-1, with nu the identity."""
    n = doc["lattice_rank"]
    mat, inv = _unimodular(n, rng, steps)
    source = dict(doc, name=doc["name"] + " rebased",
                  vertices=[dict(v, chi=_mat_vec(mat, v["chi"]))
                            for v in doc["vertices"]])
    sdata = parse_data_document(source)
    tdata = parse_data_document(doc)
    nu = {e: e for e in sdata.poset.elements}
    phi = ToricMorphism(sdata, tdata, inv, nu, name="basis-change")
    return source, morphism_document(phi)


def power_morphism_document(doc, r):
    phi = power_morphism(parse_data_document(doc), r)
    return morphism_document(phi)
