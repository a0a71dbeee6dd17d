"""JSON documents for characteristic data and morphisms.

A data document fixes the vertex order by its vertices array and carries
the poset in exactly one of three shapes:

    {"name": "...", "lattice_rank": 2,
     "vertices": [{"id": "v", "chi": [1, 0]},
                  {"id": "g", "chi": [0, 1], "ghost": true}],
     "facets": [["v"]]}

"elements" (explicit ids with vertex lists and cover lists, for posets
that are not complexes) or "fan" ({"rays", "cones", "ghost_rays"}, ids
become "r0", "r1", ...) replace "facets".  Every vertex lies in a facet
or an element unless it is marked ghost, and likewise every ray lies in
a cone unless ghost_rays lists it; a ghost lies in none.  A morphism
document names its endpoints, which travel as separate data documents:

    {"name": "...", "source": "...", "target": "...",
     "matrix": [[2, 0], [0, 2]], "nu": [["{v}", "{v}"]]}

Shape errors raise DocumentError with the offending field path in the
message.  Emitted documents re-parse to structurally equal data.
"""

import json

from .simplicial import CharacteristicData, SimplicialPoset
from .toricmorphism import ToricMorphism


class DocumentError(ValueError):
    """The text or tree does not match the document shape."""


def _fail(path, message):
    raise DocumentError("%s: %s" % (path, message))


def _dict(obj, path, allowed, required):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        _fail(path, "unknown keys %s" % ", ".join(map(repr, unknown)))
    for key in required:
        if key not in obj:
            _fail(path, "missing key %r" % key)
    return obj


def _list(obj, path):
    if not isinstance(obj, list):
        _fail(path, "expected an array")
    return obj


def _str(obj, path):
    if not isinstance(obj, str):
        _fail(path, "expected a string")
    return obj


def _int(obj, path):
    # bool is an int subclass; a document saying true where a number
    # belongs is a mistake worth naming
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, "expected an integer")
    return obj


def _int_list(obj, path):
    return [_int(x, "%s[%d]" % (path, i)) for i, x in enumerate(_list(obj, path))]


def load_document(text):
    """Parse JSON text into a tree; syntax errors become DocumentError."""
    try:
        return json.loads(text)
    except ValueError as e:
        raise DocumentError("invalid JSON: %s" % e)


def dump_document(doc):
    """Serialize a document tree deterministically."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_vertices(obj, n, path):
    order, chi, ghosts = [], {}, set()
    for i, entry in enumerate(_list(obj, path)):
        p = "%s[%d]" % (path, i)
        _dict(entry, p, ("id", "chi", "ghost"), ("id", "chi"))
        vid = _str(entry["id"], p + ".id")
        if not vid:
            _fail(p + ".id", "empty id")
        if vid in chi:
            _fail(p + ".id", "duplicate vertex id %r" % vid)
        col = _int_list(entry["chi"], p + ".chi")
        if len(col) != n:
            _fail(p + ".chi", "expected %d entries, got %d" % (n, len(col)))
        ghost = entry.get("ghost", False)
        if not isinstance(ghost, bool):
            _fail(p + ".ghost", "expected a boolean")
        order.append(vid)
        chi[vid] = tuple(col)
        if ghost:
            ghosts.add(vid)
    return order, chi, ghosts


def _vertex_ids(obj, chi, ghosts, path):
    """The vertex ids of a facet or an element: strings naming listed
    vertices that are not marked ghost."""
    vs = [_str(v, "%s[%d]" % (path, j)) for j, v in enumerate(_list(obj, path))]
    for j, v in enumerate(vs):
        if v not in chi:
            _fail("%s[%d]" % (path, j), "unknown vertex %r" % v)
        if v in ghosts:
            _fail("%s[%d]" % (path, j), "vertex %r is marked ghost" % v)
    return vs


def _parse_facets(obj, chi, ghosts, path):
    return [_vertex_ids(facet, chi, ghosts, "%s[%d]" % (path, i))
            for i, facet in enumerate(_list(obj, path))]


def _parse_elements(obj, chi, ghosts, path):
    items, seen = [], set()
    for i, entry in enumerate(_list(obj, path)):
        p = "%s[%d]" % (path, i)
        _dict(entry, p, ("id", "vertices", "covers"), ("id", "vertices", "covers"))
        eid = _str(entry["id"], p + ".id")
        if eid in seen:
            _fail(p + ".id", "duplicate element id %r" % eid)
        seen.add(eid)
        vs = _vertex_ids(entry["vertices"], chi, ghosts, p + ".vertices")
        cs = [_str(c, "%s.covers[%d]" % (p, j))
              for j, c in enumerate(_list(entry["covers"], p + ".covers"))]
        items.append((eid, vs, cs))
    return items


def parse_data_document(obj, path="data"):
    """Build CharacteristicData from a document tree."""
    _dict(obj, path,
          ("name", "lattice_rank", "vertices", "facets", "elements", "fan"), ())
    name = _str(obj.get("name", ""), path + ".name")
    kinds = [k for k in ("facets", "elements", "fan") if k in obj]
    if len(kinds) != 1:
        _fail(path, 'need exactly one of "facets", "elements", "fan"')
    kind = kinds[0]

    if kind == "fan":
        for key in ("lattice_rank", "vertices"):
            if key in obj:
                _fail("%s.%s" % (path, key), "not allowed with a fan")
        fan = _dict(obj["fan"], path + ".fan",
                    ("rays", "cones", "ghost_rays"), ("rays", "cones"))
        rays = [_int_list(r, "%s.fan.rays[%d]" % (path, i))
                for i, r in enumerate(_list(fan["rays"], path + ".fan.rays"))]
        cones = [_int_list(c, "%s.fan.cones[%d]" % (path, i))
                 for i, c in enumerate(_list(fan["cones"], path + ".fan.cones"))]
        ghost_rays = _int_list(fan.get("ghost_rays", []), path + ".fan.ghost_rays")
        try:
            data = CharacteristicData.from_fan(rays, cones,
                                               ghost_rays=ghost_rays, name=name)
        except ValueError as e:
            _fail(path + ".fan", str(e))
        used = {i for cone in cones for i in cone}
        for i in range(len(rays)):
            if i not in used and i not in ghost_rays:
                _fail("%s.fan.rays[%d]" % (path, i),
                      "ray %d lies in no cone; list it in ghost_rays" % i)
        return data

    for key in ("lattice_rank", "vertices"):
        if key not in obj:
            _fail(path, "missing key %r" % key)
    n = _int(obj["lattice_rank"], path + ".lattice_rank")
    if n < 0:
        _fail(path + ".lattice_rank", "expected a nonnegative integer")
    order, chi, ghosts = _parse_vertices(obj["vertices"], n, path + ".vertices")

    if kind == "facets":
        facets = _parse_facets(obj["facets"], chi, ghosts, path + ".facets")
        used = {v for f in facets for v in f}
        builder = SimplicialPoset.from_facets
        args = (facets,)
    else:
        items = _parse_elements(obj["elements"], chi, ghosts, path + ".elements")
        used = {v for _, vs, _ in items for v in vs}
        builder = SimplicialPoset.from_elements
        args = (items,)
    for i, v in enumerate(order):
        if v not in ghosts and v not in used:
            _fail("%s.vertices[%d]" % (path, i),
                  "vertex %r appears nowhere; mark it ghost" % v)
    try:
        poset = builder(*args, vertices=[v for v in order if v not in ghosts])
    except ValueError as e:
        _fail(path + "." + kind, str(e))
    return CharacteristicData(poset, order, chi, n, name=name)


def parse_morphism_document(obj, source, target, path="morphism"):
    """Build a ToricMorphism between already parsed data documents.

    The document's source and target names must match the data; nu pairs
    map source poset elements to target poset elements, and the pair for
    the empty face may be left out.
    """
    _dict(obj, path, ("name", "source", "target", "matrix", "nu"),
          ("source", "target", "matrix", "nu"))
    name = _str(obj.get("name", ""), path + ".name")
    sname = _str(obj["source"], path + ".source")
    tname = _str(obj["target"], path + ".target")
    if sname != source.name:
        _fail(path + ".source",
              "document names %r but the source data is %r" % (sname, source.name))
    if tname != target.name:
        _fail(path + ".target",
              "document names %r but the target data is %r" % (tname, target.name))

    rows = _list(obj["matrix"], path + ".matrix")
    if len(rows) != target.n:
        _fail(path + ".matrix",
              "expected %d rows (target lattice rank), got %d"
              % (target.n, len(rows)))
    matrix = []
    for i, row in enumerate(rows):
        p = "%s.matrix[%d]" % (path, i)
        row = _int_list(row, p)
        if len(row) != source.n:
            _fail(p, "expected %d entries (source lattice rank), got %d"
                  % (source.n, len(row)))
        matrix.append(row)

    nu = {}
    for i, pair in enumerate(_list(obj["nu"], path + ".nu")):
        p = "%s.nu[%d]" % (path, i)
        pair = _list(pair, p)
        if len(pair) != 2:
            _fail(p, "expected a [source element, target element] pair")
        a = _str(pair[0], p + "[0]")
        b = _str(pair[1], p + "[1]")
        if a not in source.poset.vertex_set:
            _fail(p + "[0]", "unknown source element %r" % a)
        if b not in target.poset.vertex_set:
            _fail(p + "[1]", "unknown target element %r" % b)
        if a in nu:
            _fail(p + "[0]", "repeated source element %r" % a)
        nu[a] = b
    nu.setdefault(source.poset.bottom, target.poset.bottom)
    return ToricMorphism(source, target, matrix, nu, name=name)


def _canonical_complex(poset):
    """True when element ids are the brace-and-sorted-vertices form that
    rebuilding from facets would reproduce."""
    if not poset.is_complex:
        return False
    pos = poset.vertex_pos
    for e in poset.elements:
        vs = sorted(poset.vertex_set[e], key=pos.__getitem__)
        if e != "{%s}" % ",".join(vs):
            return False
    return True


def data_document(data):
    """Document tree for characteristic data; parsing it back yields
    structurally equal data."""
    doc = {"name": data.name, "lattice_rank": data.n, "vertices": []}
    for v in data.vertices:
        entry = {"id": v, "chi": list(data.chi[v])}
        if v in data.ghosts:
            entry["ghost"] = True
        doc["vertices"].append(entry)
    poset = data.poset
    pos = poset.vertex_pos
    if _canonical_complex(poset):
        doc["facets"] = [sorted(poset.vertex_set[e], key=pos.__getitem__)
                         for e in poset.maximal]
    else:
        doc["elements"] = [
            {"id": e,
             "vertices": sorted(poset.vertex_set[e], key=pos.__getitem__),
             "covers": sorted(poset.covers[e])}
            for e in poset.elements]
    return doc


def morphism_document(phi):
    """Document tree for a morphism (endpoints travel separately)."""
    return {"name": phi.name,
            "source": phi.source.name,
            "target": phi.target.name,
            "matrix": [list(row) for row in phi.A],
            "nu": [[e, phi.nu[e]] for e in phi.source.poset.elements]}
