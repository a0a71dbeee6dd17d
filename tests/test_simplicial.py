import pytest
from hypothesis import given, settings, strategies as st

from facetor.simplicial import CharacteristicData, SimplicialPoset, join_vertex_maps

from helpers import cstar2_data, to_dense


def triangle_boundary():
    return SimplicialPoset.from_facets(
        [["a", "b"], ["b", "c"], ["a", "c"]], vertices=["a", "b", "c"])


def double_edge():
    """Two vertices joined by two distinct edges: a poset, not a complex."""
    return SimplicialPoset.from_elements([
        ("0", [], []),
        ("a", ["a"], ["0"]),
        ("b", ["b"], ["0"]),
        ("e1", ["a", "b"], ["a", "b"]),
        ("e2", ["a", "b"], ["a", "b"]),
    ], vertices=["a", "b"])


def test_from_facets_triangle():
    p = triangle_boundary()
    assert p.vertices == ("a", "b", "c")
    assert len(p.elements) == 7
    assert p.bottom == "{}"
    assert p.is_complex
    assert set(p.maximal) == {"{a,b}", "{b,c}", "{a,c}"}
    assert p.rank("{a,b}") == 2
    assert p.le("{a}", "{a,b}")
    assert not p.le("{c}", "{a,b}")
    assert p.face_map["{a,b}"][frozenset({"a"})] == "{a}"
    assert set(p.covers["{a,b}"]) == {"{a}", "{b}"}
    assert tuple(p.by_rank[1]) == ("{a}", "{b}", "{c}")


def test_from_facets_respects_vertex_order():
    p = SimplicialPoset.from_facets([["w", "v"]], vertices=["w", "v"])
    assert p.vertices == ("w", "v")
    assert "{w,v}" in p.elements
    # sorted-by-order inside the id, not lexicographic


def test_from_facets_dedupes_and_closes():
    p = SimplicialPoset.from_facets([["a", "b"], ["a", "b"], ["a"]])
    assert len(p.elements) == 4
    assert set(p.maximal) == {"{a,b}"}


def test_empty_complex():
    p = SimplicialPoset.from_facets([])
    assert p.elements == ("{}",)
    assert p.maximal == ("{}",)
    assert p.vertices == ()


def test_double_edge_poset():
    p = double_edge()
    assert not p.is_complex
    assert set(p.maximal) == {"e1", "e2"}
    assert p.le("a", "e1") and p.le("a", "e2")
    assert p.face_map["e1"][frozenset({"a", "b"})] == "e1"


def test_poset_validation_errors():
    with pytest.raises(ValueError, match="empty face"):
        SimplicialPoset.from_elements([("a", ["a"], [])])
    with pytest.raises(ValueError, match="share vertex"):
        SimplicialPoset.from_elements([
            ("0", [], []), ("a1", ["a"], ["0"]), ("a2", ["a"], ["0"])])
    with pytest.raises(ValueError, match="not Boolean"):
        # Triangle whose cover list omits one edge: the interval has 7
        # elements instead of 8.
        SimplicialPoset.from_elements([
            ("0", [], []),
            ("a", ["a"], ["0"]), ("b", ["b"], ["0"]), ("c", ["c"], ["0"]),
            ("ab", ["a", "b"], ["a", "b"]), ("bc", ["b", "c"], ["b", "c"]),
            ("t", ["a", "b", "c"], ["ab", "bc"]),
        ])
    with pytest.raises(ValueError, match="unknown cover"):
        SimplicialPoset.from_elements([("0", [], []), ("a", ["a"], ["x"])])
    with pytest.raises(ValueError, match="one rank down"):
        SimplicialPoset.from_elements([
            ("0", [], []), ("a", ["a"], ["0"]), ("b", ["b"], ["0"]),
            ("ab", ["a", "b"], ["0"])])
    with pytest.raises(ValueError, match="missing"):
        SimplicialPoset.from_facets([["a", "b"]], vertices=["a"])


def test_full_subcomplex():
    p = triangle_boundary()
    q = p.full_subcomplex({"a", "b"})
    assert q.vertices == ("a", "b")
    assert set(q.elements) == {"{}", "{a}", "{b}", "{a,b}"}
    r = p.full_subcomplex({"a"})
    assert set(r.elements) == {"{}", "{a}"}
    s = p.full_subcomplex(set())
    assert s.elements == ("{}",)


def test_join_of_edges_is_tetrahedron():
    e1 = SimplicialPoset.from_facets([["a", "b"]])
    e2 = SimplicialPoset.from_facets([["c", "d"]])
    j = e1.join(e2)
    assert len(j.elements) == 16
    assert j.vertices == ("a", "b", "c", "d")
    assert j.is_complex
    assert len(j.maximal) == 1
    assert j.rank(j.maximal[0]) == 4


def test_join_renames_on_clash():
    e = SimplicialPoset.from_facets([["a", "b"]])
    j = e.join(e)
    assert j.vertices == ("a.1", "b.1", "a.2", "b.2")
    assert "({a,b},{a,b})" in j.elements
    lmap, rmap = join_vertex_maps(("a",), ("b",))
    assert lmap == {"a": "a"} and rmap == {"b": "b"}


@st.composite
def small_complex(draw):
    nv = draw(st.integers(0, 5))
    verts = [chr(97 + i) for i in range(nv)]
    facets = []
    if nv:
        for _ in range(draw(st.integers(0, 6))):
            facets.append(draw(st.lists(
                st.sampled_from(verts), min_size=1, max_size=nv, unique=True)))
    return facets, verts


@given(small_complex())
@settings(max_examples=80, deadline=None)
def test_random_complex_structure(data):
    facets, verts = data
    p = SimplicialPoset.from_facets(facets, vertices=verts)
    assert p.is_complex
    face_sets = {frozenset(f) for f in facets}
    all_faces = set()
    for f in face_sets:
        sub = [frozenset()]
        for v in f:
            sub += [s | {v} for s in sub]
        all_faces.update(sub)
    all_faces.add(frozenset())
    assert len(p.elements) == len(all_faces)
    # le is exactly vertex-set containment for complexes
    for e in p.elements:
        for f in p.elements:
            assert p.le(e, f) == (p.vertex_set[e] <= p.vertex_set[f])
    maximal_sets = {s for s in all_faces
                    if not any(s < t for t in all_faces)}
    assert {p.vertex_set[e] for e in p.maximal} == maximal_sets


@given(small_complex(), small_complex())
@settings(max_examples=40, deadline=None)
def test_join_counts_multiply(a, b):
    pa = SimplicialPoset.from_facets(a[0], vertices=a[1])
    pb = SimplicialPoset.from_facets(b[0], vertices=b[1])
    j = pa.join(pb)
    assert len(j.elements) == len(pa.elements) * len(pb.elements)
    assert len(j.vertices) == len(pa.vertices) + len(pb.vertices)


# ---------------------------------------------------------------------------
# Characteristic data.

def test_characteristic_data_valid():
    data = cstar2_data()
    assert data.validate() == []
    assert data.ghosts == {"g1", "g2"}
    assert not data.is_identity_chi
    assert to_dense(data.chi_matrix()) == [
        [1, -1, 1, 0], [1, -1, 0, 1], [1, -1, 0, 0]]


def test_characteristic_data_problems():
    poset = SimplicialPoset.from_facets([["v"], ["w"]])
    bad = CharacteristicData(poset, ["v", "w"], {"v": (1, 0), "w": (2, 0)}, 2)
    assert any("lattice basis" in p for p in bad.validate())
    short = CharacteristicData(poset, ["v", "w"], {"v": (1,), "w": (0, 1)}, 2)
    assert any("length" in p for p in short.validate())
    missing = CharacteristicData(poset, ["v"], {"v": (1,)}, 1)
    assert any("missing from vertex list" in p for p in missing.validate())
    disorder = CharacteristicData(poset, ["w", "v"],
                                  {"v": (1, 0), "w": (0, 1)}, 2)
    assert any("order" in p for p in disorder.validate())
    with pytest.raises(ValueError):
        bad.ensure_valid()


def test_moment_angle_identity():
    poset = triangle_boundary()
    mac = CharacteristicData.moment_angle(poset)
    assert mac.is_identity_chi
    assert mac.validate() == []
    with_ghost = CharacteristicData.moment_angle(poset, vertices=["a", "b", "c", "g"])
    assert with_ghost.is_identity_chi
    assert with_ghost.ghosts == {"g"}
    assert with_ghost.validate() == []


def test_from_fan():
    p2 = CharacteristicData.from_fan(
        [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]], name="p2")
    assert p2.validate() == []
    assert p2.vertices == ("r0", "r1", "r2")
    assert len(p2.poset.elements) == 7
    notsmooth = CharacteristicData.from_fan([(1, 0), (1, 2)], [[0, 1]])
    assert any("lattice basis" in p for p in notsmooth.validate())
    with_ghost = CharacteristicData.from_fan([(1,), (-1,), (2,)], [[0], [1]],
                                             ghost_rays=[2])
    assert with_ghost.ghosts == {"r2"}
    assert with_ghost.validate() == []
    with pytest.raises(ValueError, match="ghost ray"):
        CharacteristicData.from_fan([(1,)], [[0]], ghost_rays=[0])
    with pytest.raises(ValueError, match="unequal"):
        CharacteristicData.from_fan([(1, 0), (1,)], [])


def test_join_characteristic_data():
    a = cstar2_data()
    j = a.join(a)
    assert j.n == 6
    assert j.validate() == []
    assert j.vertices == ("v.1", "w.1", "g1.1", "g2.1",
                          "v.2", "w.2", "g1.2", "g2.2")
    assert j.chi["v.1"] == (1, 1, 1, 0, 0, 0)
    assert j.chi["w.2"] == (0, 0, 0, -1, -1, -1)
    assert j.ghosts == {"g1.1", "g2.1", "g1.2", "g2.2"}
    # moment-angle join stays moment-angle
    p = SimplicialPoset.from_facets([["a"]])
    q = SimplicialPoset.from_facets([["b"]])
    m = CharacteristicData.moment_angle(p).join(CharacteristicData.moment_angle(q))
    assert m.is_identity_chi
