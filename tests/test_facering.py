from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

from facetor.documents import parse_data_document
from facetor.examples import data_cstar2_rebased
from facetor.exactalg import CoefficientRing
from facetor.facering import (
    FaceRing,
    FaceRingMap,
    LimitPresentationError,
    format_element,
    format_monomial,
    monomial_degree,
    pullback,
)
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.toricmorphism import ToricMorphism, cox_projection, \
    diagonal_morphism, lift, power_morphism

from helpers import DOUBLED_HEXAGON, DOUBLED_PENTAGON, cstar2_data, \
    double_edge_poset, product_restrictions, pullback_restrictions, \
    small_characteristic_data, small_complex_facets, small_poset_data, \
    solid_simplex

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F3 = CoefficientRing.integers_mod(3)


def triangle_boundary():
    return SimplicialPoset.from_facets(
        [["a", "b"], ["b", "c"], ["a", "c"]], vertices=["a", "b", "c"])


# ---------------------------------------------------------------------------
# Oracles.

def count_monomials_by_exponent_vectors(poset, m):
    """For complexes: count exponent vectors of weight m supported on faces."""
    verts = poset.vertices
    face_sets = {poset.vertex_set[e] for e in poset.elements}

    def rec(pos, left):
        if pos == len(verts):
            return [()] if left == 0 else []
        return [(x,) + tail for x in range(left + 1)
                for tail in rec(pos + 1, left - x)]

    vecs = [v for v in rec(0, m)
            if frozenset(verts[i] for i, x in enumerate(v) if x) in face_sets]
    return len(vecs)


def count_monomials_by_chains(poset, m):
    """Count standard monomials of weight m by enumerating chains first."""
    nonempty = [e for e in poset.elements if poset.rank(e)]

    def chains_from(e):
        yield (e,)
        for f in nonempty:
            if f != e and poset.le(e, f):
                for tail in chains_from(f):
                    yield (e,) + tail

    total = 1 if m == 0 else 0
    for start in nonempty:
        for chain in chains_from(start):
            ranks = [poset.rank(e) for e in chain]

            def ways(pos, left):
                if pos == len(ranks):
                    return 1 if left == 0 else 0
                r = ranks[pos]
                return sum(ways(pos + 1, left - i * r)
                           for i in range(1, left // r + 1))

            total += ways(0, m)
    return total


def pullback_coefficient_oracle(fmap, tau, mono, ring):
    """C(tau; mono) by direct enumeration of vertex maps with prescribed
    multiplicities, following the multiset formula."""
    src, tgt = fmap.source, fmap.target
    if not mono:
        return ring.zero()
    top = mono[-1][0]
    if not tgt.poset.le(tau, fmap.nu[top]):
        return ring.zero()
    tau_verts = tgt.face_vertices(tau)
    top_verts = src.face_vertices(top)
    mult = dict(zip(src.poset.vertices, src.exponent_vector(mono)))
    total = 0
    for images in iproduct(top_verts, repeat=len(tau_verts)):
        counts = {}
        for v2 in images:
            counts[v2] = counts.get(v2, 0) + 1
        if any(counts.get(v2, 0) != mult.get(v2, 0) for v2 in top_verts):
            continue
        p = 1
        for v, v2 in zip(tau_verts, images):
            p *= fmap.columns.get(v2, {}).get(v, 0)
        total += p
    return ring.convert(total)


def pullback_generator_oracle(fmap, tau, ring):
    """Full image of t_tau from the multiset formula."""
    d = 2 * fmap.target.poset.rank(tau)
    out = {}
    for mono in fmap.source.basis_of_degree(d):
        c = pullback_coefficient_oracle(fmap, tau, mono, ring)
        if c:
            out[mono] = c
    return out


# ---------------------------------------------------------------------------
# Bases and formatting.

def test_basis_known_counts_triangle():
    fr = FaceRing(triangle_boundary())
    assert fr.basis_of_degree(0) == ((),)
    assert len(fr.basis_of_degree(2)) == 3
    assert len(fr.basis_of_degree(4)) == 6
    assert fr.basis_of_degree(3) == ()
    assert fr.basis_of_degree(-2) == ()


def test_basis_known_counts_double_edge():
    fr = FaceRing(double_edge_poset())
    assert len(fr.basis_of_degree(2)) == 2
    assert len(fr.basis_of_degree(4)) == 4   # a^2, b^2, e1, e2
    assert len(fr.basis_of_degree(6)) == 6   # a^3, b^3, a*e_i, b*e_i


@given(small_complex_facets(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_basis_matches_exponent_vector_count(data, m):
    facets, verts = data
    poset = SimplicialPoset.from_facets(facets, vertices=verts)
    fr = FaceRing(poset)
    assert len(fr.basis_of_degree(2 * m)) == \
        count_monomials_by_exponent_vectors(poset, m)


@given(st.integers(0, 5))
@settings(max_examples=6, deadline=None)
def test_basis_matches_chain_count_on_poset(m):
    poset = double_edge_poset()
    fr = FaceRing(poset)
    assert len(fr.basis_of_degree(2 * m)) == count_monomials_by_chains(poset, m)


def test_monomial_degree_and_format():
    poset = triangle_boundary()
    fr = FaceRing(poset)
    mono = (("{a}", 1), ("{a,b}", 2))
    assert monomial_degree(poset, mono) == 2 * (1 + 2 * 2)
    assert format_monomial(mono) == "t[{a}]*t[{a,b}]^2"
    assert format_monomial(()) == "1"
    assert format_element({}) == "0"
    assert format_element({(): 2, mono: -1}) == "2-t[{a}]*t[{a,b}]^2"
    assert fr.t_vertex("a") == (("{a}", 1),)


def test_basis_monomials_are_valid_chains():
    poset = double_edge_poset()
    fr = FaceRing(poset)
    for d in (0, 2, 4, 6, 8):
        for mono in fr.basis_of_degree(d):
            assert monomial_degree(poset, mono) == d
            for (e1, i1), (e2, i2) in zip(mono, mono[1:]):
                assert poset.le(e1, e2) and e1 != e2
                assert i1 >= 1 and i2 >= 1


# ---------------------------------------------------------------------------
# Restriction.

def test_restrict_triangle():
    fr = FaceRing(triangle_boundary())
    f = {fr.t_vertex("a"): 2, fr.t_vertex("c"): 1}
    assert fr.restrict(f, "{a,b}") == {(1, 0): 2}
    assert fr.restrict(f, "{a,c}") == {(1, 0): 2, (0, 1): 1}
    assert fr.restrict({(("{a,b}", 1),): 1}, "{a,b}") == {(1, 1): 1}
    assert fr.restrict({(("{a,b}", 1),): 1}, "{b,c}") == {}


def test_restrict_double_edge_merges():
    fr = FaceRing(double_edge_poset())
    f = {(("e1", 1),): 1, (("e2", 1),): 1}
    assert fr.restrict(f, "e1") == {(1, 1): 1}
    assert fr.restrict(f, "e2") == {(1, 1): 1}


# ---------------------------------------------------------------------------
# Multiplication.

def test_multiply_double_edge_relations():
    fr = FaceRing(double_edge_poset())
    ta, tb = {fr.t_vertex("a"): 1}, {fr.t_vertex("b"): 1}
    te1, te2 = {(("e1", 1),): 1}, {(("e2", 1),): 1}
    assert fr.multiply(te1, te2, ZZ) == {}
    assert fr.multiply(ta, tb, ZZ) == {(("e1", 1),): 1, (("e2", 1),): 1}
    assert fr.multiply(te1, te1, ZZ) == {(("e1", 2),): 1}
    assert fr.multiply(ta, te1, ZZ) == {(("a", 1), ("e1", 1)): 1}
    assert fr.multiply(ta, ta, ZZ) == {(("a", 2),): 1}


def test_multiply_complex_kills_non_faces():
    fr = FaceRing(triangle_boundary())
    ta, tb, tc = ({fr.t_vertex(v): 1} for v in "abc")
    ab = fr.multiply(ta, tb, ZZ)
    assert ab == {(("{a,b}", 1),): 1}
    assert fr.multiply(ab, tc, ZZ) == {}


def test_multiply_rings_and_units():
    fr = FaceRing(triangle_boundary())
    ta = {fr.t_vertex("a"): 2}
    one = {(): 1}
    assert fr.multiply(ta, one, ZZ) == ta
    assert fr.multiply(ta, {}, ZZ) == {}
    assert fr.multiply(ta, ta, F3) == {(("{a}", 2),): 1}
    assert fr.multiply({(): Fraction(1, 2)}, ta, QQ) == \
        {(("{a}", 1),): Fraction(1)}


@pytest.mark.parametrize("doc", [DOUBLED_PENTAGON, DOUBLED_HEXAGON],
                         ids=lambda doc: doc["name"])
def test_straightening_matches_restriction_exhaustively(doc):
    fr = FaceRing(parse_data_document(doc).poset)
    monos = [m for d in (0, 2, 4, 6) for m in fr.basis_of_degree(d)]
    for a in monos:
        for b in monos:
            got = fr.monomial_product(a, b)
            want = fr._resolve(product_restrictions(fr, {a: 1}, {b: 1}), ZZ)
            assert got == tuple(want.items())
            assert all(type(k) is int for _, k in got)


@given(small_complex_facets(max_vertices=4), st.data())
@settings(max_examples=50, deadline=None)
def test_multiply_complex_fast_path_matches_limit_path(data, draw):
    facets, verts = data
    fr = FaceRing(SimplicialPoset.from_facets(facets, vertices=verts))

    def rand_elem(max_half=2):
        out = {}
        for d in (0, 2, 4):
            basis = fr.basis_of_degree(d)
            if basis:
                mono = draw.draw(st.sampled_from(basis))
                c = draw.draw(st.integers(-3, 3))
                if c:
                    out[mono] = c
        return out

    f, g = rand_elem(), rand_elem()
    fast = fr.multiply(f, g, ZZ)
    slow = fr._resolve(product_restrictions(fr, f, g), ZZ)
    assert fast == slow


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_multiply_poset_commutative_associative(draw):
    fr = FaceRing(double_edge_poset())

    def rand_elem():
        out = {}
        for d in (0, 2, 4):
            for mono in fr.basis_of_degree(d):
                c = draw.draw(st.integers(-2, 2))
                if c:
                    out[mono] = c
        return out

    f, g, h = rand_elem(), rand_elem(), rand_elem()
    assert fr.multiply(f, g, ZZ) == fr.multiply(g, f, ZZ)
    fg_h = fr.multiply(fr.multiply(f, g, ZZ), h, ZZ)
    f_gh = fr.multiply(f, fr.multiply(g, h, ZZ), ZZ)
    assert fg_h == f_gh


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_multiply_mod_p_is_reduction_of_integer_product(draw):
    fr = FaceRing(double_edge_poset())

    def rand_elem():
        out = {}
        for d in (0, 2, 4):
            for mono in fr.basis_of_degree(d):
                c = draw.draw(st.integers(-4, 4))
                if c:
                    out[mono] = c
        return out

    f, g = rand_elem(), rand_elem()
    over_z = fr.multiply(f, g, ZZ)
    reduced = {m: c % 3 for m, c in over_z.items() if c % 3}
    fmod = {m: c % 3 for m, c in f.items() if c % 3}
    gmod = {m: c % 3 for m, c in g.items() if c % 3}
    assert fr.multiply(fmod, gmod, F3) == reduced


@given(small_complex_facets(max_vertices=4), st.data())
@settings(max_examples=40, deadline=None)
def test_exponent_vector_roundtrip(data, draw):
    facets, verts = data
    fr = FaceRing(SimplicialPoset.from_facets(facets, vertices=verts))
    basis = fr.basis_of_degree(draw.draw(st.sampled_from((2, 4, 6))))
    if not basis:
        return
    mono = draw.draw(st.sampled_from(basis))
    assert fr.monomials_from_exponents(fr.exponent_vector(mono)) == (mono,)
    # on a poset: every monomial of each exponent vector, in basis order
    pentagon = FaceRing(parse_data_document(DOUBLED_PENTAGON).poset)
    for d in range(0, 7, 2):
        by_vector = {}
        for mono in pentagon.basis_of_degree(d):
            by_vector.setdefault(pentagon.exponent_vector(mono),
                                 []).append(mono)
        assert any(len(monos) > 1 for monos in by_vector.values()) == (d > 2)
        for vec, monos in by_vector.items():
            assert pentagon.monomials_from_exponents(vec) == tuple(monos)


# ---------------------------------------------------------------------------
# Pullback.

def identity_map(fr):
    nu = {e: e for e in fr.poset.elements}
    columns = {v: {v: 1} for v in fr.poset.vertices}
    return nu, columns


def test_pullback_identity_complex_and_poset():
    for poset in (triangle_boundary(), double_edge_poset()):
        fr = FaceRing(poset)
        nu, columns = identity_map(fr)
        fmap = FaceRingMap(fr, fr, nu, columns)
        for d in (0, 2, 4):
            for mono in fr.basis_of_degree(d):
                assert fmap({mono: 1}, ZZ) == {mono: 1}


def test_pullback_subcomplex_inclusion():
    tgt = FaceRing(triangle_boundary())
    src_poset = tgt.poset.full_subcomplex({"a", "b"})
    src = FaceRing(src_poset)
    nu = {e: e for e in src_poset.elements}
    columns = {v: {v: 1} for v in src_poset.vertices}
    fmap = FaceRingMap(tgt, src, nu, columns)
    assert fmap({tgt.t_vertex("a"): 1}, ZZ) == {src.t_vertex("a"): 1}
    assert fmap({tgt.t_vertex("c"): 1}, ZZ) == {}
    assert fmap({(("{a,b}", 1),): 1}, ZZ) == {(("{a,b}", 1),): 1}
    assert fmap({(("{b,c}", 1),): 1}, ZZ) == {}


def test_pullback_zero_map():
    fr = FaceRing(triangle_boundary())
    nu = {e: fr.poset.bottom for e in fr.poset.elements}
    columns = {v: {} for v in fr.poset.vertices}
    fmap = FaceRingMap(fr, fr, nu, columns)
    assert fmap({fr.t_vertex("a"): 1}, ZZ) == {}
    assert fmap({(): 5}, ZZ) == {(): 5}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pullback_substitution_on_solid_simplex(draw):
    # On a full simplex the face ring is a polynomial ring, so any integer
    # columns give a valid map once nu sends every nonempty face to the top
    # (column supports must sit inside nu of their vertex); the engine and
    # the multiset-formula oracle must agree on every generator.
    poset = solid_simplex(2)
    fr = FaceRing(poset)
    top = poset.maximal[0]
    nu = {e: poset.bottom if e == poset.bottom else top
          for e in poset.elements}
    columns = {v2: {v: draw.draw(st.integers(-2, 2))
                    for v in poset.vertices}
               for v2 in poset.vertices}
    fmap = FaceRingMap(fr, fr, nu, columns)
    for tau in poset.elements:
        if poset.rank(tau) == 0:
            continue
        assert fmap({((tau, 1),): 1}, ZZ) == \
            pullback_generator_oracle(fmap, tau, ZZ)


def test_pullback_multiset_oracle_on_poset_identity():
    fr = FaceRing(double_edge_poset())
    nu, columns = identity_map(fr)
    fmap = FaceRingMap(fr, fr, nu, columns)
    for tau in ("a", "e1", "e2"):
        assert fmap({((tau, 1),): 1}, ZZ) == \
            pullback_generator_oracle(fmap, tau, ZZ)


def test_pullback_is_ring_map_on_simplex():
    poset = solid_simplex(2)
    fr = FaceRing(poset)
    top = poset.maximal[0]
    nu = {e: poset.bottom if e == poset.bottom else top
          for e in poset.elements}
    columns = {"a": {"a": 1, "b": 2}, "b": {"b": 1, "c": -1}, "c": {"c": 3}}
    fmap = FaceRingMap(fr, fr, nu, columns)
    f = {fr.t_vertex("a"): 1, (): 2}
    g = {fr.t_vertex("b"): 3, (("{a,c}", 1),): 1}
    lhs = fmap(fr.multiply(f, g, ZZ), ZZ)
    rhs = fr.multiply(fmap(f, ZZ), fmap(g, ZZ), ZZ)
    assert lhs == rhs


def test_pullback_inconsistent_data_raises():
    # The column of a reaches b, outside nu({a}) = {a}: the restrictions to
    # the edges do not glue, so the map must raise, not return a value.
    fr = FaceRing(triangle_boundary())
    nu = {e: e for e in fr.poset.elements}
    columns = {"a": {"a": 1, "b": 1}, "b": {"b": 1}, "c": {"c": 1}}
    fmap = FaceRingMap(fr, fr, nu, columns)
    with pytest.raises(LimitPresentationError):
        fmap({fr.t_vertex("b"): 1}, ZZ)
    with pytest.raises(LimitPresentationError):
        pullback(fr, fr, nu, columns, {fr.t_vertex("b"): 1}, ZZ)


def test_pullback_validation_errors():
    fr = FaceRing(triangle_boundary())
    nu, columns = identity_map(fr)
    bad_nu = dict(nu)
    del bad_nu["{a}"]
    with pytest.raises(ValueError, match="cover"):
        FaceRingMap(fr, fr, bad_nu, columns)
    wrong_bottom = {e: "{a}" for e in fr.poset.elements}
    with pytest.raises(ValueError, match="empty face"):
        FaceRingMap(fr, fr, wrong_bottom, columns)
    with pytest.raises(ValueError, match="column key"):
        FaceRingMap(fr, fr, nu, dict(columns, ghost={"a": 1}))
    with pytest.raises(TypeError):
        FaceRingMap(fr, fr, nu, columns, method="limit")
    with pytest.raises(TypeError):
        pullback(fr, fr, nu, columns, {}, ZZ, method="limit")
    assert pullback(fr, fr, nu, columns, {fr.t_vertex("a"): 1}, ZZ) == \
        {fr.t_vertex("a"): 1}


# ---------------------------------------------------------------------------
# The closed form against the restriction oracle.

RINGS = (QQ, ZZ, F3)


def morphism_ringmap(phi):
    """The face-ring map of a toric morphism: nu and the lifted columns of
    the source poset vertices."""
    lft = lift(phi)
    columns = {vp: lft.columns[vp] for vp in phi.source.poset.vertices}
    return FaceRingMap(FaceRing(phi.target.poset),
                       FaceRing(phi.source.poset), phi.nu, columns)


def morphism_of_kind(data, kind):
    if kind == "cox":
        return cox_projection(data)
    if kind == "diagonal":
        return diagonal_morphism(data)
    return power_morphism(data, kind)


def target_monomials(fmap, top):
    return [mono for d in range(0, top + 1, 2)
            for mono in fmap.target.basis_of_degree(d)]


def restriction_pullback(fmap, f, ring):
    """fmap(f, ring) by restriction to the maximal source faces, glued by
    the face ring's QQ solve, or None when the restrictions do not glue."""
    try:
        return fmap.source._resolve(pullback_restrictions(fmap, f), ring)
    except LimitPresentationError:
        return None


def closed_form_pullback(fmap, f, ring):
    """fmap(f, ring), or None when the map refuses."""
    try:
        return fmap(f, ring)
    except LimitPresentationError:
        return None


def assert_matches_restriction_oracle(fmap, ring):
    for mono in target_monomials(fmap, 6):
        want = fmap.source._resolve(
            pullback_restrictions(fmap, {mono: 1}), ring)
        assert fmap({mono: 1}, ring) == want


@given(st.one_of(small_characteristic_data(), small_poset_data()),
       st.sampled_from((0, 1, 2, 3, "cox", "diagonal")),
       st.sampled_from(RINGS))
@settings(max_examples=40, deadline=None)
def test_pullback_matches_restriction_oracle(data, kind, ring):
    assert_matches_restriction_oracle(
        morphism_ringmap(morphism_of_kind(data, kind)), ring)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_pullback_of_basis_change_matches_restriction_oracle(ring):
    target = cstar2_data()
    phi = ToricMorphism(data_cstar2_rebased(), target,
                        [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                        {e: e for e in target.poset.elements})
    assert_matches_restriction_oracle(morphism_ringmap(phi), ring)


def test_pullback_refuses_columns_that_only_glue():
    # The column of b reaches a, outside nu({b}) = {b}, which breaks the
    # carrier condition.  The restrictions still glue, to t_a + t_b, but
    # the closed form refuses.
    fr = FaceRing(solid_simplex(1))
    nu, _ = identity_map(fr)
    fmap = FaceRingMap(fr, fr, nu, {"a": {"a": 1}, "b": {"a": 1, "b": 1}})
    ta = {fr.t_vertex("a"): 1}
    assert restriction_pullback(fmap, ta, ZZ) == \
        {fr.t_vertex("a"): 1, fr.t_vertex("b"): 1}
    with pytest.raises(LimitPresentationError):
        fmap(ta, ZZ)


TRIANGLE = CharacteristicData(triangle_boundary(), ["a", "b", "c"],
                              {"a": (1, 0), "b": (0, 1), "c": (-1, -1)}, 2)


@given(st.one_of(small_characteristic_data(), small_poset_data()),
       st.sampled_from((0, 1, 2, "cox", "diagonal")),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(-1, 1)), max_size=3))
@example(TRIANGLE, 1, [(0, 1, 1)])  # the restrictions of t_b do not glue
@settings(max_examples=40, deadline=None)
def test_pullback_refuses_what_the_restrictions_refuse(data, kind, shifts):
    # Lift columns shifted at random entries: whenever the restrictions
    # fail to glue, the closed form refuses too, and where both give a
    # value they agree.
    fmap = morphism_ringmap(morphism_of_kind(data, kind))
    sources = fmap.source.poset.vertices
    targets = fmap.target.poset.vertices
    columns = fmap.columns
    for i, j, c in shifts if sources and targets else ():
        col = columns[sources[i % len(sources)]]
        v = targets[j % len(targets)]
        col[v] = col.get(v, 0) + c
    shifted = FaceRingMap(fmap.target, fmap.source, fmap.nu, columns)
    for mono in target_monomials(shifted, 4):
        want = restriction_pullback(shifted, {mono: 1}, ZZ)
        got = closed_form_pullback(shifted, {mono: 1}, ZZ)
        if want is None:
            assert got is None
        elif got is not None:
            assert got == want
