from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from facetor.exactalg import CoefficientRing
from facetor.facering import FaceRing
from facetor.koszul import (
    TwistData,
    _add_term,
    _normal_order_into,
    bidegree,
    compute_q,
    contract,
    differential,
    double_contract,
    element_total_degree,
    single_contract,
    star_product,
    total_degree,
    wedge_product,
)
from facetor.simplicial import CharacteristicData, SimplicialPoset

from helpers import cstar2_data, small_characteristic_data, small_poset_data
from helpers import format_koszul, product_restrictions, total_degree_basis

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F2 = CoefficientRing.integers_mod(2)
F3 = CoefficientRing.integers_mod(3)

ONE = {((), ()): 1}


def alpha(*idx):
    return {(tuple(idx), ()): 1}


def tmono(data, v):
    return ((data.poset.atom[v], 1),)


def random_element(draw, data, face, degrees=(0, 1, 2, 3), terms=3):
    n = data.n
    out = {}
    for _ in range(terms):
        d = draw.draw(st.sampled_from(degrees))
        basis = total_degree_basis(data, d, face)
        if not basis:
            continue
        key = draw.draw(st.sampled_from(basis))
        c = draw.draw(st.integers(-3, 3))
        if c:
            out[key] = c
    return out


def random_homogeneous(draw, data, face, max_degree=3):
    d = draw.draw(st.integers(0, max_degree))
    basis = total_degree_basis(data, d, face)
    out = {}
    for key in basis:
        c = draw.draw(st.integers(-2, 2))
        if c:
            out[key] = c
    return out, d


# ---------------------------------------------------------------------------
# Contractions and degrees.

def test_single_and_double_contract():
    assert single_contract((1, 2, 3), 1) == (1, (2, 3))
    assert single_contract((1, 2, 3), 2) == (-1, (1, 3))
    assert single_contract((1, 2, 3), 3) == (1, (1, 2))
    assert single_contract((1, 3), 2) is None
    assert double_contract((1, 2), 2, 1) == (1, ())
    assert double_contract((1, 2, 3), 3, 1) == (-1, (2,))
    assert double_contract((1, 2, 3), 3, 2) == (1, (1,))
    assert double_contract((1, 3), 2, 1) is None


def test_double_contract_matches_composition():
    for S in [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)]:
        for i, j in combinations(range(1, 5), 2):
            got = double_contract(S, max(i, j), min(i, j))
            first = single_contract(S, min(i, j))
            if first is None:
                assert got is None
                continue
            s1, S1 = first
            second = single_contract(S1, max(i, j))
            if second is None:
                assert got is None
            else:
                assert got == (s1 * second[0], second[1])


def test_contract_vector():
    assert contract((2, 0, -1), (1, 2, 3)) == [(2, (2, 3)), (-1, (1, 2))]
    assert contract((0, 0, 0), (1, 2)) == []
    assert contract((5,), (1,)) == [(5, ())]


def test_degrees_and_formatting():
    data = cstar2_data()
    p = data.poset
    key = ((1, 3), tmono(data, "v"))
    assert bidegree(p, key) == (-2, 6)
    assert total_degree(p, key) == 4
    assert element_total_degree(p, {key: 1}) == 4
    with pytest.raises(ValueError, match="homogeneous"):
        element_total_degree(p, {key: 1, ((), ()): 2})
    assert format_koszul({}) == "0"
    assert format_koszul({key: -1, ((), ()): 2}) == "2-a[1]a[3]*t[{v}]"
    assert format_koszul(alpha(1, 2)) == "a[1]a[2]"


# ---------------------------------------------------------------------------
# Twist coefficients.

def test_compute_q_two_points():
    data = cstar2_data()
    q = compute_q(data)
    tv, tw = tmono(data, "v"), tmono(data, "w")
    for i in (1, 2, 3):
        assert q.get(i, i) == {tw: 1}
    for i, j in ((2, 1), (3, 1), (3, 2)):
        assert q.get(i, j) == {tv: 1, tw: 1}
    with pytest.raises(ValueError):
        q.get(1, 2)
    with pytest.raises(ValueError):
        q.get(4, 1)


def test_compute_q_identity_chi_is_zero():
    poset = SimplicialPoset.from_facets([["a", "b"], ["b", "c"]])
    data = CharacteristicData.moment_angle(poset)
    assert compute_q(data).is_zero
    assert compute_q(data) == TwistData(data.n, {})


def test_compute_q_skips_ghosts():
    # the ghost's chi would contribute to every q entry were it not ghost
    poset = SimplicialPoset.from_facets([["a"]], vertices=["a"])
    data = CharacteristicData(poset, ["a", "g"], {"a": (1, 0), "g": (2, 3)}, 2)
    q = compute_q(data)
    assert q.is_zero
    data2 = CharacteristicData(poset, ["a"], {"a": (2, 3)}, 2)
    q2 = compute_q(data2)
    ta = tmono(data2, "a")
    assert q2.get(1, 1) == {ta: 1}
    assert q2.get(2, 2) == {ta: 3}
    assert q2.get(2, 1) == {ta: 6}


# ---------------------------------------------------------------------------
# Differential.

def test_differential_known_values():
    data = cstar2_data()
    face = FaceRing(data.poset)
    tv, tw = tmono(data, "v"), tmono(data, "w")
    assert differential({((), tv): 3}, data, ZZ, face) == {}
    assert differential(alpha(1), data, ZZ, face) == \
        {((), tv): -1, ((), tw): 1}
    a1 = {((1,), ()): 1, ((3,), ()): -1}
    a2 = {((2,), ()): 1, ((3,), ()): -1}
    assert differential(a1, data, ZZ, face) == {}
    assert differential(a2, data, ZZ, face) == {}
    zb = {((1, 2), ()): 1, ((2, 3), ()): 1, ((1, 3), ()): -1}
    assert differential(zb, data, ZZ, face) == {}
    # d(a1 a2 a3) expands by contraction against both chi vectors
    d123 = differential(alpha(1, 2, 3), data, ZZ, face)
    assert d123 == {
        ((2, 3), tv): -1, ((2, 3), tw): 1,
        ((1, 3), tv): 1, ((1, 3), tw): -1,
        ((1, 2), tv): -1, ((1, 2), tw): 1,
    }


@given(small_characteristic_data(), st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_differential_squares_to_zero(data, draw):
    face = FaceRing(data.poset)
    z = random_element(draw, data, face)
    dz = differential(z, data, ZZ, face)
    assert differential(dz, data, ZZ, face) == {}


@given(small_characteristic_data(), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_differential_bidegree_shift(data, draw):
    face = FaceRing(data.poset)
    z, d = random_homogeneous(draw, data, face)
    if not z:
        return
    bidegs = {bidegree(data.poset, key) for key in z}
    for key in differential(z, data, ZZ, face):
        bd = bidegree(data.poset, key)
        assert (bd[0] - 1, bd[1]) in bidegs
        assert total_degree(data.poset, key) == d + 1


def differential_per_key(z, data, ring, face):
    """The differential as one FaceRing.multiply per key, vertex and ring:
    the reference for the integer Koszul columns."""
    out = {}
    mod = ring.modulus
    for (S, mono), c in z.items():
        if not S:
            continue
        for v in data.poset.vertices:
            terms = contract(data.chi[v], S)
            if not terms:
                continue
            tv = {face.t_vertex(v): ring.one()}
            prod = face.multiply({mono: c}, tv, ring)
            for coef, S1 in terms:
                for m1, c1 in prod.items():
                    _add_term(out, (S1, m1), -coef * c1, mod)
    return out


def _coefficients(ring):
    """Non-unit coefficients as callers pass them: Fractions over QQ,
    unreduced integers over Z/p."""
    if ring is QQ:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=4))
    return st.integers(-4, 4)


@given(st.one_of(small_characteristic_data(), small_poset_data()),
       st.sampled_from((QQ, ZZ, F3)), st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_differential_matches_multiply_per_key(data, ring, draw):
    face, reference_face = FaceRing(data.poset), FaceRing(data.poset)
    for _ in range(2):  # the second round reads the filled product memo
        d = draw.draw(st.integers(1, 4))
        basis = total_degree_basis(data, d, face)
        if not basis:
            continue
        keys = draw.draw(st.lists(st.sampled_from(basis), min_size=1,
                                  max_size=4, unique=True))
        z = {key: draw.draw(_coefficients(ring)) for key in keys}
        for w in [z] + [{key: ring.one()} for key in keys]:
            got = differential(w, data, ring, face)
            want = differential_per_key(w, data, ring, reference_face)
            assert list(got.items()) == list(want.items())
            assert [type(c) for c in got.values()] == \
                [type(c) for c in want.values()]
            if ring is QQ:
                assert all(type(c) is Fraction for c in got.values())


# ---------------------------------------------------------------------------
# Products.

def test_wedge_known_values():
    data = cstar2_data()
    face = FaceRing(data.poset)
    tv = tmono(data, "v")
    assert wedge_product(alpha(1), alpha(2), ZZ, face) == alpha(1, 2)
    assert wedge_product(alpha(2), alpha(1), ZZ, face) == \
        {((1, 2), ()): -1}
    assert wedge_product({((1,), tv): 1}, alpha(1), ZZ, face) == {}
    assert wedge_product(alpha(1, 3), alpha(2), ZZ, face) == \
        {((1, 2, 3), ()): -1}
    assert wedge_product(ONE, {((2,), tv): 5}, ZZ, face) == {((2,), tv): 5}


def test_star_known_values_two_points():
    data = cstar2_data()
    face = FaceRing(data.poset)
    q = compute_q(data)
    tv, tw = tmono(data, "v"), tmono(data, "w")
    assert star_product(alpha(3), alpha(3), q, ZZ, face) == {((), tw): 1}
    assert star_product(alpha(1), alpha(2), q, ZZ, face) == alpha(1, 2)
    a1 = {((1,), ()): 1, ((3,), ()): -1}
    a2 = {((2,), ()): 1, ((3,), ()): -1}
    got = star_product(a1, a2, q, ZZ, face)
    assert got == {((1, 2), ()): 1, ((2, 3), ()): 1, ((1, 3), ()): -1,
                   ((), tv): -1}
    # untwisted, the same product has no correction term
    assert star_product(a1, a2, TwistData(3, {}), ZZ, face) == \
        wedge_product(a1, a2, ZZ, face)


def test_star_generator_relations_two_points():
    data = cstar2_data()
    face = FaceRing(data.poset)
    q = compute_q(data)
    for a in (1, 2, 3):
        for b in range(1, a + 1):
            anti = star_product(alpha(a), alpha(b), q, ZZ, face)
            if a != b:
                for key, c in star_product(
                        alpha(b), alpha(a), q, ZZ, face).items():
                    anti[key] = anti.get(key, 0) + c
            expected = {((), mono): c for mono, c in q.get(a, b).items()}
            assert {k: c for k, c in anti.items() if c} == expected


@given(small_characteristic_data(), st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_star_degree_one_matches_bilinear_rule(data, draw):
    # independent route: a*b = ab + sum_{i>=j} a_i b_j q_ij on degree one
    face = FaceRing(data.poset)
    n = data.n
    q = compute_q(data)
    avec = [draw.draw(st.integers(-2, 2)) for _ in range(n)]
    bvec = [draw.draw(st.integers(-2, 2)) for _ in range(n)]
    a = {((i,), ()): avec[i - 1] for i in range(1, n + 1) if avec[i - 1]}
    b = {((i,), ()): bvec[i - 1] for i in range(1, n + 1) if bvec[i - 1]}
    expected = wedge_product(a, b, ZZ, face)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            c = avec[i - 1] * bvec[j - 1]
            if not c:
                continue
            for mono, qc in q.get(i, j).items():
                key = ((), mono)
                w = expected.get(key, 0) + c * qc
                if w:
                    expected[key] = w
                else:
                    expected.pop(key, None)
    assert star_product(a, b, q, ZZ, face) == expected


@given(small_characteristic_data(), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_star_associative_unital_central(data, draw):
    face = FaceRing(data.poset)
    q = compute_q(data)
    a = random_element(draw, data, face, terms=2)
    b = random_element(draw, data, face, terms=2)
    c = random_element(draw, data, face, terms=2)
    ab_c = star_product(star_product(a, b, q, ZZ, face), c, q, ZZ, face)
    a_bc = star_product(a, star_product(b, c, q, ZZ, face), q, ZZ, face)
    assert ab_c == a_bc
    assert star_product(ONE, a, q, ZZ, face) == a
    assert star_product(a, ONE, q, ZZ, face) == a
    # face-ring elements are central
    f = {((), mono): cc for (S, mono), cc in
         random_element(draw, data, face, degrees=(0, 2)).items() if not S}
    assert star_product(f, a, q, ZZ, face) == star_product(a, f, q, ZZ, face)


@given(small_characteristic_data(), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_star_preserves_total_degree_and_matches_wedge_untwisted(data, draw):
    face = FaceRing(data.poset)
    q = compute_q(data)
    a, da = random_homogeneous(draw, data, face, max_degree=2)
    b, db = random_homogeneous(draw, data, face, max_degree=2)
    prod = star_product(a, b, q, ZZ, face)
    for key in prod:
        assert total_degree(data.poset, key) == da + db
    zero = TwistData(data.n, {})
    assert star_product(a, b, zero, ZZ, face) == \
        wedge_product(a, b, ZZ, face)


@given(small_characteristic_data(), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_leibniz_for_star(data, draw):
    face = FaceRing(data.poset)
    q = compute_q(data)
    a, da = random_homogeneous(draw, data, face, max_degree=2)
    b = random_element(draw, data, face, terms=2)
    lhs = differential(star_product(a, b, q, ZZ, face), data, ZZ, face)
    rhs = star_product(differential(a, data, ZZ, face), b, q, ZZ, face)
    sign = -1 if da % 2 else 1
    for key, c in star_product(
            a, differential(b, data, ZZ, face), q, ZZ, face).items():
        w = rhs.get(key, 0) + sign * c
        if w:
            rhs[key] = w
        else:
            rhs.pop(key, None)
    assert lhs == rhs


def test_star_mod_p_matches_integer_reduction():
    data = cstar2_data()
    face = FaceRing(data.poset)
    q = compute_q(data)
    a = {((1,), ()): 1, ((3,), ()): -1, ((), ()): 2}
    b = {((2,), ()): 3, ((3,), ()): 1}
    over_z = star_product(a, b, q, ZZ, face)
    reduced = {k: c % 2 for k, c in over_z.items() if c % 2}
    amod = {k: c % 2 for k, c in a.items() if c % 2}
    bmod = {k: c % 2 for k, c in b.items() if c % 2}
    assert star_product(amod, bmod, q, F2, face) == reduced


def test_star_over_rationals():
    data = cstar2_data()
    face = FaceRing(data.poset)
    q = compute_q(data)
    a = {((3,), ()): Fraction(1, 2)}
    assert star_product(a, a, q, QQ, face) == \
        {((), tmono(data, "w")): Fraction(1, 4)}


def star_per_term(a, b, q, ring, face):
    """The twisted product normal-ordered term pair by term pair in the
    ring, each face-ring product by restriction: the oracle for the
    integer normal orderings star_product reads."""
    out = {}
    for (S, mf), ca in a.items():
        for (T, mg), cb in b.items():
            base = face._resolve(product_restrictions(
                face, {mf: ca}, {mg: cb}), ring)
            _normal_order_into(out, S + T, base, q, ring, face)
    return out


def ring_element(draw, data, face, ring):
    """random_element with Fraction coefficients over QQ and coefficients
    reduced mod p over Z/p."""
    out = {}
    for key, c in random_element(draw, data, face, terms=3).items():
        if ring is QQ:
            c = Fraction(c, draw.draw(st.integers(1, 3)))
        c = ring.convert(c)
        if c:
            out[key] = c
    return out


@given(st.one_of(small_characteristic_data(), small_poset_data()),
       st.sampled_from((QQ, ZZ, F3)), st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_star_from_normal_ordering_memo_matches_per_term(data, ring, draw):
    face = FaceRing(data.poset)
    q = compute_q(data)
    for _ in range(2):
        a = ring_element(draw, data, face, ring)
        b = ring_element(draw, data, face, ring)
        assert star_product(a, b, q, ring, face) == \
            star_per_term(a, b, q, ring, face)
    assert set(q._orderings) <= {face}
    for (S, T), ordering in q._orderings.get(face, {}).items():
        assert all(type(k) is int and k
                   for _, poly in ordering for _, k in poly)
        assert {(U, mono): k for U, poly in ordering for mono, k in poly} \
            == _normal_order_into({}, S + T, {(): 1}, q, ZZ, face)


def test_normal_orderings_are_kept_per_face_ring():
    data = cstar2_data()
    q = compute_q(data)
    face, other = FaceRing(data.poset), FaceRing(data.poset)
    a = {((3,), ()): 1}
    assert star_product(a, a, q, ZZ, face) == \
        star_product(a, a, q, ZZ, other) == {((), tmono(data, "w")): 1}
    assert set(q._orderings) == {face, other}
    assert q._orderings[face] == {((3,), (3,)): (((), (
        (tmono(data, "w"), 1),)),)}


# ---------------------------------------------------------------------------
# Bases.

def test_total_degree_basis_two_points():
    data = cstar2_data()
    face = FaceRing(data.poset)
    assert total_degree_basis(data, 0, face) == (((), ()),)
    assert total_degree_basis(data, 1, face) == \
        (((1,), ()), ((2,), ()), ((3,), ()))
    d2 = total_degree_basis(data, 2, face)
    assert len(d2) == 5
    assert d2[:3] == (((1, 2), ()), ((1, 3), ()), ((2, 3), ()))
    assert {key[1] for key in d2[3:]} == \
        {tmono(data, "v"), tmono(data, "w")}


@given(small_characteristic_data(), st.integers(0, 4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_total_degree_basis_counts_and_degrees(data, d):
    face = FaceRing(data.poset)
    basis = total_degree_basis(data, d, face)
    assert len(set(basis)) == len(basis)
    expected = 0
    from math import comb
    for k in range(0, min(data.n, d) + 1):
        expected += comb(data.n, k) * len(face.basis_of_degree(d - k))
    assert len(basis) == expected
    for key in basis:
        assert total_degree(data.poset, key) == d
    assert total_degree_basis(data, d, face) == basis
