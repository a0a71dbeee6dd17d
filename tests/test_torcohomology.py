import gc
import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from facetor import exactalg, torcohomology
from facetor.documents import parse_data_document
from facetor.examples import standard_classes
from facetor.exactalg import CoefficientRing, ExactMatrix
from facetor.facering import FaceRing, convert_element
from facetor.koszul import (TwistData, _add_term, bidegree, bidegree_basis,
                            compute_q, contract, differential, star_product,
                            total_degree, wedge_product)
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.torcohomology import (_ZERO_COKERNEL, _Block,
                                   _canonical_invariants, compare_products,
                                   compute_tor, euler_oracle, format_class,
                                   hochster_oracle, product_table)

from helpers import (DOUBLED_PENTAGON, QUOTIENT_LARGE, cstar2_data,
                     cycle_facets, double_edge_poset, poincare_duality_problems,
                     product_restrictions, rebased, rp2_facets,
                     small_characteristic_data, small_complex_facets,
                     small_poset_data, solid_simplex, sphere_data,
                     subset_block_keys, total_degree_basis, uct_report)
from test_acceptance import FANS

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F2 = CoefficientRing.integers_mod(2)
F3 = CoefficientRing.integers_mod(3)

TWO_POINTS_RANKS = {(0, 0): 1, (-1, 2): 2, (0, 2): 1,
                    (-2, 4): 1, (-1, 4): 2, (-2, 6): 1}


def moment_angle(facets, ghosts=0):
    poset = SimplicialPoset.from_facets(facets)
    ambient = list(poset.vertices) + ["z%d" % i for i in range(ghosts)]
    return CharacteristicData.moment_angle(poset, vertices=ambient)


def poset_moment_angle(max_vertices):
    """Identity chi on the posets of small_poset_data, ghosts included:
    often not a complex."""
    return small_poset_data(max_vertices=max_vertices).map(
        lambda data: CharacteristicData.moment_angle(
            data.poset, vertices=data.vertices))


def moment_angle_data(max_vertices):
    """Identity chi on a small complex with up to one ghost, or on a poset
    with one vertex fewer (parallel faces and up to two ghosts make its
    Koszul complex larger)."""
    complexes = st.tuples(small_complex_facets(max_vertices=max_vertices),
                          st.integers(0, 1)).map(
        lambda fg: moment_angle(fg[0][0], ghosts=fg[1]))
    return complexes | poset_moment_angle(max_vertices - 1)


def assert_same_ranks_and_torsion(table, reference):
    assert table.entries.keys() == reference.entries.keys()
    assert table.rank_table() == reference.rank_table()
    assert table.torsion_table() == reference.torsion_table()


# ---------------------------------------------------------------------------
# Tables.

def test_table_two_points():
    data = cstar2_data()
    for ring in (QQ, ZZ, F2):
        table = compute_tor(data, ring)
        assert table.rank_table() == TWO_POINTS_RANKS
        assert table.torsion_table() == {}
    table = compute_tor(data, QQ)
    assert table.total_ranks() == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
    assert table.bound == 7
    assert not table.squarefree


def test_table_one_point_rank_zero():
    poset = SimplicialPoset.from_facets([])
    data = CharacteristicData(poset, [], {}, 0)
    table = compute_tor(data, QQ)
    assert table.rank_table() == {(0, 0): 1}
    assert table.bound == 0


def test_table_cp1():
    data = CharacteristicData.from_fan([[1], [-1]], [[0], [1]], name="cp1")
    table = compute_tor(data, QQ)
    assert table.rank_table() == {(0, 0): 1, (0, 2): 1}
    assert table.total_ranks() == {0: 1, 2: 1}


def test_table_cp2():
    data = CharacteristicData.from_fan(
        [[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]], name="cp2")
    table = compute_tor(data, ZZ)
    assert table.rank_table() == {(0, 0): 1, (0, 2): 1, (0, 4): 1}
    assert table.torsion_table() == {}


def test_table_bound_and_method_validation():
    data = cstar2_data()
    small = compute_tor(data, QQ, bound=2)
    assert small.rank_table() == {bd: r for bd, r in TWO_POINTS_RANKS.items()
                                  if bd[0] + bd[1] <= 2}
    with pytest.raises(ValueError):
        small.layout(3)
    with pytest.raises(ValueError):
        compute_tor(data, QQ, bound=-1)
    with pytest.raises(TypeError):
        compute_tor(data, QQ, method="blocks")
    with pytest.raises(ValueError, match="whole bidegrees"):
        small.multidegree_block((-1, 2), (1, 0, 0, 0))


def test_methods_agree_on_moment_angle():
    # the blocks of identity chi against whole bidegrees of rebased chi
    data = moment_angle(cycle_facets(4), ghosts=1)
    for ring in (QQ, ZZ):
        blocks = compute_tor(data, ring)
        general = compute_tor(rebased(data), ring)
        assert blocks.squarefree and not general.squarefree
        for bd, entry in general.entries.items():
            # above the dimension the one block is built on demand, and zero
            (block,) = entry.blocks or (general.multidegree_block(bd, ()),)
            assert entry.blocks or block.size == 0
        assert_same_ranks_and_torsion(blocks, general)


def test_table_determinism():
    data = cstar2_data()
    t1 = compute_tor(data, ZZ)
    t2 = compute_tor(data, ZZ)
    assert t1.rank_table() == t2.rank_table()
    for bd, entry in t1.entries.items():
        other = t2.entries[bd]
        assert entry.torsion == other.torsion
        assert [g for g, _ in entry.generators] == \
            [g for g, _ in other.generators]


# ---------------------------------------------------------------------------
# Reduction to classes.

def test_reduce_two_points_classes():
    data = cstar2_data()
    table = compute_tor(data, ZZ)
    a1, a2, b, c = standard_classes(table)
    for cls in (a1, a2, b, c):
        assert not cls.is_zero
    assert a1 != a2
    assert table.reduce({((), (("{w}", 1),)): 1}) == c
    assert a1.total == 1 and b.total == 2 and c.total == 2
    assert b != c


def test_reduce_rejects_bad_input():
    data = cstar2_data()
    table = compute_tor(data, QQ)
    with pytest.raises(ValueError, match="cocycle"):
        table.reduce({((1,), ()): 1})
    with pytest.raises(ValueError, match="homogeneous"):
        table.reduce({((1,), ()): 1, ((), ()): 1})
    with pytest.raises(ValueError, match="bound"):
        table.reduce({((1, 2), (("{v}", 3),)): 1})
    with pytest.raises(ValueError, match="total degree"):
        table.reduce({}, total=None)
    assert table.reduce({}, total=2).is_zero
    with pytest.raises(ValueError):
        table.reduce({((), (("{v}", 1),)): 1}, total=4)


@given(st.one_of(small_characteristic_data(max_vertices=3),
                 poset_moment_angle(max_vertices=3)), st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_reduce_kills_coboundaries(data, draw):
    ring = draw.draw(st.sampled_from((QQ, ZZ, F2, F3)))
    table = compute_tor(data, ring)
    face = table.face
    d = draw.draw(st.integers(0, max(0, table.bound - 1)))
    basis = total_degree_basis(data, d, face)
    w = {}
    for key in basis:
        c = draw.draw(st.integers(-2, 2))
        if c:
            w[key] = ring.convert(c)
    z = differential(w, data, ring, face)
    cls = table.reduce(z, total=d + 1)
    assert cls.is_zero
    if z:
        witness = table.coboundary_witness(z)
        assert differential(witness, data, ring, face) == z


def test_class_arithmetic():
    data = cstar2_data()
    table = compute_tor(data, ZZ)
    a1, a2, b, c = standard_classes(table)
    assert a1 + a2 - a2 == a1
    assert (a1 - a1).is_zero
    assert a1.scale(3) == a1 + a1 + a1
    assert -b == b.scale(-1)
    with pytest.raises(ValueError):
        a1 + b
    other = compute_tor(data, ZZ)
    with pytest.raises(ValueError):
        a1 + other.reduce({((1,), ()): 1, ((3,), ()): -1})
    assert b.by_bidegree() == {(-2, 4): (1,)} or b.by_bidegree() == \
        {(-2, 4): (-1,)}
    assert table.zero_class(2).is_zero


def test_generator_classes_span():
    data = cstar2_data()
    table = compute_tor(data, ZZ)
    for bd, entry in table.entries.items():
        for i, (element, modulus) in enumerate(entry.generators):
            cls = table.reduce(element)
            assert cls == table.generator_class(bd, i)
            assert not cls.is_zero


# ---------------------------------------------------------------------------
# Products.

def test_products_two_points():
    data = cstar2_data()
    table = compute_tor(data, ZZ)
    a1, a2, b, c = standard_classes(table)
    q = compute_q(data)
    twisted = product_table(table, q)
    untwisted = product_table(table, None)
    assert twisted.multiply_classes(a1, a2) == b - c
    assert untwisted.multiply_classes(a1, a2) == b
    one = table.generator_list()[0]
    assert one.total == 0
    for g in table.generator_list():
        assert twisted.product(one.gid, g.gid) == \
            table.generator_class(g.bidegree, g.index)
        assert twisted.product(g.gid, one.gid) == \
            table.generator_class(g.bidegree, g.index)
    report = compare_products(table)
    assert not report.agree
    pairs = {(x[0], y[0]) for x, y, _, _ in report.differences}
    assert ((-1, 2), (-1, 2)) in pairs


def test_products_graded_commutative():
    data = cstar2_data()
    table = compute_tor(data, QQ)
    q = compute_q(data)
    for twist in (q, None):
        pt = product_table(table, twist)
        for g1 in table.generator_list():
            for g2 in table.generator_list():
                if g1.total + g2.total > table.bound:
                    continue
                sign = -1 if (g1.total % 2) and (g2.total % 2) else 1
                assert pt.product(g1.gid, g2.gid) == \
                    pt.product(g2.gid, g1.gid).scale(sign)


@pytest.mark.parametrize("data, built, pairs", [
    (parse_data_document(DOUBLED_PENTAGON), 28, 64),
    (cstar2_data(), 39, 63)])
def test_products_in_zero_degrees_are_not_built(monkeypatch, data, built,
                                                 pairs):
    calls = []
    for name in ("star_product", "wedge_product"):
        real = getattr(torcohomology, name)
        monkeypatch.setattr(torcohomology, name,
                            lambda *args, real=real: calls.append(args)
                            or real(*args))
    table = compute_tor(data, QQ)
    for twist in (compute_q(data), None):
        calls.clear()
        assert len(product_table(table, twist).products) == pairs
        assert len(calls) == built


@given(st.one_of(small_characteristic_data(max_vertices=4),
                 small_poset_data()),
       st.sampled_from((QQ, ZZ, F2, F3)))
@example(moment_angle(rp2_facets()), QQ)  # degrees 8 and 9 empty over QQ
@example(moment_angle(rp2_facets()), F2)  # but not over Z/2
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_skipped_products_reduce_to_zero(data, ring):
    # product_table stores the zero class, unbuilt, for every pair whose
    # total degree has an empty layout; build both products of every
    # pair and reduce them, cocycle check included, against the tables
    table = compute_tor(data, ring)
    q = compute_q(data)
    twisted, untwisted = product_table(table, q), product_table(table, None)
    for g1, g2 in table.generator_pairs():
        total = g1.total + g2.total
        star = table.reduce(star_product(g1.element, g2.element, q, ring,
                                         table.face), total=total)
        wedge = table.reduce(wedge_product(g1.element, g2.element, ring,
                                           table.face), total=total)
        assert twisted.product(g1.gid, g2.gid) == star
        assert untwisted.product(g1.gid, g2.gid) == wedge
        if not table.layout(total).size:
            assert star == wedge == table.zero_class(total)


def test_compare_builds_only_pairs_of_positive_exterior_degree(monkeypatch):
    # on cstar2 the two full tables build 39 products each; 17 pairs have
    # two factors of positive exterior degree and a nonempty layout, and
    # the 7 ordered pairs that differ are among them
    calls = []
    for name in ("star_product", "wedge_product"):
        real = getattr(torcohomology, name)
        monkeypatch.setattr(torcohomology, name,
                            lambda *args, real=real: calls.append(args)
                            or real(*args))
    table = compute_tor(cstar2_data(), QQ)
    report = compare_products(table)
    assert len(calls) == 34
    assert all(-bidegree(table.data.poset, key)[0] > 0
               for a, b, *_ in calls for key in list(a) + list(b))
    names = [(ga, gb) for ga, gb, _, _ in report.differences]
    a1, a2, b = ((-1, 2), 0), ((-1, 2), 1), ((-2, 4), 0)
    assert names == [(a1, a2), (a1, b), (a2, a1), (a2, b), (b, a1), (b, a2),
                     (b, b)]


def test_multiply_classes_rejects_classes_of_another_table():
    data = cstar2_data()
    rational, integral = compute_tor(data, QQ), compute_tor(data, ZZ)
    a1, _, _, _ = standard_classes(rational)
    b1, b2, b, _ = standard_classes(integral)
    x3 = rational.generator_class((-1, 4), 0)  # total 3 + 2 is a zero group
    products = product_table(integral, compute_q(data))
    for x, y in ((a1, b2), (b1, a1), (x3, b)):
        with pytest.raises(ValueError, match="product table"):
            products.multiply_classes(x, y)


def test_compare_products_agreement_cases():
    cp2 = CharacteristicData.from_fan(
        [[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]], name="cp2")
    assert compare_products(compute_tor(cp2, QQ)).agree
    mac = moment_angle([["a", "b"], ["b", "c"]])
    assert compare_products(compute_tor(mac, QQ)).agree


def test_compare_products_builds_no_product_without_twist(monkeypatch):
    # moment-angle data have q = 0, where the star product is the wedge
    # product; the pairs below would otherwise be built twice each
    data = moment_angle([["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]])
    table = compute_tor(data, QQ)
    assert not compute_q(data).q
    assert any(g1.bidegree[0] and g2.bidegree[0]
               for g1, g2 in table.generator_pairs())
    built = []
    for name in ("star_product", "wedge_product"):
        real = getattr(torcohomology, name)
        monkeypatch.setattr(torcohomology, name,
                            lambda *args, real=real: built.append(1)
                            or real(*args))
    assert compare_products(table).agree
    assert compare_products(table, TwistData(data.n, {})).agree
    assert built == []


@st.composite
def opposite_points_data(draw):
    """Two or three points in a rank-3 lattice, two of them on opposite
    rays, and up to two ghosts: the family of cstar2, where the twisted
    and untwisted products often differ (on the random quotients of
    small_characteristic_data they almost never do)."""
    ray = st.tuples(*[st.integers(-1, 1)] * 3).filter(any)
    points = ["v", "w", "u"][:draw(st.integers(2, 3))]
    ambient = points + ["g%d" % i for i in range(draw(st.integers(0, 2)))]
    chi = {x: draw(ray) for x in ambient}
    chi["w"] = tuple(-c for c in chi["v"])
    poset = SimplicialPoset.from_facets([[x] for x in points],
                                        vertices=points)
    data = CharacteristicData(poset, ambient, chi, 3)
    assume(data.validate() == [])
    return data


@given(st.one_of(moment_angle_data(max_vertices=4), small_poset_data(),
                 small_characteristic_data(max_vertices=4),
                 opposite_points_data(),
                 st.one_of(small_characteristic_data(max_vertices=4),
                           opposite_points_data()).map(rebased)),
       st.sampled_from((QQ, ZZ, F2, F3)))
@example(cstar2_data(), ZZ)
@example(rebased(cstar2_data()), F3)
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_compare_products_is_the_diff_of_both_tables(data, ring):
    # the oracle builds both full tables itself, so a rule that drops
    # the same products from both (which omega's check cannot see)
    # still shows here
    table = compute_tor(data, ring)
    q = compute_q(data)
    twisted, untwisted = product_table(table, q), product_table(table, None)
    diffs = []
    for g1, g2 in table.generator_pairs():
        a = twisted.product(g1.gid, g2.gid)
        b = untwisted.product(g1.gid, g2.gid)
        if a != b:
            diffs.append((g1.gid, g2.gid, a, b))
    assert compare_products(table, q).differences == tuple(diffs)
    assert compare_products(table).differences == tuple(diffs)


# ---------------------------------------------------------------------------
# Hochster oracle.

def test_hochster_known_values():
    simplex = CharacteristicData.moment_angle(solid_simplex(2))
    assert hochster_oracle(simplex, QQ) == {(0, 0): 1}
    two_points = moment_angle([["v"], ["w"]])
    assert hochster_oracle(two_points, QQ) == {(0, 0): 1, (-1, 4): 1}
    circle = moment_angle([["v"]], ghosts=1)
    assert hochster_oracle(circle, QQ) == {(0, 0): 1, (-1, 2): 1}
    torus = moment_angle([], ghosts=2)
    assert hochster_oracle(torus, QQ) == \
        {(0, 0): 1, (-1, 2): 2, (-2, 4): 1}
    c4 = moment_angle(cycle_facets(4))
    table = {}
    for (j, t), r in hochster_oracle(c4, QQ).items():
        table[t + j] = table.get(t + j, 0) + r
    assert table == {0: 1, 3: 2, 6: 1}


def test_hochster_validation():
    with pytest.raises(ValueError, match="identity"):
        hochster_oracle(cstar2_data(), QQ)
    with pytest.raises(ValueError, match="field"):
        hochster_oracle(moment_angle([["v"]]), ZZ)
    # posets too: the full subposet on {a, b} is a circle of two edges
    data = CharacteristicData.moment_angle(double_edge_poset())
    oracle = hochster_oracle(data, QQ)
    assert oracle == {(0, 0): 1, (0, 4): 1}
    assert oracle == compute_tor(data, QQ).rank_table()


@given(moment_angle_data(max_vertices=5))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hochster_matches_engine(data):
    for ring in (QQ, F2):
        table = compute_tor(data, ring)
        assert table.rank_table() == hochster_oracle(data, ring)


@pytest.mark.parametrize("data", [
    moment_angle(cycle_facets(9)), moment_angle(cycle_facets(10)),
    moment_angle(rp2_facets(), ghosts=2)], ids=["C9", "C10", "RP2+2"])
def test_larger_moment_angle_tables_match_oracles(data):
    # the sizes where keys read off faces differ most from subsets of W:
    # QQ and Z/2 ranks against Hochster, ZZ free ranks against QQ, and
    # Z/2 dimensions against ZZ torsion by universal coefficients
    tables = {ring: compute_tor(data, ring) for ring in (QQ, ZZ, F2)}
    for ring in (QQ, F2):
        assert tables[ring].rank_table() == hochster_oracle(data, ring)
    assert tables[ZZ].rank_table() == tables[QQ].rank_table()

    def tp(bd):
        return sum(1 for d in tables[ZZ].torsion(bd) if d % 2 == 0)
    for bd in tables[F2].entries:
        assert tables[F2].rank(bd) == (tables[QQ].rank(bd) + tp(bd)
                                       + tp((bd[0] + 1, bd[1])))


# ---------------------------------------------------------------------------
# Torsion and universal coefficients.

def test_rp2_torsion():
    data = moment_angle(rp2_facets())
    table = compute_tor(data, ZZ, bound=9)
    assert table.torsion_table() == {(-3, 12): (2,)}
    f2 = compute_tor(data, F2, bound=9)
    at12 = {bd: r for bd, r in f2.rank_table().items() if bd[1] == 12}
    assert at12 == {(-4, 12): 1, (-3, 12): 1}
    rational = compute_tor(data, QQ, bound=9)
    assert rational.rank((-3, 12)) == 0
    assert rational.rank((-4, 12)) == 0


@given(small_characteristic_data(max_vertices=3, n_max=2))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_uct_random(data):
    assert uct_report(data, 2) == []


def test_uct_two_points_and_cp2():
    assert uct_report(cstar2_data(), 3) == []
    cp2 = CharacteristicData.from_fan(
        [[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]], name="cp2")
    assert uct_report(cp2, 2) == []


@given(sphere_data(), st.sampled_from((QQ, F2)))
@example(moment_angle(cycle_facets(5)), QQ)  # Z_K itself, N = 5 + 2
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_poincare_duality_on_spheres(data, ring):
    # the check of the top degree N that does not read table.top
    assert poincare_duality_problems(data, ring) == []


# ---------------------------------------------------------------------------
# Squarefree blocks (identity chi, on complexes and posets).

F3 = CoefficientRing.integers_mod(3)


def key_multidegree(data, face, key):
    """The multidegree of a Koszul key (S, m) over the ambient vertices."""
    S, mono = key
    mu = [0] * len(data.vertices)
    for i in S:
        mu[i - 1] += 1
    for p, e in enumerate(face.exponent_vector(mono)):
        mu[data.vertex_index[data.poset.vertices[p]]] += e
    return tuple(mu)


def cut_by_topology(data, face, key):
    """Whether the block of a key is zero by topology alone: its total
    degree exceeds N = n + d, the dimension of the space (d the largest
    element rank), or chi is the identity on a complex and its multidegree
    W is squarefree with a cone K_W, some vertex of W in every maximal
    face of the full subcomplex on W (Hochster's formula)."""
    if total_degree(data.poset, key) > data.n + max(data.poset.by_rank):
        return True
    if not (data.is_identity_chi and data.poset.is_complex):
        return False
    mu = key_multidegree(data, face, key)
    if any(x > 1 for x in mu):
        return False
    sub = data.poset.full_subcomplex(
        {v for v, x in zip(data.vertices, mu) if x} - data.ghosts)
    return any(all(v in sub.vertex_set[e] for e in sub.maximal)
               for v in sub.vertices)


def keys_by_block(table):
    """{(bidegree, multidegree): keys} of the full Koszul basis within the
    table bound, multidegrees from the exponent vectors of the keys; ()
    stands for the whole bidegree when chi is not the identity."""
    data, face = table.data, table.face
    out = {}
    for d in range(table.bound + 1):
        for key in total_degree_basis(data, d, face):
            mu = key_multidegree(data, face, key) if table.squarefree else ()
            out.setdefault((bidegree(data.poset, key), mu), []).append(key)
    return out


@given(st.one_of(moment_angle_data(max_vertices=4),
                 small_characteristic_data(max_vertices=4),
                 small_poset_data(),
                 moment_angle_data(max_vertices=4).map(rebased)),
       st.sampled_from((QQ, ZZ, F2, F3)))
@example(moment_angle(rp2_facets()), ZZ)  # Z/2 at (-3, 12), degree N = 9
@example(moment_angle(rp2_facets()), F2)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_skipped_blocks_are_acyclic(data, ring):
    # compute_tor builds exactly the blocks that topology does not prove
    # zero; each other one, built on demand, has a zero cokernel: the
    # multidegrees that are not squarefree, the cones of complexes
    # (cut_by_topology) and every block above the dimension N
    table = compute_tor(data, ring)
    for (bd, mu), keys in keys_by_block(table).items():
        built = [block for block in table.entries[bd].blocks
                 if keys[0] in block.index]
        cut = (any(x > 1 for x in mu)
               or cut_by_topology(data, table.face, keys[0]))
        if not cut:
            (block,) = built
            assert block.keys == tuple(keys)
            continue
        assert not built
        block = table.multidegree_block(bd, mu)
        assert block.keys == tuple(keys)
        assert block.coker.free_rank == 0
        assert not block.coker.torsion
    if table.squarefree:
        assert_same_ranks_and_torsion(table, compute_tor(rebased(data), ring))


@given(st.one_of(small_characteristic_data(max_vertices=4),
                 moment_angle_data(max_vertices=4),
                 small_poset_data(),
                 moment_angle_data(max_vertices=4).map(rebased),
                 small_poset_data().map(rebased)),
       st.sampled_from((QQ, ZZ, F2, F3)))
@example(moment_angle(rp2_facets()), ZZ)  # Z/2 at (-3, 12)
@example(moment_angle(rp2_facets()), F2)
@example(parse_data_document(QUOTIENT_LARGE), ZZ)
@example(parse_data_document(DOUBLED_PENTAGON), F3)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_acyclic_blocks_are_exactly_the_zero_cokernels(data, ring):
    # every block's image rewritten in kernel coordinates, and its
    # cokernel computed, as before acyclic blocks were read off the ranks
    table = compute_tor(data, ring)
    for entry in table.entries.values():
        for block in entry.blocks:
            coker = block.image().cokernel_structure()
            zero = not coker.free_rank and not coker.torsion
            assert (block.coker is _ZERO_COKERNEL) == zero
            assert block.coker.free_rank == coker.free_rank
            assert tuple(block.coker.torsion) == tuple(coker.torsion)


def full_kernel_forms(table):
    """Yield (block, rank, unit flag, whether H_k is zero) for each block
    compute_tor built, from the kernel Smith form of d_k with V and Vinv on
    the Koszul basis (keys_by_block, columns from differential) and the
    cokernel of the image of d_(k+1) in its kernel coordinates: the path
    every block took before ranks came from unit pivots."""
    data, ring, face = table.data, table.ring, table.face
    keys, mod = keys_by_block(table), ring.modulus

    def column(key, index):
        d = differential({key: ring.one()}, data, ring, face)
        return {index[key2]: c for key2, c in d.items()}

    for bd, entry in table.entries.items():
        for block in entry.blocks:
            mu = (key_multidegree(data, face, block.keys[0])
                  if table.squarefree else ())
            here = keys[(bd, mu)]
            out = {key: i for i, key in enumerate(
                keys.get(((bd[0] + 1, bd[1]), mu), ()))}
            pos = {key: i for i, key in enumerate(here)}
            sf = ExactMatrix.from_columns(
                [column(key, out) for key in here], len(out),
                ring).smith_normal_form(want=("V", "Vinv"))
            r = sf.rank
            image = []
            for key in keys.get(((bd[0] - 1, bd[1]), mu), ()):
                col = column(key, pos)
                y = {}
                for i, row in enumerate(sf.vinv_rows[r:]):
                    v = sum(a * col[j] for j, a in row.items() if j in col)
                    v = v % mod if mod else v
                    if v:
                        y[i] = v
                image.append(y)
            coker = ExactMatrix.from_columns(image, len(here) - r,
                                             ring).cokernel_structure()
            yield (block, r, all(ring.is_unit(d) for d in sf.diagonal),
                   not coker.free_rank and not coker.torsion)


@pytest.mark.parametrize("name", ["quotient-large", "doubled-5-gon",
                                  "cstar2", "dP6", "5-gon-ghost", "rp2"])
def test_block_ranks_and_unit_flags_match_full_kernel_forms(name):
    # every built block's rank and unit flag, from unit pivots or its own
    # kernel form, are those of the full kernel form, and every block
    # finished with the zero cokernel has H_k = 0 through the full path
    data = {
        "quotient-large": lambda: parse_data_document(QUOTIENT_LARGE),
        "doubled-5-gon": lambda: parse_data_document(DOUBLED_PENTAGON),
        "cstar2": cstar2_data,
        "dP6": lambda: CharacteristicData.from_fan(  # an acceptance fan
            [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]),
        "5-gon-ghost": lambda: moment_angle(cycle_facets(5), ghosts=1),
        # Z/2 at (-3, 12): over ZZ a column stalls on a pivot 2
        "rp2": lambda: moment_angle(rp2_facets()),
    }[name]()
    checked = 0
    for ring in (QQ, ZZ, F2, F3):
        table = compute_tor(data, ring)
        for block, rank, units, acyclic in full_kernel_forms(table):
            assert (block.rank, block.units) == (rank, units)
            if block.coker is _ZERO_COKERNEL:
                assert acyclic
            checked += 1
    assert checked


@pytest.mark.parametrize("ring", [QQ, ZZ, F2], ids=str)
@pytest.mark.parametrize("name", sorted(FANS))
def test_smooth_fans_run_no_smith_form_above_degree_zero(monkeypatch, name,
                                                         ring):
    # all of Tor of a smooth complete fan sits at k = 0, so unit pivots
    # rank every block with k >= 1, one column and no nonzero entry
    # included, and compute_tor runs no Smith form while such a block is
    # built or finished
    original = exactalg._smith
    running = []  # the blocks whose methods are running, innermost last
    forms = []  # (k, shape, want) of each form run inside a k >= 1 block

    def recording(matrix, want):
        if running:
            k = len(running[-1].keys[0][0])
            if k >= 1:
                forms.append((k, matrix.nrows, matrix.ncols, tuple(want)))
        return original(matrix, want)

    def in_block(method):
        def running_block(self, *args, **kwargs):
            running.append(self)
            try:
                return method(self, *args, **kwargs)
            finally:
                running.pop()
        return running_block

    monkeypatch.setattr(exactalg, "_smith", recording)
    for method in ("__init__", "kernel", "finish"):
        monkeypatch.setattr(_Block, method, in_block(getattr(_Block, method)))
    rays, cones, _ = FANS[name]
    table = compute_tor(CharacteristicData.from_fan(rays, cones, name=name),
                        ring)
    assert any(-j >= 1 and entry.blocks
               for (j, _), entry in table.entries.items())
    assert forms == []


def test_posets_build_only_squarefree_blocks():
    poset = double_edge_poset()
    data = CharacteristicData.moment_angle(poset, vertices=["a", "b", "z"])
    for ring in (QQ, ZZ, F3):
        table = compute_tor(data, ring)
        assert table.squarefree
        keys = [key for entry in table.entries.values()
                for block in entry.blocks for key in block.keys]
        # both edges give a key on the vertex set {a, b}
        assert ((), (("e1", 1),)) in keys and ((), (("e2", 1),)) in keys
        for S, mono in keys:  # the ghost z comes last
            mu = list(table.face.exponent_vector(mono)) + [0]
            for i in S:
                mu[i - 1] += 1
            assert max(mu) <= 1
        assert_same_ranks_and_torsion(table, compute_tor(rebased(data), ring))
        # t_a t_e1 - t_a t_e2, the coboundary of u_a (t_e1 - t_e2), lies
        # in the skipped multidegree (2, 1, 0)
        face = table.face
        w = {((1,), (("e1", 1),)): ring.one(),
             ((1,), (("e2", 1),)): ring.neg(ring.one())}
        z = differential(w, data, ring, face)
        assert set(z) == {((), (("a", 1), ("e1", 1))),
                          ((), (("a", 1), ("e2", 1)))}
        assert table.reduce(z).is_zero
        witness = table.coboundary_witness(z)
        assert differential(witness, data, ring, face) == z
        block = table.multidegree_block((0, 6), (2, 1, 0))
        assert block.keys == tuple(sorted(z))
        assert block.coker.free_rank == 0 and not block.coker.torsion


def test_reduce_in_skipped_multidegree():
    data = moment_angle(cycle_facets(4))
    for ring in (QQ, ZZ, F2):
        table = compute_tor(data, ring)
        w = {((1, 2), (("{1,2}", 1),)): ring.one()}
        z = differential(w, data, ring, table.face)
        assert set(z) == {((2,), (("{1}", 1), ("{1,2}", 1))),
                          ((1,), (("{2}", 1), ("{1,2}", 1)))}
        bd = (-1, 8)
        assert not any(key in block.index for key in z
                       for block in table.entries[bd].blocks)
        assert table.reduce(z).is_zero
        witness = table.coboundary_witness(z)
        assert differential(witness, data, ring, table.face) == z
        block = table.multidegree_block(bd, (2, 2, 0, 0))
        assert block is table.multidegree_block(bd, (2, 2, 0, 0))


def test_coboundary_witness_visits_only_the_blocks_of_its_keys(monkeypatch):
    data = moment_angle(cycle_facets(7))
    table = compute_tor(data, QQ)
    w = {((1, 2, 3, 4, 5), ()): QQ.one()}
    z = differential(w, data, QQ, table.face)
    assert len(z) == 5 and len(table.entries[(-4, 10)].blocks) == 21
    visited = []
    for name in ("local", "kernel_coords"):
        def recording(self, *args, _method=getattr(_Block, name)):
            visited.append(id(self))
            return _method(self, *args)
        monkeypatch.setattr(_Block, name, recording)
    witness = table.coboundary_witness(z)
    assert differential(witness, data, QQ, table.face) == z
    assert len(set(visited)) == 1


def test_multidegree_block_is_the_block_compute_tor_built(monkeypatch):
    # compute_tor records every block it builds, so multidegree_block, and
    # coboundary_witness through it, return that block instead of a copy;
    # the blocks it cuts are still built on demand, once
    square = moment_angle(cycle_facets(4))
    double_edge = CharacteristicData.moment_angle(
        double_edge_poset(), vertices=["a", "b", "z"])
    for data in (square, double_edge, rebased(square)):
        table = compute_tor(data, QQ)
        count = 0
        for bd, entry in table.entries.items():
            for block in entry.blocks:
                mu = (key_multidegree(data, table.face, block.keys[0])
                      if table.squarefree else ())
                assert table.multidegree_block(bd, mu) is block
                count += 1
        assert count
    built = []
    init = _Block.__init__

    def recording(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(_Block, "__init__", recording)
    # d(a_1 a_3) lies in a built block of the square, d(a_1 a_2) in the
    # cone W = {1, 2}; on the rebased table (-1, 8) lies above N = 6
    cuts = []
    for data, w, bd in ((square, {((1, 3), ()): 1}, (-1, 4)),
                        (square, {((1, 2), ()): 1}, (-1, 4)),
                        (rebased(square), {((1, 2), (("{1,2}", 1),)): 1},
                         (-1, 8))):
        table = compute_tor(data, QQ)
        z = differential(w, data, QQ, table.face)
        assert z and {bidegree(data.poset, key) for key in z} == {bd}
        cut = not any(key in block.index for key in z
                      for block in table.entries[bd].blocks)
        cuts.append(cut)
        del built[:]
        witness = table.coboundary_witness(z)
        assert differential(witness, data, QQ, table.face) == z
        mu = key_multidegree(data, table.face, next(iter(z)))
        block = table.multidegree_block(bd, mu if table.squarefree else ())
        assert set(z) <= set(block.keys)
        assert built == ([block] if cut else [])
    assert cuts == [False, True, True]


@given(st.one_of(moment_angle_data(max_vertices=5),
                 st.tuples(small_complex_facets(max_vertices=4),
                           st.integers(0, 2)).map(
                     lambda fg: moment_angle(fg[0][0], ghosts=fg[1])),
                 poset_moment_angle(4)),
       st.data())
@example(moment_angle(cycle_facets(4)), None)
@example(CharacteristicData.moment_angle(
    double_edge_poset(), vertices=["a", "b", "z"]), None)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_block_keys_match_the_subset_oracle(data, draw):
    # the keys read off the faces inside W equal those of every subset S
    # of W, for every k, on complexes, posets and ghosts, 0/1 or not; the
    # examples draw nothing and walk every mu with entries up to 2
    table = compute_tor(data, QQ, bound=0)
    m = len(data.vertices)
    if draw is None:
        mus = list(itertools.product(range(3), repeat=m))
    else:
        mus = [tuple(draw.draw(st.lists(st.integers(0, 3), min_size=m,
                                        max_size=m)))
               for _ in range(4)]
    for mu in mus:
        t = 2 * sum(mu)
        keys = table._block_keys(mu, t, range(-1, m + 2))
        assert list(keys) == list(range(-1, m + 2))
        for k, got in keys.items():
            assert got == subset_block_keys(table, mu, k, t), (mu, k)


def test_multidegree_block_rejects_malformed_multidegrees():
    table = compute_tor(moment_angle(cycle_facets(4)), QQ)
    stored = dict(table._blocks)
    for mu in ((3, -1, 0, 0), (1.5, 0.5, 0, 0), [1, 1, 0, 0],
               (True, True, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(
                "multidegree %r is not a tuple of non-negative ints"
                % (mu,))):
            table.multidegree_block((0, 4), mu)
    assert table._blocks == stored


def test_reduce_rejects_keys_outside_the_basis():
    data = moment_angle(cycle_facets(4))
    table = compute_tor(data, QQ)
    assert table.squarefree
    # d vanishes on both, but neither key is a basis key
    repeated = {((1, 1), ()): 1}
    assert not differential(repeated, data, QQ, table.face)
    with pytest.raises(ValueError, match="outside the bidegree basis"):
        table.reduce(repeated)
    unordered = {((), (("{1,2}", 1), ("{1}", 1))): 1}
    with pytest.raises(ValueError, match="outside the bidegree basis"):
        table.reduce(unordered)
    with pytest.raises(ValueError, match="does not lie"):
        table.multidegree_block((-1, 8), (2, 1, 0, 0))


def test_reduce_rejects_exterior_indices_outside_the_lattice():
    # the cocycle check contracts each exterior index against chi, whose
    # vectors have n = 4 entries; an index outside 1..4 names no entry
    table = compute_tor(moment_angle(cycle_facets(4)), QQ)
    for idx in (5, 0, -1):
        with pytest.raises(ValueError,
                           match="^exterior index %d outside 1..4$" % idx):
            table.reduce({((idx,), ()): 1})


def test_table_lookups_reject_bidegrees_without_a_basis():
    table = compute_tor(moment_angle(cycle_facets(4)), QQ)
    with pytest.raises(ValueError, match="^generator index out of range$"):
        table.generator_class((5, 5), 0)
    stored = dict(table._blocks)
    with pytest.raises(ValueError,
                       match=re.escape("no basis at bidegree (-9, 2)")):
        table.multidegree_block((-9, 2), (1, 0, 0, 0))
    assert table._blocks == stored


def test_reduce_and_witness_rejections_are_value_errors():
    # a ghost-only squarefree table, where an exterior index above the
    # vertex count names no multidegree, and a table without multidegree
    # blocks; each input raises exactly this ValueError
    ghost = compute_tor(CharacteristicData(
        SimplicialPoset([("{}", (), ())]), ["g"], {"g": (1,)}, 1), QQ)
    assert ghost.squarefree
    whole = compute_tor(cstar2_data(), ZZ)
    assert not whole.squarefree
    for table, z, message in (
            (ghost, {((1, 2), ()): 1}, "no basis at bidegree (-2, 4)"),
            (ghost, {((2,), ()): 1},
             "element key outside the bidegree basis at (-1, 2)"),
            (ghost, {((1, 1), ()): 1}, "no basis at bidegree (-2, 4)"),
            (whole, {((1, 1), ()): 1},
             "element key outside the bidegree basis at (-2, 4)"),
            (whole, {((), (("{v}", 1), ("{w}", 1))): 1},
             "element key outside the bidegree basis at (0, 4)")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            table.reduce(z)
    with pytest.raises(ValueError,
                       match="^class is not zero; no witness exists$"):
        ghost.coboundary_witness({((1,), ()): 1})


def reduce_by_block_walk(table, z):
    """The coordinates of a cocycle by walking every block of each
    bidegree it touches: the reference for reduce's key index."""
    total = total_degree(table.data.poset, next(iter(z)))
    layout = table.layout(total)
    coords = [0] * layout.size
    offsets = {bd: offset for bd, offset, _ in layout.parts}
    for bd, comp in table._components(z).items():
        pos = offsets[bd]
        for block in table.entries[bd].blocks:
            w_local = block.local(comp)
            if w_local:
                free, tors = block.coker.project(
                    block.kernel_coords(w_local))
                coords[pos:pos + block.size] = free + tors
            pos += block.size
    return total, tuple(coords)


@pytest.mark.parametrize("kind", ["squarefree", "poset"])
def test_reduce_by_key_index_matches_block_walk(kind):
    if kind == "squarefree":
        data = moment_angle(cycle_facets(5))
    else:
        data = CharacteristicData.moment_angle(
            parse_data_document(DOUBLED_PENTAGON).poset)
    for ring in (QQ, ZZ, F3):
        table = compute_tor(data, ring, bound=6)
        assert table.squarefree
        assert any(len(e.blocks) > 1 for e in table.entries.values())
        gens = table.generator_list()
        cocycles = [g.element for g in gens]
        cocycles += [wedge_product(g1.element, g2.element, ring, table.face)
                     for g1, g2 in table.generator_pairs()]
        for g1, g2 in zip(gens, gens[1:]):
            if g1.total == g2.total:
                z = dict(g1.element)
                for key, c in g2.element.items():
                    _add_term(z, key, 2 * c, ring.modulus)
                cocycles.append(z)
        cocycles = [z for z in cocycles if z]
        assert len(cocycles) > len(gens)
        for z in cocycles:
            cls = table.reduce(z)
            assert cls == type(cls)(table, *reduce_by_block_walk(table, z))


def test_zero_class_coordinates_are_built_once_per_total_degree():
    for ring in (QQ, ZZ, F3):
        table = compute_tor(cstar2_data(), ring)
        zero = table.zero_class(2)
        assert zero == table.reduce({}, total=2)
        assert zero.coords is table.zero_class(2).coords
        built = type(zero)(table, 2, (0,) * table.layout(2).size)
        assert [(c, type(c)) for c in zero.coords] == \
            [(c, type(c)) for c in built.coords]
        assert table.zero_class(1).total == 1


def test_tables_and_products_are_freed_by_reference_counting():
    gc.collect()
    gc.disable()
    try:
        table = compute_tor(cstar2_data(), QQ)
        product_table(table, compute_q(table.data))
        table.zero_class(2)
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_integer_classes_reject_fractions():
    table = compute_tor(moment_angle(rp2_facets()), ZZ, bound=9)
    (index,) = range(table.entries[(-3, 12)].size)
    cls = table.generator_class((-3, 12), index)
    with pytest.raises(ValueError, match="integer"):
        cls.scale(Fraction(1, 2))
    with pytest.raises(ValueError, match="integer"):
        table.zero_class(9).scale(Fraction(1, 2))
    assert cls.scale(Fraction(3)) == cls
    assert cls.scale(2).is_zero
    with pytest.raises(ValueError, match="integer"):
        type(cls)(table, cls.total, (Fraction(1, 2),) * len(cls.coords))
    mod3 = compute_tor(cstar2_data(), F3)
    g = mod3.generator_class((-1, 2), 0)
    assert g.scale(Fraction(1, 2)) == g.scale(2)


def test_classes_reject_floats():
    for ring in (QQ, ZZ, F3):
        table = compute_tor(cstar2_data(), ring)
        g = table.generator_class((-1, 2), 0)
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            g.scale(0.5)
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            type(g)(table, g.total, (0.5, 0))
        if ring == QQ:
            assert g.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 0)
            assert g.scale(3).coords == (3, 0)
        if ring == F3:
            assert g.scale(Fraction(1, 2)).coords == (2, 0)


def test_rational_class_repr_does_not_depend_on_construction():
    table = compute_tor(cstar2_data(), QQ)
    g = table.generator_class((-1, 2), 0)
    (gen,) = [x for x in table.generator_list() if x.gid == ((-1, 2), 0)]
    r = table.reduce(gen.element)
    assert r == g and repr(r) == repr(g)
    assert repr(g) == ("<class total=1 {(-1, 2): "
                       "(Fraction(1, 1), Fraction(0, 1))}>")
    assert format_class(r) == format_class(g) == "g(-1,2;0)"
    assert all(type(c) is Fraction for c in g.coords + r.coords)


def reduced_coordinates(data, ring):
    """Lines (total degree, [(coordinate, type name), ...]) of reduce on a
    fixed sample of cocycles of the table of data over ring: every
    representative, each one plus twice the next of its total degree, and
    the wedge and twisted products of every fifth pair of
    generator_pairs()."""
    table = compute_tor(data, ring)
    face, mod = table.face, ring.modulus
    twist = compute_q(data)
    gens = table.generator_list()
    cocycles = [g.element for g in gens]
    for g1, g2 in zip(gens, gens[1:]):
        if g1.total == g2.total:
            z = dict(g1.element)
            for key, c in g2.element.items():
                _add_term(z, key, 2 * c, mod)
            cocycles.append(z)
    for g1, g2 in list(table.generator_pairs())[::5]:
        cocycles.append(wedge_product(g1.element, g2.element, ring, face))
        cocycles.append(star_product(g1.element, g2.element, twist, ring,
                                     face))
    return [repr((cls.total, [(c, type(c).__name__) for c in cls.coords]))
            for cls in (table.reduce(z) for z in cocycles if z)]


REDUCED_DIGESTS = {
    "cstar2": {
        "QQ": (31, "1f082ebc16e136886c62522fa69b9d1b"
                   "8147fe73b705719a1de547a0039a049d"),
        "ZZ": (31, "1e4d5908cad81740bf5bee81b350c741"
                   "fb7d19ca8d66dc45245c73c4240ced4f"),
        "Z/2": (31, "3703364f7db63a9d7f9f821f3fc084f3"
                    "3b5b9a780fa7e358b7fd30ae273dc424"),
        "Z/3": (32, "c1bb66a8765693db7028833953f6f951"
                    "9aa77a48f9270793c90a330601c09b5d"),
    },
    "doubled-5-gon": {
        "QQ": (35, "3a3b0e579637f0917643caccfd66abdb"
                   "4752b42a011c9ca55b6d986378d8199a"),
        "ZZ": (35, "e40315b6e3aab57aec0dd77c18ad3f15"
                   "13d40174845e2165370144ef4f3c6843"),
        "Z/2": (35, "2808daf77f8a6c0b0d92767cbc641cfa"
                    "e057311a7807a5c63be4da80ae436fa9"),
        "Z/3": (39, "52ce1c9ee6676850dcbcd0995a4ae51e"
                    "7948bd528fe2cf7c9a6448973b4f66fc"),
    },
    "moment-angle-5-gon": {
        "QQ": (38, "f3cc2f34751f284523cce4866ebc2352"
                   "f899e23b246c4a59570e4656a4646437"),
        "ZZ": (38, "fb9f4b56c488b91e0621fb886cc07765"
                   "98a745065119393e6b2f7f13b25df933"),
        "Z/2": (38, "14268dcf8ed910f1a8ff02b77f630b8f"
                    "367bc0074379f913441a09ba331af4a3"),
        "Z/3": (38, "1e17075cb1f5f28c3a19d35685dd9d8c"
                    "94d26970f92628d05dd531e051f2c3ab"),
    },
    "quotient-large": {
        "QQ": (31, "792937633f114d8e3240ff4ec1f76933"
                   "60f5a19ebfb8027420238d4d9661ffc5"),
        "ZZ": (31, "2cd9ab2b06658cc1801567f288a190fd"
                   "926f723ec99ed2bc60c7d77f8501fedb"),
        "Z/2": (31, "488ccb37f093e55cf74229b7efa5830d"
                    "007269bb22d0b11295b118c915dc60a8"),
        "Z/3": (31, "2cd9ab2b06658cc1801567f288a190fd"
                    "926f723ec99ed2bc60c7d77f8501fedb"),
    },
    "rp2-moment-angle": {
        "QQ": (134, "100f5bb68a94de1776b35a866a6c178f"
                    "47f1e8181a12d16250846d64883552aa"),
        "ZZ": (151, "1f5f471c92fe7c8ea7a6db077e54c328"
                    "a3b29a872ab89eed21638ed14bfe63a6"),
        "Z/2": (152, "14c2ad7e4a03087e6e23e736e8b82c92"
                     "5a959bef38f697d88c01e202e1e240a2"),
        "Z/3": (128, "c88e6473bebed7d005dd11dca98f11a4"
                     "77d25a5ca931ff3b4c24f4c9c7d4ede9"),
    },
}


@pytest.mark.parametrize("name", sorted(REDUCED_DIGESTS))
def test_reduced_coordinates_and_types_are_unchanged(name):
    # the classes reduce builds, coordinates and their types, over QQ, ZZ,
    # Z/2 and Z/3: a rational zero stays Fraction(0), never the int 0
    data = {"cstar2": cstar2_data,
            "moment-angle-5-gon": lambda: moment_angle(cycle_facets(5)),
            "rp2-moment-angle": lambda: moment_angle(rp2_facets()),
            "quotient-large": lambda: parse_data_document(QUOTIENT_LARGE),
            "doubled-5-gon": lambda: parse_data_document(DOUBLED_PENTAGON),
            }[name]()
    got = {}
    for ring in (QQ, ZZ, F2, F3):
        lines = reduced_coordinates(data, ring)
        got[repr(ring)] = (len(lines), hashlib.sha256(
            "\n".join(lines).encode()).hexdigest())
    assert got == REDUCED_DIGESTS[name]


def smith_invariants(invs):
    """Reference: the invariant factors as the Smith form of diag(d_i)."""
    invs = [d for d in invs if d not in (0, 1)]
    if len(invs) <= 1:
        return tuple(invs)
    mat = ExactMatrix(len(invs), len(invs), ZZ)
    for i, d in enumerate(sorted(invs)):
        mat.set(i, i, d)
    return tuple(d for d in mat.smith_normal_form(want=()).diagonal
                 if d != 1)


@given(st.lists(st.integers(0, 72), max_size=7))
@settings(max_examples=200, deadline=None)
def test_canonical_invariants_match_smith_on_diagonal(invs):
    assert _canonical_invariants(invs) == smith_invariants(invs)


def test_mod_p_representatives_and_witnesses_are_reduced():
    for p in (3, 5):
        ring = CoefficientRing.integers_mod(p)
        for data in (cstar2_data(), moment_angle(cycle_facets(4), ghosts=1)):
            table = compute_tor(data, ring)
            coeffs = [c for entry in table.entries.values()
                      for element, _ in entry.generators
                      for c in element.values()]
            assert coeffs and all(c in range(p) for c in coeffs)
            face = table.face
            for d in range(table.bound):
                basis = total_degree_basis(data, d, face)
                w = {key: k % (p - 1) + 1 for k, key in enumerate(basis)}
                z = differential(w, data, ring, face)
                if not z:
                    continue
                witness = table.coboundary_witness(z)
                assert all(c in range(p) for c in witness.values())
                assert differential(witness, data, ring, face) == z


def kernel_coords_by_rows(ring, rows, w):
    """Kernel coordinates as one dot product per kernel row Vinv[r + i],
    each reduced mod p: the reference for the column-wise kernel_coords."""
    y = {}
    for i, row in enumerate(rows):
        a_vec, b_vec = (w, row) if len(row) > len(w) else (row, w)
        acc = 0
        for j, a in a_vec.items():
            b = b_vec.get(j)
            if b:
                acc += a * b
        if ring.modulus:
            acc %= ring.modulus
        if acc:
            y[i] = acc
    return y


def _random_value(rng, ring):
    """A nonzero coefficient as reduce may pass it: unreduced over Z/p."""
    if ring is QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) or 1
    return rng.randint(-5, 5) or 1


def _check_kernel_coords(rng, ring, block, rows, vectors):
    for _ in range(8):
        support = rng.sample(range(len(block.keys)),
                             min(len(block.keys), rng.randint(1, 5)))
        vectors.append({pos: _random_value(rng, ring) for pos in support})
    for w in vectors:
        got = block.kernel_coords(w)
        want = kernel_coords_by_rows(ring, rows, w)
        assert got == want
        assert list(got) == sorted(got)
        assert [type(c) for c in got.values()] == \
            [type(c) for c in want.values()]


def _kernel_rows(matrix, nkeys):
    sf = matrix.smith_normal_form(want=("V", "Vinv"))
    return [dict(sf.Vinv.rows.get(i, {})) for i in range(sf.rank, nkeys)]


def test_kernel_coords_match_row_dots_on_a_quotient():
    data = parse_data_document(QUOTIENT_LARGE)
    rng = random.Random(6)
    for ring in (QQ, ZZ, F3):
        table = compute_tor(data, ring)
        assert not table.squarefree and len(table.entries) == 24
        face = table.face

        def dvec(key):
            return differential({key: ring.one()}, data, ring, face)

        for (j, t), entry in table.entries.items():
            # above the dimension the one block is built on demand
            (block,) = entry.blocks or (table.multidegree_block((j, t), ()),)
            out = {key: i for i, key in
                   enumerate(bidegree_basis(face, data.n, -j - 1, t))}
            cols = [{out[key2]: c for key2, c in dvec(key).items()}
                    for key in block.keys]
            rows = _kernel_rows(ExactMatrix.from_columns(cols, len(out), ring),
                                len(block.keys))
            _check_kernel_coords(rng, ring, block, rows, [
                block.local(dvec(key)) for key in block.incoming])


def test_kernel_coords_match_row_dots_on_random_matrices():
    # on the quotient every kernel row is a unit vector; random integer
    # matrices also give kernel columns with several entries
    rng = random.Random(7)
    several = 0
    for _ in range(300):
        ring = rng.choice((QQ, ZZ, F3))
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        cols = [{i: ring.convert(rng.randint(-6, 6)) for i in range(nrows)
                 if rng.random() < 0.6} for _ in range(ncols)]
        cols = [{i: c for i, c in col.items() if c} for col in cols]
        block = _Block(ring, tuple(range(ncols)), tuple(range(nrows)), (),
                       cols.__getitem__)
        several += any(len(col) > 1 for col in block.kernel()[0].values())
        rows = _kernel_rows(ExactMatrix.from_columns(cols, nrows, ring), ncols)
        _check_kernel_coords(rng, ring, block, rows, [])
    assert several >= 3


def euler_characteristics(table):
    """{t: sum over k of (-1)^k times the free rank at (-k, t)} for the
    internal degrees t up to the table bound, zero values omitted."""
    out = {}
    for (j, t), entry in sorted(table.entries.items()):
        if t <= table.bound:
            out[t] = out.get(t, 0) + (-1) ** -j * entry.free_rank
    return {t: v for t, v in out.items() if v}


def test_euler_oracle_known_values():
    # P^2: the h-vector (1, 1, 1) in internal degrees 0, 2, 4
    p2 = CharacteristicData.from_fan([[1, 0], [0, 1], [-1, -1]],
                                     [[0, 1], [1, 2], [2, 0]])
    assert euler_oracle(p2) == {0: 1, 2: 1, 4: 1}
    assert euler_oracle(p2, 2) == {0: 1, 2: 1}
    data = parse_data_document(QUOTIENT_LARGE)
    assert euler_oracle(data) == {0: 1, 2: 2, 6: -4, 8: 2}
    for ring in (QQ, ZZ, F3):
        assert euler_characteristics(compute_tor(p2, ring)) == \
            euler_oracle(p2)
        assert euler_characteristics(compute_tor(data, ring)) == \
            euler_oracle(data)


@given(st.one_of(small_characteristic_data(max_vertices=4),
                 small_poset_data()),
       st.sampled_from((QQ, ZZ, F2, F3)), st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_euler_oracle_matches_tables(data, ring, draw):
    default = len(data.vertices) + data.n
    bound = draw.draw(st.integers(0, default) | st.just(default))
    oracle = euler_oracle(data, bound)
    assert all(t <= bound for t in oracle)
    assert euler_characteristics(compute_tor(data, ring, bound)) == oracle


def smith_call_digest(monkeypatch, data, rings):
    """{requested transforms: (number of calls, SHA-256)} over the Smith
    forms compute_tor runs on data over the rings for the Koszul complex,
    one ordered stream per transform set: the kernel forms ("V", "Vinv"),
    the image forms ("U", "Uinv") and the validation forms ().  Each call
    records its shape, ring and every entry with its type, in the order
    the matrix holds them.  Only the forms of blocks that carry cohomology
    are kept.  An image form whose cokernel is zero (rank equal to the row
    count, every diagonal entry a unit) is left out, and so is the kernel
    form of every block that compute_tor finishes with the shared zero
    cokernel, a block that topology proves zero among them: such a block
    carries no cohomology, and whether its image or its kernel is
    eliminated at all is not part of the Koszul complex's input.  The
    kernel forms are recorded per block, whichever of the block's methods
    runs them, and streamed in compute_tor's block order (table.entries,
    then entry.blocks).  The face ring's own restriction solvers, the
    PreparedSolver forms FaceRing._degree_system builds, are left out too:
    they belong to the face ring."""
    streams = {}
    kernel_forms = {}  # {block: [kernel form, ...]}
    original = exactalg._smith
    original_system = FaceRing._degree_system
    in_system = [0]
    running = []  # the blocks whose methods are running, innermost last

    def recording(matrix, want):
        sf = original(matrix, want)
        ring = matrix.ring
        if in_system[0]:
            return sf
        call = repr((matrix.nrows, matrix.ncols, ring.kind, ring.modulus,
                     [(i, list(row.items())) for i, row in matrix.rows.items()]))
        if tuple(want) == ("V", "Vinv"):
            kernel_forms.setdefault(running[-1], []).append(call)
        elif not (tuple(want) == ("U", "Uinv") and sf.rank == matrix.nrows
                  and all(ring.is_unit(d) for d in sf.diagonal)):
            streams.setdefault(tuple(want), []).append(call)
        return sf

    def in_block(method):
        def running_block(self, *args, **kwargs):
            running.append(self)
            try:
                return method(self, *args, **kwargs)
            finally:
                running.pop()
        return running_block

    def degree_system(self, d):
        in_system[0] += 1
        try:
            return original_system(self, d)
        finally:
            in_system[0] -= 1

    monkeypatch.setattr(exactalg, "_smith", recording)
    monkeypatch.setattr(FaceRing, "_degree_system", degree_system)
    for name in ("__init__", "finish"):
        monkeypatch.setattr(_Block, name, in_block(getattr(_Block, name)))
    for ring in rings:
        table = compute_tor(data, ring)
        for entry in table.entries.values():
            for block in entry.blocks:
                if block.coker is not _ZERO_COKERNEL:
                    streams.setdefault(("V", "Vinv"), []).extend(
                        kernel_forms.pop(block, ()))
        kernel_forms.clear()
    return {want: (len(calls),
                   hashlib.sha256("\n".join(calls).encode()).hexdigest())
            for want, calls in sorted(streams.items())}


# The streams were first pinned whole, before the differential was
# assembled from integer columns; they are now pinned per transform set,
# without the image forms of zero cokernels and without the kernel forms
# of the blocks finished with the zero cokernel, the blocks topology
# proves zero among them.  Any change to a key order, a column or an entry
# type of a block that carries cohomology changes them.
SMITH_DIGESTS = {
    "quotient-large": {
        (): (12, "0879f91c73287c218f8c164da65a790d"
                 "ebfb2663d065ad8acc65eadf35990bd8"),
        ("U", "Uinv"): (12, "954b5ca89070c6e6551769ff9e83cd3d"
                            "8150b94deea10977db8a8cef16995e5d"),
        ("V", "Vinv"): (12, "2b30403ed2238363866a57bb17c4515a"
                            "354b673f8f37aa922827cfbe847de5d9"),
    },
    "doubled-5-gon": {
        (): (30, "aab4ab489ded8b14f279fc3341cf184d"
                 "eed16f82c3ea95e94f95ae463dd76488"),
        ("U", "Uinv"): (9, "529b35a93cd0cbde8c7104014febf71d"
                           "2abe65f9bb370816b88fba615c920af1"),
        ("V", "Vinv"): (9, "915facf0a0c46eb0ca4bae3687263c6b"
                           "9251e5240f1f9d5650f929c8128a6bcc"),
    },
}


@pytest.mark.parametrize("doc", [QUOTIENT_LARGE, DOUBLED_PENTAGON],
                         ids=lambda doc: doc["name"])
def test_smith_inputs_are_unchanged(monkeypatch, doc):
    data = parse_data_document(doc)
    got = smith_call_digest(monkeypatch, data, (QQ, ZZ, F3))
    assert got == SMITH_DIGESTS[doc["name"]]


def test_poset_tables_and_products_build_no_solver(monkeypatch):
    built = []
    init = exactalg.PreparedSolver.__init__

    def counting(self, matrix):
        built.append(matrix.ring.kind)
        init(self, matrix)

    monkeypatch.setattr(exactalg.PreparedSolver, "__init__", counting)
    data = parse_data_document(DOUBLED_PENTAGON)
    for ring in (QQ, ZZ, F3):
        table = compute_tor(data, ring)
        assert product_table(table, compute_q(data)).products
        assert product_table(table).products
    assert built == []


# ---------------------------------------------------------------------------
# The integer product memo and the table's column cache.

def restriction_product(face, a, b):
    """a * b by restriction to the maximal faces, solved over ZZ: the
    oracle for the face ring's product memo."""
    return face._resolve(product_restrictions(face, {a: 1}, {b: 1}), ZZ)


def multiply_per_term(face, f, g, ring):
    """f * g as one restriction product per pair of terms."""
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            for mono, k in restriction_product(face, a, b).items():
                _add_term(out, mono, ca * cb * k, ring.modulus)
    return out


def differential_by_restriction(key, data, face, ring):
    """d(key) over the ring, summed over vertices, contraction terms and
    product terms in that order, each t_v * m by restriction."""
    S, mono = key
    out = {}
    for v in data.poset.vertices:
        prod = restriction_product(face, mono, face.t_vertex(v))
        for c, S1 in contract(data.chi[v], S):
            for m1, k in prod.items():
                _add_term(out, (S1, m1), -c * k * ring.one(), ring.modulus)
    return out


def double_edge_data():
    return CharacteristicData(double_edge_poset(), ["a", "b"],
                              {"a": (1, 0), "b": (0, 1)}, 2)


@st.composite
def face_ring_elements(draw, face, ring):
    """Up to three terms of degree 0, 2 or 4 with nonzero coefficients:
    ints or Fractions over QQ, unreduced ints over Z/p."""
    monos = [m for d in (0, 2, 4) for m in face.basis_of_degree(d)]
    keys = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3,
                         unique=True))
    coef = (st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
            if ring is QQ else st.integers(-4, 4))
    return {m: draw(coef.filter(bool)) for m in keys}


def _items_and_types(d):
    return list(d.items()), [type(c) for c in d.values()]


@given(st.one_of(small_characteristic_data(), small_poset_data(),
                 st.builds(double_edge_data)),
       st.sampled_from((QQ, ZZ, F3)), st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_product_memo_and_columns_match_restriction(data, ring, draw):
    table = compute_tor(data, ring)
    face = table.face
    for _ in range(3):
        f = draw.draw(face_ring_elements(face, ring))
        g = draw.draw(face_ring_elements(face, ring))
        assert _items_and_types(face.multiply(f, g, ring)) == \
            _items_and_types(multiply_per_term(face, f, g, ring))
    for (a, b), terms in face._products.items():
        assert terms == tuple(restriction_product(face, a, b).items())
        assert all(type(k) is int for _, k in terms)
    assert table._columns
    for key, col in table._columns.items():
        assert all(type(k) is int for k in col.values())
        assert _items_and_types(convert_element(col, ring)) == \
            _items_and_types(differential_by_restriction(key, data, face,
                                                         ring))
