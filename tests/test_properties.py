"""Randomized engine invariants on small instances with fixed seeds.

Every draw keeps at most MAX_VERTICES poset vertices and lattice rank at
most N_MAX; derandomize pins hypothesis to the same examples on every
run, and the per-property budgets below sum to TOTAL_INSTANCES distinct
instances.
"""

from hypothesis import HealthCheck, assume, given, settings
import hypothesis.strategies as st

from facetor.exactalg import CoefficientRing
from facetor.facering import FaceRing
from facetor.koszul import compute_q, differential, star_product
from facetor.simplicial import CharacteristicData
from facetor.torcohomology import compute_tor, product_table
from facetor.toricmorphism import ToricMorphism, cox_projection, \
    diagonal_morphism, hat_q, hat_tor_phi, hat_xi, lift, power_morphism, xi

from helpers import seed_lift, small_characteristic_data, \
    total_degree_basis

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F2 = CoefficientRing.integers_mod(2)

ONE = {((), ()): 1}

MAX_VERTICES = 5
N_MAX = 3
BUDGETS = {
    "differential_squares_to_zero": 24,
    "leibniz": 16,
    "associative_and_unital": 16,
    "chain_maps": 18,
    "ghost_invariance": 10,
    "hat_tor_multiplicative": 8,
    "graded_commutative": 12,
}
TOTAL_INSTANCES = sum(BUDGETS.values())


def fixed(budget):
    return settings(max_examples=budget, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def random_element(draw, data, face, degrees=(0, 1, 2, 3), terms=3):
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
    out = {}
    for key in total_degree_basis(data, d, face):
        c = draw.draw(st.integers(-2, 2))
        if c:
            out[key] = c
    return out, d


def add_into(dst, src, sign=1):
    for key, c in src.items():
        c = dst.get(key, 0) + sign * c
        if c:
            dst[key] = c
        else:
            dst.pop(key, None)


def unimodular(draw, n):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw.draw(st.integers(0, 3))):
        i = draw.draw(st.integers(0, n - 1))
        j = draw.draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw.draw(st.integers(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def random_morphism(draw, data):
    """One of the morphism families: powers, the quotient from the
    moment-angle data, diagonals, unimodular basis changes, and full
    subcomplex inclusions between moment-angle data."""
    kind = draw.draw(st.sampled_from(
        ("power", "cox", "diagonal", "basis", "inclusion")))
    if kind == "power":
        return power_morphism(data, draw.draw(st.integers(0, 3)))
    if kind == "cox":
        return cox_projection(data)
    if kind == "diagonal":
        return diagonal_morphism(data)
    if kind == "basis":
        A = unimodular(draw, data.n)
        chi = {v: tuple(sum(A[i][k] * col[k] for k in range(data.n))
                        for i in range(data.n))
               for v, col in data.chi.items()}
        target = CharacteristicData(data.poset, data.vertices, chi, data.n)
        return ToricMorphism(data, target, A,
                             {e: e for e in data.poset.elements})
    poset = data.poset
    mac = CharacteristicData.moment_angle(poset)
    keep = [v for v in poset.vertices
            if draw.draw(st.booleans())] or list(poset.vertices[:1])
    sub = poset.full_subcomplex(keep)
    source = CharacteristicData.moment_angle(sub, vertices=poset.vertices)
    n = len(poset.vertices)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return ToricMorphism(source, mac, eye, {e: e for e in sub.elements})


@given(small_characteristic_data(max_vertices=MAX_VERTICES, n_max=N_MAX),
       st.data())
@fixed(BUDGETS["differential_squares_to_zero"])
def test_differential_squares_to_zero(data, draw):
    face = FaceRing(data.poset)
    ring = draw.draw(st.sampled_from((QQ, ZZ, F2)))
    z = random_element(draw, data, face)
    dz = differential(z, data, ring, face)
    assert differential(dz, data, ring, face) == {}


@given(small_characteristic_data(max_vertices=MAX_VERTICES, n_max=N_MAX),
       st.data())
@fixed(BUDGETS["leibniz"])
def test_star_product_satisfies_leibniz(data, draw):
    face = FaceRing(data.poset)
    q = compute_q(data)
    a, deg = random_homogeneous(draw, data, face)
    b = random_element(draw, data, face)
    lhs = differential(star_product(a, b, q, ZZ, face), data, ZZ, face)
    rhs = star_product(differential(a, data, ZZ, face), b, q, ZZ, face)
    add_into(rhs, star_product(a, differential(b, data, ZZ, face), q, ZZ,
                               face), -1 if deg % 2 else 1)
    assert lhs == rhs


@given(small_characteristic_data(max_vertices=MAX_VERTICES, n_max=N_MAX),
       st.data())
@fixed(BUDGETS["associative_and_unital"])
def test_star_product_associative_and_unital(data, draw):
    face = FaceRing(data.poset)
    q = compute_q(data)
    a = random_element(draw, data, face, terms=2)
    b = random_element(draw, data, face, terms=2)
    c = random_element(draw, data, face, terms=2)
    left = star_product(star_product(a, b, q, ZZ, face), c, q, ZZ, face)
    right = star_product(a, star_product(b, c, q, ZZ, face), q, ZZ, face)
    assert left == right
    assert star_product(ONE, a, q, ZZ, face) == a
    assert star_product(a, ONE, q, ZZ, face) == a


@given(small_characteristic_data(max_vertices=MAX_VERTICES, n_max=N_MAX),
       st.data())
@fixed(BUDGETS["chain_maps"])
def test_chain_maps_commute_with_differentials(data, draw):
    phi = random_morphism(draw, data)
    ring = draw.draw(st.sampled_from((QQ, ZZ, F2)))
    face = FaceRing(phi.target.poset)
    z = random_element(draw, phi.target, face)
    dz = differential(z, phi.target, ring, face)
    for chain in (xi, hat_xi):
        image = chain(phi, z, ring)
        assert differential(image, phi.source, ring) == chain(phi, dz, ring)


@given(small_characteristic_data(max_vertices=4, n_max=N_MAX), st.data())
@fixed(BUDGETS["ghost_invariance"])
def test_hat_q_ignores_ghost_column_choice(data, draw):
    assume(data.ghosts)
    kernel = data.chi_matrix().kernel_basis()
    assume(kernel)
    vec = draw.draw(st.sampled_from(kernel))
    shift = {data.vertices[i]: c for i, c in vec.items() if c}
    assume(shift)
    ghost = draw.draw(st.sampled_from(sorted(data.ghosts)))
    phi = power_morphism(data, draw.draw(st.integers(0, 3)))
    expect = hat_q(phi)
    columns = dict(lift(phi).columns)
    col = columns[ghost] = dict(columns[ghost])
    for v, c in shift.items():
        col[v] = col.get(v, 0) + c
    seed_lift(phi, columns)
    assert hat_q(phi) == expect


@given(small_characteristic_data(max_vertices=4, n_max=N_MAX), st.data())
@fixed(BUDGETS["hat_tor_multiplicative"])
def test_hat_tor_respects_products(data, draw):
    if draw.draw(st.booleans()):
        phi = power_morphism(data, draw.draw(st.integers(0, 3)))
    else:
        phi = cox_projection(data)
    target_table = compute_tor(phi.target, QQ)
    source_table = compute_tor(phi.source, QQ, bound=target_table.bound)
    induced = hat_tor_phi(phi, target_table, source_table)
    tprod = product_table(target_table, compute_q(phi.target))
    sprod = product_table(source_table, compute_q(phi.source))
    gens = target_table.generator_list()
    images = {g.gid: induced.apply(
        target_table.generator_class(g.bidegree, g.index)) for g in gens}
    for g1 in gens:
        for g2 in gens:
            if g1.total + g2.total > target_table.bound:
                continue
            lhs = induced.apply(tprod.product(g1.gid, g2.gid))
            assert lhs == sprod.multiply_classes(images[g1.gid],
                                                 images[g2.gid])


@given(small_characteristic_data(max_vertices=4, n_max=N_MAX), st.data())
@fixed(BUDGETS["graded_commutative"])
def test_products_graded_commutative(data, draw):
    ring = draw.draw(st.sampled_from((QQ, F2)))
    table = compute_tor(data, ring)
    for twist in (compute_q(data), None):
        prods = product_table(table, twist)
        gens = table.generator_list()
        for g1 in gens:
            for g2 in gens:
                if g1.total + g2.total > table.bound:
                    continue
                sign = -1 if g1.total % 2 and g2.total % 2 else 1
                flipped = prods.product(g2.gid, g1.gid).scale(sign)
                assert prods.product(g1.gid, g2.gid) == flipped


def test_budget_covers_at_least_one_hundred_instances():
    assert TOTAL_INSTANCES >= 100
