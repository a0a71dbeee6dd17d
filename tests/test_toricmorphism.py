import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from facetor.examples import basis_change_morphism, standard_classes
from facetor.exactalg import CoefficientRing, ExactMatrix
from facetor.koszul import TwistData, compute_q, differential
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.torcohomology import compute_tor, product_table
from facetor.toricmorphism import (InducedMap, ToricMorphism,
                                   cox_projection, cross_element,
                                   diagonal_morphism, hat_q, hat_tor_phi,
                                   hat_xi, ideal_I_sigma, lift, omega,
                                   power_morphism, product_failures, tor_phi,
                                   validate_morphism, xi)

from helpers import (cstar2_data, cycle_facets, double_edge_poset,
                     rp2_facets, seed_lift, small_characteristic_data,
                     total_degree_basis)

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F2 = CoefficientRing.integers_mod(2)
F3 = CoefficientRing.integers_mod(3)


def edge_data():
    poset = SimplicialPoset.from_facets([["a", "b"]])
    chi = {"a": (1, 0), "b": (1, 1)}
    return CharacteristicData(poset, ["a", "b"], chi, 2, name="edge")


# ---------------------------------------------------------------------------
# Validation and lifting.

def test_validate_standard_morphisms():
    data = cstar2_data()
    for r in range(4):
        assert validate_morphism(power_morphism(data, r)) == []
    assert validate_morphism(basis_change_morphism()) == []
    assert validate_morphism(cox_projection(data)) == []
    assert validate_morphism(diagonal_morphism(data)) == []
    with pytest.raises(ValueError, match="r >= 0"):
        power_morphism(data, -1)


def test_validate_reports_problems():
    data = cstar2_data()
    nu = {e: e for e in data.poset.elements}
    with pytest.raises(ValueError, match="matrix"):
        ToricMorphism(data, data, [[1, 0], [0, 1]], nu)
    bad = ToricMorphism(data, data,
                        [[2, 0, 0], [0, 1, 0], [0, 0, 1]], nu)
    assert any("integer combination" in p for p in bad.validate())
    neg = ToricMorphism(data, data,
                        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], nu)
    assert any("negative" in p for p in neg.validate())
    missing = ToricMorphism(data, data,
                            [[1 if i == j else 0 for j in range(3)]
                             for i in range(3)],
                            {data.poset.bottom: data.poset.bottom})
    assert any("missing" in p for p in missing.validate())
    with pytest.raises(ValueError):
        lift(neg)


def test_validate_order_preservation():
    edge = CharacteristicData.moment_angle(
        SimplicialPoset.from_facets([["a", "b"]]))
    nu = {"{}": "{}", "{a}": "{a}", "{b}": "{b}", "{a,b}": "{a}"}
    A = [[1, 0], [0, 0]]
    phi = ToricMorphism(edge, edge, A, nu)
    assert any("order-preserving" in p for p in phi.validate())
    # on a poset the two parallel edges may be swapped, but not folded
    # onto a vertex
    double = CharacteristicData.moment_angle(double_edge_poset())
    swap = {"0": "0", "a": "a", "b": "b", "e1": "e2", "e2": "e1"}
    assert ToricMorphism(double, double, [[1, 0], [0, 1]], swap
                         ).validate() == []
    folded = dict(swap, e2="a")
    assert ToricMorphism(double, double, [[1, 0], [0, 1]], folded
                         ).validate() == [
        "nu is not order-preserving: 'b' < 'e2' but 'b' is not a face "
        "of 'a'"]


def test_lift_frozen_columns():
    phi = basis_change_morphism()
    lft = lift(phi)
    assert lft.is_identity
    assert lft.columns == {v: {v: 1} for v in "v w g1 g2".split()}

    data = cstar2_data()
    for r in (0, 2, 3):
        lr = lift(power_morphism(data, r))
        for v in ("v", "w"):
            assert lr.columns[v] == ({v: r} if r else {})
        for g in ("g1", "g2"):
            total = [0, 0, 0]
            for v, c in lr.columns[g].items():
                for i, x in enumerate(data.chi[v]):
                    total[i] += c * x
            assert tuple(total) == tuple(r * x for x in data.chi[g])

    assert lift(cox_projection(data)).is_identity


def test_lift_ghost_shift():
    # hat_q reads the lift from the morphism's memo: another ghost column
    # seeded there leaves it unchanged, another poset column does not
    data = cstar2_data()
    p2 = power_morphism(data, 2)
    columns = lift(p2).columns
    expect = hat_q(p2)
    # v + w spans the kernel of the characteristic matrix, so adding it to
    # a ghost column keeps the covering equation
    g1 = dict(columns["g1"])
    for v in ("v", "w"):
        g1[v] = g1.get(v, 0) + 1
    seed_lift(p2, dict(columns, g1=g1))
    assert hat_q(p2) == expect
    # 3 chi_v + chi_w = 2 chi_v as well, but off the carrier of v
    p2 = power_morphism(data, 2)
    seed_lift(p2, dict(columns, v={"v": 3, "w": 1}))
    assert hat_q(p2) != expect


def test_hat_q_power_scaling():
    data = cstar2_data()
    q = compute_q(data)
    for r in range(4):
        expect = {}
        for (i, j), val in q.q.items():
            if i > j:
                scaled = {m: -r * (r - 1) // 2 * c for m, c in val.items()}
                scaled = {m: c for m, c in scaled.items() if c}
                if scaled:
                    expect[(i, j)] = scaled
        assert hat_q(power_morphism(data, r)) == TwistData(3, expect)


def test_hat_q_vanishing_families():
    data = cstar2_data()
    assert hat_q(basis_change_morphism()).is_zero
    assert hat_q(cox_projection(data)).is_zero
    assert hat_q(diagonal_morphism(data)).is_zero
    # moment-angle to moment-angle: subcomplex inclusion
    c4 = SimplicialPoset.from_facets(cycle_facets(4))
    sub = c4.full_subcomplex({"1", "2"})
    mac = CharacteristicData.moment_angle(c4)
    mac_sub = CharacteristicData.moment_angle(sub, vertices=c4.vertices)
    A = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    inc = ToricMorphism(mac_sub, mac, A, {e: e for e in sub.elements})
    assert validate_morphism(inc) == []
    assert hat_q(inc).is_zero
    assert lift(inc).is_identity


@given(small_characteristic_data(max_vertices=4, n_max=3))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_hat_q_vanishes_on_projections_and_diagonals(data):
    kappa = cox_projection(data)
    assert validate_morphism(kappa) == []
    assert lift(kappa).is_identity
    assert hat_q(kappa).is_zero
    diag = diagonal_morphism(data)
    assert validate_morphism(diag) == []
    assert hat_q(diag).is_zero


# ---------------------------------------------------------------------------
# Chain maps.

def test_xi_identity_and_power():
    data = cstar2_data()
    one = power_morphism(data, 1)
    z = {((1, 3), (("{v}", 1),)): 1, ((2,), ()): -2}
    assert xi(one, z, ZZ) == z
    assert hat_xi(one, z, ZZ) == z
    p2 = power_morphism(data, 2)
    zz = {((1, 2), (("{v}", 2),)): 1}
    assert xi(p2, zz, QQ) == {((1, 2), (("{v}", 2),)): Fraction(16)}
    assert xi(p2, {((1,), ()): 1}, ZZ) == {((1,), ()): 2}
    assert xi(power_morphism(data, 0), zz, ZZ) == {}


def test_xi_basis_change_frozen():
    phi = basis_change_morphism()
    assert xi(phi, {((1,), ()): 1}, ZZ) == {((1,), ()): 1, ((3,), ()): 1}
    zb = {((1, 2), ()): 1, ((2, 3), ()): 1, ((1, 3), ()): -1}
    assert xi(phi, zb, ZZ) == {((1, 2), ()): 1, ((), (("{w}", 1),)): 1}
    # the twist lives only in the star products: the plain wedge route
    # keeps the alpha part and drops the face correction
    assert hat_xi(phi, zb, ZZ) == xi(phi, zb, ZZ)


def _morphism_family():
    data = cstar2_data()
    return [power_morphism(data, 2), power_morphism(data, 3),
            power_morphism(data, 0), basis_change_morphism(),
            cox_projection(data), diagonal_morphism(data)]


@given(st.integers(0, 5), st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_chain_maps_commute_with_differentials(which, degree, draw):
    phi = _morphism_family()[which]
    ring = draw.draw(st.sampled_from((QQ, ZZ, F2)))
    basis = total_degree_basis(phi.target, degree)
    assume(basis)
    z = {}
    for key in basis:
        c = draw.draw(st.integers(-2, 2))
        if c:
            z[key] = ring.convert(c)
    assume(z)
    dz = differential(z, phi.target, ring)
    assert differential(xi(phi, z, ring), phi.source, ring) \
        == xi(phi, dz, ring)
    assert differential(hat_xi(phi, z, ring), phi.source, ring) \
        == hat_xi(phi, dz, ring)


# ---------------------------------------------------------------------------
# Induced maps on tables.

def test_identity_induces_identity():
    data = cstar2_data()
    table = compute_tor(data, ZZ)
    one = power_morphism(data, 1)
    for ind in (tor_phi(one, table, table), hat_tor_phi(one, table, table)):
        for g in table.generator_list():
            assert ind.images[g.gid] == table.generator_class(g.bidegree,
                                                              g.index)
            cls = table.generator_class(g.bidegree, g.index)
            assert ind.apply(cls) == cls


def test_basis_change_induced_maps():
    phi = basis_change_morphism()
    ttab = compute_tor(phi.target, ZZ)
    stab = compute_tor(phi.source, ZZ)
    assert stab.rank_table() == ttab.rank_table()
    a1, a2, b, c = standard_classes(ttab)
    a1p = stab.reduce({((1,), ()): 1})
    a2p = stab.reduce({((2,), ()): 1})
    bp = stab.reduce({((1, 2), ()): 1})
    cp = stab.reduce({((), (("{v}", 1),)): 1})
    assert cp == stab.reduce({((), (("{w}", 1),)): 1})

    tor = tor_phi(phi, ttab, stab)
    hat = hat_tor_phi(phi, ttab, stab)
    assert tor.apply(a1) == a1p and tor.apply(a2) == a2p
    assert tor.apply(b) == bp and tor.apply(c) == cp
    assert hat.apply(b) == bp + cp
    assert hat.apply(a1) == a1p and hat.apply(c) == cp

    # the plain map preserves bidegree
    for g in ttab.generator_list():
        img = tor.images[g.gid]
        assert set(img.by_bidegree()) <= {g.bidegree}

    # multiplicativity: only the corrected map respects twisted products
    pt = product_table(ttab, compute_q(phi.target))
    ps = product_table(stab, compute_q(phi.source))
    assert ps.multiply_classes(tor.apply(a1), tor.apply(a2)) == bp
    assert tor.apply(pt.multiply_classes(a1, a2)) == bp - cp
    for x in (a1, a2, b, c):
        for y in (a1, a2, b, c):
            if x.total + y.total > ttab.bound:
                continue
            assert hat.apply(pt.multiply_classes(x, y)) == \
                ps.multiply_classes(hat.apply(x), hat.apply(y))


def test_product_failures_tell_the_maps_apart():
    phi = basis_change_morphism()
    ttab = compute_tor(phi.target, ZZ)
    stab = compute_tor(phi.source, ZZ)
    pt = product_table(ttab, compute_q(phi.target))
    ps = product_table(stab, compute_q(phi.source))
    totals = [g.total for g in ttab.generator_list()]
    pairs = sum(1 for a in totals for b in totals if a + b <= ttab.bound)
    hat = hat_tor_phi(phi, ttab, stab)
    assert product_failures(hat, pt, ps) == ([], pairs)
    failures, n = product_failures(tor_phi(phi, ttab, stab), pt, ps)
    assert n == pairs
    assert (((-1, 2), 0), ((-1, 2), 1)) in failures


def test_power_induced_maps():
    data = cstar2_data()
    for ring in (ZZ, QQ):
        table = compute_tor(data, ring)
        a1, a2, b, c = standard_classes(table)
        for r in (2, 3):
            p = power_morphism(data, r)
            hat = hat_tor_phi(p, table, table)
            assert hat.apply(b) == b.scale(r * r) - c.scale(r * (r - 1))
            assert hat.apply(a1) == a1.scale(r)
            tor = tor_phi(p, table, table)
            assert tor.apply(b) == b.scale(r * r)
            assert tor.apply(c) == c.scale(r)
            assert tor.apply(a1) == a1.scale(r)


def test_images_are_the_generator_classes_mapped():
    # the images are what apply gives on each generator class, listed in
    # generator order: the command line and the examples read them so
    data = cstar2_data()
    kappa = cox_projection(data)
    for ring in (QQ, ZZ, F3):
        table = compute_tor(data, ring)
        mac = compute_tor(kappa.source, ring, bound=table.bound)
        maps = [make(phi, table, source)
                for phi, source in ((power_morphism(data, 2), table),
                                    (kappa, mac))
                for make in (tor_phi, hat_tor_phi)]
        if ring is not ZZ:
            maps.append(omega(data, table))
        gens = table.generator_list()
        for induced in maps:
            assert list(induced.images) == [g.gid for g in gens]
            for g in gens:
                assert induced.apply(table.generator_class(*g.gid)) == \
                    induced.images[g.gid]


def test_induced_map_errors():
    data = cstar2_data()
    table = compute_tor(data, ZZ)
    small = compute_tor(data, ZZ, bound=3)
    p2 = power_morphism(data, 2)
    with pytest.raises(ValueError, match="bound"):
        tor_phi(p2, table, small)
    with pytest.raises(ValueError, match="ring"):
        tor_phi(p2, table, compute_tor(data, QQ))
    other = compute_tor(CharacteristicData.moment_angle(data.poset), ZZ)
    with pytest.raises(ValueError, match="target data"):
        tor_phi(p2, other, table)
    ind = tor_phi(p2, table, table)
    with pytest.raises(ValueError, match="domain"):
        ind.apply(other.zero_class(0))
    rows = ind.matrix(2)
    assert len(rows) == table.layout(2).size


def per_term_sum(zero, terms):
    """The sum of c * x over (x, c) in terms, one class per term."""
    acc = zero
    for x, c in terms:
        acc = acc + x.scale(c)
    return acc


def assert_same_class(got, want):
    assert got == want
    assert [type(c) for c in got.coords] == [type(c) for c in want.coords]


def test_apply_and_multiply_classes_are_per_term_sums():
    data = cstar2_data()
    rng = random.Random(11)
    for ring, coeffs in ((QQ, (0, 1, -2, Fraction(3, 2), Fraction(-1, 3))),
                         (ZZ, (0, 1, -1, 3)), (F3, (0, 1, 2))):
        table = compute_tor(data, ring)
        products = product_table(table, compute_q(data))
        maps = (hat_tor_phi(power_morphism(data, 2), table, table),
                tor_phi(power_morphism(data, 3), table, table))
        classes = {}
        for total in range(table.bound + 1):
            cls = table.zero_class(total)
            for g in table.layout(total).generators:
                cls = cls + table.generator_class(*g.gid).scale(
                    rng.choice(coeffs))
            classes[total] = cls
        for x in classes.values():
            gens = table.layout(x.total).generators
            for induced in maps:
                got = induced.apply(x)
                assert_same_class(got, per_term_sum(
                    table.zero_class(x.total),
                    [(induced.images[g.gid], c)
                     for g, c in zip(gens, x.coords) if c]))
            for y in classes.values():
                if x.total + y.total > table.bound:
                    continue
                got = products.multiply_classes(x, y)
                assert_same_class(got, per_term_sum(
                    table.zero_class(x.total + y.total),
                    [(products.product(ga.gid, gb.gid), ca * cb)
                     for ga, ca in zip(gens, x.coords) if ca
                     for gb, cb in zip(table.layout(y.total).generators,
                                       y.coords) if cb]))
                if ring is QQ:
                    assert all(type(c) is Fraction for c in got.coords)


def test_torsion_sums_reduce_mod_their_order():
    # the Z/2 class of the moment-angle RP^2 at (-3, 12), total degree 9,
    # reached with coefficient 3 by a product and by an induced map from
    # the moment-angle S^9 (the boundary of the 4-simplex)
    rp2 = compute_tor(CharacteristicData.moment_angle(
        SimplicialPoset.from_facets(rp2_facets())), ZZ)
    tors = rp2.generator_class((-3, 12), 0)
    assert rp2.layout(9).moduli == (2,)
    products = product_table(rp2, None)
    three = rp2.generator_class((0, 0), 0).scale(3)
    got = products.multiply_classes(three, tors)
    assert got.coords == (1,)
    assert_same_class(got, per_term_sum(rp2.zero_class(9), [(tors, 3)]))
    s9 = compute_tor(CharacteristicData.moment_angle(
        SimplicialPoset.from_facets(combinations("abcde", 4))), ZZ)
    top = s9.generator_class((-1, 10), 0)
    induced = InducedMap(s9, rp2, {((0, 0), 0): rp2.generator_class(
        (0, 0), 0), ((-1, 10), 0): tors})
    got = induced.apply(top.scale(3))
    assert got.coords == (1,)
    assert_same_class(got, per_term_sum(rp2.zero_class(9), [(tors, 3)]))


# ---------------------------------------------------------------------------
# The averaging automorphism.

def test_omega_frozen_values():
    data = cstar2_data()
    table = compute_tor(data, QQ)
    a1, a2, b, c = standard_classes(table)
    om = omega(data, table)
    assert om.apply(b) == b + c
    assert om.apply(a1) == a1 and om.apply(a2) == a2
    assert om.apply(c) == c
    twisted = product_table(table, compute_q(data))
    plain = product_table(table, None)
    gens = table.generator_list()
    for x in gens:
        cx = table.generator_class(x.bidegree, x.index)
        for y in gens:
            if x.total + y.total > table.bound:
                continue
            cy = table.generator_class(y.bidegree, y.index)
            assert om.apply(twisted.multiply_classes(cx, cy)) == \
                plain.multiply_classes(om.apply(cx), om.apply(cy))
    assert om.apply(twisted.multiply_classes(a1, a2)) == b
    # isomorphism in every total degree
    for total in range(table.bound + 1):
        rows = om.matrix(total)
        if not rows:
            continue
        cols = [{i: x for i, x in enumerate(r) if x} for r in rows]
        m = ExactMatrix.from_columns(cols, len(rows), QQ)
        assert m.rank() == len(rows)


def test_omega_mod_three_and_failures():
    data = cstar2_data()
    t3 = compute_tor(data, F3)
    a1, a2, b, c = standard_classes(t3)
    om = omega(data, t3)
    assert om.apply(b) == b + c
    with pytest.raises(ValueError, match="invertible"):
        omega(data, compute_tor(data, ZZ))
    with pytest.raises(ValueError, match="invertible"):
        omega(data, compute_tor(data, F2))
    mac = CharacteristicData.moment_angle(data.poset)
    with pytest.raises(ValueError, match="data"):
        omega(mac, t3)


def test_omega_identity_without_twist():
    mac = CharacteristicData.moment_angle(
        SimplicialPoset.from_facets(cycle_facets(4)))
    table = compute_tor(mac, QQ)
    om = omega(mac, table)
    for g in table.generator_list():
        assert om.images[g.gid] == table.generator_class(g.bidegree, g.index)


# ---------------------------------------------------------------------------
# Diagonal and products.

def test_diagonal_reproduces_twisted_products():
    data = cstar2_data()
    diag = diagonal_morphism(data)
    table = compute_tor(data, ZZ)
    double = compute_tor(diag.target, ZZ, bound=table.bound)
    hat = hat_tor_phi(diag, double, table)
    pt = product_table(table, compute_q(data))
    gens = table.generator_list()
    checked = 0
    for ga in gens:
        for gb in gens:
            if ga.total + gb.total > table.bound:
                continue
            cross = cross_element(diag, ga.element, gb.element, ZZ)
            cls = double.reduce(cross, total=ga.total + gb.total)
            assert hat.apply(cls) == pt.product(ga.gid, gb.gid)
            checked += 1
    assert checked > 10


def test_cross_element_of_cocycles_is_cocycle():
    data = cstar2_data()
    diag = diagonal_morphism(data)
    za = {((1,), ()): 1, ((3,), ()): -1}
    zc = {((), (("{v}", 1),)): 1}
    for one, two in ((za, za), (za, zc), (zc, zc)):
        cross = cross_element(diag, one, two, ZZ)
        assert cross
        assert differential(cross, diag.target, ZZ) == {}


# ---------------------------------------------------------------------------
# Projection from the moment-angle data and its kernel ideal.

def test_cox_projection_naturality():
    data = cstar2_data()
    kappa = cox_projection(data)
    assert kappa.source.is_identity_chi
    assert kappa.source.poset is data.poset
    ttab = compute_tor(data, ZZ)
    mtab = compute_tor(kappa.source, ZZ)
    tor = tor_phi(kappa, ttab, mtab)
    hat = hat_tor_phi(kappa, ttab, mtab)
    assert all(tor.images[g.gid] == hat.images[g.gid]
               for g in ttab.generator_list())
    # the face ring lands in the vanishing part upstairs
    for mono in ((("{v}", 1),), (("{v}", 2),), (("{w}", 1),)):
        assert mtab.reduce({((), mono): 1}).is_zero


def test_ideal_two_points():
    data = cstar2_data()
    kappa = cox_projection(data)
    table = compute_tor(data, QQ)
    cox_table = compute_tor(kappa.source, QQ)
    ideal = ideal_I_sigma(data, table, cox_table)
    assert {t: len(v) for t, v in ideal.items()} == {2: 1, 3: 2, 4: 1}
    a1, a2, b, c = standard_classes(table)
    tor = tor_phi(kappa, table, cox_table)
    assert tor.apply(c).is_zero
    assert not tor.apply(b).is_zero
    assert not tor.apply(a1).is_zero
    # total degree 2: the kernel line is spanned by c
    span = ideal[2][0]
    assert not span.is_zero
    assert tor.apply(span).is_zero

    def normalized(cls):
        lead = next(x for x in cls.coords if x)
        return cls.scale(Fraction(1) / lead)

    assert normalized(span) == normalized(c)


def test_ideal_trivial_cases():
    mac = CharacteristicData.moment_angle(
        SimplicialPoset.from_facets([["a"], ["b"]]))
    table = compute_tor(mac, QQ)
    cox_table = compute_tor(cox_projection(mac).source, QQ)
    assert ideal_I_sigma(mac, table, cox_table) == {}
    edge = edge_data()
    etab = compute_tor(edge, QQ)
    ecox = compute_tor(cox_projection(edge).source, QQ)
    assert etab.rank_table() == {(0, 0): 1}
    assert ideal_I_sigma(edge, etab, ecox) == {}
    with pytest.raises(ValueError, match="field"):
        data = cstar2_data()
        ideal_I_sigma(data, compute_tor(data, ZZ),
                      compute_tor(cox_projection(data).source, ZZ))
    with pytest.raises(ValueError, match="cox"):
        data = cstar2_data()
        ideal_I_sigma(data, compute_tor(data, QQ), compute_tor(data, QQ))


def test_congruence_modulo_ideal():
    target = cstar2_data()
    ttab = compute_tor(target, QQ)
    for phi in (basis_change_morphism(), power_morphism(target, 2)):
        stab = ttab if phi.source is target else compute_tor(phi.source, QQ)
        kappa = cox_projection(phi.source)
        cox_table = compute_tor(kappa.source, QQ)
        upstairs = tor_phi(kappa, stab, cox_table)
        tor = tor_phi(phi, ttab, stab)
        hat = hat_tor_phi(phi, ttab, stab)
        for g in ttab.generator_list():
            diff = hat.images[g.gid] - tor.images[g.gid]
            assert upstairs.apply(diff).is_zero


# ---------------------------------------------------------------------------
# Moment-angle naturality.

def test_mac_inclusion_equal_maps():
    c4 = SimplicialPoset.from_facets(cycle_facets(4))
    sub = c4.full_subcomplex({"1", "2"})
    mac = CharacteristicData.moment_angle(c4)
    mac_sub = CharacteristicData.moment_angle(sub, vertices=c4.vertices)
    A = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    inc = ToricMorphism(mac_sub, mac, A, {e: e for e in sub.elements})
    t1 = compute_tor(mac, ZZ)
    t2 = compute_tor(mac_sub, ZZ, bound=t1.bound)
    tor = tor_phi(inc, t1, t2)
    hat = hat_tor_phi(inc, t1, t2)
    assert all(tor.images[g.gid] == hat.images[g.gid]
               for g in t1.generator_list())


def test_mac_rotation_is_isomorphism():
    c4 = SimplicialPoset.from_facets(cycle_facets(4))
    mac = CharacteristicData.moment_angle(c4)
    rot = {"1": "2", "2": "3", "3": "4", "4": "1"}
    by_support = {frozenset(c4.vertex_set[e]): e for e in c4.elements}
    nu = {e: by_support[frozenset(rot[v] for v in c4.vertex_set[e])]
          for e in c4.elements}
    pos = {v: i for i, v in enumerate(c4.vertices)}
    A = [[0] * 4 for _ in range(4)]
    for v, w in rot.items():
        A[pos[w]][pos[v]] = 1
    phi = ToricMorphism(mac, mac, A, nu, name="rotation")
    assert validate_morphism(phi) == []
    table = compute_tor(mac, QQ)
    tor = tor_phi(phi, table, table)
    assert tor.images == hat_tor_phi(phi, table, table).images
    for total in range(table.bound + 1):
        rows = tor.matrix(total)
        if not rows:
            continue
        cols = [{i: x for i, x in enumerate(r) if x} for r in rows]
        assert ExactMatrix.from_columns(cols, len(rows), QQ).rank() \
            == len(rows)


def test_induced_maps_leave_no_reference_cycles():
    # neither the chain maps nor the lift in a morphism's memo refers back
    # to the morphism, so reference counting frees it with its caches
    data = cstar2_data()
    for build in (lambda: power_morphism(data, 2), basis_change_morphism):
        gc.collect()
        gc.disable()
        try:
            phi = build()
            target = compute_tor(phi.target, QQ)
            source = compute_tor(phi.source, QQ, bound=target.bound)
            tor_phi(phi, target, source)
            hat_tor_phi(phi, target, source)
            del phi, target, source
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_constructors_reject_non_integral_values():
    # int() alone would truncate 1.9 and 3/2 to 1 and parse "1", and the
    # engine would then compute another space with no error
    poset = SimplicialPoset.from_facets([["v"], ["w"]])
    for bad in (1.9, Fraction(3, 2), "1"):
        with pytest.raises(ValueError, match=r"entry 0 of chi\['v'\] is not "
                           "an integer"):
            CharacteristicData(poset, ["v", "w"], {"v": (bad, 0),
                                                   "w": (0, 1)}, 2)
    with pytest.raises(ValueError, match="lattice rank is not an integer"):
        CharacteristicData(poset, ["v", "w"], {"v": (1, 0), "w": (0, 1)}, 2.5)
    with pytest.raises(ValueError, match="entry 1 of ray 1 is not an integer"):
        CharacteristicData.from_fan([(1, 0), (0, 1.5)], [[0, 1]])
    data = CharacteristicData(poset, ["v", "w"], {"v": (1.0, 0),
                                                  "w": (0, Fraction(1))}, 2)
    assert data.chi == {"v": (1, 0), "w": (0, 1)}
    cp1 = CharacteristicData.from_fan([(1,), (-1,)], [[0], [1]])
    nu = {e: e for e in cp1.poset.elements}
    with pytest.raises(ValueError, match=r"matrix entry A\[0\]\[0\] is not "
                       r"an integer: 2\.7"):
        ToricMorphism(cp1, cp1, [[2.7]], nu)
