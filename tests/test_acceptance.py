"""Acceptance gate: every advertised behaviour checked at exact equality.

Each test covers one item and prints a single pass/fail line (visible
with pytest -s, or in the failure report otherwise).  All expected
values are frozen hand calculations; nothing here is derived from the
engine under test, except that the random-sample items compare the
engine against the independent subcomplex oracle, and the partial
quotients against the Euler characteristics of the f-vector.
"""

import random

from facetor.documents import parse_data_document
from facetor.exactalg import CoefficientRing
from facetor.koszul import compute_q, star_product, wedge_product
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.torcohomology import compare_products, compute_tor, \
    euler_oracle, hochster_oracle, product_table
from facetor.toricmorphism import cox_projection, cross_element, \
    diagonal_morphism, hat_q, hat_tor_phi, ideal_I_sigma, lift, omega, \
    power_morphism, tor_phi
from facetor.examples import basis_change_morphism, data_cstar2, \
    data_cstar2_rebased, rebased_classes, standard_classes

from helpers import DOUBLED_PENTAGON, QUOTIENT_LARGE, cycle_facets, \
    rp2_facets, uct_report

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F2 = CoefficientRing.integers_mod(2)

CSTAR2_RANKS = {(0, 0): 1, (-1, 2): 2, (0, 2): 1, (-2, 4): 1,
                (-1, 4): 2, (-2, 6): 1}

_TABLES = {}


def _cached_tor(tag, data, ring, bound=None):
    key = (tag, repr(ring), bound)
    if key not in _TABLES:
        _TABLES[key] = compute_tor(data, ring, bound=bound)
    return _TABLES[key]


def _flag(failures, label, computed, expected):
    if computed != expected:
        failures.append("%s: %r != %r" % (label, computed, expected))


def _gate(name, failures):
    ok = not failures
    print("gate: %-55s %s" % (name, "pass" if ok else "FAIL"))
    assert ok, name + "\n  " + "\n  ".join(failures)


def _generator_classes(table):
    return [(g, table.generator_class(g.bidegree, g.index))
            for g in table.generator_list()]


def _product_failures(induced, domain_products, codomain_products):
    """Generator pairs of the domain table on which the induced map does
    not carry the domain product to the codomain product of the images."""
    table = induced.domain
    gens = _generator_classes(table)
    images = {g.gid: induced.apply(cls) for g, cls in gens}
    failures = []
    for g1, _ in gens:
        for g2, _ in gens:
            if g1.total + g2.total > table.bound:
                continue
            lhs = induced.apply(domain_products.product(g1.gid, g2.gid))
            rhs = codomain_products.multiply_classes(images[g1.gid],
                                                     images[g2.gid])
            if lhs != rhs:
                failures.append((g1.gid, g2.gid))
    return failures


_SAMPLE = None


def _sampled_complexes():
    """Fixed-seed sample of 52 moment-angle data sets on at most six
    ambient vertices, a few of them with ghost vertices."""
    global _SAMPLE
    if _SAMPLE is not None:
        return _SAMPLE
    rng = random.Random(20260819)
    sizes = [2] * 6 + [3] * 12 + [4] * 14 + [5] * 12 + [6] * 8
    sample = []
    for count, nv in enumerate(sizes):
        names = [str(i) for i in range(1, nv + 1)]
        facets = [rng.sample(names, rng.randint(1, min(nv, 4)))
                  for _ in range(rng.randint(1, nv + 2))]
        poset = SimplicialPoset.from_facets(facets)
        used = list(poset.vertices)
        ghosts = [v for v in names if v not in set(used)][:2]
        sample.append(CharacteristicData.moment_angle(
            poset, vertices=used + ghosts, name="sample-%d" % count))
    _SAMPLE = tuple(sample)
    return _SAMPLE


def test_01_quotient_table_ranks():
    failures = []
    tq = _cached_tor("cstar2", data_cstar2(), QQ)
    tz = _cached_tor("cstar2", data_cstar2(), ZZ)
    _flag(failures, "ranks over QQ", tq.rank_table(), CSTAR2_RANKS)
    _flag(failures, "free ranks over ZZ", tz.rank_table(), CSTAR2_RANKS)
    _flag(failures, "torsion over ZZ", tz.torsion_table(), {})
    _gate("tor table of the model quotient", failures)


def test_02_twist_values():
    failures = []
    q = compute_q(data_cstar2())
    tw = {(("{w}", 1),): 1}
    tvw = {(("{v}", 1),): 1, (("{w}", 1),): 1}
    for (i, j), want in [((1, 1), tw), ((2, 2), tw), ((3, 3), tw),
                         ((2, 1), tvw), ((3, 1), tvw), ((3, 2), tvw)]:
        _flag(failures, "q[%d,%d]" % (i, j), q.get(i, j), want)
    _gate("twist values of the model quotient", failures)


def test_03_product_comparison():
    failures = []
    table = _cached_tor("cstar2", data_cstar2(), QQ)
    q = compute_q(data_cstar2())
    a1, a2, b, c = standard_classes(table)
    z1 = {((1,), ()): 1, ((3,), ()): -1}
    z2 = {((2,), ()): 1, ((3,), ()): -1}
    star = table.reduce(star_product(z1, z2, q, QQ, table.face))
    wedge = table.reduce(wedge_product(z1, z2, QQ, table.face))
    _flag(failures, "twisted product a1 * a2", star, b - c)
    _flag(failures, "untwisted product a1 ^ a2", wedge, b)
    report = compare_products(table)
    deg1 = sorted((ga, gb) for ga, gb, _, _ in report.differences
                  if ga[0][0] + ga[0][1] == 1 and gb[0][0] + gb[0][1] == 1)
    _flag(failures, "flagged pairs in total degree one", deg1,
          [(((-1, 2), 0), ((-1, 2), 1)), (((-1, 2), 1), ((-1, 2), 0))])
    for ga, gb, twisted, untwisted in report.differences:
        if (ga, gb) in deg1:
            _flag(failures, "difference at %r, %r lands beside c" % (ga, gb),
                  sorted((twisted - untwisted).by_bidegree()), [(0, 2)])
    _gate("twisted versus untwisted product comparison", failures)


def test_04_basis_change_maps():
    failures = []
    phi = basis_change_morphism()
    _flag(failures, "carrier validation", phi.validate(), [])
    _flag(failures, "lift is the identity", lift(phi).is_identity, True)
    _flag(failures, "correction hat q vanishes", hat_q(phi).is_zero, True)

    ttab = _cached_tor("cstar2", data_cstar2(), QQ)
    stab = _cached_tor("rebased", data_cstar2_rebased(), QQ)
    plain = tor_phi(phi, ttab, stab)
    hat = hat_tor_phi(phi, ttab, stab)
    a1, a2, b, c = standard_classes(ttab)
    a1p, a2p, bp, cp = rebased_classes(stab)
    tprod = product_table(ttab, compute_q(phi.target))
    sprod = product_table(stab, compute_q(phi.source))

    _flag(failures, "plain image of a1 * a2", plain.apply(b - c), bp - cp)
    _flag(failures, "product of the plain images",
          sprod.multiply_classes(plain.apply(a1), plain.apply(a2)), bp)
    _flag(failures, "the two disagree", bp - cp == bp, False)
    _flag(failures, "corrected image of b", hat.apply(b), bp + cp)
    _flag(failures, "corrected map respects all generator products",
          _product_failures(hat, tprod, sprod), [])
    _gate("basis change needs the corrected induced map", failures)


def test_05_power_map_corrections():
    failures = []
    data = data_cstar2()
    q = compute_q(data)
    table = _cached_tor("cstar2", data, QQ)
    a1, a2, b, c = standard_classes(table)
    for r in (2, 3):
        phi = power_morphism(data, r)
        hq = hat_q(phi)
        scale = -(r * (r - 1) // 2)
        for i in range(1, 4):
            _flag(failures, "r=%d diagonal hat q[%d,%d]" % (r, i, i),
                  hq.get(i, i), {})
            for j in range(1, i):
                _flag(failures, "r=%d hat q[%d,%d]" % (r, i, j),
                      hq.get(i, j),
                      {m: scale * coef for m, coef in q.get(i, j).items()})
        hat = hat_tor_phi(phi, table, table)
        _flag(failures, "r=%d corrected image of b" % r, hat.apply(b),
              b.scale(r * r) - c.scale(r * (r - 1)))
        _flag(failures, "r=%d corrected image of a1 * a2" % r,
              hat.apply(b - c), (b - c).scale(r * r))
    _gate("power map twist correction and images", failures)


def test_06_omega_intertwines():
    failures = []
    data = data_cstar2()
    table = _cached_tor("cstar2", data, QQ)
    om = omega(data, table)
    a1, a2, b, c = standard_classes(table)
    _flag(failures, "omega fixes a1", om.apply(a1), a1)
    _flag(failures, "omega fixes a2", om.apply(a2), a2)
    _flag(failures, "omega fixes c", om.apply(c), c)
    _flag(failures, "omega sends b to b + c", om.apply(b), b + c)
    twisted = product_table(table, compute_q(data))
    plain = product_table(table, None)
    _flag(failures, "omega of the twisted product a1 * a2",
          om.apply(twisted.multiply_classes(a1, a2)), b)
    _flag(failures, "untwisted product of the omega images",
          plain.multiply_classes(om.apply(a1), om.apply(a2)), b)
    _gate("omega intertwines the two products", failures)


def test_07_diagonal_reproduces_products():
    failures = []
    data = data_cstar2()
    diag = diagonal_morphism(data, name="diagonal")
    _flag(failures, "correction hat q vanishes", hat_q(diag).is_zero, True)
    table = _cached_tor("cstar2", data, QQ)
    double = _cached_tor("diag-double", diag.target, QQ, bound=table.bound)
    hat = hat_tor_phi(diag, double, table)
    prod = product_table(table, compute_q(data))
    gens = table.generator_list()
    pairs = 0
    for g1 in gens:
        for g2 in gens:
            if g1.total + g2.total > table.bound:
                continue
            pairs += 1
            cross = cross_element(diag, g1.element, g2.element, QQ)
            image = hat.apply(double.reduce(cross, total=g1.total + g2.total))
            if image != prod.product(g1.gid, g2.gid):
                failures.append("pair %r, %r" % (g1.gid, g2.gid))
    _flag(failures, "number of generator pairs", pairs, 63)
    _gate("diagonal map reproduces the twisted products", failures)


def test_08_property_suite_budget():
    import test_properties as props
    failures = []
    _flag(failures, "instances", props.TOTAL_INSTANCES >= 100, True)
    _flag(failures, "budget total",
          sum(props.BUDGETS.values()), props.TOTAL_INSTANCES)
    _flag(failures, "vertex cap", props.MAX_VERTICES <= 5, True)
    _flag(failures, "lattice rank cap", props.N_MAX <= 3, True)
    _flag(failures, "fixed seeds", props.fixed(4).derandomize, True)
    _flag(failures, "covered properties", sorted(props.BUDGETS), sorted((
        "differential_squares_to_zero", "leibniz", "associative_and_unital",
        "chain_maps", "ghost_invariance", "hat_tor_multiplicative",
        "graded_commutative")))
    _gate("property suite budget and coverage", failures)


def test_09_hochster_sample():
    failures = []
    sample = _sampled_complexes()
    _flag(failures, "sample size of at least fifty", len(sample) >= 50, True)
    for i, data in enumerate(sample):
        for ring in (QQ, F2):
            engine = _cached_tor(("sample", i), data, ring).rank_table()
            oracle = hochster_oracle(data, ring)
            if engine != oracle:
                failures.append("%s over %s: %r != %r" % (
                    data.name, ring, engine, oracle))
    poset = SimplicialPoset.from_facets(cycle_facets(4))
    table = compute_tor(CharacteristicData.moment_angle(poset, name="c4"), QQ)
    _flag(failures, "4-cycle betti numbers",
          [table.total_ranks().get(t, 0) for t in range(7)],
          [1, 0, 0, 2, 0, 0, 1])
    _gate("random sample agrees with the subcomplex oracle", failures)


def test_10_cox_projection_and_ideal():
    failures = []
    data = data_cstar2()
    kappa = cox_projection(data, name="cox")
    _flag(failures, "lift is the identity", lift(kappa).is_identity, True)
    _flag(failures, "correction hat q vanishes", hat_q(kappa).is_zero, True)

    table = _cached_tor("cstar2", data, QQ)
    mac = _cached_tor("cstar2-mac", kappa.source, QQ, bound=table.bound)
    plain = tor_phi(kappa, table, mac)
    hat = hat_tor_phi(kappa, table, mac)
    _flag(failures, "plain and corrected maps agree on every generator",
          [g.gid for g, cls in _generator_classes(table)
           if plain.apply(cls) != hat.apply(cls)], [])

    dead = [mono for d in (2, 4) for mono in mac.face.basis_of_degree(d)
            if mono and not mac.reduce({((), mono): 1}).is_zero]
    _flag(failures, "positive degree face monomials vanish upstairs",
          dead, [])

    ideal = ideal_I_sigma(data, table, mac)
    _flag(failures, "ideal dimensions by total degree",
          {t: len(v) for t, v in sorted(ideal.items())}, {2: 1, 3: 2, 4: 1})
    a1, a2, b, c = standard_classes(table)
    span = ideal[2][0]
    _flag(failures, "ideal in total degree two is spanned by c",
          span.scale(1 / next(x for x in span.coords if x)),
          c.scale(1 / next(x for x in c.coords if x)))
    _flag(failures, "b stays nonzero in the quotient",
          plain.apply(b).is_zero, False)
    _flag(failures, "c dies in the quotient", plain.apply(c).is_zero, True)

    for phi in (basis_change_morphism(), power_morphism(data, 2),
                diagonal_morphism(data, name="diagonal")):
        name = phi.name or "power of 2"
        ttab = compute_tor(phi.target, QQ)
        stab = compute_tor(phi.source, QQ, bound=ttab.bound)
        hat_m = hat_tor_phi(phi, ttab, stab)
        plain_m = tor_phi(phi, ttab, stab)
        ks = cox_projection(phi.source)
        smac = compute_tor(ks.source, QQ, bound=stab.bound)
        up = tor_phi(ks, stab, smac)
        bad = [g.gid for g, cls in _generator_classes(ttab)
               if not up.apply(hat_m.apply(cls) - plain_m.apply(cls)).is_zero]
        _flag(failures, "corrected equals plain modulo the ideal (%s)" % name,
              bad, [])
    _gate("cox projection kills exactly the ideal", failures)


def test_11_torsion_consistency():
    failures = []
    for i, data in enumerate(_sampled_complexes()):
        tq = _cached_tor(("sample", i), data, QQ)
        tf = _cached_tor(("sample", i), data, F2)
        tz = _cached_tor(("sample", i), data, ZZ)
        t2 = {bd: sum(1 for d in tors if d % 2 == 0)
              for bd, tors in tz.torsion_table().items()}
        bds = set(tq.rank_table()) | set(tf.rank_table()) | set(t2)
        for bd in sorted(bds):
            rq, dp = tq.rank(bd), tf.rank(bd)
            touch = t2.get(bd, 0) + t2.get((bd[0] + 1, bd[1]), 0)
            if rq > dp:
                failures.append("rank over QQ above dim over F2 at %r (%s)"
                                % (bd, data.name))
            if (rq == dp) != (touch == 0):
                failures.append("equality against torsion mismatch at %r (%s)"
                                % (bd, data.name))
            if dp != rq + touch:
                failures.append("dimension count off at %r (%s)"
                                % (bd, data.name))
        if i < 3:
            _flag(failures, "consistency report on %s" % data.name,
                  uct_report(data, 2), [])

    rp2 = CharacteristicData.moment_angle(
        SimplicialPoset.from_facets(rp2_facets()), name="rp2")
    tz = compute_tor(rp2, ZZ, bound=9)
    tq = compute_tor(rp2, QQ, bound=9)
    tf = compute_tor(rp2, F2, bound=9)
    _flag(failures, "projective plane torsion over ZZ",
          tz.torsion_table(), {(-3, 12): (2,)})
    _flag(failures, "projective plane rational ranks in degree twelve",
          {bd: r for bd, r in tq.rank_table().items() if bd[1] == 12}, {})
    _flag(failures, "projective plane F2 ranks in degree twelve",
          {bd: r for bd, r in tf.rank_table().items() if bd[1] == 12},
          {(-4, 12): 1, (-3, 12): 1})
    _flag(failures, "rank gap witnesses the torsion",
          (tf.rank((-3, 12)) - tq.rank((-3, 12)),
           tf.rank((-4, 12)) - tq.rank((-4, 12))), (1, 1))
    _flag(failures, "consistency report on the projective plane",
          uct_report(rp2, 2, bound=9), [])
    _gate("field dimensions versus integral torsion", failures)


# Smooth complete fans (rays, maximal cones) with their h-vectors.
FANS = {
    "P3": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], (1, 1, 1, 1)),
    "dP6": ([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]], (1, 4, 1)),
    "P1xP1xP1": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [0, 0, 1], [0, 0, -1]],
                 [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
                 (1, 3, 3, 1)),
}


def test_12_smooth_fans_danilov_jurkiewicz():
    # H^{2k} of a smooth complete toric variety is free of rank h_k: all
    # of it sits at (0, 2k), with no torsion
    failures = []
    for name, (rays, cones, h) in FANS.items():
        data = CharacteristicData.from_fan(rays, cones, name=name)
        want = {(0, 2 * k): hk for k, hk in enumerate(h)}
        for ring in (QQ, ZZ):
            table = _cached_tor(name, data, ring)
            _flag(failures, "ranks of %s over %s" % (name, ring),
                  table.rank_table(), want)
            _flag(failures, "torsion of %s over %s" % (name, ring),
                  table.torsion_table(), {})
    _gate("smooth fans: ranks are the h-vector", failures)


def test_13_euler_oracle_on_partial_quotients():
    # the alternating rank sum of each internal degree against the one
    # the f-vector gives, on quotients with ghosts, a large quotient and
    # a doubled polygon that is not a complex
    failures = []
    for data in (data_cstar2(), data_cstar2_rebased(),
                 parse_data_document(QUOTIENT_LARGE),
                 parse_data_document(DOUBLED_PENTAGON)):
        oracle = euler_oracle(data)
        for ring in (QQ, ZZ, F2):
            table = _cached_tor(data.name, data, ring)
            got = {}
            for (j, t), entry in table.entries.items():
                if t <= table.bound:
                    got[t] = got.get(t, 0) + (-1) ** -j * entry.free_rank
            _flag(failures, "Euler characteristics of %s over %s"
                  % (data.name, ring), {t: v for t, v in got.items() if v},
                  oracle)
    _gate("Euler characteristics match the f-vector", failures)
