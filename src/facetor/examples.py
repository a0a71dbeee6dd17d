"""Bundled worked examples with frozen expected answers.

Each example builds small characteristic data, runs the engine, and
compares computed values with the stored expectations.  run_example
returns (ok, lines) where each line states one expected-vs-computed
check; the command line exposes these through the example subcommand.
"""

from .exactalg import CoefficientRing
from .facering import format_element
from .koszul import compute_q, star_product, wedge_product
from .simplicial import CharacteristicData, SimplicialPoset
from .torcohomology import compare_products, compute_tor, format_class, \
    product_table
from .toricmorphism import ToricMorphism, cox_projection, cross_element, \
    diagonal_morphism, hat_q, hat_tor_phi, ideal_I_sigma, lift, omega, \
    power_morphism, product_failures, tor_phi

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()


def data_cstar2(name="cstar2-p1"):
    """Two points with two ghost vertices in a rank-3 lattice: the total
    space is the product of a projective line with a two-torus."""
    poset = SimplicialPoset.from_facets([["v"], ["w"]])
    chi = {"v": (1, 1, 1), "w": (-1, -1, -1),
           "g1": (1, 0, 0), "g2": (0, 1, 0)}
    return CharacteristicData(poset, ["v", "w", "g1", "g2"], chi, 3, name=name)


def data_cstar2_rebased():
    """The same poset with the vertex vectors moved to the third basis
    direction; the twist collapses to a single diagonal term."""
    poset = SimplicialPoset.from_facets([["v"], ["w"]])
    chi = {"v": (0, 0, 1), "w": (0, 0, -1),
           "g1": (1, 0, 0), "g2": (0, 1, 0)}
    return CharacteristicData(poset, ["v", "w", "g1", "g2"], chi, 3,
                              name="cstar2-p1 rebased")


def basis_change_morphism():
    """Unimodular change of basis from the rebased data back to cstar2-p1."""
    source = data_cstar2_rebased()
    target = data_cstar2()
    nu = {e: e for e in source.poset.elements}
    return ToricMorphism(source, target, [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                         nu, name="basis-change")


def standard_classes(table):
    """The classes a1, a2, b, c of the cstar2-p1 table, in that order."""
    a1 = table.reduce({((1,), ()): 1, ((3,), ()): -1})
    a2 = table.reduce({((2,), ()): 1, ((3,), ()): -1})
    b = table.reduce({((1, 2), ()): 1, ((2, 3), ()): 1, ((1, 3), ()): -1})
    c = table.reduce({((), (("{v}", 1),)): 1})
    return a1, a2, b, c


def rebased_classes(table):
    """The matching classes of the rebased table, where the first two
    exterior generators are already cocycles."""
    a1 = table.reduce({((1,), ()): 1})
    a2 = table.reduce({((2,), ()): 1})
    b = table.reduce({((1, 2), ()): 1})
    c = table.reduce({((), (("{v}", 1),)): 1})
    return a1, a2, b, c


class _Checks:
    """Accumulates expected-vs-computed lines."""

    def __init__(self):
        self.lines = []
        self.ok = True

    def check(self, label, computed, expected):
        good = computed == expected
        self.ok = self.ok and good
        self.lines.append("%s: expected %s, computed %s .. %s" % (
            label, expected, computed, "ok" if good else "MISMATCH"))

    def check_class(self, label, computed, expected):
        self.check(label, format_class(computed), format_class(expected))

    def result(self):
        return self.ok, self.lines


def _example_cstar2():
    out = _Checks()
    data = data_cstar2()
    want = {(0, 0): 1, (0, 2): 1, (-1, 2): 2, (-2, 4): 1,
            (-1, 4): 2, (-2, 6): 1}
    table = compute_tor(data, QQ)
    out.check("rank table over QQ", dict(sorted(table.rank_table().items())),
              dict(sorted(want.items())))
    ztab = compute_tor(data, ZZ)
    out.check("rank table over ZZ", dict(sorted(ztab.rank_table().items())),
              dict(sorted(want.items())))
    out.check("torsion over ZZ", ztab.torsion_table(), {})
    out.check("total degree ranks", table.total_ranks(),
              {0: 1, 1: 2, 2: 2, 3: 2, 4: 1})

    q = compute_q(data)
    tw, tvw = "t[{w}]", "t[{v}]+t[{w}]"
    for (i, j), text in [((1, 1), tw), ((2, 2), tw), ((3, 3), tw),
                         ((2, 1), tvw), ((3, 1), tvw), ((3, 2), tvw)]:
        out.check("twist q[%d,%d]" % (i, j), format_element(q.get(i, j)), text)

    a1, a2, b, c = standard_classes(table)
    z1 = {((1,), ()): 1, ((3,), ()): -1}
    z2 = {((2,), ()): 1, ((3,), ()): -1}
    out.check_class("twisted product a1 * a2",
                    table.reduce(star_product(z1, z2, q, QQ, table.face)),
                    b - c)
    out.check_class("untwisted product a1 ^ a2",
                    table.reduce(wedge_product(z1, z2, QQ, table.face)), b)
    report = compare_products(table)
    deg1 = sorted((ga, gb) for ga, gb, _, _ in report.differences
                  if ga[0][0] + ga[0][1] == 1 and gb[0][0] + gb[0][1] == 1)
    out.check("differing products of total degree one classes", deg1,
              [(((-1, 2), 0), ((-1, 2), 1)), (((-1, 2), 1), ((-1, 2), 0))])
    return out.result()


def _example_basis_change():
    out = _Checks()
    phi = basis_change_morphism()
    out.check("carrier validation", phi.validate(), [])
    out.check("lift is the identity", lift(phi).is_identity, True)
    out.check("correction hat q vanishes", hat_q(phi).is_zero, True)

    ttab = compute_tor(phi.target, QQ)
    stab = compute_tor(phi.source, QQ)
    plain = tor_phi(phi, ttab, stab)
    hat = hat_tor_phi(phi, ttab, stab)
    a1, a2, b, c = standard_classes(ttab)
    a1p, a2p, bp, cp = rebased_classes(stab)

    tprod = product_table(ttab, compute_q(phi.target))
    sprod = product_table(stab, compute_q(phi.source))
    out.check_class("plain image of a1", plain.apply(a1), a1p)
    out.check_class("plain image of a2", plain.apply(a2), a2p)
    out.check_class("plain image of b", plain.apply(b), bp)
    out.check_class("plain image of a1 * a2 (= b - c)", plain.apply(b - c),
                    bp - cp)
    out.check_class("product of the plain images",
                    sprod.multiply_classes(plain.apply(a1), plain.apply(a2)),
                    bp)
    out.check("plain map respects products", bp == bp - cp, False)
    out.check_class("corrected image of b", hat.apply(b), bp + cp)
    out.check("corrected map respects all generator products",
              product_failures(hat, tprod, sprod)[0], [])
    return out.result()


def _example_power(r):
    out = _Checks()
    data = data_cstar2()
    phi = power_morphism(data, r)
    out.check("carrier validation", phi.validate(), [])

    q = compute_q(data)
    hq = hat_q(phi)
    scale = -(r * (r - 1) // 2)
    for i in range(1, 4):
        for j in range(1, i):
            want = {m: scale * coef for m, coef in q.get(i, j).items()} \
                if scale else {}
            out.check("correction hat q[%d,%d]" % (i, j),
                      format_element(hq.get(i, j)), format_element(want))

    table = compute_tor(data, QQ)
    plain = tor_phi(phi, table, table)
    hat = hat_tor_phi(phi, table, table)
    a1, a2, b, c = standard_classes(table)
    out.check_class("plain image of a1", plain.apply(a1), a1.scale(r))
    out.check_class("plain image of b", plain.apply(b), b.scale(r * r))
    out.check_class("corrected image of b", hat.apply(b),
                    b.scale(r * r) - c.scale(r * (r - 1)))
    out.check_class("corrected image of a1 * a2 (= b - c)", hat.apply(b - c),
                    (b - c).scale(r * r))
    prod = product_table(table, q)
    out.check("corrected map respects all generator products",
              product_failures(hat, prod, prod)[0], [])
    return out.result()


def _example_diagonal():
    out = _Checks()
    data = data_cstar2()
    diag = diagonal_morphism(data, name="diagonal")
    out.check("carrier validation", diag.validate(), [])
    out.check("correction hat q vanishes", hat_q(diag).is_zero, True)

    table = compute_tor(data, QQ)
    double = compute_tor(diag.target, QQ, bound=table.bound)
    hat = hat_tor_phi(diag, double, table)
    prod = product_table(table, compute_q(data))
    failures = []
    pairs = 0
    for g1, g2 in table.generator_pairs():
        pairs += 1
        cross = cross_element(diag, g1.element, g2.element, QQ)
        image = hat.apply(double.reduce(cross, total=g1.total + g2.total))
        if image != prod.product(g1.gid, g2.gid):
            failures.append((g1.gid, g2.gid))
    out.check("diagonal reproduces the twisted products (%d pairs)" % pairs,
              failures, [])
    return out.result()


def _example_omega():
    out = _Checks()
    data = data_cstar2()
    table = compute_tor(data, QQ)
    om = omega(data, table)
    a1, a2, b, c = standard_classes(table)
    out.check_class("omega fixes a1", om.apply(a1), a1)
    out.check_class("omega fixes a2", om.apply(a2), a2)
    out.check_class("omega fixes c", om.apply(c), c)
    out.check_class("omega sends b to", om.apply(b), b + c)

    q = compute_q(data)
    twisted = product_table(table, q)
    plain = product_table(table, None)
    out.check_class("omega of the twisted product a1 * a2",
                    om.apply(twisted.multiply_classes(a1, a2)), b)
    out.check_class("untwisted product of the omega images",
                    plain.multiply_classes(om.apply(a1), om.apply(a2)), b)
    out.check("omega turns every twisted product into the untwisted one",
              product_failures(om, twisted, plain)[0], [])

    for phi in (basis_change_morphism(), power_morphism(data, 2)):
        stab = compute_tor(phi.source, QQ)
        om_t = omega(phi.target, table)
        om_s = omega(phi.source, stab)
        hat = hat_tor_phi(phi, table, stab)
        plain_map = tor_phi(phi, table, stab)
        bad = [gid for gid, img in hat.images.items()
               if om_s.apply(img) != plain_map.apply(om_t.images[gid])]
        name = phi.name or "power of 2"
        out.check("omega conjugates the corrected map to the plain map (%s)"
                  % name, bad, [])
    return out.result()


def _example_cox_ideal():
    out = _Checks()
    data = data_cstar2()
    kappa = cox_projection(data, name="cox")
    out.check("carrier validation", kappa.validate(), [])
    out.check("lift is the identity", lift(kappa).is_identity, True)
    out.check("correction hat q vanishes", hat_q(kappa).is_zero, True)

    table = compute_tor(data, QQ)
    mac = compute_tor(kappa.source, QQ, bound=table.bound)
    plain = tor_phi(kappa, table, mac)
    hat = hat_tor_phi(kappa, table, mac)
    out.check("plain and corrected maps agree on every generator",
              [gid for gid, img in plain.images.items()
               if img != hat.images[gid]], [])

    dead = []
    for d in (2, 4):
        for mono in mac.face.basis_of_degree(d):
            if mono and not mac.reduce({((), mono): 1}).is_zero:
                dead.append(mono)
    out.check("face ring monomials of positive degree vanish upstairs",
              dead, [])

    ideal = ideal_I_sigma(data, table, mac)
    out.check("ideal dimensions by total degree",
              {t: len(v) for t, v in sorted(ideal.items())},
              {2: 1, 3: 2, 4: 1})
    a1, a2, b, c = standard_classes(table)
    span = ideal[2][0]
    lead = next(x for x in span.coords if x)
    out.check_class("ideal in total degree two is spanned by c",
                    span.scale(1 / lead), c.scale(1 / next(
                        x for x in c.coords if x)))
    out.check("b stays nonzero in the quotient",
              plain.apply(b).is_zero, False)
    out.check("c dies in the quotient", plain.apply(c).is_zero, True)

    for phi in (basis_change_morphism(), power_morphism(data, 2),
                diagonal_morphism(data, name="diagonal")):
        ttab = compute_tor(phi.target, QQ)
        stab = compute_tor(phi.source, QQ, bound=ttab.bound)
        hat_m = hat_tor_phi(phi, ttab, stab)
        plain_m = tor_phi(phi, ttab, stab)
        ks = cox_projection(phi.source)
        smac = compute_tor(ks.source, QQ, bound=stab.bound)
        up = tor_phi(ks, stab, smac)
        bad = [gid for gid, img in hat_m.images.items()
               if not up.apply(img - plain_m.images[gid]).is_zero]
        name = phi.name or "power of 2"
        out.check("corrected equals plain modulo the ideal (%s)" % name,
                  bad, [])
    return out.result()


_BUILDERS = {
    "cstar2-p1": _example_cstar2,
    "basis-change": _example_basis_change,
    "diagonal": _example_diagonal,
    "omega": _example_omega,
    "cox-ideal": _example_cox_ideal,
}


def example_names():
    """Names the example subcommand accepts."""
    return ("cstar2-p1", "basis-change", "power-map:2", "power-map:3",
            "diagonal", "omega", "cox-ideal")


def run_example(name):
    """Run one bundled example; returns (ok, lines).

    Raises KeyError for names outside example_names(); power-map takes
    any exponent r >= 0 after the colon.
    """
    if name.startswith("power-map:"):
        tail = name[len("power-map:"):]
        if not tail.isdigit():
            raise KeyError(name)
        return _example_power(int(tail))
    builder = _BUILDERS.get(name)
    if builder is None:
        raise KeyError(name)
    return builder()
