"""The three benchmark workloads.

A workload builds its state from a seed (setup), lists the operations of
one pass (ops), turns each result into the text that is hashed and the
small summary the correctness gate needs (summarize), and checks those
summaries against facts that do not come from the code being timed
(check).  Operations look facetor functions up through their modules at
call time, so the traced run sees the wrapped versions.
"""

import contextlib
import io
import json
import os
import random
from itertools import combinations
from math import comb

import facetor.cli as cli
import facetor.documents as documents
import facetor.koszul as koszul
import facetor.torcohomology as tc
import facetor.toricmorphism as tm
from facetor.exactalg import CoefficientRing

import inputs

QQ = CoefficientRing.rationals()
ZZ = CoefficientRing.integers()
F2 = CoefficientRing.integers_mod(2)
COEFFS = {"q": QQ, "z": ZZ, "zmod:3": CoefficientRing.integers_mod(3)}


def _rng(seed, stream):
    """None for the default seed (reference inputs as drawn), else a
    generator for the relabelling of one input stream."""
    if seed == inputs.DEFAULT_SEED:
        return None
    return random.Random("%d:%s" % (seed, stream))


def _table_text(table):
    """Ranks, torsion and every representative, in table order."""
    parts = [repr(table.rank_table()), repr(table.torsion_table())]
    for bd in sorted(table.entries):
        for element, modulus in table.entries[bd].generators:
            parts.append("%r %d %r" % (bd, modulus, sorted(element.items())))
    return "\n".join(parts)


def _induced_text(induced):
    return "\n".join(
        "%s -> %s" % (tc.generator_name(g.gid),
                      tc.format_class(induced.images[g.gid]))
        for g in induced.domain.generator_list())


def _uct_problems(rq, rp, tz, p):
    """Universal-coefficient consistency of ranks over QQ (rq), dims over
    Z/p (rp) and torsion over ZZ (tz), all {bidegree: value} dicts."""
    tp = {bd: sum(1 for d in tors if d % p == 0) for bd, tors in tz.items()}
    problems = []
    for bd in sorted(set(rq) | set(rp) | set(tp)):
        want = rq.get(bd, 0) + tp.get(bd, 0) + tp.get((bd[0] + 1, bd[1]), 0)
        if rp.get(bd, 0) != want:
            problems.append("dimension over Z/%d at %r is %d, universal "
                            "coefficients give %d" % (p, bd, rp.get(bd, 0),
                                                      want))
    return problems


class MaTor:
    """compute_tor of moment-angle data over QQ, Z/2 and ZZ."""

    name = "ma-tor"
    # One pass keeps every second complex of each vertex count of the
    # acceptance sample (26 complexes, 78 operations), so that a pass fits
    # twice into a run and its latencies are dense around the median.
    every = 2
    rings = (("QQ", QQ), ("Z/2", F2), ("ZZ", ZZ))

    def setup(self, seed, workdir):
        rng = _rng(seed, "ma-tor")
        sample = inputs.thin_evenly(inputs.acceptance_sample(),
                                    key=lambda item: item[1],
                                    every=self.every)
        return [inputs.moment_angle_data(ambient, facets,
                                         "sample-%d" % index, rng)
                for index, _, ambient, facets in sample]

    def ops(self, state):
        out = []
        for data in state:
            for label, ring in self.rings:
                out.append(("compute_tor %s %s" % (data.name, label),
                            lambda d=data, r=ring: tc.compute_tor(d, r)))
        return out

    def summarize(self, name, result, state):
        return _table_text(result), (result.rank_table(),
                                     result.torsion_table())

    def check(self, state, kept):
        """Hochster's formula for the field ranks; universal coefficients
        across the three rings.  Returns {op index: reason}."""
        bad = {}
        for k, data in enumerate(state):
            base = len(self.rings) * k
            (rq, _), (r2, _), (rz, tz) = kept[base:base + 3]
            for off, ring, ranks in ((0, QQ, rq), (1, F2, r2)):
                if ranks != tc.hochster_oracle(data, ring):
                    bad[base + off] = "ranks differ from Hochster's formula"
            if rz != rq:
                bad[base + 2] = "free ranks over ZZ differ from QQ"
            problems = _uct_problems(rq, r2, tz, 2)
            if problems:
                bad[base + 1] = problems[0]
        return bad


class Algebra:
    """Products, omega, induced maps and the Cox ideal on tables built
    in setup."""

    name = "algebra"
    powers = (2, 3)

    def setup(self, seed, workdir):
        datas = {
            "Z(C6)": inputs.moment_angle_data(
                [str(i) for i in range(1, 7)], inputs.cycle_facets(6),
                "Z(C6)", _rng(seed, "C6")),
            "Z(C7)": inputs.moment_angle_data(
                [str(i) for i in range(1, 8)], inputs.cycle_facets(7),
                "Z(C7)", _rng(seed, "C7")),
            "Z(D6)": inputs.moment_angle_elements(
                inputs.doubled_polygon_items(6), "Z(D6)", _rng(seed, "D6")),
        }
        doc = inputs.random_quotient_document(
            random.Random("%d:algebra" % inputs.DEFAULT_SEED),
            "partial-quotient", 5, 3, range(15))
        rng = _rng(seed, "quotient")
        if rng is not None:
            doc = inputs.relabel_document(doc, rng)
        datas["PQ"] = documents.parse_data_document(doc)
        tables = {key: tc.compute_tor(data, QQ)
                  for key, data in datas.items()}
        cox = {key: tables[key] for key in tables if key != "PQ"}
        cox["PQ"] = tc.compute_tor(tm.cox_projection(datas["PQ"]).source, QQ,
                                   bound=tables["PQ"].bound)
        return {"data": datas, "tables": tables, "cox": cox}

    def ops(self, state):
        datas, tables, cox = state["data"], state["tables"], state["cox"]
        out = []
        for key, data in datas.items():
            tab = tables[key]
            out.append(("compare_products " + key,
                        lambda t=tab: tc.compare_products(t)))
            out.append(("omega " + key, lambda d=data, t=tab: tm.omega(d, t)))
            for r in self.powers:
                for fname in ("tor_phi", "hat_tor_phi"):
                    out.append((
                        "%s power%d %s" % (fname, r, key),
                        lambda f=fname, d=data, t=tab, r=r: getattr(tm, f)(
                            tm.power_morphism(d, r), t, t)))
            for fname in ("tor_phi", "hat_tor_phi"):
                out.append(("%s cox %s" % (fname, key),
                            lambda f=fname, d=data, t=tab, c=cox[key]:
                            getattr(tm, f)(tm.cox_projection(d), t, c)))
            out.append(("ideal_I_sigma " + key,
                        lambda d=data, t=tab, c=cox[key]:
                        tm.ideal_I_sigma(d, t, c)))
        return out

    def summarize(self, name, result, state):
        if name.startswith("compare_products"):
            text = "\n".join("%s %s %s %s" % (
                tc.generator_name(ga), tc.generator_name(gb),
                tc.format_class(a), tc.format_class(b))
                for ga, gb, a, b in result.differences)
        elif name.startswith("ideal_I_sigma"):
            text = "\n".join("%d: %s" % (t, ", ".join(
                tc.format_class(c) for c in classes))
                for t, classes in sorted(result.items()))
        else:
            text = _induced_text(result)
        return text, result

    def check(self, state, kept):
        """Moment-angle data has zero twist, so products agree, omega and
        the Cox maps are the identity (empty ideal) and the r-th power map
        multiplies bidegree (-k, 2m) by r^m.  On the partial quotient,
        omega carries twisted products to plain ones, the corrected power
        maps respect twisted products, the plain and corrected Cox maps
        agree, and the ideal dies under the Cox map."""
        names = [name for name, _ in self.ops(state)]
        got = dict(zip(names, kept))
        index = {name: i for i, name in enumerate(names)}
        bad = {}

        def flag(name, ok, reason):
            if not ok:
                bad.setdefault(index[name], reason)

        for key, data in state["data"].items():
            tab = state["tables"][key]
            gens = tab.generator_list()
            classes = {g.gid: tab.generator_class(g.bidegree, g.index)
                       for g in gens}
            if key != "PQ":
                flag("compare_products " + key,
                     not got["compare_products " + key].differences,
                     "products differ though the twist is zero")
                for name in ("omega ", "tor_phi cox ", "hat_tor_phi cox "):
                    flag(name + key,
                         all(got[name + key].images[g] == c
                             for g, c in classes.items()),
                         "not the identity")
                flag("ideal_I_sigma " + key,
                     got["ideal_I_sigma " + key] == {},
                     "the identity Cox map has a kernel")
                for r in self.powers:
                    for fname in ("tor_phi", "hat_tor_phi"):
                        name = "%s power%d %s" % (fname, r, key)
                        flag(name, all(
                            got[name].images[g.gid]
                            == classes[g.gid].scale(r ** (g.bidegree[1] // 2))
                            for g in gens), "power map is not r^m")
                continue
            twisted = tc.product_table(tab, koszul.compute_q(data))
            plain = tc.product_table(tab, None)
            pairs = [(g1, g2) for g1 in gens for g2 in gens
                     if g1.total + g2.total <= tab.bound]
            diffs = {(ga, gb) for ga, gb, _, _ in
                     got["compare_products PQ"].differences}
            flag("compare_products PQ", diffs == {
                (g1.gid, g2.gid) for g1, g2 in pairs
                if twisted.product(g1.gid, g2.gid)
                != plain.product(g1.gid, g2.gid)},
                "differences disagree with the product tables")
            om = got["omega PQ"]
            flag("omega PQ", all(
                om.apply(twisted.product(g1.gid, g2.gid))
                == plain.multiply_classes(om.apply(classes[g1.gid]),
                                          om.apply(classes[g2.gid]))
                for g1, g2 in pairs), "omega does not intertwine")
            for r in self.powers:
                name = "hat_tor_phi power%d PQ" % r
                hat = got[name]
                flag(name, all(
                    hat.apply(twisted.product(g1.gid, g2.gid))
                    == twisted.multiply_classes(hat.apply(classes[g1.gid]),
                                                hat.apply(classes[g2.gid]))
                    for g1, g2 in pairs), "not multiplicative")
            plain_cox, hat_cox = got["tor_phi cox PQ"], got["hat_tor_phi cox PQ"]
            flag("hat_tor_phi cox PQ",
                 plain_cox.images == hat_cox.images,
                 "corrected Cox map differs from the plain one")
            flag("ideal_I_sigma PQ", all(
                plain_cox.apply(c).is_zero
                for classes_t in got["ideal_I_sigma PQ"].values()
                for c in classes_t), "ideal class survives the Cox map")
        return bad


def _h_vector(cones, dim):
    """h-vector of the complex generated by the given maximal cones."""
    faces = {frozenset()}
    for f in cones:
        for k in range(1, len(f) + 1):
            faces.update(frozenset(c) for c in combinations(f, k))
    f = [0] * (dim + 1)  # f[i] = number of faces with i vertices
    for face in faces:
        f[len(face)] += 1
    return [sum((-1) ** (k - i) * comb(dim - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(dim + 1)]


class QuotientCli:
    """In-process facetor command lines on seeded documents."""

    name = "quotient-cli"
    # (name, vertices, lattice rank, face counts): lattice rank m-1 to
    # m-3, small enough that a product comparison stays near a second.
    quotients = (("quotient-a", 5, 4, range(15)),
                 ("quotient-b", 5, 3, range(13)),
                 ("quotient-c", 6, 4, range(14)),
                 ("quotient-d", 6, 3, range(17)),
                 ("quotient-e", 7, 4, range(16)))
    # One larger quotient, run through tor only: one big Smith form per
    # bidegree, where QQ is slowest against ZZ.
    large = ("quotient-large", 6, 4, range(24, 29))

    def setup(self, seed, workdir):
        ref = random.Random("%d:quotient-cli" % inputs.DEFAULT_SEED)
        rng = _rng(seed, "quotient-cli")
        docs = {}
        for name, m, n, faces in self.quotients + (self.large,):
            doc = inputs.random_quotient_document(ref, name, m, n, faces)
            if rng is not None:
                doc = inputs.relabel_document(doc, rng)
            docs[name] = doc
        for fan in inputs.FANS:
            docs[fan] = inputs.fan_document(fan, rng)
        for k in (4, 5, 6):
            doc = inputs.doubled_polygon_document(k, rng)
            docs[doc["name"]] = doc
        maps = {}
        for name in [q[0] for q in self.quotients] + ["doubled-5-gon"]:
            maps[name + " power2"] = (
                name, name, inputs.power_morphism_document(docs[name], 2))
        for name in ("quotient-a", "quotient-b"):
            source, morph = inputs.basis_change_documents(docs[name], ref)
            docs[source["name"]] = source
            maps[name + " basis-change"] = (source["name"], name, morph)
        paths = {}
        for i, (name, doc) in enumerate(docs.items()):
            paths[name] = os.path.join(workdir, "data-%d.json" % i)
            with open(paths[name], "w") as fh:
                fh.write(documents.dump_document(doc))
        for i, (name, (src, tgt, morph)) in enumerate(maps.items()):
            mpath = os.path.join(workdir, "morphism-%d.json" % i)
            with open(mpath, "w") as fh:
                fh.write(documents.dump_document(morph))
            paths[name] = (paths[src], paths[tgt], mpath)
        return {"docs": docs, "paths": paths, "maps": maps}

    def commands(self, state):
        """(name, argv, document name or None, coefficient token)."""
        paths = state["paths"]
        out = []

        def tor(name, coeffs, fmt):
            out.append(("tor %s %s %s" % (name, coeffs, fmt),
                        ["tor", paths[name], "--coeffs", coeffs,
                         "--format", fmt], name, coeffs))

        for name, _, _, _ in self.quotients:
            for coeffs in ("q", "z", "zmod:3"):
                for fmt in ("table", "structured"):
                    tor(name, coeffs, fmt)
            out.append(("mult --compare " + name,
                        ["mult", paths[name], "--compare"], None, "q"))
            out.append(("omega " + name, ["omega", paths[name]], None, "q"))
        for coeffs in ("q", "z", "zmod:3"):
            tor(self.large[0], coeffs, "structured")
        for name in list(inputs.FANS) + ["doubled-%d-gon" % k
                                         for k in (4, 5, 6)]:
            tor(name, "q", "structured")
            tor(name, "z", "table")
            out.append(("mult --compare " + name,
                        ["mult", paths[name], "--compare"], None, "q"))
            if name.startswith("doubled"):
                out.append(("omega " + name, ["omega", paths[name]],
                            None, "q"))
        for mname in state["maps"]:
            out.append(("map --both --show-hatq " + mname,
                        ["map", *paths[mname], "--both", "--show-hatq"],
                        None, "q"))
        return out

    def ops(self, state):
        return [(name, lambda argv=argv: _run_cli(argv))
                for name, argv, _, _ in self.commands(state)]

    def summarize(self, name, result, state):
        rc, out, err = result
        return "%d\n%s" % (rc, out), result

    def check(self, state, kept):
        """Exit code 0 everywhere; structured tor output equal to the
        library table; universal coefficients across q, z and zmod:3; for
        smooth complete fans, ranks equal to the h-vector at j = 0."""
        bad = {}
        structured = {}
        for i, ((name, _, doc, coeffs), (rc, out, err)) in enumerate(
                zip(self.commands(state), kept)):
            if rc != 0:
                bad[i] = "exit code %d: %s" % (rc, err.strip()[-200:])
                continue
            if name.startswith("omega") and "intertwining: ok" not in out:
                bad[i] = "omega does not report intertwining"
            if doc is None or not name.endswith("structured"):
                continue
            parsed = json.loads(out)
            ranks = {tuple(e["bidegree"]): e["rank"]
                     for e in parsed["entries"] if e["rank"]}
            tors = {tuple(e["bidegree"]): tuple(e["torsion"])
                    for e in parsed["entries"] if e["torsion"]}
            structured[(doc, coeffs)] = (i, ranks, tors)
            data = documents.parse_data_document(state["docs"][doc])
            table = tc.compute_tor(data, COEFFS[coeffs])
            if (ranks, tors) != (table.rank_table(), table.torsion_table()):
                bad[i] = "structured output differs from the library table"
        for doc in state["docs"]:
            if (doc, "zmod:3") in structured and (doc, "z") in structured:
                i, r3, _ = structured[(doc, "zmod:3")]
                _, rq, _ = structured[(doc, "q")]
                _, rz, tz = structured[(doc, "z")]
                problems = _uct_problems(rq, r3, tz, 3)
                if problems or rz != rq:
                    bad.setdefault(i, (problems or ["ZZ ranks"])[0])
        for fan, (_, cones) in inputs.FANS.items():
            i, ranks, tors = structured[(fan, "q")]
            dim = len(cones[0])
            want = {(0, 2 * k): h for k, h in
                    enumerate(_h_vector(cones, dim)) if h}
            if ranks != want or tors:
                bad[i] = "fan ranks %r differ from the h-vector %r" % (
                    ranks, want)
        return bad


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (MaTor(), Algebra(), QuotientCli())}
