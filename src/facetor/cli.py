"""Command line interface.

Subcommands: validate, tor, mult, map, omega, example.  Data documents
are JSON (see the documents module); results go to stdout, diagnostics
to stderr.  Exit codes: 0 success, 1 domain validation failure or a
failed example, 2 parse or usage error.  Output is deterministic.
"""

import argparse
import os
import sys

from .documents import DocumentError, data_document, dump_document, \
    load_document, parse_data_document, parse_morphism_document
from .examples import example_names, run_example
from .exactalg import CoefficientRing
from .facering import format_element
from .koszul import compute_q
from .simplicial import same_data
from .torcohomology import compare_products, compute_tor, format_class, \
    generator_name, product_table
from .toricmorphism import hat_q, hat_tor_phi, omega, product_failures, \
    tor_phi


def _coeffs(text):
    if text == "q":
        return CoefficientRing.rationals()
    if text == "z":
        return CoefficientRing.integers()
    if text.startswith("zmod:"):
        tail = text[len("zmod:"):]
        try:
            return CoefficientRing.integers_mod(int(tail))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))
    raise argparse.ArgumentTypeError(
        "expected q, z, or zmod:P, got %r" % text)


def _bound(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("bound must be >= 0, got %d" % value)
    return value


def _coeffs_token(ring):
    if ring.modulus:
        return "zmod:%d" % ring.modulus
    return "q" if ring.is_field else "z"


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError("cannot read %s: %s" % (path, e))


def _load_data(path):
    return parse_data_document(load_document(_read(path)), path=path)


def _checked_data(path):
    """Parse and validate one data document; validation problems exit 1."""
    data = _load_data(path)
    problems = data.validate()
    if problems:
        for p in problems:
            print("invalid %s: %s" % (path, p), file=sys.stderr)
        raise _DomainFailure()
    return data


class _DomainFailure(Exception):
    """Validation failed; the report has already been printed."""


def _load_morphism(paths):
    spath, tpath, mpath = paths
    source = _checked_data(spath)
    target = _checked_data(tpath)
    phi = parse_morphism_document(load_document(_read(mpath)), source, target,
                                  path=mpath)
    problems = phi.validate()
    if problems:
        for p in problems:
            print("invalid %s: %s" % (mpath, p), file=sys.stderr)
        raise _DomainFailure()
    return phi


def _title(data, ring, bound):
    return "%s over %s (total degree <= %d)" % (data.name or "(unnamed)",
                                                ring, bound)


def _grid_lines(table):
    """The rank grid: internal degree rows descending, homological
    degree columns from 0 leftward."""
    ranks = table.rank_table()
    torsion = table.torsion_table()
    bds = set(ranks) | set(torsion)
    if not bds:
        return ["(no nonzero entries)"]
    rows = sorted({t for _, t in bds}, reverse=True)
    cols = list(range(0, min(j for j, _ in bds) - 1, -1))

    def cell(j, t):
        parts = []
        if ranks.get((j, t)):
            parts.append(str(ranks[(j, t)]))
        parts.extend("Z/%d" % d for d in torsion.get((j, t), ()))
        return "+".join(parts) if parts else "."

    head = ["t\\j"] + [str(j) for j in cols]
    body = [[str(t)] + [cell(j, t) for j in cols] for t in rows]
    widths = [max(len(line[i]) for line in [head] + body)
              for i in range(len(head))]
    out = ["  ".join(x.rjust(w) for x, w in zip(head, widths))]
    out.append("-" * len(out[0]))
    out.extend("  ".join(x.rjust(w) for x, w in zip(line, widths))
               for line in body)
    return out


def _poincare(totals):
    terms = []
    for d, r in sorted(totals.items()):
        if d == 0:
            terms.append(str(r))
        else:
            power = "t" if d == 1 else "t^%d" % d
            terms.append(power if r == 1 else "%d %s" % (r, power))
    return " + ".join(terms) if terms else "0"


def _torsion_by_total(table):
    out = {}
    for (j, t), ds in sorted(table.torsion_table().items(),
                             key=lambda item: (item[0][1], -item[0][0])):
        out.setdefault(j + t, []).extend("Z/%d" % d for d in ds)
    return out


def cmd_tor(args):
    data = _checked_data(args.data)
    table = compute_tor(data, args.coeffs, bound=args.max_total_degree)
    if args.format == "structured":
        ranks, torsion = table.rank_table(), table.torsion_table()
        totals, total_torsion = table.total_ranks(), _torsion_by_total(table)
        entries = sorted(set(ranks) | set(torsion),
                         key=lambda bd: (bd[1], -bd[0]))
        doc = {
            "document": "tor-table",
            "name": data.name,
            "coefficients": _coeffs_token(args.coeffs),
            "max_total_degree": table.bound,
            "data": data_document(data),
            "entries": [{"bidegree": list(bd),
                         "rank": ranks.get(bd, 0),
                         "torsion": list(torsion.get(bd, ()))}
                        for bd in entries],
            "totals": [{"total": d,
                        "rank": totals.get(d, 0),
                        "torsion": total_torsion.get(d, [])}
                       for d in sorted(set(totals) | set(total_torsion))],
        }
        sys.stdout.write(dump_document(doc))
        return 0
    print("Tor table for " + _title(data, args.coeffs, table.bound))
    print()
    for line in _grid_lines(table):
        print(line)
    print()
    print("betti: " + _poincare(table.total_ranks()))
    torsion = _torsion_by_total(table)
    if torsion:
        print("torsion: " + "; ".join(
            "degree %d: %s" % (d, ", ".join(zs))
            for d, zs in sorted(torsion.items())))
    else:
        print("torsion: none")
    return 0


def cmd_mult(args):
    data = _checked_data(args.data)
    table = compute_tor(data, args.coeffs, bound=args.max_total_degree)
    twist = compute_q(data)
    if args.variant == "compare":
        # each unordered pair once, in the order the product loops meet it
        pos = {g.gid: i for i, g in enumerate(table.generator_list())}
        rows = [d for d in compare_products(table, twist).differences
                if pos[d[0]] <= pos[d[1]]]
        if args.format == "structured":
            doc = {"document": "product-comparison",
                   "name": data.name,
                   "coefficients": _coeffs_token(args.coeffs),
                   "max_total_degree": table.bound,
                   "data": data_document(data),
                   "differences": [
                       {"left": generator_name(ga), "right": generator_name(gb),
                        "twisted": format_class(a), "untwisted": format_class(b)}
                       for ga, gb, a, b in rows]}
            sys.stdout.write(dump_document(doc))
            return 0
        print("product comparison for " + _title(data, args.coeffs, table.bound))
        if not rows:
            print("the twisted and untwisted products agree")
            return 0
        print("%d unordered pairs differ" % len(rows))
        for ga, gb, a, b in rows:
            print("%s * %s: twisted %s, untwisted %s" % (
                generator_name(ga), generator_name(gb),
                format_class(a), format_class(b)))
        return 0

    twisted = args.variant == "twisted"
    prods = product_table(table, twist if twisted else None)
    if args.format == "structured":
        doc = {"document": "products",
               "name": data.name,
               "coefficients": _coeffs_token(args.coeffs),
               "max_total_degree": table.bound,
               "twisted": twisted,
               "data": data_document(data),
               "products": [
                   {"left": generator_name(g1.gid),
                    "right": generator_name(g2.gid),
                    "value": format_class(prods.product(g1.gid, g2.gid))}
                   for g1, g2 in table.generator_pairs()]}
        sys.stdout.write(dump_document(doc))
        return 0
    print("%s products for %s" % ("twisted" if twisted else "untwisted",
                                  _title(data, args.coeffs, table.bound)))
    for g1, g2 in table.generator_pairs():
        print("%s * %s = %s" % (generator_name(g1.gid), generator_name(g2.gid),
                                format_class(prods.product(g1.gid, g2.gid))))
    return 0


def _hatq_lines(phi):
    correction = hat_q(phi)
    lines = []
    for i in range(1, correction.n + 1):
        for j in range(1, i):
            value = correction.get(i, j)
            if value:
                lines.append("hat q[%d,%d] = %s" % (i, j, format_element(value)))
    return lines or ["hat q = 0"]


def cmd_map(args):
    phi = _load_morphism([args.source, args.target, args.morphism])
    target_table = compute_tor(phi.target, args.coeffs,
                               bound=args.max_total_degree)
    if same_data(phi.source, phi.target):
        source_table = target_table
    else:
        source_table = compute_tor(phi.source, args.coeffs,
                                   bound=target_table.bound)
    variants = []
    if args.variant in ("untwisted", "both"):
        variants.append(("untwisted", tor_phi(phi, target_table, source_table)))
    if args.variant in ("twisted", "both"):
        variants.append(("twisted", hat_tor_phi(phi, target_table,
                                                source_table)))
    if args.format == "structured":
        doc = {"document": "induced-map",
               "name": phi.name,
               "source": phi.source.name,
               "target": phi.target.name,
               "coefficients": _coeffs_token(args.coeffs),
               "max_total_degree": target_table.bound}
        if args.show_hatq:
            doc["hatq"] = _hatq_lines(phi)
        for label, induced in variants:
            doc[label] = [{"generator": generator_name(gid),
                           "image": format_class(img)}
                          for gid, img in induced.images.items()]
        sys.stdout.write(dump_document(doc))
        return 0
    print("morphism %s: %s -> %s (over %s, total degree <= %d)" % (
        phi.name or "(unnamed)", phi.source.name or "(unnamed)",
        phi.target.name or "(unnamed)", args.coeffs, target_table.bound))
    print("induced maps act from the target table to the source table")
    if args.show_hatq:
        for line in _hatq_lines(phi):
            print(line)
    for label, induced in variants:
        print("%s images:" % label)
        for gid, img in induced.images.items():
            print("  %s -> %s" % (generator_name(gid), format_class(img)))
    return 0


def cmd_omega(args):
    data = _checked_data(args.data)
    table = compute_tor(data, args.coeffs, bound=args.max_total_degree)
    straighten = omega(data, table)
    failures, pairs = product_failures(
        straighten, product_table(table, compute_q(data)),
        product_table(table, None))

    if args.format == "structured":
        doc = {"document": "omega",
               "name": data.name,
               "coefficients": _coeffs_token(args.coeffs),
               "max_total_degree": table.bound,
               "images": [{"generator": generator_name(gid),
                           "image": format_class(img)}
                          for gid, img in straighten.images.items()],
               "intertwines": not failures}
        sys.stdout.write(dump_document(doc))
        return 0 if not failures else 1
    print("omega for " + _title(data, args.coeffs, table.bound))
    for gid, img in straighten.images.items():
        print("%s -> %s" % (generator_name(gid), format_class(img)))
    if failures:
        print("product intertwining: FAILED on %d pairs" % len(failures))
        return 1
    print("product intertwining: ok (%d pairs)" % pairs)
    return 0


def cmd_example(args):
    try:
        ok, lines = run_example(args.name)
    except KeyError:
        print("error: unknown example %r (choose from %s)" % (
            args.name, ", ".join(example_names())), file=sys.stderr)
        return 2
    print("example %s: %s" % (args.name, "ok" if ok else "FAIL"))
    for line in lines:
        print("  " + line)
    return 0 if ok else 1


def cmd_validate(args):
    if len(args.files) == 1:
        data = _load_data(args.files[0])
        problems = data.validate()
        if problems:
            for p in problems:
                print("problem: %s" % p)
            return 1
        print("ok: characteristic data %r (%d vertices, %d ghost, "
              "lattice rank %d, %d poset elements)" % (
                  data.name, len(data.vertices), len(data.ghosts), data.n,
                  len(data.poset.elements)))
        return 0
    if len(args.files) == 3:
        spath, tpath, mpath = args.files
        source = _load_data(spath)
        target = _load_data(tpath)
        for path, data in ((spath, source), (tpath, target)):
            problems = data.validate()
            if problems:
                for p in problems:
                    print("problem in %s: %s" % (path, p))
                return 1
        phi = parse_morphism_document(load_document(_read(mpath)),
                                      source, target, path=mpath)
        problems = phi.validate()
        if problems:
            for p in problems:
                print("problem: %s" % p)
            return 1
        print("ok: morphism %r from %r to %r" % (
            phi.name, source.name, target.name))
        return 0
    print("error: validate takes one data document or source, target, "
          "morphism documents", file=sys.stderr)
    return 2


def _parser():
    parser = argparse.ArgumentParser(
        prog="facetor",
        description="Cohomology tables of characteristic data, their "
                    "products, and the maps morphisms induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        if data:
            p.add_argument("data", help="data document (JSON)")
        p.add_argument("--coeffs", type=_coeffs,
                       default=CoefficientRing.rationals(),
                       help="coefficients: q, z, or zmod:P (default q)")
        p.add_argument("--max-total-degree", type=_bound, default=None,
                       metavar="D", help="truncate the table above D")
        p.add_argument("--format", choices=("table", "structured"),
                       default="table", help="output format")

    p = sub.add_parser("validate", help="check documents")
    p.add_argument("files", nargs="+",
                   help="one data document, or source, target, morphism")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("tor", help="rank and torsion table")
    common(p)
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("mult", help="products of table generators")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--twisted", dest="variant", action="store_const",
                       const="twisted", help="twisted products (default)")
    group.add_argument("--untwisted", dest="variant", action="store_const",
                       const="untwisted", help="plain wedge products")
    group.add_argument("--compare", dest="variant", action="store_const",
                       const="compare", help="report differing pairs")
    p.set_defaults(func=cmd_mult, variant="twisted")

    p = sub.add_parser("map", help="maps induced by a morphism")
    p.add_argument("source", help="source data document")
    p.add_argument("target", help="target data document")
    p.add_argument("morphism", help="morphism document")
    common(p, data=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--twisted", dest="variant", action="store_const",
                       const="twisted", help="only the corrected map")
    group.add_argument("--untwisted", dest="variant", action="store_const",
                       const="untwisted", help="only the plain map")
    group.add_argument("--both", dest="variant", action="store_const",
                       const="both", help="both maps (default)")
    p.add_argument("--show-hatq", action="store_true",
                   help="print the twisting correction")
    p.set_defaults(func=cmd_map, variant="both")

    p = sub.add_parser("omega", help="straightening map where 2 is a unit")
    common(p)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("example", help="run a bundled example")
    p.add_argument("name", help="one of: %s" % ", ".join(example_names()))
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None):
    threads = os.environ.get("FACETOR_THREADS")
    if threads is not None:
        if not threads.isdigit() or int(threads) < 1:
            print("error: FACETOR_THREADS must be a positive integer",
                  file=sys.stderr)
            return 2
        if int(threads) != 1:
            print("note: computations run serially; FACETOR_THREADS=%s "
                  "has no effect" % threads, file=sys.stderr)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _DomainFailure:
        return 1
    except DocumentError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
