"""Command line interface.

Subcommands: validate, tor, mult, map, omega, example.  Data documents
are JSON (see the documents module); results go to stdout, diagnostics
to stderr.  Exit codes: 0 success, 1 domain validation failure or a
failed example, 2 parse or usage error.  Output is deterministic.

Each command builds its result rows once and hands them to one writer,
_write: the structured document, with the fields all documents share,
or the table lines.  One reporter, _check, prints validation problems
(on stdout for validate, on stderr elsewhere).  mult --compare builds no
product with a factor of exterior degree 0, where the twisted and
untwisted products agree (compare_products).
"""

import argparse
import os
import sys

from .documents import DocumentError, data_document, dump_document, \
    load_document, parse_data_document, parse_morphism_document
from .examples import example_names, run_example
from .exactalg import CoefficientRing
from .facering import format_element, format_sum
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


class _DomainFailure(Exception):
    """Validation failed; the report has already been printed."""


def _check(problems, prefix, result=False):
    """Print each validation problem after prefix and raise _DomainFailure
    if there is one.  The report goes to stdout when it is the command's
    result (validate), and to stderr as a diagnostic otherwise."""
    for p in problems:
        print(prefix + p, file=sys.stdout if result else sys.stderr)
    if problems:
        raise _DomainFailure()


def _checked_data(path):
    """Parse and validate one data document; validation problems exit 1."""
    data = _load_data(path)
    _check(data.validate(), "invalid %s: " % path)
    return data


def _load_morphism(mpath, source, target):
    return parse_morphism_document(load_document(_read(mpath)), source,
                                   target, path=mpath)


def _data_table(args):
    """The checked data document of args and its Tor table."""
    data = _checked_data(args.data)
    return data, compute_tor(data, args.coeffs, bound=args.max_total_degree)


def _write(args, document, name, bound, fields, lines, data=None):
    """Write one result: in structured format the document, with the
    fields every document shares (and the data document, when given),
    otherwise the table lines."""
    if args.format == "structured":
        doc = dict(fields, document=document, name=name,
                   coefficients=_coeffs_token(args.coeffs),
                   max_total_degree=bound)
        if data is not None:
            doc["data"] = data_document(data)
        sys.stdout.write(dump_document(doc))
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _title(data, ring, bound):
    return "%s over %s (total degree <= %d)" % (data.name or "(unnamed)",
                                                ring, bound)


def _grid_lines(ranks, torsion):
    """The rank grid: internal degree rows descending, homological
    degree columns from 0 leftward."""
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


def _power(d):
    return "" if d == 0 else "t" if d == 1 else "t^%d" % d


def _poincare(totals):
    return format_sum(((r, _power(d)) for d, r in sorted(totals.items())),
                      spaced=True)


def _torsion_by_total(torsion):
    out = {}
    for (j, t), ds in sorted(torsion.items(),
                             key=lambda item: (item[0][1], -item[0][0])):
        out.setdefault(j + t, []).extend("Z/%d" % d for d in ds)
    return out


def cmd_tor(args):
    data, table = _data_table(args)
    ranks, torsion = table.rank_table(), table.torsion_table()
    totals, total_torsion = table.total_ranks(), _torsion_by_total(torsion)
    entries = sorted(set(ranks) | set(torsion),
                     key=lambda bd: (bd[1], -bd[0]))
    return _write(args, "tor-table", data.name, table.bound, {
        "entries": [{"bidegree": list(bd), "rank": ranks.get(bd, 0),
                     "torsion": list(torsion.get(bd, ()))}
                    for bd in entries],
        "totals": [{"total": d, "rank": totals.get(d, 0),
                    "torsion": total_torsion.get(d, [])}
                   for d in sorted(set(totals) | set(total_torsion))],
    }, ["Tor table for " + _title(data, args.coeffs, table.bound), "",
        *_grid_lines(ranks, torsion), "",
        "betti: " + _poincare(totals),
        "torsion: " + ("; ".join("degree %d: %s" % (d, ", ".join(zs))
                                 for d, zs in sorted(total_torsion.items()))
                       or "none")], data)


def cmd_mult(args):
    data, table = _data_table(args)
    twist = compute_q(data)
    title = _title(data, args.coeffs, table.bound)
    if args.variant == "compare":
        # each unordered pair once, in the order the product loops meet it
        pos = {g.gid: i for i, g in enumerate(table.generator_list())}
        rows = [{"left": generator_name(ga), "right": generator_name(gb),
                 "twisted": format_class(a), "untwisted": format_class(b)}
                for ga, gb, a, b in compare_products(table, twist).differences
                if pos[ga] <= pos[gb]]
        lines = ["product comparison for " + title,
                 "%d unordered pairs differ" % len(rows) if rows
                 else "the twisted and untwisted products agree"]
        lines.extend("%(left)s * %(right)s: twisted %(twisted)s, "
                     "untwisted %(untwisted)s" % row for row in rows)
        return _write(args, "product-comparison", data.name, table.bound,
                      {"differences": rows}, lines, data)
    twisted = args.variant == "twisted"
    prods = product_table(table, twist if twisted else None)
    rows = [{"left": generator_name(g1.gid), "right": generator_name(g2.gid),
             "value": format_class(prods.product(g1.gid, g2.gid))}
            for g1, g2 in table.generator_pairs()]
    return _write(args, "products", data.name, table.bound,
                  {"twisted": twisted, "products": rows},
                  ["%s products for %s" % (
                      "twisted" if twisted else "untwisted", title)]
                  + ["%(left)s * %(right)s = %(value)s" % row
                     for row in rows], data)


def _images(induced):
    """The image of every generator, in generator order."""
    return [{"generator": generator_name(gid), "image": format_class(img)}
            for gid, img in induced.images.items()]


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
    source = _checked_data(args.source)
    target = _checked_data(args.target)
    phi = _load_morphism(args.morphism, source, target)
    _check(phi.validate(), "invalid %s: " % args.morphism)
    target_table = compute_tor(target, args.coeffs,
                               bound=args.max_total_degree)
    if same_data(source, target):
        source_table = target_table
    else:
        source_table = compute_tor(source, args.coeffs,
                                   bound=target_table.bound)
    fields = {"source": source.name, "target": target.name}
    lines = ["morphism %s: %s -> %s (over %s, total degree <= %d)" % (
        phi.name or "(unnamed)", source.name or "(unnamed)",
        target.name or "(unnamed)", args.coeffs, target_table.bound),
        "induced maps act from the target table to the source table"]
    if args.show_hatq:
        fields["hatq"] = _hatq_lines(phi)
        lines.extend(fields["hatq"])
    for label, induce in (("untwisted", tor_phi), ("twisted", hat_tor_phi)):
        if args.variant in (label, "both"):
            fields[label] = _images(induce(phi, target_table, source_table))
            lines.append("%s images:" % label)
            lines.extend("  %(generator)s -> %(image)s" % row
                         for row in fields[label])
    return _write(args, "induced-map", phi.name, target_table.bound, fields,
                  lines)


def cmd_omega(args):
    data, table = _data_table(args)
    straighten = omega(data, table)
    failures, pairs = product_failures(
        straighten, product_table(table, compute_q(data)),
        product_table(table, None))
    rows = _images(straighten)
    _write(args, "omega", data.name, table.bound,
           {"images": rows, "intertwines": not failures},
           ["omega for " + _title(data, args.coeffs, table.bound)]
           + ["%(generator)s -> %(image)s" % row for row in rows]
           + ["product intertwining: FAILED on %d pairs" % len(failures)
              if failures else "product intertwining: ok (%d pairs)" % pairs])
    return 1 if failures else 0


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
    files = args.files
    if len(files) not in (1, 3):
        print("error: validate takes one data document or source, target, "
              "morphism documents", file=sys.stderr)
        return 2
    if len(files) == 1:
        data = _load_data(files[0])
        _check(data.validate(), "problem: ", result=True)
        print("ok: characteristic data %r (%d vertices, %d ghost, "
              "lattice rank %d, %d poset elements)" % (
                  data.name, len(data.vertices), len(data.ghosts), data.n,
                  len(data.poset.elements)))
        return 0
    # as map does: each data document is checked before the next is read
    datas = []
    for path in files[:2]:
        datas.append(_load_data(path))
        _check(datas[-1].validate(), "problem in %s: " % path, result=True)
    phi = _load_morphism(files[2], *datas)
    _check(phi.validate(), "problem: ", result=True)
    print("ok: morphism %r from %r to %r" % (
        phi.name, datas[0].name, datas[1].name))
    return 0


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
