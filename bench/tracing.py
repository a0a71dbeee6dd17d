"""Spans around the public entry points of each facetor module.

A Tracer replaces functions where callers look them up: module globals
in every facetor module that imported them, and attributes of the classes
whose methods the engine calls.  Nothing under src/ is edited, and
uninstall() puts the originals back.

Spans are kept in memory as aggregates: for every span name the number
of calls, the inclusive time of its outermost activations, and its self
time (duration minus the time its direct child spans cover); and for
every (parent, child) pair the calls and time.  Keeping every individual
span would cost hundreds of megabytes, since CokernelStructure.project
alone runs close to a million times in one product comparison.
"""

import sys
import time

import facetor.cli
import facetor.documents
import facetor.exactalg
import facetor.facering
import facetor.koszul
import facetor.simplicial
import facetor.torcohomology
import facetor.toricmorphism

from facetor.exactalg import CokernelStructure, ExactMatrix, PreparedSolver
from facetor.facering import FaceRing, FaceRingMap
from facetor.simplicial import CharacteristicData, SimplicialPoset
from facetor.torcohomology import ProductTable, TorTable
from facetor.toricmorphism import InducedMap

LAYERS = ("cli", "documents", "simplicial", "facering", "koszul",
          "exactalg", "torcohomology", "toricmorphism")

_MODULES = [sys.modules["facetor." + name] for name in LAYERS]

# (span name, defining module, function name): wrapped wherever the
# function object is bound as a module global.
FUNCTIONS = (
    ("cli.main", facetor.cli, "main"),
    ("documents.parse", facetor.documents, "load_document"),
    ("documents.parse", facetor.documents, "parse_data_document"),
    ("documents.parse", facetor.documents, "parse_morphism_document"),
    ("documents.dump", facetor.documents, "dump_document"),
    ("documents.dump", facetor.documents, "data_document"),
    ("koszul.differential", facetor.koszul, "differential"),
    ("koszul.star_product", facetor.koszul, "star_product"),
    ("koszul.wedge_product", facetor.koszul, "wedge_product"),
    ("koszul.compute_q", facetor.koszul, "compute_q"),
    ("torcohomology.compute_tor", facetor.torcohomology, "compute_tor"),
    ("torcohomology.product_table", facetor.torcohomology, "product_table"),
    ("torcohomology.compare_products", facetor.torcohomology,
     "compare_products"),
    ("toricmorphism.tor_phi", facetor.toricmorphism, "tor_phi"),
    ("toricmorphism.hat_tor_phi", facetor.toricmorphism, "hat_tor_phi"),
    ("toricmorphism.omega", facetor.toricmorphism, "omega"),
    ("toricmorphism.ideal", facetor.toricmorphism, "ideal_I_sigma"),
    ("toricmorphism.hat_q", facetor.toricmorphism, "hat_q"),
    ("toricmorphism.validate", facetor.toricmorphism, "validate_morphism"),
    ("facering.pullback", facetor.facering, "pullback"),
)

# (span name, class, attribute): wrapped on the class.
METHODS = (
    ("exactalg.project", CokernelStructure, "project"),
    ("exactalg.prepared_solver", PreparedSolver, "__init__"),
    ("exactalg.prepared_solver", PreparedSolver, "solve"),
    ("facering.multiply", FaceRing, "multiply"),
    ("facering.multiply_limit", FaceRing, "_resolve"),
    ("facering.pullback", FaceRingMap, "__call__"),
    ("torcohomology.reduce", TorTable, "reduce"),
    ("torcohomology.multiply_classes", ProductTable, "multiply_classes"),
    ("toricmorphism.apply", InducedMap, "apply"),
    ("toricmorphism.validate", facetor.toricmorphism.ToricMorphism,
     "validate"),
    ("simplicial.validate", CharacteristicData, "validate"),
    ("simplicial.poset", SimplicialPoset, "__init__"),
)

SMITH_BY_KIND = {"QQ": "exactalg.smith_qq", "ZZ": "exactalg.smith_zz",
                 "Zmod": "exactalg.smith_zmod"}


class Tracer:
    """Span aggregates for one traced run.  Single-threaded only."""

    def __init__(self):
        self.stats = {}      # name -> [calls, inclusive s, self s, depth]
        self.edges = {}      # (parent, child) -> [calls, s]
        self.counts = {}     # name -> integer
        self.tables = []     # every TorTable compute_tor returned
        self._stack = [["(root)", 0.0]]
        self._patched = []

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _span(self, name, fn, before=None, after=None):
        clock = time.perf_counter
        stack = self._stack
        edges = self.edges

        fixed = self._stat(name) if before is None else None

        def traced(*args, **kwargs):
            if fixed is None:
                label = before(args)
                stat = self._stat(label)
            else:
                label, stat = name, fixed
            parent = stack[-1]
            frame = [label, 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += dt - frame[1]
                if not stat[3]:
                    stat[1] += dt
                parent[1] += dt
                edge = edges.get((parent[0], label))
                if edge is None:
                    edges[(parent[0], label)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _smith_label(self, args):
        matrix = args[0]
        kind = SMITH_BY_KIND[matrix.ring.kind]
        entries = sum(len(r) for r in matrix.rows.values())
        self._count("exactalg.smith.calls")
        self._count("exactalg.smith.entries_in", entries)
        self._count(kind + ".entries_in", entries)
        return kind

    def install(self):
        for name, module, attr in FUNCTIONS:
            orig = getattr(module, attr)
            after = self.tables.append if attr == "compute_tor" else None
            wrapped = self._span(name, orig, after=after)
            for mod in _MODULES:
                if getattr(mod, attr, None) is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for name, cls, attr in METHODS:
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._span(name, orig))
        orig = ExactMatrix.__dict__["smith_normal_form"]
        self._patched.append((ExactMatrix, "smith_normal_form", orig))
        ExactMatrix.smith_normal_form = self._span(
            None, orig, before=self._smith_label)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def root_self(self, wall):
        """Traced wall time not covered by any span."""
        return wall - self._stack[0][1]
