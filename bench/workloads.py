"""The benchmark's workloads and the pipeline calls they make.

Every call goes through the public functions of moltendt's ``geometry``,
``matchings``, ``crystal``, ``localization`` and ``qspace`` modules.  A
workload names its geometries; set-up turns each name into a quiver,
toric diagram, zig-zag data, reference grading, framings and slopes, and
a pass computes every case's framed partition function Z together with
the series operations the case asks for.

The traced path rebuilds Z from ``build_erc``, ``enumerate_crystals`` and
``index`` so that each layer gets its own span and counts; the untraced
path calls ``framed_partition_function`` as a user would.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from moltendt.crystal import build_erc, enumerate_crystals, framing_d4, framing_d6
from moltendt.geometry import builtin_names, euler_form, load_geometry, reference_grading
from moltendt.localization import Slope, framed_partition_function, index, make_slope
from moltendt.matchings import toric_diagram, zigzag_analysis
from moltendt.qspace import QSeries, VRational, log_pleth, qinv

ORBIFOLD = "c3-orbifold"


@dataclass(frozen=True)
class Scale:
    """Degree bounds and orbifold order that fix how much work a pass does."""

    deep: int = 13
    d4: int = 14
    d6: int = 6
    orbifold: int = 5


FULL = Scale()
TINY = Scale(deep=4, d4=4, d6=2, orbifold=3)


@dataclass(frozen=True)
class Case:
    """One framed partition function Z and the outputs derived from it.

    ``ops`` names the extra outputs: "qinv" and "log_pleth" of Z, and
    "negated", which is Z again under the negated slope.  ``oracles``
    names the checks in ``oracles.ORACLES`` that the outputs must pass.
    """

    geometry: str
    framing: tuple  # ("d6", node) or ("d4", corner)
    slope: tuple  # ("interval", side names) or ("corner", corner)
    bound: int
    ops: tuple = ()
    oracles: tuple = ()

    @property
    def key(self) -> str:
        kind, at = self.framing
        how, arg = self.slope
        if how == "interval":
            arg = "..".join(arg)
        return f"{self.geometry}/{kind}:{at}/{how}:{arg}/b{self.bound}"


@dataclass(frozen=True)
class Workload:
    geometries: tuple
    plan: Callable  # (geometry name, quiver, diagram, scale) -> list[Case]


def _deep(name, q, diagram, scale):
    return [
        Case(name, ("d6", q.nodes[0]), ("interval", ("z0",)), scale.deep,
             ("log_pleth",), ("macmahon", "refined_macmahon"))
    ]


def _sweep(name, q, diagram, scale):
    if name == ORBIFOLD:
        return []
    c3 = name == "c3"
    cases = [
        Case(name, ("d4", k), ("corner", k), scale.d4,
             ("log_pleth",) if c3 else (), ("c3_d4_log",) if c3 else ())
        for k in range(len(diagram.corners))
    ]
    cases += [
        Case(name, ("d6", v), ("corner", 0), scale.d6, ("negated", "qinv"),
             ("bar_dual", "inverse"))
        for v in q.nodes
    ]
    return cases


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "c3-d6-deep": Workload(("c3",), _deep),
    "catalog-sweep": Workload(builtin_names() + (ORBIFOLD,), _sweep),
}


# ---------------------------------------------------------------------------
# the generated C^3 / Z_n x Z_n orbifold


def orbifold_quiver(n: int) -> dict:
    """Quiver JSON of C^3 / Z_n x Z_n: the honeycomb quiver modulo n Z^2.

    Node i + n*j is the cell (i, j).  From each cell, arrows a, b and c step
    by (1, 0), (0, 1) and (-1, -1); an arrow's displacement counts the
    periods its step crosses.  Each cell carries one positive term a b c
    and one negative term a c b.
    """

    steps = {"a": (1, 0), "b": (0, 1), "c": (-1, -1)}
    cells = [(i, j) for j in range(n) for i in range(n)]

    def node(x, y):
        return x % n + n * (y % n)

    def arrow(fam, x, y):
        return f"{fam}{node(x, y)}"

    arrows = []
    for x, y in cells:
        for fam, (dx, dy) in steps.items():
            tx, ty = x + dx, y + dy
            arrows.append({
                "id": arrow(fam, x, y),
                "src": node(x, y),
                "tgt": node(tx, ty),
                "disp": [tx // n, ty // n],
            })
    potential = []
    for x, y in cells:
        potential.append({"sign": 1, "cycle": [
            arrow("a", x, y), arrow("b", x + 1, y), arrow("c", x + 1, y + 1)]})
        potential.append({"sign": -1, "cycle": [
            arrow("a", x, y), arrow("c", x + 1, y), arrow("b", x, y - 1)]})
    return {"nodes": [node(x, y) for x, y in cells], "arrows": arrows,
            "potential": potential}


def write_orbifold(directory: Path, n: int) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"c3-z{n}z{n}.json"
    path.write_text(json.dumps(orbifold_quiver(n)))
    return path


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Span seconds and counts summed by name, held in memory."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = Counter()

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    def count(self, name, n=1):
        self.counts[name] += n


class _Untraced:
    @contextmanager
    def span(self, name):
        yield

    def count(self, name, n=1):
        pass


UNTRACED = _Untraced()


class CountingSlope(Slope):
    """A slope that counts its sign evaluations."""

    def __init__(self, slope: Slope):
        super().__init__(slope.s, slope.sp)
        # Slope is a frozen dataclass, which still lets a subclass set
        # attributes that are not fields.
        self.evals = 0

    def sign(self, w) -> int:
        self.evals += 1
        return Slope.sign(self, w)


# ---------------------------------------------------------------------------
# set-up and passes


@dataclass(frozen=True)
class Prepared:
    """A case with everything its series needs."""

    case: Case
    q: object
    grading: object
    framing: object
    slope: Slope


def set_up(workload: Workload, scale: Scale, orbifold: Path | None, tracer=UNTRACED):
    """Load every geometry of the workload and prepare its cases.

    Returns the prepared cases and the toric diagram of each geometry.
    """

    prepared, diagrams = [], {}
    for name in workload.geometries:
        with tracer.span("geometry.load"):
            q = load_geometry(str(orbifold) if name == ORBIFOLD else name)
        with tracer.span("matchings.diagram"):
            diagram = toric_diagram(q)
        tracer.count("matchings.cuts", len(diagram.cuts))
        with tracer.span("matchings.zigzag"):
            zigzag_analysis(q, diagram)
        with tracer.span("geometry.grading"):
            grading = reference_grading(q)
        diagrams[name] = diagram
        for case in workload.plan(name, q, diagram, scale):
            kind, at = case.framing
            framing = framing_d6(q, at) if kind == "d6" else framing_d4(q, diagram, at)
            how, arg = case.slope
            with tracer.span("localization.slope"):
                slope = make_slope(diagram, **{how: arg})
            prepared.append(Prepared(case, q, grading, framing, slope))
    return prepared, diagrams


SERIES_OPS = {"qinv": qinv, "log_pleth": log_pleth}


def compute(p: Prepared) -> dict:
    """Every output series of one case, as a user computes them."""

    c = p.case
    z = framed_partition_function(p.q, p.grading, p.framing, p.slope, c.bound)
    out = {"Z": z}
    for op in c.ops:
        if op == "negated":
            out[op] = framed_partition_function(
                p.q, p.grading, p.framing, p.slope.negated(), c.bound
            )
        else:
            out[op] = SERIES_OPS[op](z)
    return out


@dataclass(frozen=True)
class Walk:
    """One traced Z with the ERC, crystals and slope it was built from."""

    prepared: Prepared
    slope: Slope
    erc: object
    crystals: list
    z: QSeries


def traced_z(p: Prepared, slope: Slope, tracer: Tracer) -> Walk:
    """Z rebuilt layer by layer, as ``framed_partition_function`` builds it."""

    q, bound = p.q, p.case.bound
    margin = max(len(cycle) for _, cycle in q.potential)
    with tracer.span("crystal.erc"):
        erc = build_erc(q, p.grading, p.framing, bound + margin)
    with tracer.span("crystal.enum"):
        crystals = enumerate_crystals(erc, bound)
    terms: dict = {}
    for c in crystals:
        with tracer.span("localization.index"):
            rep = index(q, p.framing, p.grading, c, slope)
        tracer.count("localization.index_calls")
        terms[c.d] = terms.get(c.d, VRational.zero()) + VRational.vpow(rep.index)
    return Walk(p, slope, erc, crystals, QSeries(bound, euler_form(q)[1], terms))


def compute_traced(p: Prepared, tracer: Tracer):
    """The outputs of ``compute`` and the walk behind each Z."""

    walks = [traced_z(p, p.slope, tracer)]
    out = {"Z": walks[0].z}
    for op in p.case.ops:
        if op == "negated":
            walks.append(traced_z(p, p.slope.negated(), tracer))
            out[op] = walks[-1].z
        else:
            with tracer.span(f"qspace.{op}"):
                out[op] = SERIES_OPS[op](out["Z"])
    return out, walks
