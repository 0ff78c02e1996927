"""The four benchmark workloads: seeded inputs, job lists and output checks.

Every workload is a closed loop with one client: a pass runs its jobs back
to back, each job waiting for the previous one.  The seed chooses the inputs;
the program only receives the generated groups, models and documents.

* ``tables``   character tables, representation rings and ``bh_motive(G, 0)``
               over a fixed grid of named groups; the seed shuffles the order.
* ``inertia``  refined and coarse quotient motives on S5/S6 point models,
               coset models, the ``curve_0_33`` cell model and gerbes.  The
               seed relabels the points of every group and model and conjugates
               the coset subgroups, so the inputs change while the work stays
               the same size.
* ``suite``    ``run_suite(s, 1)`` for each of the 100 suite seeds 0..99 plus
               ``standard_splitting_reports(12)``, in an order the seed
               chooses.  The job set is the same for every seed: choosing a
               subset moved the median job by several percent between seeds.
* ``cli``      the ``stacky`` command as one subprocess per job, over the three
               sample inputs and five generated documents.

Each job reduces its result to a canonical JSON payload that does not depend
on the relabelling; its digest is compared with ``expected.json``, and group
invariants in that file (computed by ``make_expected.py`` with the brute-force
oracles in ``tests/oracles.py``) are compared with the result where it shows
them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"
WORKLOADS = ("tables", "inertia", "suite", "cli")

SUITE_POOL = 100


@dataclass
class Job:
    id: str                                   # the same for every seed; keys expected.json
    run: Callable[[dict], object]             # gets the results of the pass's earlier jobs
    canon: Callable[[object], object]         # result -> canonical JSON payload
    oracle: Optional[Callable[[object, dict], list]] = None  # result, invariants -> problems


@dataclass
class Workload:
    name: str
    jobs: list
    groups: dict      # oracle name -> (degree, generator image tuples)
    models: dict      # oracle name -> (group name, points, action on image tuples)


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(job: Job, result, expected: dict) -> list:
    """Problems with one job's result; empty when it is correct."""
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    want = expected["jobs"].get(job.id)
    payload = job.canon(result)
    problems = []
    if want is None:
        problems.append("no expected output recorded")
    elif digest(payload) != want:
        problems.append(f"digest {digest(payload)} != expected {want}: {json.dumps(payload)[:300]}")
    if job.oracle is not None:
        try:
            problems += job.oracle(result, expected["oracle"])
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"oracle check could not run: {type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------------------
# Permutations as image tuples, on the benchmark side.

def compose(a: tuple, b: tuple) -> tuple:
    """a after b."""
    return tuple(a[x] for x in b)


def relabel(g: tuple, sigma: list) -> tuple:
    """sigma g sigma^-1: the same permutation with point i renamed sigma[i]."""
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[sigma[i]] = sigma[x]
    return tuple(out)


def cycle(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


def from_cycles(n: int, *cycles) -> tuple:
    out = list(range(n))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            out[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def closure(gens: list, degree: int) -> set:
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        frontier = [y for y in {compose(x, g) for x in frontier for g in gens} if y not in elems]
        elems.update(frontier)
    return elems


def motive_json(M) -> list:
    return [[atom.render(), twist, mult] for atom, twist, mult in M.terms]


def _problem(cond: bool, text: str) -> list:
    return [] if cond else [text]


def import_stacky():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stacky
    return stacky


# ---------------------------------------------------------------------------
# tables

FULL = ("table", "ring", "bh")
# The slowest jobs after C24's table sit close together (0.3-0.45 s here),
# so job_p90_ms does not jump between job types from run to run.
TABLE_GRID = (
    ("S4", ("symmetric_group", 4), FULL),
    ("S5", ("symmetric_group", 5), FULL),
    ("S6", ("symmetric_group", 6), ("table",)),
    ("A5", ("alternating_group", 5), FULL),
    ("D4", ("dihedral_group", 4), FULL),
    ("D5", ("dihedral_group", 5), FULL),
    ("D6", ("dihedral_group", 6), FULL),
    ("D8", ("dihedral_group", 8), FULL),
    ("D10", ("dihedral_group", 10), ("table",)),
    ("Q8", ("quaternion_group",), FULL),
    ("C6", ("cyclic_group", 6), FULL),
    ("C12", ("cyclic_group", 12), ("table",)),
    ("C24", ("cyclic_group", 24), ("table",)),
    ("C2xC6", ("direct_product", 2, 6), ("table",)),
)


def _table_payload(T) -> dict:
    return {"degrees": list(T.degrees),
            "classes": [[c.order, c.size] for c in T.classes],
            "rows": [[str(v) for v in row] for row in T.rows]}


def _group_oracle(name: str, order_of, rank_of):
    def oracle(result, inv) -> list:
        g = inv["groups"][name]
        out = _problem(order_of(result) == g["order"],
                       f"{name}: order {order_of(result)} != oracle {g['order']}")
        return out + _problem(rank_of(result) == g["classes"],
                              f"{name}: rank {rank_of(result)} != oracle class count {g['classes']}")
    return oracle


def build_tables(seed: int) -> Workload:
    st = import_stacky()
    built = []
    for name, (family, *args), kinds in TABLE_GRID:
        if family == "direct_product":
            G = st.direct_product(st.cyclic_group(args[0]), st.cyclic_group(args[1]))
        else:
            G = getattr(st, family)(*args)
        built.append((name, G, kinds))
    seeded("tables", seed).shuffle(built)

    jobs, groups = [], {}
    for name, G, kinds in built:
        groups[name] = (G.degree, [g.images for g in G.generators])
        table_id = f"tables/{name}/character_table"
        if "table" in kinds:
            jobs.append(Job(table_id, lambda ctx, G=G: st.character_table(G), _table_payload,
                            _group_oracle(name, lambda T: T.group.order, lambda T: T.rank)))
        if "ring" in kinds:
            jobs.append(Job(f"tables/{name}/rep_ring",
                            lambda ctx, tid=table_id: st.rep_ring(ctx[tid]),
                            lambda R: [[list(row) for row in plane] for plane in R.constants],
                            _group_oracle(name, lambda R: R.table.group.order, lambda R: R.rank)))
        if "bh" in kinds:
            jobs.append(Job(f"tables/{name}/bh_motive_p0", lambda ctx, G=G: st.bh_motive(G, 0),
                            lambda B: {"rank": B.rank, "motive": motive_json(B.motive),
                                       "constants": [[list(r) for r in p]
                                                     for p in B.product_constants]},
                            _group_oracle(name, lambda B, G=G: G.order, lambda B: B.rank)))
    return Workload("tables", jobs, groups, {})


# ---------------------------------------------------------------------------
# inertia

def sym_gens(n: int) -> list:
    return [from_cycles(n, (0, 1)), cycle(n)]


# Subgroups of S5 (generators in the standard labelling) whose coset spaces
# make the seeded coset models; a tuple of several makes a disjoint union.
COSET_MENU = (
    ("A4", ((from_cycles(5, (0, 1, 2)), from_cycles(5, (1, 2, 3))),)),
    ("D5", ((cycle(5), from_cycles(5, (1, 4), (2, 3))),)),
    ("F20+S3xS2", ((cycle(5), from_cycles(5, (1, 2, 4, 3))),
                   (from_cycles(5, (0, 1)), from_cycles(5, (0, 1, 2)), from_cycles(5, (3, 4))))),
)
# Gerbe bands: (name, degree, band generators, monodromy as generator -> image maps)
GERBES = (
    ("C5.square", 5, [cycle(5)], [lambda g: compose(g, g)]),
    ("C4.inverse", 4, [cycle(4)], [lambda g: compose(compose(g, g), g)]),
    ("S3.inner", 3, sym_gens(3),
     [lambda g: compose(compose(from_cycles(3, (0, 1)), g), from_cycles(3, (0, 1)))]),
)
CURVES = ((0, (3, 3)), (2, (5, 7)))


def shuffled(rng: random.Random, n: int) -> list:
    """A random relabelling of the points 0..n-1."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def _coset_space(rng: random.Random, n: int, subgroup_gens) -> list:
    """Left cosets of a random conjugate of the subgroup, in a seeded order."""
    sigma = shuffled(rng, n)
    sub = closure([relabel(g, sigma) for g in subgroup_gens], n)
    cosets = sorted({frozenset(compose(x, h) for h in sub)
                     for x in itertools.permutations(range(n))}, key=min)
    rng.shuffle(cosets)
    return cosets


def build_inertia(seed: int) -> Workload:
    st = import_stacky()
    rng = seeded("inertia", seed)
    groups, models, jobs = {}, {}, []

    def point_model(name, group_name, G, gens, points, act):
        models[name] = (group_name, len(points), act)
        images = [st.Perm([act(g, i) for i in range(len(points))]) for g in gens]
        return st.EquivariantModel.hset(G, len(points), images)

    built, symmetric = {}, {}
    for n in (5, 6):
        sigma = shuffled(rng, n)
        gens = [relabel(g, sigma) for g in sym_gens(n)]
        G = st.generate_group(n, [st.Perm(g) for g in gens])
        groups[f"S{n}"] = (n, gens)
        symmetric[n] = (G, gens)
        built[f"S{n}.natural"] = point_model(f"S{n}.natural", f"S{n}", G, gens, list(range(n)),
                                             lambda g, i: g[i])
        pairs = [frozenset(p) for p in itertools.combinations(range(n), 2)]
        rng.shuffle(pairs)
        pos = {p: i for i, p in enumerate(pairs)}
        built[f"S{n}.pairs"] = point_model(
            f"S{n}.pairs", f"S{n}", G, gens, pairs,
            lambda g, i, pairs=pairs, pos=pos: pos[frozenset(g[x] for x in pairs[i])])
        for p in ((2, 3, 5) if n == 5 else (2, 3)):
            jobs.append(Job(f"inertia/S{n}/bh_motive_p{p}",
                            lambda ctx, G=G, p=p: st.bh_motive(G, p),
                            lambda B: {"rank": B.rank, "motive": motive_json(B.motive)},
                            _bh_oracle(f"S{n}", p)))
    for name, blocks in COSET_MENU:
        cosets = [c for sub in blocks for c in _coset_space(rng, 5, sub)]
        pos = {c: i for i, c in enumerate(cosets)}
        built[f"S5.cosets.{name}"] = point_model(
            f"S5.cosets.{name}", "S5", *symmetric[5], cosets,
            lambda g, i, cosets=cosets, pos=pos: pos[frozenset(compose(g, x) for x in cosets[i])])

    # the curve_0_33 sample: mu_3 on P1 with its two fixed points as a declared locus
    with open(ROOT / "sample_inputs" / "curve_0_33.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    sigma = shuffled(rng, 3)
    cgens = [relabel(tuple(g), sigma) for g in doc["group"]["generators"]]
    C3 = st.generate_group(3, [st.Perm(g) for g in cgens])
    groups["C3"] = (3, cgens)
    cells = doc["model"]["cells"]
    loci = [st.FixedLocus(st.Perm(relabel(tuple(l["generator"]), sigma)),
                          tuple(c["dim"] for c in l["cells"])) for l in cells["fixedLoci"]]
    built["curve_0_33"] = st.EquivariantModel(
        C3, [c["dim"] for c in cells["cells"]], [st.Perm(im) for im in cells["generatorImages"]],
        kind="cells", fixed_loci=loci)

    # (characteristics of the refined motive, of the inertia check).  Near-
    # instant jobs (gerbes, curves, the cell model) are kept few, so that the
    # median job is one of the S5 motive jobs rather than the gap below them.
    plans = {"S5.natural": ((0, 2, 3), 0), "S5.pairs": ((0, 2, 3), 0),
             "S6.natural": ((0, 2, 3), None), "S6.pairs": ((0, 2), 3),
             "curve_0_33": ((0, 3), 0)}
    for name, X in built.items():
        ps, check_p = plans.get(name, ((0, 3), 2))
        hset = name in models
        for p in ps:
            jobs.append(Job(f"inertia/{name}/inertial_quotient_motive_p{p}",
                            lambda ctx, X=X, p=p: st.inertial_quotient_motive(X, p),
                            _refined_payload, _refined_oracle(name, p) if hset else None))
        jobs.append(Job(f"inertia/{name}/quotient_motive", lambda ctx, X=X: st.quotient_motive(X),
                        motive_json, _coarse_oracle(name) if hset else None))
        if check_p is not None:
            jobs.append(Job(f"inertia/{name}/check_inertia_dimension_p{check_p}",
                            lambda ctx, X=X, p=check_p: st.check_inertia_dimension(X, p),
                            lambda r: [r.lhs, r.rhs, r.passed],
                            _report_oracle(name, check_p, hset)))

    gerbe_sample = ("z3_gerbe", 3, None, None)
    for name, n, band, autos in (gerbe_sample,) + GERBES:
        sigma = shuffled(rng, n)
        if band is None:
            with open(ROOT / "sample_inputs" / "z3_gerbe.json", encoding="utf-8") as fh:
                gdoc = json.load(fh)
            band = [tuple(g) for g in gdoc["group"]["generators"]]
            mono = [[tuple(im) for im in auto] for auto in gdoc["gerbe"]["monodromy"]]
        else:
            mono = [[f(g) for g in band] for f in autos]
        H = st.generate_group(n, [st.Perm(relabel(g, sigma)) for g in band])
        groups[name] = (n, [relabel(g, sigma) for g in band])
        datum = st.GerbeDatum(H, tuple(tuple(st.Perm(relabel(im, sigma)) for im in auto)
                                       for auto in mono), st.Motive.point(1), "X")
        for p in (0, 2):
            jobs.append(Job(f"inertia/gerbe.{name}/gerbe_motive_p{p}",
                            lambda ctx, d=datum, p=p: st.gerbe_motive(d, p),
                            lambda r: {"motive": motive_json(r.motive),
                                       "coarse": motive_json(r.coarse_factor),
                                       "orbits": sorted(r.orbit_sizes)}))
    for genus, orders in CURVES:
        jobs.append(Job(f"inertia/orbifold_curve/{genus}/{','.join(map(str, orders))}",
                        lambda ctx, g=genus, o=orders: st.orbifold_curve_motive(g, o),
                        lambda r: {"motive": motive_json(r.motive),
                                   "coarse": motive_json(r.coarse_factor)}))
    rng.shuffle(jobs)
    return Workload("inertia", jobs, groups, models)


def _refined_payload(res) -> dict:
    comps = sorted([cc.component.cyclic.order, cc.component.fixed_model.size,
                    [list(tr) for tr in cc.ranks]] for cc in res.components)
    return {"motive": motive_json(res.motive), "components": comps}


def _refined_oracle(model: str, p: int):
    def oracle(res, inv) -> list:
        m = inv["models"][model]
        g = inv["groups"][m["group"]]
        rank = sum(res.ranks_by_twist().values())
        out = _problem(rank == m["refined"][str(p)],
                       f"{model} p={p}: refined rank {rank} != oracle {m['refined'][str(p)]}")
        return out + _problem(len(res.components) == g["cyclic_classes"][str(p)],
                              f"{model} p={p}: {len(res.components)} components != oracle "
                              f"cyclic-class count {g['cyclic_classes'][str(p)]}")
    return oracle


def _coarse_oracle(model: str):
    def oracle(M, inv) -> list:
        want = inv["models"][model]["orbits"]
        got = M.total_unit_multiplicity()
        return _problem(got == want, f"{model}: coarse rank {got} != oracle orbit count {want}")
    return oracle


def _report_oracle(model: str, p: int, hset: bool):
    def oracle(rep, inv) -> list:
        out = _problem(rep.passed, f"{model}: report failed ({rep.lhs} vs {rep.rhs})")
        if hset:
            got = sum(json.loads(rep.lhs).values())
            want = inv["models"][model]["refined"][str(p)]
            out += _problem(got == want, f"{model} p={p}: report rank {got} != oracle {want}")
        return out
    return oracle


def _bh_oracle(group: str, p: int):
    def oracle(B, inv) -> list:
        want = inv["groups"][group]["bh_rank"][str(p)]
        return _problem(B.rank == want, f"{group} p={p}: BH rank {B.rank} != oracle {want}")
    return oracle


# ---------------------------------------------------------------------------
# suite

def _reports_payload(reports) -> list:
    return [r.to_dict() for r in reports]


def _suite_oracle(s: int):
    def oracle(reports, inv) -> list:
        want = inv["suite"][str(s)]
        out = _problem(all(r.passed for r in reports), f"suite seed {s}: a report failed")
        got = [sum(json.loads(r.lhs).values()) for r in reports]
        return out + _problem(got == [want["refined"], want["kunneth"]],
                              f"suite seed {s}: ranks {got} != oracle "
                              f"{[want['refined'], want['kunneth']]}")
    return oracle


def suite_job(s: int) -> Job:
    st = import_stacky()
    return Job(f"suite/run_suite({s},1)", lambda ctx: st.run_suite(s, 1),
               _reports_payload, _suite_oracle(s))


def splitting_job() -> Job:
    st = import_stacky()
    return Job("suite/standard_splitting_reports(12)",
               lambda ctx: st.standard_splitting_reports(12), _reports_payload,
               lambda reports, inv: _problem(all(r.passed for r in reports),
                                             "a splitting report failed"))


def build_suite(seed: int) -> Workload:
    rng = seeded("suite", seed)
    jobs = [suite_job(s) for s in rng.sample(range(SUITE_POOL), SUITE_POOL)]
    jobs.insert(rng.randrange(len(jobs) + 1), splitting_job())
    return Workload("suite", jobs, {}, {})


# ---------------------------------------------------------------------------
# cli

Q8_GENS = [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]
GENERATED_DOCS = {
    "a4_points.json": {"group": {"degree": 4, "generators": [[1, 2, 0, 3], [0, 2, 3, 1]]},
                       "model": {"hset": {"size": 4,
                                          "generatorImages": [[1, 2, 0, 3], [0, 2, 3, 1]]}}},
    "d4_square_p2.json": {"characteristic": 2,
                          "group": {"degree": 4, "generators": [[1, 2, 3, 0], [0, 3, 2, 1]]},
                          "model": {"hset": {"size": 4,
                                             "generatorImages": [[1, 2, 3, 0], [0, 3, 2, 1]]}}},
    "q8_regular.json": {"group": {"degree": 8, "generators": Q8_GENS}},
    "c5_gerbe.json": {"group": {"degree": 5, "generators": [[1, 2, 3, 4, 0]]},
                      "gerbe": {"monodromy": [[[2, 3, 4, 0, 1]]],
                                "base": [{"atom": {"kind": "unit"}, "twist": 0, "mult": 1}],
                                "baseLabel": "Y"}},
    "s4_points.json": {"group": {"degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
                       "model": {"hset": {"size": 4,
                                          "generatorImages": [[1, 0, 2, 3], [1, 2, 3, 0]]}}},
}
# (document, stacky arguments after it, oracle group for `group --format json`)
CLI_JOBS = (
    ("s3_quotient.json", "group --chars --format json", "S3"),
    ("s3_quotient.json", "group --chars --format text", None),
    ("s3_quotient.json", "motive bh --format json", None),
    ("s3_quotient.json", "motive quotient --format text", None),
    ("s3_quotient.json", "verify --check inertia-dim --format json", None),
    ("s3_quotient.json", "verify --check kunneth --format text", None),
    ("s3_quotient.json", "verify --check rep-ring --format json", None),
    ("s3_quotient.json", "verify --check splitting --format json", None),
    ("z3_gerbe.json", "motive gerbe --format json", None),
    ("z3_gerbe.json", "motive gerbe --format text", None),
    ("z3_gerbe.json", "group --format text", None),
    ("curve_0_33.json", "motive curve --format json", None),
    ("curve_0_33.json", "motive quotient --format json", None),
    ("curve_0_33.json", "verify --check inertia-dim --format text", None),
    (None, "motive curve --genus 1 --orders 2,4 --format text", None),
    ("a4_points.json", "group --chars --format text", None),
    ("a4_points.json", "motive quotient --format json", None),
    ("a4_points.json", "verify --check kunneth --format json", None),
    ("d4_square_p2.json", "motive bh --format text", None),
    ("d4_square_p2.json", "motive quotient --format json --characteristic 3", None),
    ("q8_regular.json", "group --chars --format json", "Q8"),
    ("q8_regular.json", "motive bh --format json", None),
    ("c5_gerbe.json", "motive gerbe --format text", None),
    ("c5_gerbe.json", "motive gerbe --format json --characteristic 5", None),
    ("s4_points.json", "verify --check rep-ring --format text", None),
    ("s4_points.json", "motive quotient --format text", None),
    ("s4_points.json", "motive bh --format text", None),
    ("s4_points.json", "verify --check inertia-dim --format json", None),
    ("a4_points.json", "verify --check rep-ring --format json", None),
)
CLI_GROUPS = {"S3": (3, [(1, 0, 2), (1, 2, 0)]), "Q8": (8, [tuple(g) for g in Q8_GENS])}
# What the installed `stacky` console script runs.
CLI_LAUNCHER = "import sys\nfrom stacky.cli import main\nsys.exit(main())"


class CliRunner:
    """Runs `stacky` in a fresh interpreter per call, optionally traced."""

    def __init__(self, trace_dir: Optional[Path] = None) -> None:
        self.trace_dir = trace_dir
        self.traces: list = []
        self.env = {**base_env(), "PYTHONPATH": str(SRC)}

    def __call__(self, args: list):
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CLI_LAUNCHER, *args]
        else:
            out = self.trace_dir / f"cli-{len(self.traces)}.json"
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(out), repr(time.monotonic()),
                   *args]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=60)
        if self.trace_dir is not None:
            with open(out, encoding="utf-8") as fh:
                self.traces.append(json.load(fh))
            out.unlink()
        return proc.returncode, proc.stdout, proc.stderr


def base_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}


def _cli_payload(res) -> dict:
    rc, out, err = res
    return {"rc": rc, "stdout_sha256": hashlib.sha256(out).hexdigest(), "stdout_bytes": len(out)}


def _cli_oracle(group: Optional[str]):
    def oracle(res, inv) -> list:
        rc, out, err = res
        problems = _problem(rc == 0 and not err, f"exit code {rc}, stderr {err[:200]!r}")
        if group is not None and rc == 0:
            doc = json.loads(out)
            g = inv["groups"][group]
            got = [doc["order"], len(doc["conjugacyClasses"]), len(doc["cyclicClasses"])]
            want = [g["order"], g["classes"], g["cyclic_classes"]["0"]]
            problems += _problem(got == want, f"{group}: order/classes/cyclic {got} != {want}")
        return problems
    return oracle


def write_documents(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in GENERATED_DOCS.items():
        (directory / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def build_cli(seed: int) -> Workload:
    docs_dir = OUT_DIR / "docs"
    write_documents(docs_dir)
    jobs = []
    for doc, extra, group in CLI_JOBS:
        args = extra.split()
        if doc is not None:
            where = docs_dir if doc in GENERATED_DOCS else ROOT / "sample_inputs"
            args[2 if args[0] == "motive" else 1:0] = ["--input", str(where / doc)]
        jobs.append(Job(f"cli/{doc or '-'}/{extra}",
                        lambda ctx, a=args: ctx["run_cli"](a), _cli_payload, _cli_oracle(group)))
    seeded("cli", seed).shuffle(jobs)
    return Workload("cli", jobs, dict(CLI_GROUPS), {})


def build(name: str, seed: int) -> Workload:
    if name == "tables":
        return build_tables(seed)
    if name == "inertia":
        return build_inertia(seed)
    if name == "suite":
        return build_suite(seed)
    if name == "cli":
        return build_cli(seed)
    raise ValueError(f"unknown workload {name!r}")
