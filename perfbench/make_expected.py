"""Regenerate ``perfbench/expected.json``.

    python3 perfbench/make_expected.py

The job digests are recorded from the program as it stands.  The group
invariants -- order, class count, cyclic-class count and BH rank at each
characteristic, orbit counts and refined ranks of the point models -- come
from the brute-force oracles in ``tests/oracles.py``, which share no code
with ``stacky``.  Every recorded result must agree with those invariants
before the file is written, and the ``inertia`` digests must come out the
same for two seeds, since the seed only relabels the inputs.
"""

from __future__ import annotations

import json
import sys

import workloads as W

sys.path.insert(0, str(W.ROOT / "tests"))
import oracles as O  # noqa: E402

PRIMES = (0, 2, 3, 5)


def coprime(m: int, p: int) -> bool:
    return p == 0 or m % p != 0


class GroupOracle:
    """Brute-force invariants of one permutation group."""

    def __init__(self, degree: int, gens) -> None:
        self.elems = O.closure(degree, [tuple(g) for g in gens])
        classes = O.conj_classes(self.elems)
        self.sub_classes = O.subgroup_conj_classes(self.elems, O.cyclic_subgroups(self.elems))
        orders = [len(next(iter(c))) for c in self.sub_classes]
        self.invariants = {
            "order": len(self.elems),
            "classes": len(classes),
            "cyclic_classes": {str(p): sum(coprime(m, p) for m in orders) for p in PRIMES},
            "bh_rank": {str(p): sum(coprime(O.elem_order(next(iter(c))), p) for c in classes)
                        for p in PRIMES},
        }

    def orbits(self, points: int, act) -> int:
        return len(O.orbits(self.elems, act, points))

    def refined_rank(self, points: int, act, p: int) -> int:
        """Sum over classes of cyclic subgroups c (order prime to p) of the
        orbits of N(c) on fixed points x injective characters of c."""
        total = 0
        for cls in self.sub_classes:
            s = min(cls, key=sorted)
            m = len(s)
            if not coprime(m, p):
                continue
            g = min(x for x in s if O.elem_order(x) == m)
            powers = [tuple(range(len(g)))]
            while len(powers) < m:
                powers.append(O.compose(powers[-1], g))
            normalizer = [n for n in self.elems
                          if frozenset(O.compose(O.compose(n, t), O.invert(n)) for t in s) == s]
            exps = {n: powers.index(O.compose(O.compose(O.invert(n), g), n)) for n in normalizer}
            units = O.units_mod(m)
            fixed = [x for x in range(points) if all(act(t, x) == x for t in s)]
            where = {x: i for i, x in enumerate(fixed)}
            k = len(units)

            def action(n, q, fixed=fixed, where=where, units=units, exps=exps, m=m, k=k):
                i, u = divmod(q, k)
                return where[act(n, fixed[i])] * k + units.index(units[u] * exps[n] % m)

            total += len(O.orbits(normalizer, action, len(fixed) * k))
        return total


def action_table(degree: int, size: int, gens, images) -> dict:
    """Element -> permutation of the model's points, by closing generator
    pairs under composition; raises if the images are not an action."""
    table = {tuple(range(degree)): tuple(range(size))}
    frontier = list(table)
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gens, images):
                y, ay = O.compose(x, g), O.compose(table[x], img)
                if y not in table:
                    table[y] = ay
                    nxt.append(y)
                elif table[y] != ay:
                    raise ValueError("generator images do not define an action")
        frontier = nxt
    return table


def run_jobs(work: W.Workload, ctx: dict) -> dict:
    for job in work.jobs:
        ctx[job.id] = job.run(ctx)
    return ctx


def main() -> int:
    st = W.import_stacky()
    expected = {"jobs": {}, "oracle": {"groups": {}, "models": {}, "suite": {}}}
    inv = expected["oracle"]
    checks = []

    for name in ("tables", "inertia", "cli"):
        work = W.build(name, 0)
        ctx = run_jobs(work, {"run_cli": W.CliRunner()})
        oracles = {}
        for gname, (degree, gens) in work.groups.items():
            oracles[gname] = GroupOracle(degree, gens)
            inv["groups"][gname] = oracles[gname].invariants
        for mname, (gname, points, act) in work.models.items():
            G = oracles[gname]
            inv["models"][mname] = {
                "group": gname, "orbits": G.orbits(points, act),
                "refined": {str(p): G.refined_rank(points, act, p) for p in (0, 2, 3)}}
        for job in work.jobs:
            expected["jobs"][job.id] = W.digest(job.canon(ctx[job.id]))
            checks.append((job, ctx[job.id]))
        if name == "inertia":
            other = W.build(name, 1)
            ctx1 = run_jobs(other, {})
            for job in other.jobs:
                if W.digest(job.canon(ctx1[job.id])) != expected["jobs"][job.id]:
                    raise SystemExit(f"{job.id}: digest changes with the seed")
        print(f"{name}: {len(work.jobs)} jobs recorded", file=sys.stderr)

    for s in range(W.SUITE_POOL):
        _label, X, H, p = next(st.suite_inputs(s, 1))
        gens = [g.images for g in X.group.generators]
        G = GroupOracle(X.group.degree, gens)
        table = action_table(X.group.degree, X.size, gens, [im.images for im in X.generator_images])
        refined = G.refined_rank(X.size, lambda t, x: table[t][x], p)
        bh = GroupOracle(H.degree, [h.images for h in H.generators]).invariants["bh_rank"][str(p)]
        inv["suite"][str(s)] = {"refined": refined, "kunneth": refined * bh}
    suite_jobs = [W.suite_job(s) for s in range(W.SUITE_POOL)] + [W.splitting_job()]
    for job in suite_jobs:
        result = job.run({})
        expected["jobs"][job.id] = W.digest(job.canon(result))
        checks.append((job, result))
    print(f"suite: {len(suite_jobs)} jobs recorded", file=sys.stderr)

    failures = [(job.id, problems) for job, result in checks
                if (problems := W.check(job, result, expected))]
    if failures:
        for job_id, problems in failures:
            print(f"{job_id}: {problems}", file=sys.stderr)
        return 1
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
