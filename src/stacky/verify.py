"""Independent dual-route cross-checks packaged as callable verifications.

Every check compares two values computed along genuinely different routes and
returns a report; nothing is tolerance-based, all comparisons are exact.  The
randomized suite draws desk-scale groups and coset actions from a seeded
generator, so failures are reproducible from the digest alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache, partial
from typing import Callable, Iterator, Sequence

from ._record import record
from .chars import character_table, rep_ring
from .corresp import _fiber_sizes, splitting_certificate
from .decomp import (
    _bh_rank,
    inertia_ranks_by_twist,
    inertial_quotient_motive,
    product_with_point_model,
)
from .motives import EquivariantModel
from .perms import (
    FiniteGroup,
    Perm,
    _compose,
    alternating_group,
    cyclic_group,
    dihedral_group,
    orbit,
    quaternion_group,
    symmetric_group,
)


@record
class VerificationReport:
    """Outcome of one exact cross-check."""

    check_name: str
    input_digest: str
    lhs: str
    rhs: str
    passed: bool

    def to_dict(self) -> dict:
        return {"check": self.check_name, "inputDigest": self.input_digest,
                "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _model_payload(X: EquivariantModel) -> dict:
    return {
        "degree": X.group.degree,
        "generators": [list(g.images) for g in X.group.generators],
        "kind": X.kind,
        "dims": list(X.dims),
        "images": [list(g.images) for g in X.generator_images],
        "loci": [{"generator": list(l.generator.images), "dims": list(l.dims)}
                 for l in X.fixed_loci],
    }


def _render_ranks(ranks: dict[int, int]) -> str:
    return json.dumps({str(t): r for t, r in sorted(ranks.items())},
                      sort_keys=True, separators=(",", ":"))


def check_inertia_dimension(X: EquivariantModel, p: int = 0) -> VerificationReport:
    """Per-twist ranks of the refined quotient motive against the orbit counts
    summed over the element-indexed inertia components."""
    return _model_reports(X, p)[0]


def check_kunneth(X: EquivariantModel, H: FiniteGroup, p: int = 0) -> VerificationReport:
    """Per-twist ranks of the product model against the convolution of the
    factors' rank vectors."""
    return _model_reports(X, p, H, inertia_dim=False)[0]


def _model_reports(X: EquivariantModel, p: int, H: FiniteGroup | None = None,
                   inertia_dim: bool = True, label: str = "") -> list[VerificationReport]:
    """The inertia-dimension report unless not ``inertia_dim``, then, given a second
    factor H, the Kunneth report: both read X's refined ranks, computed once.  The
    product comes first, so a cell model is refused before any motive is computed;
    ``label`` ends each digest."""
    prod = None if H is None else product_with_point_model(X, H)
    xr = inertial_quotient_motive(X, p).ranks_by_twist()
    payload = {"model": _model_payload(X), "p": p}
    reports = []
    if inertia_dim:
        rhs = inertia_ranks_by_twist(X, p)
        reports.append(VerificationReport("inertia-dim", _digest(payload) + label,
                                          _render_ranks(xr), _render_ranks(rhs), xr == rhs))
    if H is not None:
        lhs = inertial_quotient_motive(prod, p).ranks_by_twist()
        rank = _bh_rank(H, p)  # BH is `rank` points at twist 0: the convolution scales X's ranks
        conv = {t: r * rank for t, r in xr.items() if r * rank}
        payload = {**payload, "h": [list(g.images) for g in H.generators], "hdeg": H.degree}
        reports.append(VerificationReport("kunneth", _digest(payload) + label,
                                          _render_ranks(lhs), _render_ranks(conv), lhs == conv))
    return reports


def check_rep_ring_vs_classes(H: FiniteGroup) -> VerificationReport:
    """Rank of the representation ring against the refined classifying-stack
    rank.  rep_ring enforces the pointwise character identity
    chi_i * chi_j = sum_k n_ijk chi_k on every class and raises if it fails,
    so a returned ring satisfies it."""
    ring = rep_ring(character_table(H))
    rank = _bh_rank(H, 0)
    lhs = f"ring rank {ring.rank}, pointwise identities hold"
    rhs = f"class-count rank {rank}"
    payload = {"degree": H.degree, "generators": [list(g.images) for g in H.generators]}
    return VerificationReport("rep-ring", _digest(payload), lhs, rhs, ring.rank == rank)


def check_degree_splitting(f: Sequence[int], n: int, k: int, m: int) -> VerificationReport:
    """Pushforward after pullback of an equidegree cover must be m times the
    identity and the averaging idempotent must split exactly."""
    payload = {"map": list(f), "n": n, "k": k, "m": m}
    digest = _digest(payload)
    fibers = _fiber_sizes(list(f), n, k)  # raises NotTotalError on a bad map
    if any(size != m for size in fibers):
        return VerificationReport("splitting", digest,
                                  f"fiber sizes {fibers}", f"claimed degree {m}", False)
    # the certificate raises an internal error unless (1/m) * pushforward o
    # pullback is the identity and the cover projector is idempotent
    splitting_certificate(f, n, k, m)
    return VerificationReport("splitting", digest, f"pushforward o pullback = {m}*id",
                              "round trips hold", True)


# ---------------------------------------------------------------------------
# Randomized suite.

def _group_pool() -> list[tuple[str, Callable[[], FiniteGroup]]]:
    pool = [(f"C{n}", partial(cyclic_group, n)) for n in range(1, 13)]
    pool += [(f"D{n}", partial(dihedral_group, n)) for n in range(2, 7)]
    pool += [("S3", partial(symmetric_group, 3)), ("S4", partial(symmetric_group, 4)),
             ("A4", partial(alternating_group, 4)), ("Q8", quaternion_group)]
    return pool


def _random_subgroup(rng: random.Random, G: FiniteGroup, max_index: int) -> list[Perm]:
    """A random subgroup whose coset space fits the point budget."""
    for _ in range(30):
        seeds = [rng.choice(G.elements).images for _ in range(rng.randint(1, 2))]
        elems = orbit([G.identity.images], seeds, _compose)
        if G.order // len(elems) <= max_index:
            return [G.elements[i] for i in sorted(map(G._by_images.__getitem__, elems))]
    return sorted(G.elements)


def random_coset_model(rng: random.Random, G: FiniteGroup,
                       max_points: int = 20) -> EquivariantModel:
    """Disjoint union of coset spaces of random subgroups, as a point model."""
    # cosets are sorted element-index tuples, which sort as the sorted
    # elements do; each is formed once, from image tuples
    by_images = G._by_images

    def mul(a: Perm, b: Perm) -> int:
        return by_images[tuple(map(a.images.__getitem__, b.images))]

    blocks: list[list[tuple[int, ...]]] = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        budget = max_points - total
        if budget < 1:
            break
        sub = _random_subgroup(rng, G, budget)
        coset_of: dict[int, tuple[int, ...]] = {}
        for i, x in enumerate(G.elements):
            if i not in coset_of:
                coset = tuple(sorted(mul(x, s) for s in sub))
                coset_of.update(dict.fromkeys(coset, coset))
        cosets = sorted(set(coset_of.values()))
        if total + len(cosets) > max_points:
            continue
        blocks.append(cosets)
        total += len(cosets)
    if not blocks:
        blocks = [[tuple(range(G.order))]]
        total = 1

    images = []
    for g in G.generators:
        img: list[int] = []
        offset = 0
        for cosets in blocks:
            # g moves the coset of x to the coset of g x
            lookup = {i: k for k, c in enumerate(cosets) for i in c}
            img.extend(offset + lookup[mul(g, G.elements[coset[0]])] for coset in cosets)
            offset += len(cosets)
        images.append(Perm(img))
    return EquivariantModel.hset(G, total, images)


def suite_inputs(seed: int, count: int = 100
                 ) -> Iterator[tuple[str, EquivariantModel, FiniteGroup, int]]:
    """Deterministic stream of (label, model, second factor, characteristic)."""
    rng = random.Random(seed)
    pool = _group_pool()
    second = [("C2", partial(cyclic_group, 2)), ("C3", partial(cyclic_group, 3)),
              ("S3", partial(symmetric_group, 3)), ("C4", partial(cyclic_group, 4))]
    built = cache(lambda make: make())  # each drawn group is built once per call
    for i in range(count):
        gname, make = rng.choice(pool)
        X = random_coset_model(rng, built(make))
        hname, make = rng.choice(second)
        H = built(make)
        p = rng.choice([0, 2, 3])
        yield f"seed={seed} input={i} group={gname} h={hname} p={p}", X, H, p


def run_suite(seed: int = 0, count: int = 100) -> tuple[VerificationReport, ...]:
    """Run the inertia-dimension and product-rank checks on the seeded suite."""
    return tuple(rep for label, X, H, p in suite_inputs(seed, count)
                 for rep in _model_reports(X, p, H, label=f" [{label}]"))


def standard_splitting_reports(max_points: int = 12) -> tuple[VerificationReport, ...]:
    """Splitting checks over every equidegree cover shape up to a point budget."""
    reports = []
    for k in range(1, max_points + 1):
        for m in range(1, max_points // k + 1):
            n = k * m
            f = [j for j in range(k) for _ in range(m)]
            reports.append(check_degree_splitting(f, n, k, m))
    return tuple(reports)
