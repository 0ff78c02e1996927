"""Decompositions of quotient-stack models.

Implements the component calculus for finite-group quotient models: the
cyclotomic inertia components indexed by conjugacy classes of cyclic
subgroups, the element-indexed inertia components, the coarse and the
character-refined quotient motives, classifying stacks, gerbes over a base,
and one-dimensional orbifolds.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import cached_property
from typing import Sequence

from ._record import record
from .chars import character_table, rep_ring
from .errors import (BadOrderError, InconsistentActionError, NotAnAutomorphismError,
                     ValidationError, check)
from .motives import (
    UNIT,
    Atom,
    EquivariantModel,
    Motive,
    extend_action,
)
from .perms import (
    CyclicClass,
    FiniteGroup,
    Perm,
    Subgroup,
    centralizer,
    conjugacy_classes,
    conjugation_exponent,
    cyclic_subgroup_classes,
    direct_product,
    orbit,
    _count_orbits,
)


def character_indices(order: int) -> tuple[int, ...]:
    """Index set of the injective characters of a cyclic group of this order."""
    if order == 1:
        return (0,)
    return tuple(j for j in range(1, order) if math.gcd(j, order) == 1)


def conjugation_kernel(c: CyclicClass, G: FiniteGroup) -> tuple[Sequence[int], int]:
    """(C, r) for the cyclic class c = <g> of G of order m: C, the positions in
    ``c.normalizer_indices`` of the centralizer of g, the kernel of the conjugation
    character n -> a (n^-1 g n = g^a) on the normalizer N, and r = phi(m) / [N : C], the
    orbits of N on the injective characters, on which N/C acts freely.  Each a is read off
    the exponent row, checked to be a unit as conjugation_exponent checks it, and against
    one walk of g's conjugates, so n -> a is a homomorphism; its distinct values number
    [N : C], which divides phi(m).  A central class is checked at G's generators, each with
    a = 1 and commuting with g: C = N = G.  Checked once, and kept on the class."""
    if c._kernel is not None:
        return c._kernel
    N, m = c.normalizer_indices, c.order
    at = [G.index[s] for s in G.generators] if c.central else N
    exps = list(map(c.exponent_row.__getitem__, at))
    if any(math.gcd(a, m) != 1 for a in set(exps)):
        for i in at:  # raises at the first n that fails
            conjugation_exponent(G.elements[i], c)
    g = G.index[c.generator]
    if c.central:
        ok = exps.count(1) == len(exps) and all(row[g] == g for row in G._conjugation_rows)
    else:
        conj, pw = G._conjugates(g), [G.index[y] for y in c.subgroup_elements]
        ok = all(conj[i] == pw[a % m] for i, a in zip(N, exps))
    check("decomp.conjugation_character", ok,
          "recorded exponents of the class of order {} are not its conjugation character", m)
    everywhere, fixing = range(len(N)), map((1).__eq__, exps)
    # as 4-byte machine integers: an int object each would cost ten times as much
    C = everywhere if c.central else array("I", itertools.compress(everywhere, fixing))
    index, phi = len(set(exps) | {1}), len(character_indices(m))
    check("decomp.kernel_index", index * len(C) == len(N) and phi % index == 0,
          "the class of order {} has {} distinct exponents, not [N : C] = {}/{} dividing "
          "phi(m) = {}", m, index, len(N), len(C), phi)
    object.__setattr__(c, "_kernel", (C, phi // index))
    return c._kernel


@record
class CyclotomicInertiaComponent:
    """One component of the cyclotomic inertia of a model: a cyclic class,
    its fixed-point model carrying the normalizer action, and the number of
    orbits of the normalizer on the character set s(c), as conjugation_kernel gives it."""

    cyclic: CyclicClass
    fixed_model: EquivariantModel
    chars: int


@record
class InertiaComponent:
    """One component of the element-indexed inertia: a class representative,
    its centralizer, and the fixed model with the centralizer action."""

    representative: Perm
    centralizer: Subgroup
    fixed_model: EquivariantModel


def _require_group_model(X: EquivariantModel) -> None:
    """Refuse a component's fixed model: it acts through a subgroup, which has no classes."""
    if isinstance(X.group, Subgroup):
        raise ValidationError("inertia needs a model of a group; this one acts through a subgroup")


def cyclotomic_inertia(X: EquivariantModel, p: int = 0
                       ) -> tuple[CyclotomicInertiaComponent, ...]:
    """One component per conjugacy class of cyclic subgroups of order prime
    to p: the fixed model with its normalizer action and the character orbits."""
    _require_group_model(X)
    out = []
    for c in cyclic_subgroup_classes(X.group, p):
        fixed = EquivariantModel._from_rows(c.normalizer, *X.locus(c))
        out.append(CyclotomicInertiaComponent(c, fixed, conjugation_kernel(c, X.group)[1]))
    return tuple(out)


def inertia(X: EquivariantModel, p: int = 0) -> tuple[InertiaComponent, ...]:
    """One component per conjugacy class of elements of order prime to p.

    Element classes are found inside each cyclic class: the conjugacy classes
    of G that meet the generators g^k, gcd(k, m) = 1, of its canonical
    subgroup.  Neither the conjugation exponents nor the characters are read:
    this is the second route to the refined ranks.
    """
    _require_group_model(X)
    G = X.group
    out = []
    for c in cyclic_subgroup_classes(G, p):
        if c._centralizers is None:
            gens = {c.subgroup_elements[k] for k in character_indices(c.order)}
            if c.central:  # each generator is a class of its own, centralized by G = N
                found = [(h, c.normalizer, c.normalizer_indices) for h in sorted(gens)]
            else:
                # the least generator in each element class that meets them, in order
                reps = sorted(min(gens.intersection(cls.members)) for cls in conjugacy_classes(G)
                              if cls.order == c.order and not gens.isdisjoint(cls.members))
                # C(h) lies in N(<h>): its elements' positions in N restrict N's action to it
                at = {i: k for k, i in enumerate(c.normalizer_indices)}
                found = [(h, Z, tuple(at[G.index[z]] for z in Z.elements))
                         for h, Z in ((h, centralizer(G, h)) for h in reps)]
            object.__setattr__(c, "_centralizers", tuple(found))
        dims, action, cells = X.locus(c)
        for h, Z, positions in c._centralizers:
            rows = action if len(positions) == len(action) else tuple(
                map(action.__getitem__, positions))  # all of N: N's own rows
            out.append(InertiaComponent(h, Z, EquivariantModel._from_rows(Z, dims, rows, cells)))
    return tuple(out)


def quotient_motive(X: EquivariantModel) -> Motive:
    """Motive of the quotient, the invariant part of the model's motive: one
    L^d per orbit on the cells of dimension d, counted on the rows that
    extend_action checked when the model was built."""
    return Motive.of((UNIT, d, r) for d, r in _orbit_ranks(X).items())


def _orbit_ranks(model: EquivariantModel, parent: EquivariantModel | None = None,
                 at: Sequence[int] | None = None) -> dict[int, int]:
    """Per cell dimension, the orbits on the cells of the model's group or, given the
    positions ``at`` of a subgroup's elements, of that subgroup, counted on the model's
    own rows; on all of a parent's rows, closed under the parent group's generators
    and checked against its stab."""
    rows, gens, stab = model.element_actions, None, None
    if at is not None and len(at) < len(rows):
        rows = tuple(map(rows.__getitem__, at))
    elif parent is not None and rows is parent.element_actions:
        G = parent.group
        gens, stab = [rows[G.index[s]] for s in G.generators], parent.stab
    return {d: _count_orbits(rows, cells, gens, stab) for d, cells in model.cells_of_dim().items()}


@record
class ComponentContribution:
    component: CyclotomicInertiaComponent
    ranks: tuple[tuple[int, int], ...]  # (twist, multiplicity)
    motive: Motive


@record
class InertialMotive:
    """Character-refined motive of a quotient model with its per-component
    breakdown; the trivial-class component is the coarse quotient motive."""

    motive: Motive
    components: tuple[ComponentContribution, ...]

    def trivial_component(self) -> Motive:
        return next(cc.motive for cc in self.components
                    if cc.component.cyclic.order == 1)

    def ranks_by_twist(self) -> dict[int, int]:
        return self.motive.unit_multiplicities()


def inertial_quotient_motive(X: EquivariantModel, p: int = 0) -> InertialMotive:
    """The character-refined motive: sum over cyclotomic inertia components
    of the normalizer-invariants of (fixed cells) x (injective characters).
    N/C acts freely on the characters, C the centralizer, so each summand is
    r = phi(m) / [N : C] copies of the C-orbits on the fixed cells."""
    contribs = []
    for comp in cyclotomic_inertia(X, p):
        C = comp.cyclic._kernel[0]  # the centralizer's positions, kept by cyclotomic_inertia
        ranks = {d: comp.chars * n for d, n in _orbit_ranks(comp.fixed_model, X, C).items()}
        mot = Motive.of([(UNIT, d, r) for d, r in ranks.items()])
        contribs.append(ComponentContribution(comp, tuple(sorted(ranks.items())), mot))
    total = Motive.of(t for cc in contribs for t in cc.motive.terms)
    return InertialMotive(total, tuple(contribs))


def inertia_ranks_by_twist(X: EquivariantModel, p: int = 0) -> dict[int, int]:
    """Per-twist orbit counts summed over the element-indexed inertia: the
    independent second route to the refined ranks."""
    out: dict[int, int] = {}
    for comp in inertia(X, p):
        for d, r in _orbit_ranks(comp.fixed_model, X).items():
            out[d] = out.get(d, 0) + r
    return {d: r for d, r in out.items() if r}


# ---------------------------------------------------------------------------
# Classifying stacks.

@record
class ClassifyingStackMotive:
    """Refined motive of a classifying stack: a sum of r points, and for
    characteristic 0 the rank-3 tensor of product structure constants."""

    motive: Motive
    rank: int
    product_constants: tuple[tuple[tuple[int, ...], ...], ...] | None


def _bh_rank(H: FiniteGroup, p: int) -> int:
    """The number of conjugacy classes of elements of order prime to p,
    cross-checked against the orbits of each cyclic class's normalizer on its
    injective characters, summed over the classes."""
    rank = sum(1 for cls in conjugacy_classes(H)
               if p == 0 or cls.order % p != 0)
    # independent route: orbits of each normalizer on the injective characters
    via_chars = sum(conjugation_kernel(c, H)[1] for c in cyclic_subgroup_classes(H, p))
    check("decomp.bh_rank_vs_chars", via_chars == rank,
          "class count {} and character-orbit count {} disagree", rank, via_chars)
    return rank


def bh_motive(H: FiniteGroup, p: int = 0) -> ClassifyingStackMotive:
    """Refined motive of the classifying stack of H.

    The rank is the number of conjugacy classes of elements of order prime
    to p (cross-checked internally against the character-orbit count); the
    product structure is emitted for p = 0 only, from the character table
    kept on H: a table built earlier for H is reused, not built again."""
    rank = _bh_rank(H, p)
    constants = None
    if p == 0:
        ring = rep_ring(character_table(H))
        check("decomp.table_rank", ring.rank == rank, "table rank differs from class count")
        constants = ring.constants
    return ClassifyingStackMotive(Motive.point(rank), rank, constants)


# ---------------------------------------------------------------------------
# Gerbes.

@record
class GerbeDatum:
    """A gerbe presentation: the band group, monodromy automorphisms given by
    generator images, the base motive and its display label."""

    group: FiniteGroup
    monodromy: tuple[tuple[Perm, ...], ...]
    base: Motive
    base_label: str = "X"

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Each monodromy automorphism phi as the row i -> index of phi(e_i),
        extended and checked once, on first use."""
        return tuple(_automorphism_map(self.group, tuple(images)) for images in self.monodromy)

    @classmethod
    def _checked(cls, rows: tuple[tuple[int, ...], ...], *fields) -> "GerbeDatum":
        """A datum built from ``fields`` whose rows _automorphism_map already gave."""
        datum = cls(*fields)
        datum.__dict__["rows"] = rows
        return datum


@record
class CharacterOrbitSet:
    """Conjugation orbits of (cyclic subgroup, injective character) pairs,
    with the permutations induced by a list of outer automorphisms."""

    elements: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]
    aut_perms: tuple[Perm, ...]
    distinguished: int

    @property
    def size(self) -> int:
        return len(self.elements)


def _automorphism_map(H: FiniteGroup, images: Sequence[Perm]) -> tuple[int, ...]:
    """The automorphism phi of H extending generator images, as the row
    i -> index of phi(e_i), fully verified: the extension is checked at every
    element and generator, then for bijectivity."""
    if len(images) != len(H.generators):
        raise NotAnAutomorphismError(
            f"expected {len(H.generators)} generator images, got {len(images)}")
    for img in images:
        if img not in H:
            raise NotAnAutomorphismError("generator image is not a group element")
    try:
        row = tuple(map(H._by_images.__getitem__, extend_action(H, images, H.degree)))
    except InconsistentActionError as exc:
        raise NotAnAutomorphismError(str(exc)) from exc
    if len(set(row)) != H.order:
        raise NotAnAutomorphismError("images define a non-bijective endomorphism")
    return row


def gerbe_rset(H: FiniteGroup, p: int, monodromy: Sequence[Sequence[Perm]]
               ) -> CharacterOrbitSet:
    """Orbits of conjugation on (cyclic subgroup, injective character) pairs
    and the permutations induced by the monodromy automorphisms."""
    return _pair_orbits(H, p, [_automorphism_map(H, tuple(images)) for images in monodromy])


def _pair_orbits(H: FiniteGroup, p: int, autos: Sequence[tuple[int, ...]]
                 ) -> CharacterOrbitSet:
    """gerbe_rset on rows from _automorphism_map.  Subgroups are element-index sets;
    conjugation by a generator and each automorphism are rows i -> index of e_i's image."""
    subs = {frozenset(pw): pw for pw in dict.fromkeys(H._cyclic_subgroups.values())
            if p == 0 or math.gcd(len(pw), p) == 1}

    def move(pair, row):
        # row sends the generator to the u-th power of the image's generator,
        # so the character j of the subgroup goes to j * u^-1 on the image
        sub, j = pair
        new_sub = frozenset(map(row.__getitem__, sub))
        m = len(sub)
        if m == 1:
            return (new_sub, 0)
        u = subs[new_sub].index(row[subs[sub][1]])
        return (new_sub, j * pow(u, -1, m) % m)

    pairs = [(sub, j) for sub in subs for j in character_indices(len(sub))]
    orbit_index: dict[tuple, int] = {}
    orbits = []
    # visited in key order, so a pair not yet reached is the least of its
    # orbit and the orbits come out sorted by their representatives; sorted
    # indices order the subgroups as their sorted image tuples do
    for pair in sorted(pairs, key=lambda sj: (len(sj[0]), sorted(sj[0]), sj[1])):
        if pair not in orbit_index:
            orbit_index.update(dict.fromkeys(orbit([pair], H._conjugation_rows, move),
                                             len(orbits)))
            orbits.append(pair)

    # cross-check: orbit count must match the sum of per-class character orbits
    check("decomp.pair_orbits", _bh_rank(H, p) == len(orbits),
          "pair-orbit count disagrees with per-class character orbits")

    aut_perms = [Perm([orbit_index[move(pair, row)] for pair in orbits]) for row in autos]

    distinguished = orbit_index[(frozenset([H.index[H.identity]]), 0)]
    check("decomp.trivial_pair_fixed", all(a(distinguished) == distinguished for a in aut_perms),
          "an automorphism moved the trivial pair")

    elements = tuple((tuple(H.elements[i].images for i in sorted(sub)), j) for sub, j in orbits)
    return CharacterOrbitSet(elements, tuple(aut_perms), distinguished)


@record
class GerbeMotive:
    """Refined motive of a gerbe: one base copy per fixed pair orbit, one
    cover atom per nontrivial monodromy orbit; the distinguished copy is the
    coarse factor."""

    motive: Motive
    coarse_factor: Motive
    orbit_sizes: tuple[int, ...]


def gerbe_motive(datum: GerbeDatum, p: int = 0) -> GerbeMotive:
    rset = _pair_orbits(datum.group, p, datum.rows)
    seen: set[int] = set()
    sizes, terms = [], []
    for start in range(rset.size):
        if start in seen:
            continue
        # the monodromy group is finite: closing under its generators gives the orbit
        orb = orbit([start], rset.aut_perms, lambda q, a: a(q))
        seen.update(orb)
        sizes.append(len(orb))
        terms += datum.base.terms if len(orb) == 1 else [
            (Atom.cover(datum.base_label, len(orb)), 0, 1)]
    return GerbeMotive(Motive.of(terms), datum.base, tuple(sizes))


# ---------------------------------------------------------------------------
# One-dimensional orbifolds.

@record
class OrbifoldCurveMotive:
    """Refined motive of a one-dimensional orbifold: the coarse curve motive
    plus one point per nontrivial character of each stacky point."""

    motive: Motive
    coarse_factor: Motive


def orbifold_curve_motive(genus: int, orders: Sequence[int]) -> OrbifoldCurveMotive:
    if genus < 0:
        raise BadOrderError(f"genus {genus} is negative")
    for n in orders:
        if n < 2:
            raise BadOrderError(f"stacky point order {n} is below 2")
    curve_terms = [(UNIT, 0, 1), (UNIT, 1, 1)]
    if genus > 0:
        curve_terms.insert(1, (Atom.h1(genus), 0, 1))
    curve = Motive.of(curve_terms)
    extra = sum(n - 1 for n in orders)
    return OrbifoldCurveMotive(curve + Motive.point(extra) if extra else curve, curve)


# ---------------------------------------------------------------------------
# Product models (Kunneth direction).

def product_with_point_model(X: EquivariantModel, H: FiniteGroup) -> EquivariantModel:
    """The model (X, G) x (point, H): the product group acts on X's points
    with the second factor acting trivially.  Point-set models only."""
    if X.kind != "hset":
        raise ValidationError("model: product models are supported for point-set models")
    # (g_i, h_j) acts as g_i does: X's checked row, at each of its |H| indices
    rows = tuple(row for row in X.element_actions for _ in range(H.order))
    images = X.generator_images + (Perm.identity(X.size),) * len(H.generators)
    return EquivariantModel._from_rows(direct_product(X.group, H), X.dims, rows, kind="hset",
                                     generator_images=images)
