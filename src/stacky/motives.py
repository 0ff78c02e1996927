"""Formal Tate-type motives: twisted atoms, direct sums, tensor products,
equivariant models and their actions, and graded Chow dimensions.

A motive is a finite multiset of (atom, twist, multiplicity) terms.  Unit
atoms are the Tate pieces; curve weight-1 parts, etale covers and other
non-Tate constituents stay opaque and are tracked symbolically.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from ._record import record
from .errors import InconsistentActionError, NonBijectionError, OpaqueTensorError
from .perms import CyclicClass, FiniteGroup, Perm, Rows, Subgroup, generate_group


@record
class Atom:
    """One indivisible motive constituent.

    kind is one of "unit" (the point motive; its twists are the Tate pieces),
    "h1" (weight-1 part of a genus-g curve, rank 2g), "cover" (degree-d etale
    cover of a named base) or "opaque" (free symbol).
    """

    kind: str
    genus: int = 0
    base: str = ""
    degree: int = 0
    label: str = ""

    KINDS = ("unit", "h1", "cover", "opaque")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.kind == "h1" and self.genus < 0:
            raise ValueError("h1 atom needs genus >= 0")
        if self.kind == "cover" and (self.degree < 2 or not self.base):
            raise ValueError("cover atom needs a nonempty base label and degree >= 2")
        if self.kind == "opaque" and not self.label:
            raise ValueError("opaque atom needs a nonempty label")

    @classmethod
    def unit(cls) -> "Atom":
        return cls("unit")

    @classmethod
    def h1(cls, genus: int) -> "Atom":
        return cls("h1", genus=genus)

    @classmethod
    def cover(cls, base: str, degree: int) -> "Atom":
        return cls("cover", base=base, degree=degree)

    @classmethod
    def opaque(cls, label: str) -> "Atom":
        return cls("opaque", label=label)

    @property
    def is_unit(self) -> bool:
        return self.kind == "unit"

    def sort_key(self) -> tuple:
        return (self.KINDS.index(self.kind), self.genus, self.base, self.degree, self.label)

    def render(self) -> str:
        if self.kind == "unit":
            return "1"
        if self.kind == "h1":
            return f"[H1_{self.genus}]"
        if self.kind == "cover":
            return f"[Cover({self.base},{self.degree})]"
        return f"[{self.label}]"


UNIT = Atom.unit()


@record
class Motive:
    """Formal direct sum of twisted atoms; terms are merged and sorted."""

    terms: tuple[tuple[Atom, int, int], ...]

    @classmethod
    def of(cls, terms: Iterable[tuple[Atom, int, int]]) -> "Motive":
        merged: dict[tuple[int, ...], tuple[Atom, int, int]] = {}
        for atom, twist, mult in terms:
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult == 0:
                continue
            key = (twist, *atom.sort_key())
            if key in merged:
                a, t, m = merged[key]
                merged[key] = (a, t, m + mult)
            else:
                merged[key] = (atom, twist, mult)
        return cls(tuple(merged[k] for k in sorted(merged)))

    @classmethod
    def zero(cls) -> "Motive":
        return cls(())

    @classmethod
    def point(cls, mult: int = 1) -> "Motive":
        return cls.of([(UNIT, 0, mult)])

    @classmethod
    def lefschetz(cls, twist: int = 1, mult: int = 1) -> "Motive":
        return cls.of([(UNIT, twist, mult)])

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_only(self) -> bool:
        return all(atom.is_unit for atom, _, _ in self.terms)

    def unit_multiplicities(self) -> dict[int, int]:
        return {twist: mult for atom, twist, mult in self.terms if atom.is_unit}

    def unit_multiplicity(self, twist: int) -> int:
        return self.unit_multiplicities().get(twist, 0)

    def total_unit_multiplicity(self) -> int:
        return sum(self.unit_multiplicities().values())

    def twists(self) -> tuple[int, ...]:
        return tuple(sorted({t for _, t, _ in self.terms}))

    def __add__(self, other: "Motive") -> "Motive":
        return direct_sum(self, other)

    def __mul__(self, other: "Motive") -> "Motive":
        return tensor(self, other)

    def __str__(self) -> str:
        return poincare_polynomial(self)


def direct_sum(a: Motive, b: Motive) -> Motive:
    """Multiset union with merging; the empty motive is the unit."""
    return Motive.of(a.terms + b.terms)


def tensor(a: Motive, b: Motive) -> Motive:
    """Bilinear tensor product; at least one factor must be pure Tate."""
    if not a.is_unit_only() and not b.is_unit_only():
        raise OpaqueTensorError("both tensor factors contain non-Tate atoms")
    out = []
    for atom_a, ta, ma in a.terms:
        for atom_b, tb, mb in b.terms:
            atom = atom_b if atom_a.is_unit else atom_a
            out.append((atom, ta + tb, ma * mb))
    return Motive.of(out)


@record
class ChowDimensions:
    """Tate dimension of one graded Chow group plus the opaque atoms that may
    also contribute there (never silently dropped)."""

    tate_dim: int
    opaque_terms: tuple[tuple[Atom, int], ...]


def chow_dim(M: Motive, m: int) -> ChowDimensions:
    """Dimension data of the codimension-m Chow group of M.

    Non-Tate atoms at twist <= m are reported as opaque contributions.
    """
    tate = M.unit_multiplicity(m)
    opaque = tuple((atom, twist) for atom, twist, _ in M.terms
                   if not atom.is_unit and twist <= m)
    return ChowDimensions(tate, opaque)


def poincare_polynomial(M: Motive) -> str:
    """Human-readable sum over terms, Tate pieces rendered as powers of L."""
    if M.is_zero():
        return "0"
    parts = []
    for atom, twist, mult in M.terms:
        if atom.is_unit:
            if twist == 0:
                parts.append(str(mult))
                continue
            power = "L" if twist == 1 else f"L^{twist}"
            parts.append(power if mult == 1 else f"{mult}*{power}")
        else:
            sym = atom.render()
            if twist != 0:
                sym = f"{sym}*L" if twist == 1 else f"{sym}*L^{twist}"
            parts.append(sym if mult == 1 else f"{mult}*{sym}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Equivariant combinatorial models.

@record
class FixedLocus:
    """Declared fixed-point model for one cyclic subgroup of a cell model.

    The cells listed here model the subvariety fixed by the subgroup
    generated by ``generator``; they are separate from the ambient cells.
    ``action_generators`` are elements of the subgroup's normalizer (they
    must generate it) and ``action_images`` their permutations of the locus
    cells; both empty means the normalizer acts trivially.
    """

    generator: Perm
    dims: tuple[int, ...]
    action_generators: tuple[Perm, ...] = ()
    action_images: tuple[Perm, ...] = ()


class EquivariantModel:
    """A finite point set or graded cell list with a group action.

    The generator images are verified to extend to an action of the whole
    group; the action of every element is precomputed (see extend_action).  Fixed
    loci (see locus): "hset" models read them off their own rows, as sets of their
    cells, and "cells" models declare them (see FixedLocus).
    """

    def __init__(self, group: FiniteGroup, dims: Sequence[int],
                 generator_images: Sequence[Perm], *, kind: str = "hset",
                 fixed_loci: Sequence[FixedLocus] = ()):
        if kind not in ("hset", "cells"):
            raise ValueError(f"unknown model kind {kind!r}")
        if kind == "hset" and any(d != 0 for d in dims):
            raise ValueError("hset models have all cells in dimension 0")
        if kind == "hset" and fixed_loci:
            raise ValueError("hset models compute their fixed loci")
        self.group = group
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        self.generator_images = tuple(generator_images)
        self.fixed_loci = tuple(fixed_loci)

        if len(self.generator_images) != len(group.generators):
            raise InconsistentActionError(
                f"expected {len(group.generators)} generator images, "
                f"got {len(self.generator_images)}")
        n = len(self.dims)
        for i, img in enumerate(self.generator_images):
            if img.degree != n:
                raise InconsistentActionError(
                    f"generator image {i} permutes {img.degree} cells, model has {n}")
            for cell in range(n):
                if self.dims[img(cell)] != self.dims[cell]:
                    raise InconsistentActionError(
                        f"generator image {i} moves cell {cell} across dimensions")
        self.element_actions = extend_action(group, self.generator_images, n)
        self.cells = range(n)  # a component's model acts on a set of its parent's cells
        # declared fixed loci by their class's subgroup: (dims, rows aligned with its normalizer)
        self.locus_actions: dict[frozenset[Perm], tuple[tuple[int, ...], Rows]] = {}
        for locus in self.fixed_loci:
            self._validate_locus(locus)

    @classmethod
    def _from_rows(cls, group: FiniteGroup | Subgroup, dims: Sequence[int], rows: Rows,
                   cells: Sequence[int] | None = None, *, kind: str = "cells",
                   generator_images: tuple[Perm, ...] = ()) -> "EquivariantModel":
        """A model of ``group`` acting through ``rows`` (aligned with its elements) on
        ``cells``, which they preserve (all by default), the k-th of dimension dims[k]:
        unchecked, for an action verified on a parent model, at a subgroup or pulled back."""
        X = object.__new__(cls)
        X.group = group
        X.kind = kind
        X.dims = tuple(dims)
        X.element_actions = rows
        X.cells = range(len(X.dims)) if cells is None else cells
        X.generator_images, X.fixed_loci, X.locus_actions = generator_images, (), {}
        return X

    def _validate_locus(self, locus: FixedLocus) -> None:
        """Check one declared fixed locus, extend its normalizer action and
        transport it onto the canonical subgroup of the locus's cyclic class,
        keyed by that subgroup."""
        G, g = self.group, locus.generator
        if g not in G:
            raise ValueError("fixed-locus generator is not a group element")
        if g.is_identity():
            raise ValueError("the ambient cells already model the trivial locus")
        sub = G._cyclic_subgroups[G.index[g]]
        c = G._cyclic_classes[1][sub]
        key = frozenset(c.subgroup_elements)
        if key in self.locus_actions:
            raise ValueError("two fixed loci declare conjugate subgroups")
        # x maps the declared subgroup onto the canonical one <g0> as soon as
        # x^-1 g0 x lies in <g> (both are cyclic of one order), so n in the
        # canonical normalizer acts on the declared cells as x^-1 n x does
        x = next(x for x, y in zip(G.elements, G._conjugates(G.index[c.generator])) if y in sub)
        xinv = x.inverse()
        declared = [xinv * G.elements[n] * x for n in c.normalizer_indices]
        N = sorted(declared)  # the declared subgroup's normalizer
        n_loc = len(locus.dims)
        if len(locus.action_generators) != len(locus.action_images):
            raise InconsistentActionError("locus action generators and images differ in count")
        for img in locus.action_images:
            if img.degree != n_loc:
                raise InconsistentActionError("locus action image has the wrong degree")
            for cell in range(n_loc):
                if locus.dims[img(cell)] != locus.dims[cell]:
                    raise InconsistentActionError("locus action moves a cell across dimensions")
        ident = tuple(range(n_loc))
        if locus.action_generators:
            for a in locus.action_generators:
                if a not in N:
                    raise InconsistentActionError(
                        f"{a.cycle_string()} does not normalize the locus subgroup")
            H = generate_group(G.degree, locus.action_generators)
            if H.elements != tuple(N):
                raise InconsistentActionError(
                    "generators do not generate the expected element set")
            act = extend_action(H, locus.action_images, n_loc)
            rows = tuple(act[H.index[d]] for d in declared)
        else:
            rows = (ident,) * len(declared)
        # the declared subgroup is x^-1 <g0> x, so it acts at the positions of <g0>
        row_of = dict(zip(c.normalizer_indices, rows))
        if any(row_of[G.index[y]] != ident for y in c.subgroup_elements):
            raise InconsistentActionError(
                "the fixing subgroup must act trivially on its own fixed cells")
        self.locus_actions[key] = (locus.dims, rows)

    def locus(self, c: CyclicClass) -> tuple[tuple[int, ...], Rows, Sequence[int]]:
        """(dims, rows aligned with c.normalizer_indices, cells): the cells that the cyclic
        class c fixes, under its normalizer.  The model itself for the trivial class; a point
        model's own rows on the points c fixes; else the declared locus, or no cells."""
        if c.order == 1:
            return self.dims, self.element_actions, self.cells
        rows, N = self.element_actions, c.normalizer_indices
        if self.kind == "hset":
            fixed = tuple(p for p, q in enumerate(rows[self.group.index[c.generator]]) if p == q)
            return (0,) * len(fixed), rows if len(N) == len(rows) else tuple(
                map(rows.__getitem__, N)), fixed
        none = self.group._empty_action if len(N) == len(rows) else ((),) * len(N)
        dims, rows = self.locus_actions.get(frozenset(c.subgroup_elements), ((), none))
        return dims, rows, range(len(dims))

    @property
    def size(self) -> int:
        return len(self.cells)

    @cached_property
    def stab(self) -> list[int]:
        """Per cell, the rows fixing it, counted on its column: Burnside's total by cell."""
        rows = self.element_actions
        return [[row[x] for row in rows].count(x) for x in range(len(rows[0]))]

    def action_of(self, g: Perm) -> Perm:
        return Perm._trusted(self.element_actions[self.group.index[g]])

    def cells_of_dim(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for d, cell in zip(self.dims, self.cells):
            out.setdefault(d, []).append(cell)
        return {d: tuple(v) for d, v in out.items()}

    @classmethod
    def hset(cls, group: FiniteGroup, size: int,
             generator_images: Sequence[Perm]) -> "EquivariantModel":
        return cls(group, (0,) * size, generator_images, kind="hset")

    @classmethod
    def point(cls, group: FiniteGroup) -> "EquivariantModel":
        """The one-point model (classifying-stack case)."""
        return cls.hset(group, 1, [Perm([0])] * len(group.generators))


def extend_action(group: FiniteGroup, images: Sequence[Perm], degree: int) -> Rows:
    """Extend generator images to every element of the group, verifying the
    extension is a group homomorphism (raises InconsistentActionError otherwise).
    The result is stacky's one format of a group action on cells: a tuple of
    image tuples, the i-th the action of ``group.elements[i]``.

    In discovery order, each element x and generator s form one product act(x) img_s,
    the closure's x s: it defines act(x s) on the word-tree edge, where the closure
    first reached x s, and is checked against it everywhere else."""
    if len(group.generators) != len(images):
        raise InconsistentActionError("generator and image counts differ")
    if any(img.degree != degree for img in images):
        raise NonBijectionError("cannot compose permutations of different degrees")
    imgs = [img.images for img in images]
    acts = [tuple(range(degree))] + [None] * (group.order - 1)  # the identity comes first
    bad = []
    for x in group._discovery:
        fx = acts[x]
        for row, img in zip(group._right_rows, imgs):
            y, xs = tuple(map(fx.__getitem__, img)), row[x]
            if acts[xs] is None:
                acts[xs] = y
            elif acts[xs] != y:
                bad.append(x)
    if bad:
        raise InconsistentActionError(
            f"images do not extend to a group action at {group.elements[min(bad)].cycle_string()}")
    return tuple(acts)
