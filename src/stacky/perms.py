"""Finite permutation groups: generation, conjugacy, cyclic subgroups, orbits.

Everything is brute force by design: groups are capped at a desk scale
(10,000 elements, degree 64) where exhaustive enumeration is
both tractable and the most trustworthy oracle.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cached_property
from operator import add, itemgetter
from typing import Any, Callable, Hashable, Iterable, Sequence

from ._record import field, record
from .errors import (
    BadCharacteristicError,
    GroupTooLargeError,
    NonBijectionError,
    NotASubgroupError,
    NotInNormalizerError,
    check,
)

ELEMENT_CAP = 10_000
DEGREE_CAP = 64
Rows = tuple[tuple[int, ...], ...]  # a group action: one image tuple per element (extend_action)


class Perm:
    """A permutation of {0..degree-1}, stored as the tuple of images.

    Composition is right-to-left: ``(a * b)(x) == a(b(x))``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(x) for x in images)
        n = len(imgs)
        seen = [False] * n
        for x in imgs:
            if not 0 <= x < n or seen[x]:
                raise NonBijectionError(f"images {imgs!r} are not a bijection on 0..{n - 1}")
            seen[x] = True
        self.images = imgs
        self._hash = hash(imgs)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap an image tuple already known to be a bijection, unchecked.

        Only for images built from valid permutations (products, inverses,
        the identity); outside data goes through the validating constructor.
        """
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._trusted(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        imgs = list(range(degree))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                imgs[pt] = cyc[(i + 1) % len(cyc)]
        return cls(imgs)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise NonBijectionError("cannot compose permutations of different degrees")
        return Perm._trusted(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm._trusted(tuple(inv))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.degree else 1

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All cycles, fixed points included."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"


class _ElementList:
    """What a group and a subgroup share: a sorted list of elements of one degree."""

    @cached_property
    def index(self) -> dict[Perm, int]:
        return {g: i for i, g in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def __contains__(self, g: Perm) -> bool:
        return g in self.index


class FiniteGroup(_ElementList):
    """A finite permutation group with its full, canonically ordered element list.

    Construct through :func:`generate_group`, :func:`direct_product` or the
    named-family helpers; the constructor trusts its arguments.
    """

    def __init__(self, degree: int, generators: tuple[Perm, ...],
                 by_images: dict[tuple[int, ...], int], words: dict[int, tuple[int, ...]],
                 right_rows: tuple[tuple[int, ...], ...]):
        """``by_images`` maps the elements' image tuples, sorted, to their indices;
        ``words`` maps each element index to its word, in discovery order;
        ``right_rows`` holds, per generator s, the row i -> index of e_i s."""
        self.degree, self.generators = degree, generators
        self.elements = elements = tuple(map(Perm._trusted, by_images))
        # element -> generator word, product read left to right; in discovery
        # order, so every non-empty word's prefix is the word of an earlier element
        self.words = dict(zip(map(elements.__getitem__, words), words.values()))
        self._by_images = by_images
        self._discovery = tuple(words)  # identity first
        self._right_rows = right_rows
        self._table_parts: tuple | None = None  # set by chars.character_table; no group in it

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"<FiniteGroup degree={self.degree} order={self.order}>"

    def exponent(self) -> int:
        """The lcm of the element orders, read off the conjugacy classes."""
        return math.lcm(*(c.order for c in conjugacy_classes(self)))

    def is_abelian(self) -> bool:
        gens = [g.images for g in self.generators]
        return all(_compose(a, b) == _compose(b, a) for a in gens for b in gens)

    @cached_property
    def _empty_action(self) -> Rows:
        """The action on no cells, an empty row for every element, kept once per group."""
        return ((),) * self.order

    @cached_property
    def _conjugation_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per generator s, the row i -> index of s^-1 e_i s over the element indices,
        four lookups each: s^-1 e s = (e^-1 s)^-1 s through the right row and the inverses."""
        by_images, points = self._by_images, range(self.degree)
        # the inverse's images sort the points by their images
        inv = [by_images[tuple(sorted(points, key=g.images.__getitem__))] for g in self.elements]
        return tuple(tuple(map(r.__getitem__, map(inv.__getitem__, map(r.__getitem__, inv))))
                     for r in self._right_rows)

    @cached_property
    def _word_tree(self) -> tuple[tuple[int, int, int], ...]:
        """(i, parent, s) with e_i = e_parent * generator s for every element
        but the identity, read off the words in discovery order: parents first."""
        by_word: dict[tuple[int, ...], int] = {}
        tree = []
        for i, w in zip(self._discovery, self.words.values()):
            by_word[w] = i
            if w:
                tree.append((i, by_word[w[:-1]], w[-1]))
        return tuple(tree)

    def _walk(self, x: int, rows: Sequence[Sequence[int]]) -> list[int]:
        """c[i] = rows[s][c[parent]] down the word tree, from c = x at the identity.
        Through the right rows c[i] is the index of e_x e_i: e_x (y s) = (e_x y) s."""
        c = [x] * self.order
        for i, parent, s in self._word_tree:
            c[i] = rows[s][c[parent]]
        return c

    def _conjugates(self, x: int) -> list[int]:
        """c[i] is the index of e_i^-1 e_x e_i, walked down the word tree:
        (y s)^-1 e_x (y s) = s^-1 (y^-1 e_x y) s is one conjugation-row lookup."""
        return self._walk(x, self._conjugation_rows)

    @cached_property
    def _cyclic_subgroups(self) -> dict[int, tuple[int, ...]]:
        """Each element index mapped to the cyclic subgroup it generates: the
        indices of the powers of its least generator (position k holds the
        k-th power), one tuple per subgroup, whose powers are taken once."""
        subs: dict[int, tuple[int, ...]] = {}
        # elements are sorted, so the first generator met is the least
        for i, g in enumerate(self.elements):
            if i not in subs:
                pw = tuple(map(self._by_images.__getitem__, _power_images(g.images)))
                subs.update((x, pw) for k, x in enumerate(pw) if math.gcd(k, len(pw)) == 1)
        return subs

    @cached_property
    def _conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        seen, classes = set(), []
        for i, seed in enumerate(self.elements):
            if i in seen:
                continue
            # elements are sorted, so the first one not yet seen is its class's least
            members = sorted(orbit([i], self._conjugation_rows, lambda x, row: row[x]))
            classes.append(ConjugacyClass(seed, tuple(map(self.elements.__getitem__, members)),
                                          seed.order()))
            seen.update(members)
        classes.sort(key=lambda c: (c.order, c.representative.images))
        return tuple(classes)

    @cached_property
    def _cyclic_classes(self) -> tuple[tuple[CyclicClass, ...], dict]:
        """The classes of cyclic subgroups, canonically ordered, and the map
        from each cyclic subgroup, as _cyclic_subgroups gives it, to its class."""
        subs, class_of, classes, elems = self._cyclic_subgroups, {}, [], self.elements
        everything, ones = tuple(range(self.order)), (1,) * self.order
        # element-index sets sort as their sorted image tuples do, so the first one
        # not yet seen is the least of its conjugacy class
        for pw in sorted(dict.fromkeys(subs.values()), key=sorted):
            if pw in class_of:
                continue
            m, g = len(pw), pw[1 % len(pw)]
            if central := all(row[g] == g for row in self._conjugation_rows):
                # central: the normalizer is G and every exponent 1, with no walk
                N, exps, conjugates = everything, ones, (pw,)
            else:
                # c[i] = e_i^-1 g e_i generates a conjugate, and is g^a for e_i in N
                c = self._conjugates(g)
                a_of = {pw[k]: k for k in range(1, m) if math.gcd(k, m) == 1}
                exps = tuple(map(a_of.get, c, itertools.repeat(0)))
                N = tuple(itertools.compress(everything, exps))
                conjugates = map(subs.__getitem__, c)
            classes.append(CyclicClass(elems[g], m, tuple(map(elems.__getitem__, pw)), N, exps,
                                       elems, central))
            class_of.update(dict.fromkeys(conjugates, classes[-1]))
        classes.sort(key=lambda c: (c.order, c.generator.images))
        return tuple(classes), class_of


@record
class ConjugacyClass:
    """One conjugacy class of group elements."""

    representative: Perm
    members: tuple[Perm, ...]
    order: int

    @property
    def size(self) -> int:
        return len(self.members)


@record
class Subgroup(_ElementList):
    """A subgroup given by its element subset inside a group of this degree,
    with a FiniteGroup's ``generators``; it keeps no reference to the group,
    so the classes cached on a group form no cycle."""

    degree: int
    elements: tuple[Perm, ...]

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        return reduce_generators(self.elements, self.degree)


@record
class CyclicClass:
    """A conjugacy class of cyclic subgroups, with canonical generator g, on its
    group's element indices: the normalizer N's, in order, and a row over all
    holding the unit a (mod the order) with n^-1 g n = g^a at n in N, 0 elsewhere.
    ``central`` records that g commutes with every generator, so N is G and every a
    is 1.  N as a Subgroup is built on first read.  decomp.conjugation_kernel keeps
    the centralizer's positions in N and the number of N's orbits on the injective
    characters with it, on first use (None until then)."""

    generator: Perm
    order: int
    subgroup_elements: tuple[Perm, ...]  # powers g^0 .. g^(m-1)
    normalizer_indices: tuple[int, ...]
    exponent_row: tuple[int, ...] = field(repr=False, compare=False)
    group_elements: tuple[Perm, ...] = field(repr=False, compare=False)
    central: bool = field(default=False, compare=False)
    _kernel: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _centralizers: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def normalizer(self) -> Subgroup:
        N, elems = self.normalizer_indices, self.group_elements
        return Subgroup(self.generator.degree,
                        elems if len(N) == len(elems) else tuple(map(elems.__getitem__, N)))


def orbit(seeds: Iterable[Hashable], gens: Sequence[Any],
          act: Callable[[Any, Any], Hashable], *,
          cap: int | None = None) -> dict[Any, tuple[int, ...]]:
    """Close the seeds under the generators, breadth first.

    ``act(x, g)`` is the image of the point x under the generator g.  Each
    level visits its points in discovery order and each point the generators
    in order, so the result is deterministic: a dict, in discovery order,
    from each point reached to its word, the indices of the generators that
    lead to it from a seed (seeds have the empty word).  With ``cap``, more
    than that many points raise GroupTooLargeError.
    """
    words = dict.fromkeys(seeds, ())
    frontier = list(words)
    while frontier:
        nxt = []
        for x in frontier:
            w = words[x]
            for i, g in enumerate(gens):
                y = act(x, g)
                if y not in words:
                    if cap is not None and len(words) >= cap:
                        raise GroupTooLargeError(f"closure exceeds element cap {cap}")
                    words[y] = w + (i,)
                    nxt.append(y)
        frontier = nxt
    return words


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of a * b, from those of a and b."""
    return tuple(map(a.__getitem__, b))


def _power_images(g: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The image tuples of g^0, g^1, ..., g^(m-1), m the order of g."""
    out = [tuple(range(len(g)))]
    while (x := _compose(out[-1], g)) != out[0]:
        out.append(x)
    return out


def powers(g: Perm) -> tuple[Perm, ...]:
    """The powers g^0, g^1, ..., g^(m-1) of g, m its order."""
    return tuple(map(Perm._trusted, _power_images(g.images)))


def generate_group(degree: int, generators: Sequence[Perm]) -> FiniteGroup:
    """Close a generating set under composition and return the full group.

    Elements are sorted lexicographically on image tuples; each element also
    receives a word in the generators (used to transport actions on models),
    and the closure's products x s become the group's right-multiplication rows.
    """
    if degree > DEGREE_CAP:
        raise GroupTooLargeError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    gens = tuple(generators)
    for i, g in enumerate(gens):
        if not isinstance(g, Perm):
            raise NonBijectionError(f"generator {i} is not a permutation")
        if g.degree != degree:
            raise NonBijectionError(f"generator {i} has degree {g.degree}, expected {degree}")

    products: list[tuple[int, ...]] = []

    def right(x: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
        products.append(y := _compose(x, s))
        return y

    closed = orbit([tuple(range(degree))], [g.images for g in gens], right, cap=ELEMENT_CAP)
    found = list(closed)
    first = sorted(range(len(found)), key=found.__getitem__)  # discovery position, sorted
    by_images = {found[k]: i for i, k in enumerate(first)}
    # per generator s, the row i -> index of e_i s, read off the closure's products
    k = len(gens)
    rows = tuple(tuple(map(by_images.__getitem__, map(products[s::k].__getitem__, first)))
                 for s in range(k))
    words = dict(zip(map(by_images.__getitem__, found), closed.values()))
    return FiniteGroup(degree, gens, by_images, words, rows)


def reduce_generators(elements: Sequence[Perm], degree: int) -> tuple[Perm, ...]:
    """Greedily pick a small generating subset of a closed element list."""
    ident = tuple(range(degree))
    chosen, closure = [], {ident}
    for g in sorted(elements):
        if g.images not in closure:
            chosen.append(g)
            closure = orbit([ident], [x.images for x in chosen], _compose)
            if len(closure) == len(elements):
                break
    return tuple(chosen)


def conjugacy_classes(G: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    """Partition the group into conjugacy classes, canonically ordered."""
    return G._conjugacy_classes


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the prime bases up to 37 are exact below 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        squares = [x] + [x := x * x % n for _ in range(s - 1)]  # b^d .. b^(d 2^(s-1))
        if squares[0] != 1 and n - 1 not in squares:
            return False
    return True


def check_characteristic(p: int) -> None:
    """Raise BadCharacteristicError unless p is 0 or a prime below 2^64."""
    if p >= 1 << 64:
        raise BadCharacteristicError(f"characteristic {p} is not below 2^64")
    if p != 0 and not _is_prime(p):
        raise BadCharacteristicError(f"characteristic {p} is neither 0 nor a prime")


def cyclic_subgroup_classes(G: FiniteGroup, p: int = 0) -> tuple[CyclicClass, ...]:
    """Conjugacy classes of cyclic subgroups whose order is prime to p.

    ``p = 0`` keeps every order.  The trivial subgroup is always included.
    All classes are computed once per group; p drops whole ones, in order.
    """
    check_characteristic(p)
    return tuple(c for c in G._cyclic_classes[0] if p == 0 or c.order % p != 0)


def centralizer(G: FiniteGroup, h: Perm) -> Subgroup:
    """All g commuting with h, that is g^-1 h g = h, walked down the word tree."""
    if h not in G:
        raise NotASubgroupError("element is not in the group")
    x = G.index[h]
    return Subgroup(G.degree, tuple(g for g, y in zip(G.elements, G._conjugates(x)) if y == x))


def conjugation_exponent(n: Perm, c: CyclicClass) -> int:
    """The unit a (mod the subgroup order) with n^-1 g n = g^a for the canonical
    generator g, as recorded at n's index in the exponent row."""
    if c.order == 1:
        return 1
    i = bisect.bisect_left(c.group_elements, n)
    a = c.exponent_row[i] if c.group_elements[i:i + 1] == (n,) else 0
    if a == 0:
        raise NotInNormalizerError(f"{n.cycle_string()} does not normalize the subgroup")
    if math.gcd(a, c.order) != 1:
        raise NotInNormalizerError("conjugation did not map the generator to a generator")
    return a


def _count_orbits(rows: Sequence[Sequence[int]], cells: Sequence[int] | None = None,
                  gens: Rows | None = None, stab: Sequence[int] | None = None) -> int:
    """The number of orbits of a group, given as one image row per element, on
    ``cells`` (cells the rows preserve; all by default), checked by the Burnside
    average.  The rows must be an action checked where it was built, one row for every
    element: then a cell's column, its image under every row, is its whole orbit.  An
    unseen cell starts an orbit and marks its column seen; the column's entries equal
    to the cell add to Burnside's total.  Given the generators' rows ``gens`` and
    ``stab``, each cell's number of fixing rows, the orbits are closed under ``gens``
    and Burnside's total is stab summed over them: neither reads ``rows``."""
    cells = range(len(rows[0])) if cells is None else cells
    seen, orbits, fixed = set(), 0, 0
    if gens is not None:
        for x in cells:
            if x not in seen:
                orbits += 1
                seen.update(orbit([x], gens, lambda y, row: row[y]))
        fixed = sum(map(stab.__getitem__, cells))
    else:
        for x in cells:
            column = tuple(map(itemgetter(x), rows))
            if x not in seen:
                orbits += 1
                seen.update(column)
            fixed += column.count(x)
    check("perms.burnside", fixed == orbits * len(rows),
          "Burnside average {}/{} disagrees with orbit count {}", fixed, len(rows), orbits)
    return orbits


# ---------------------------------------------------------------------------
# Named families, used by tests, the verification suite and documentation.

def trivial_group() -> FiniteGroup:
    return generate_group(1, [])


def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return trivial_group()
    return generate_group(n, [Perm([(i + 1) % n for i in range(n)])])


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return trivial_group()
    cycle = Perm([(i + 1) % n for i in range(n)])
    swap = Perm.from_cycles(n, [(0, 1)])
    return generate_group(n, [swap, cycle] if n > 2 else [swap])


def alternating_group(n: int) -> FiniteGroup:
    if n <= 2:
        return trivial_group()
    gens = [Perm.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return generate_group(n, gens)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n."""
    if n == 1:
        return generate_group(2, [Perm([1, 0])])
    if n == 2:
        return generate_group(4, [Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    rot = Perm([(i + 1) % n for i in range(n)])
    ref = Perm([(-i) % n for i in range(n)])
    return generate_group(n, [rot, ref])


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 in its left-regular representation:
    1, -1, i, -i, j, -j, k, -k are the points 0..7, and the generators are
    left multiplication by i and by j."""
    return generate_group(8, [Perm.from_cycles(8, [(0, 2, 1, 3), (4, 6, 5, 7)]),
                              Perm.from_cycles(8, [(0, 4, 1, 5), (2, 7, 3, 6)])])


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H acting on the disjoint union of the two point sets, its generators
    G's then H's.  Element i |H| + j is (g_i, h_j), whose image tuple is g_i's
    followed by h_j's shifted past G's points, so the index order is the sorted
    order; every table is read off the factors' by index arithmetic, and the
    closure runs on indices, giving generate_group's words in its discovery order."""
    degree, nG, nH = G.degree + H.degree, G.order, H.order
    if degree > DEGREE_CAP:
        raise GroupTooLargeError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    if nG * nH > ELEMENT_CAP:
        raise GroupTooLargeError(f"closure exceeds element cap {ELEMENT_CAP}")
    shifted = [tuple(x + G.degree for x in h.images) for h in H.elements]
    images = [g.images + h for g in G.elements for h in shifted]
    # (g_i, 1) is at i |H| and (1, h_j) at j: the identity is each factor's first element
    at = ([G._by_images[g.images] * nH for g in G.generators]
          + [H._by_images[h.images] for h in H.generators])
    gens = tuple(Perm._trusted(images[k]) for k in at)

    # g_i's indices i |H| + j, and i |H| at each of them
    blocks = [range(s, s + nH) for s in range(0, nG * nH, nH)]
    starts = [block.start for block in blocks for _ in block]

    def lift(g_rows, h_rows):
        # a row r of G sends i |H| + j to r[i] |H| + j, a row of H to i |H| + r[j]
        return tuple(tuple(itertools.chain.from_iterable(map(blocks.__getitem__, r)))
                     for r in g_rows) + tuple(tuple(map(add, starts, r * nG)) for r in h_rows)

    rows = lift(G._right_rows, H._right_rows)
    GH = FiniteGroup(degree, gens, dict(zip(images, range(nG * nH))),
                     orbit([0], rows, lambda x, row: row[x]), rows)
    # the two cached properties, prefilled from the factors' tables
    GH.__dict__["_conjugation_rows"] = lift(G._conjugation_rows, H._conjugation_rows)
    # (g_i, h_j)^u = (g_i^u, h_j^u), from each factor element's own powers; the
    # first element not yet met generates its subgroup, as in _cyclic_subgroups
    own_G, own_H, subs = _own_powers(G), _own_powers(H), {}
    for x in range(nG * nH):
        if x not in subs:
            a, b = own_G[x // nH], own_H[x % nH]
            m = math.lcm(len(a), len(b))
            pw = tuple(map(add, map(nH.__mul__, a * (m // len(a))), b * (m // len(b))))
            subs.update((y, pw) for u, y in enumerate(pw) if math.gcd(u, m) == 1)
    GH.__dict__["_cyclic_subgroups"] = subs
    return GH


def _own_powers(G: FiniteGroup) -> dict[int, list[int]]:
    """Each element index mapped to the indices of its own powers e^0 .. e^(m-1):
    e is pw[k] in its cyclic subgroup's powers pw, so e^u = pw[u k mod m]."""
    own = {}
    for x, pw in G._cyclic_subgroups.items():
        m, k = len(pw), pw.index(x)
        own[x] = [pw[u * k % m] for u in range(m)]
    return own
