"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's own code paths: raw image tuples,
repeated-pass closures and all-pairs scans only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[x] for x in b)


def invert(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def closure(degree: int, gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Fixed-point iteration: multiply all pairs until nothing new appears."""
    elems = {tuple(range(degree))} | set(gens)
    while True:
        new = {compose(a, b) for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def direct_product_elements(factors: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Every element of the direct product of the factors, each given by all its
    image tuples, acting on the disjoint union of their points in order."""
    shifted, offset = [], 0
    for elems in factors:
        shifted.append([tuple(x + offset for x in g) for g in elems])
        offset += len(elems[0])
    return [sum(parts, ()) for parts in product(*shifted)]


def cyclic_normalizer_orders(elems, gens) -> list[int]:
    """For each g in gens, the order of the normalizer of <g> in the group elems:
    a scan of every x, which normalizes <g> iff x g x^-1 lies in <g> (conjugation
    keeps the order).  Each x g x^-1 is two itemgetter calls, so the degree must be
    at least 2 for them to return tuples."""
    elems = list(elems)
    inverses = [itemgetter(*invert(x)) for x in elems]
    out = []
    for g in gens:
        sub, x = {tuple(range(len(g)))}, g
        while x not in sub:
            sub.add(x)
            x = compose(x, g)
        conjugates = map(lambda inv, xg: inv(xg), inverses, map(itemgetter(*g), elems))
        out.append(sum(map(sub.__contains__, conjugates)))
    return out


def conj_classes(elems: set[tuple[int, ...]]) -> list[set[tuple[int, ...]]]:
    """Partition by the all-pairs conjugation relation."""
    left = set(elems)
    out = []
    while left:
        g = next(iter(left))
        cls = {compose(compose(x, g), invert(x)) for x in elems}
        out.append(cls)
        left -= cls
    return out


def elem_order(a: tuple[int, ...]) -> int:
    ident = tuple(range(len(a)))
    x, n = a, 1
    while x != ident:
        x = compose(x, a)
        n += 1
    return n


def cyclic_subgroups(elems: set[tuple[int, ...]]) -> set[frozenset[tuple[int, ...]]]:
    out = set()
    for g in elems:
        sub = {tuple(range(len(g)))}
        x = g
        while x not in sub:
            sub.add(x)
            x = compose(x, g)
        out.add(frozenset(sub))
    return out


def subgroup_conj_classes(elems, subgroups):
    """Partition a set of subgroups by conjugacy inside the full element set."""
    left = set(subgroups)
    out = []
    while left:
        s = next(iter(left))
        cls = {frozenset(compose(compose(x, t), invert(x)) for t in s) for x in elems}
        out.append(cls)
        left -= cls
    return out


def maximal_cyclic_class_count(elems: set[tuple[int, ...]]) -> int:
    """The number of conjugacy classes of cyclic subgroups contained in no
    larger cyclic subgroup."""
    subs = cyclic_subgroups(elems)
    maximal = {s for s in subs if not any(s < t for t in subs)}
    return len(subgroup_conj_classes(elems, maximal))


def orbits(elems, action, points: int) -> list[set[int]]:
    """Flood fill orbits of an action given as a callable (images, point) -> point."""
    left = set(range(points))
    out = []
    while left:
        p = next(iter(left))
        orb = {action(g, p) for g in elems}
        changed = True
        while changed:
            bigger = {action(g, q) for g in elems for q in orb}
            changed = not bigger <= orb
            orb |= bigger
        out.append(orb)
        left -= orb
    return out


def burnside(elems, action, points: int) -> Fraction:
    total = sum(sum(1 for p in range(points) if action(g, p) == p) for g in elems)
    return Fraction(total, len(elems))


def quotient_ranks(X) -> dict[int, int]:
    """The coarse quotient motive h(X)^G by its definition: per cell dimension,
    the number of orbits of every group element, acting through X.action_of,
    on that dimension's cells (X.cells, the k-th of dimension X.dims[k])."""
    acts = {g: X.action_of(g) for g in X.group.elements}
    out = {}
    for d in sorted(set(X.dims)):
        cells = [c for c, e in zip(X.cells, X.dims) if e == d]
        pos = {c: i for i, c in enumerate(cells)}
        out[d] = len(orbits(X.group.elements, lambda g, i: pos[acts[g](cells[i])], len(cells)))
    return out


def refined_ranks(X, p: int) -> dict[int, int]:
    """The character-refined motive of a point-set model by its definition: per
    class of cyclic subgroups c = <g> of order prime to p, the orbits of its
    normalizer N on Fix(g) x (the injective characters of c), where n sends the
    pair (x, j) to (n(x), j a) with n^-1 g n = g^a, each orbit closed by repeated
    passes; summed per twist, zero ranks dropped.  Subgroups, classes,
    normalizers and exponents come from all-pairs scans of X.group's images."""
    acts = {g.images: X.action_of(g).images for g in X.group.elements}
    elems = set(acts)
    out: dict[int, int] = {}
    for cls in subgroup_conj_classes(elems, cyclic_subgroups(elems)):
        sub = min(cls, key=sorted)
        m = len(sub)
        if p and m % p == 0:
            continue
        g = next(x for x in sub if elem_order(x) == m)
        powers = [tuple(range(len(g)))]
        while len(powers) < m:
            powers.append(compose(powers[-1], g))
        exponent = {n: powers.index(compose(compose(invert(n), g), n)) for n in elems
                    if compose(compose(invert(n), g), n) in sub}
        units = units_mod(m)
        for d in set(X.dims):
            fixed = [x for x, e in enumerate(X.dims) if e == d and acts[g][x] == x]
            pairs = [(x, j) for x in fixed for j in units]
            pos = {pair: i for i, pair in enumerate(pairs)}

            def act(n, i, pairs=pairs, pos=pos, m=m):
                x, j = pairs[i]
                return pos[(acts[n][x], j * exponent[n] % m)]

            out[d] = out.get(d, 0) + len(orbits(list(exponent), act, len(pairs)))
    return {d: r for d, r in out.items() if r}


def units_mod(m: int) -> list[int]:
    if m == 1:
        return [0]
    return [j for j in range(1, m) if math.gcd(j, m) == 1]


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod_cyclotomic_naive(coeffs: list[Fraction], e: int) -> list[Fraction]:
    """Reduce a polynomial in zeta_e using only zeta^e = 1 and the full
    power-sum relation, via linear algebra over the complex embedding check
    being avoided: instead reduce against the naive product formula for the
    cyclotomic polynomial computed by root counting."""
    phi = cyclotomic_poly_naive(e)
    coeffs = list(coeffs)
    d = len(phi) - 1
    while len(coeffs) > d:
        lead = coeffs.pop()
        if lead:
            for i in range(d):
                coeffs[len(coeffs) - d + i] -= lead * phi[i]
    while len(coeffs) < d:
        coeffs.append(Fraction(0))
    return coeffs


@lru_cache(maxsize=None)
def cyclotomic_poly_naive(e: int) -> tuple[Fraction, ...]:
    """Phi_e by dividing x^e - 1 by the product of all lower Phi_d."""
    if e == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (e + 1)
    num[0], num[e] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, e):
        if e % d == 0:
            den = poly_mul(den, cyclotomic_poly_naive(d))
    # exact polynomial division num / den
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den) - 1] / den[-1]
        out[i] = c
        for j, dv in enumerate(den):
            rem[i + j] -= c * dv
    assert all(r == 0 for r in rem)
    return tuple(out)


def per_class_lift(chi_q, powers, e: int, q: int, theta: int, deg: int) -> list[Fraction]:
    """A character value at g from its values mod q, one class at a time:
    powers[j] is the class of g^j, m = len(powers) the order of g, theta an
    element of order e in F_q.  Each eigenvalue multiplicity of g is an inverse
    DFT of length m against theta^(e/m); their polynomial in zeta_m, reduced
    modulo Phi_m, gives the power-basis coefficients at conductor m."""
    m = len(powers)
    root_inv = pow(theta, -(e // m), q)
    inv_powers = [pow(root_inv, u, q) for u in range(m)]
    mults = [sum(chi_q[c] * inv_powers[j * t % m] for j, c in enumerate(powers))
             * pow(m, -1, q) % q for t in range(m)]
    if max(mults) > deg or sum(mults) != deg:
        raise ValueError(f"multiplicities {mults} do not make up degree {deg}")
    return poly_mod_cyclotomic_naive([Fraction(x) for x in mults], m)


def perm_char_fixed_points(images: tuple[int, ...]) -> int:
    return sum(1 for i, x in enumerate(images) if i == x)


def all_maps(n: int, k: int):
    """Every total map {0..n-1} -> {0..k-1}."""
    return product(range(k), repeat=n)
