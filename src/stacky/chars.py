"""Character tables of finite groups and the representation ring.

Tables are computed by the classical prime-field method (Dixon 1967, as
revised by Schneider 1990): class-algebra structure constants, counted on
element indices with one word-tree walk per class and kept mod q as sparse
rows of nonzero (column, value) pairs, since sum |C_i| = |G| leaves most of
them zero; simultaneous eigenvectors over F_q with q = 1 mod exp(G) and
q > 2*sqrt(|G|), each invariant subspace split at the roots of one
characteristic polynomial, which a division-free Hessenberg recurrence gives
in any characteristic, and each checked against every class-sum matrix; then
exact cyclotomic values, lifted once per covering cyclic subgroup.  Walking
the classes by decreasing order, a representative g whose class no earlier
lift reached has its eigenvalue multiplicities taken by an inverse discrete
Fourier transform of length m = ord(g) against theta^(exp(G)/m), theta a fixed
element of order exp(G) in F_q; every class of a power g^j gets its value from
them at its own order m/gcd(j, m).  Abelian groups take a direct fast path.
Every produced table is verified against the orthogonality identity
X diag(|C|) conj(X)^T = |G| I before it is returned.

The orthogonality check and the exact pairings run on the integer kernel of
stacky.cyclo: a table's rows are converted once, and kept with it, to integer
exponent vectors over zeta_e; conjugation negates exponents, and each inner
product is reduced modulo Phi_e and divided by |G| once.  Rows hold plain
Cyclotomic values, with no arithmetic.  One table is kept per group, as
group-free parts stored on it.  Ring constants of such a verified table come
mod a prime q = 1 mod e, q > 2|G|, and are checked by the exact pointwise
identity chi_i chi_j = sum_k n_k chi_k on every class, and kept with the
table's parts, so once per group; a table built by hand, or a pair that fails,
takes exact pairings.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from ._record import field, record
from .cyclo import Cyclotomic, _exponent_vector, _reduce_exponents
from .errors import NonIntegralConstantError, NotRationalError, check
from .perms import (
    ConjugacyClass,
    FiniteGroup,
    _compose,
    conjugacy_classes,
    orbit,
    powers,
    reduce_generators,
    _is_prime,
)

@record
class CharacterTable:
    """Irreducible characters of a finite group, one row per character."""

    group: FiniteGroup
    classes: tuple[ConjugacyClass, ...]
    rows: tuple[tuple[Cyclotomic, ...], ...]
    degrees: tuple[int, ...]
    # the rows on the integer kernel, kept by character_table; None if built by hand
    kernel: _KernelRows | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.rows)


@record
class RepresentationRing:
    """Tensor-product structure constants over a character table.

    constants[i][j][k] is the multiplicity of the k-th irreducible inside
    the product of the i-th and j-th ones.
    """

    table: CharacterTable
    constants: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return self.table.rank


def character_table(G: FiniteGroup) -> CharacterTable:
    """The full character table, rows canonically ordered (trivial row first,
    the rest by degree then by lexicographic value tuple), built once per group."""
    parts = G._table_parts or _table_parts(G)
    table = CharacterTable(G, *parts[:3])
    object.__setattr__(table, "kernel", parts[3])  # its rows, in table order
    if G._table_parts is None:
        _verify_table(table)
        G._table_parts = parts
    return table


def _table_parts(G: FiniteGroup) -> tuple:
    """(classes, rows, degrees, kernel) of G's table, before verification."""
    classes = conjugacy_classes(G)
    raw_rows = (_abelian_characters if G.is_abelian() else _prime_field_characters)(G, classes)

    ident_idx = next(i for i, c in enumerate(classes) if c.order == 1)
    decorated = []
    for row in raw_rows:
        value = row[ident_idx]
        deg = value.coeffs[0]
        check("chars.degree_positive", value.is_rational() and deg.denominator == 1 and deg > 0,
              "character degree {} is not a positive integer", value)
        decorated.append((int(deg), row))
    # the reduced power basis is unique: a value is 1 exactly when its
    # coefficients are (1, 0, ..., 0)
    trivial = [i for i, (deg, row) in enumerate(decorated)
               if deg == 1 and all(v.coeffs[0] == 1 and not any(v.coeffs[1:]) for v in row)]
    check("chars.trivial_character", len(trivial) == 1, "trivial character not found exactly once")
    # order by degree, then by the values' power-basis coefficients at
    # conductor exp(G), the lcm of the class orders, read off the integer
    # kernel over one common denominator
    K = _KernelRows([row for _, row in decorated])
    keys = [(deg, tuple(tuple(_reduce_exponents(v, K.conductor)) for v in vecs))
            for (deg, _), vecs in zip(decorated, K.vecs)]
    order = trivial + sorted((i for i in range(len(decorated)) if i != trivial[0]),
                             key=keys.__getitem__)
    rows = tuple(tuple(decorated[i][1]) for i in order)
    degrees = tuple(decorated[i][0] for i in order)
    K.vecs, K.conductors = [K.vecs[i] for i in order], [K.conductors[i] for i in order]
    return classes, rows, degrees, K


def rep_ring(T: CharacterTable) -> RepresentationRing:
    """Structure constants of the representation ring, fully verified: mod q on
    a table character_table built, else (and where that fails) by exact pairings.
    A built table's constants are kept with its kernel rows and computed once."""
    r, K, d = T.rank, T.kernel or _KernelRows(T.rows), T.degrees
    if K.constants is not None:
        return RepresentationRing(T, K.constants)
    e, den, order, sizes = K.conductor, K.den, T.group.order, [c.size for c in T.classes]
    q = _choose_prime(e, order * order)  # q > 2|G| > every d_i d_j
    if mod_q := T.kernel is not None and den % q != 0:
        theta, unit, per_g = _element_of_order(q, e), pow(den, -1, q), pow(order, -1, q)
        th = [pow(theta, a, q) * unit % q for a in range(e)]  # zeta_e^a / den
        val = [[sum(u * th[a] for a, u in x) % q for x in row] for row in K.vecs]
        bar = [[sum(u * th[-a] for a, u in x) * s * per_g % q for x, s in zip(row, sizes)]
               for row in K.vecs]  # |C| conj(chi) / |G|
    constants = [[()] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            # chi_i * chi_j on every class: exponents add
            prod = []
            for x, y in zip(K.vecs[i], K.vecs[j]):
                terms: dict[int, int] = {}
                for a, u in x:
                    for b, w in y:
                        k = (a + b) % e
                        terms[k] = terms.get(k, 0) + u * w
                prod.append(tuple(terms.items()))
            p = mod_q and [x * y for x, y in zip(val[i], val[j])]
            coeffs = p and [sum(map(operator.mul, p, b)) % q for b in bar]
            if (not coeffs or any(n * dk > d[i] * d[j] for n, dk in zip(coeffs, d))
                    or _first_miss(prod, coeffs, K) is not None):
                coeffs = []
                for k in range(r):
                    n = _rational_value(_pairing(sizes, prod, K.vecs[k], e), e, order * den ** 3,
                                        math.lcm(*(K.conductors[t] for t in (i, j, k))))
                    if n.denominator != 1 or n < 0:
                        raise NonIntegralConstantError(
                            f"constant for ({i},{j},{k}) is {n}, not a nonnegative integer")
                    coeffs.append(int(n))
                if (c := _first_miss(prod, coeffs, K)) is not None:
                    raise NonIntegralConstantError(
                        f"product of rows {i},{j} does not re-expand on class {c}")
            # chi_i * chi_j = chi_j * chi_i exactly, so (j, i) repeats (i, j)
            constants[i][j] = constants[j][i] = tuple(coeffs)
    K.constants = tuple(tuple(row) for row in constants)
    return RepresentationRing(T, K.constants)


def _first_miss(prod, coeffs, K) -> int | None:
    """The first class on which chi_i * chi_j = sum_k n_k chi_k fails, if any."""
    terms = [(-K.den * n, v) for n, v in zip(coeffs, K.vecs) if n]
    for c, p in enumerate(prod):
        diff = [*p, *((a, m * u) for m, v in terms for a, u in v[c])]
        if any(_reduce_exponents(diff, K.conductor)):
            return c


def _verify_table(T: CharacterTable) -> None:
    r = T.rank
    check("chars.row_count", r == len(T.classes), "row count differs from class count")
    check("chars.degree_squares", sum(d * d for d in T.degrees) == T.group.order,
          "degree squares do not sum to the group order")
    # X diag(|C|) conj(X)^T = |G| I; the matrix is Hermitian, so i <= j suffices
    K = T.kernel or _KernelRows(T.rows)
    sizes = [c.size for c in T.classes]
    scale = T.group.order * K.den ** 2
    for i in range(r):
        for j in range(i, r):
            acc = _pairing(sizes, K.vecs[i], K.vecs[j], K.conductor)
            n = _rational_value(acc, K.conductor, scale,
                                math.lcm(K.conductors[i], K.conductors[j]))
            check("chars.orthogonality", n == (1 if i == j else 0),
                  "rows {},{} fail orthogonality", i, j)


# ---------------------------------------------------------------------------
# Exact class-function arithmetic on the integer kernel of stacky.cyclo.

class _KernelRows:
    """Table rows converted once: per-class exponent vectors over zeta_e, e the
    lcm of every value's conductor, over one common denominator; and the ring
    constants, once rep_ring has verified them."""

    def __init__(self, rows: Sequence[Sequence[Cyclotomic]]):
        self.constants: tuple | None = None
        self.conductors = [math.lcm(*(v.conductor for v in row)) for row in rows]
        self.conductor = math.lcm(*self.conductors)
        flat, self.den = _exponent_vector([v for row in rows for v in row], self.conductor)
        width = len(rows[0]) if rows else 0
        self.vecs = [flat[i * width:(i + 1) * width] for i in range(len(rows))]


def _pairing(sizes, xs, ys, e: int) -> list[int]:
    """sum over classes of |class| * x * conj(y), unreduced: entry k is the
    integer coefficient of zeta_e^k.  Conjugation negates exponents."""
    acc = [0] * e
    for s, x, y in zip(sizes, xs, ys):
        for a, u in x:
            su = s * u
            for b, w in y:
                acc[(a - b) % e] += su * w
    return acc


def _rational_value(acc: list[int], e: int, scale: int, conductor: int) -> Fraction:
    """The value (sum_k acc[k] zeta_e^k) / scale, which must be rational.

    The reduction runs at ``conductor``, a divisor of e whose field holds
    every term: the lcm of the conductors of the values paired, which is the
    conductor the error message has always been rendered at.
    """
    step = e // conductor
    coeffs = _reduce_exponents(((k // step, c) for k, c in enumerate(acc) if c), conductor)
    if any(coeffs[1:]):
        total = Cyclotomic(conductor, (Fraction(c, scale) for c in coeffs))
        raise NotRationalError(f"inner product {total} is not rational")
    return Fraction(coeffs[0], scale)


# ---------------------------------------------------------------------------
# Abelian fast path: characters are homomorphisms into the exp(G)-th roots.

def _abelian_characters(G: FiniteGroup, classes) -> list[tuple[Cyclotomic, ...]]:
    e = G.exponent()
    gens = reduce_generators(G.elements, G.degree)
    orders = [g.order() for g in gens]

    # exponent vector of every element with respect to the reduced generators:
    # the generators commute, so it counts each generator in the element's word
    words = orbit([G.identity.images], [g.images for g in gens], _compose)
    vecs = {x: tuple(w.count(j) % o for j, o in enumerate(orders)) for x, w in words.items()}
    check("chars.abelian_words", len(vecs) == G.order,
          "generator words do not reach every element")

    # each character's values over the element indices, once; s(x g) = s(x) +
    # phase of g is checked through one right-multiplication row per generator
    rows = [[G._by_images[_compose(x.images, g.images)] for x in G.elements] for g in gens]
    phases_of: dict[tuple[int, ...], None] = {}
    for assignment in itertools.product(*(range(o) for o in orders)):
        phases = [(e // o) * t % e for o, t in zip(orders, assignment)]
        values = tuple(sum(v * p for v, p in zip(vecs[x.images], phases)) % e for x in G.elements)
        if all(values[k] == (values[i] + p) % e
               for row, p in zip(rows, phases) for i, k in enumerate(row)):
            phases_of[values] = None
    check("chars.abelian_count", len(phases_of) == G.order, "abelian character count mismatch")

    # each value is a root of unity zeta_m^k, m the order of the class; build
    # each distinct one once
    roots: dict[tuple[int, int], Cyclotomic] = {}
    rows = []
    for values in phases_of:
        row = []
        for c in classes:
            sg = values[G.index[c.representative]]
            step = e // c.order
            check("chars.abelian_root", sg % step == 0,
                  "zeta_{}^{} is no power of zeta_{}", e, sg, c.order)
            key = (c.order, sg // step)
            if key not in roots:
                roots[key] = Cyclotomic.zeta(*key)
            row.append(roots[key])
        rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# Prime-field route for nonabelian groups.

def _prime_field_characters(G: FiniteGroup, classes) -> list[tuple[Cyclotomic, ...]]:
    r, n, e = len(classes), G.order, G.exponent()
    sizes = [c.size for c in classes]
    a, class_of, inv_class = _class_sum_matrices(G, classes)
    ident_idx = class_of[G.index[G.identity]]

    q = _choose_prime(e, n)
    theta = _element_of_order(q, e)
    # each class-sum matrix mod q as sparse rows: (column, value) pairs, value != 0
    mats = [[[(j, x % q) for j, x in enumerate(row) if x % q] for row in M] for M in a]

    # covering cyclic subgroups: by decreasing order, the representative of each
    # class no earlier one's powers reach, with the class of each power g^j
    covering: list[list[int]] = []
    for i in sorted(range(r), key=lambda i: -classes[i].order):
        if not any(i in power_class for power_class in covering):
            covering.append([class_of[G.index[x]] for x in powers(classes[i].representative)])

    spaces = [[[1 if t == s else 0 for t in range(r)] for s in range(r)]]
    for i in range(r):
        if all(len(B) == 1 for B in spaces):
            break
        if i != ident_idx:  # the identity's class sum splits nothing
            spaces = [S for B in spaces for S in
                      ([B] if len(B) == 1 else _split_invariant_subspace(mats[i], B, q))]
    check("chars.eigen_splitting", len(spaces) == r and all(len(B) == 1 for B in spaces),
          "eigen splitting did not isolate all characters")

    rows = []
    for B in spaces:
        v, omega = B[0], []
        t = next(t for t in range(r) if v[t] != 0)
        for i in range(r):
            w = _matvec(mats[i], v, q)
            lam = w[t] * pow(v[t], -1, q) % q
            check("chars.joint_eigenvector", all((lam * v[s] - w[s]) % q == 0 for s in range(r)),
                  "joint eigenvector verification failed")
            omega.append(lam)

        denom = sum(omega[i] * omega[inv_class[i]] * pow(sizes[i], -1, q) for i in range(r)) % q
        d_sq = n % q * pow(denom, -1, q) % q
        deg = next((d for d in range(1, math.isqrt(n) + 1) if d * d % q == d_sq), None)
        check("chars.degree_found", deg is not None, "could not identify a character degree")
        chi_q = [deg * omega[i] % q * pow(sizes[i], -1, q) % q for i in range(r)]

        # a class two lifts reach gets the same exact value at its own order from both
        row: dict[int, Cyclotomic] = {}
        for power_class in covering:
            row.update(_lift_powers(chi_q, power_class, e, q, theta, deg))
        rows.append(tuple(row[i] for i in range(r)))
    return rows


def _class_sum_matrices(G: FiniteGroup, classes) -> tuple[list, list[int], list[int]]:
    """Per class C_i the matrix M_i[k][j] = #{x in C_i : x^-1 z_k in C_j}, z_k
    the representatives, of multiplication by its class sum on coefficient
    vectors; the class of each element index; and the class i* of inverses."""
    n, r = G.order, len(classes)
    members = [[G.index[g] for g in c.members] for c in classes]
    class_of = [-1] * n
    for i, ws in enumerate(members):
        for w in ws:
            class_of[w] = i
    # each element in exactly one class, before anything is inverted mod q
    check("chars.class_partition", sum(map(len, members)) == n and -1 not in class_of,
          "the listed classes do not partition the group")
    # x^-1 z_k is conjugate to z_k x^-1: M_i = counts[i*], counts[t][k][j] = #{w in C_t :
    # z_k w in C_j} from one row i -> index of z_k e_i per class, down the word tree
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, c in enumerate(classes):
        row = G._walk(G.index[c.representative], G._right_rows)
        for t, ws in enumerate(members):
            tally = counts[t][k]
            for w in ws:
                tally[class_of[row[w]]] += 1
    # z_i w = 1 only for w = z_i^-1, which lies in C_i*
    ident = class_of[G.index[G.identity]]
    inv_class = [next(t for t in range(r) if counts[t][i][ident]) for i in range(r)]
    return [counts[t] for t in inv_class], class_of, inv_class


def _lift_powers(chi_q, powers, e, q, theta, deg) -> dict[int, Cyclotomic]:
    """Exact values, at the class of every power of g, from mod-q character values.

    m = len(powers) is the order of g and powers[j] the class of g^j.  The
    multiplicity of g's eigenvalue zeta_m^t is an inverse DFT of length m against
    theta^(e/m), an element of order m in F_q.  g^j has the eigenvalues
    zeta_m^(t j) = zeta_m'^(t j/d) with the same multiplicities, d = gcd(j, m),
    so its value lies at conductor m' = m/d, the order of g^j.
    """
    m = len(powers)
    root_inv = pow(theta, -(e // m), q)
    inv_powers = [pow(root_inv, u, q) for u in range(m)]
    m_inv = pow(m, -1, q)
    vals = [chi_q[c] for c in powers]
    mults = []
    for t in range(m):
        acc = sum(v * inv_powers[j * t % m] for j, v in enumerate(vals))
        mk = acc % q * m_inv % q
        check("chars.multiplicity_bound", mk <= deg,
              "eigenvalue multiplicity {} exceeds degree {}", mk, deg)
        mults.append(mk)
    check("chars.multiplicity_sum", (total := sum(mults)) == deg,
          "lifted multiplicities sum to {}, not the degree {}", total, deg)
    values: dict[int, Cyclotomic] = {}
    for j, c in enumerate(powers):
        if c not in values:
            d = math.gcd(j, m)
            step, order = j // d, m // d
            values[c] = Cyclotomic(order, _reduce_exponents(
                ((t * step, mk) for t, mk in enumerate(mults)), order))
    return values


def _split_invariant_subspace(M, B, q) -> list[list[list[int]]]:
    """Split an M-invariant subspace (basis B) into eigenspaces of M over F_q,
    by increasing eigenvalue: the roots in 0..q-1 of the characteristic
    polynomial of M on the subspace, each evaluated by Horner's rule."""
    d = len(B)
    A = _coords_in_basis(B, [_matvec(M, b, q) for b in B], q)  # column s: M b_s in basis B
    poly, grouped, found = _charpoly(A, q), [], 0
    for lam in range(q):
        value = 0
        for c in poly:
            value = (value * lam + c) % q
        if value:
            continue
        shifted = [[(A[u][t] - (lam if u == t else 0)) % q for t in range(d)] for u in range(d)]
        kernel = _nullspace(shifted, q)
        grouped.append([
            [sum(coord[s] * B[s][t] for s in range(d)) % q for t in range(len(B[0]))]
            for coord in kernel])
        found += len(kernel)
        if found == d:
            break
    check("chars.diagonalizable", found == d, "invariant subspace is not diagonalizable")
    return grouped


def _charpoly(A, q) -> list[int]:
    """det(x I - A) over F_q, leading coefficient first.  A similarity brings A
    to upper Hessenberg form H; then p_m = det(x I - H_m), H_m the leading
    m x m block, follows from the earlier ones by expanding along column m.
    Nothing is divided by an integer, so every characteristic q will do."""
    d, H = len(A), [[x % q for x in row] for row in A]
    for m in range(1, d - 1):
        pivot = next((i for i in range(m, d) if H[i][m - 1]), None)
        if pivot is None:
            continue
        H[m], H[pivot] = H[pivot], H[m]  # swap rows, then columns, m and pivot
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        inv = pow(H[m][m - 1], -1, q)
        for i in range(m + 1, d):
            if u := H[i][m - 1] * inv % q:  # row i -= u row m, column m += u column i
                H[i] = [(x - u * y) % q for x, y in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % q
    p = [[1]]  # p[m], lowest coefficient first
    for m in range(d):
        # x p_m - sum over i <= m of H[i][m] H[i+1][i] ... H[m][m-1] p_i
        nxt, sub = [0] + p[m], 1
        for i in range(m, -1, -1):
            f = H[i][m] * sub % q
            for t, c in enumerate(p[i]):
                nxt[t] -= f * c
            sub = sub * H[i][i - 1] % q if i else 0
        p.append([c % q for c in nxt])
    return p[d][::-1]


def _matvec(M, v, q):
    """M v over F_q, M given as sparse rows of (column, value) pairs."""
    return [sum(x * v[j] for j, x in row) % q for row in M]


def _coords_in_basis(B, imgs, q):
    """Solve for each img as a combination of the basis vectors (consistent by invariance)."""
    d, n = len(B), len(B[0])
    aug = [[B[s][t] for s in range(d)] + [img[t] for img in imgs] for t in range(n)]
    pivots = _row_reduce(aug, d, q)
    check("chars.basis_rank", len(pivots) == d, "subspace basis is degenerate")
    A = [row[d:] for row in aug[:d]]  # the pivots are the columns 0..d-1, in order
    # consistency: rows beyond the pivots must be zero in the augmented part
    check("chars.invariant_subspace", not any(any(row[d:]) for row in aug[len(pivots):]),
          "subspace is not invariant")
    return A


def _row_reduce(rows, limit_cols, q):
    """In-place RREF over F_q on the first limit_cols columns; returns pivot columns."""
    pivots: list[int] = []
    for col in range(limit_cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and (f := rows[i][col] % q):
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return pivots


def _nullspace(M, q):
    """Basis of the kernel of a square matrix over F_q."""
    d, rows = len(M), [list(r) for r in M]
    pivots = _row_reduce(rows, d, q)
    basis = []
    for fc in (c for c in range(d) if c not in pivots):
        vec = [0] * d
        vec[fc] = 1
        for row, pc in enumerate(pivots):
            vec[pc] = (-rows[row][fc]) % q
        basis.append(vec)
    return basis


def _choose_prime(e: int, n: int) -> int:
    """Smallest prime q = 1 (mod e) with q > 2*sqrt(n)."""
    q = e + 1
    while True:
        if q * q > 4 * n and _is_prime(q):
            return q
        q += e if e > 1 else 1


def _element_of_order(q: int, e: int) -> int:
    """A fixed element of multiplicative order e in F_q (q = 1 mod e): the first
    (q-1)/e-th power of 2, 3, ... that has that order."""
    return next(t for t in (pow(g, (q - 1) // e, q) for g in range(2, q))
                if all(pow(t, k, q) != 1 for k in range(1, e)))
