"""Decomposition tests: inertia components, quotient motives, classifying
stacks, gerbes and orbifold curves, with dual-route cross-checks."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

import oracles
import stacky.decomp
import stacky.motives
import stacky.perms
from stacky.cli import load_document
from stacky.decomp import (
    GerbeDatum,
    bh_motive,
    character_indices,
    conjugation_kernel,
    cyclotomic_inertia,
    gerbe_motive,
    gerbe_rset,
    inertia,
    inertia_ranks_by_twist,
    inertial_quotient_motive,
    orbifold_curve_motive,
    product_with_point_model,
    quotient_motive,
)
from stacky.errors import BadOrderError, InternalError, NotAnAutomorphismError, ValidationError
from stacky.motives import Atom, EquivariantModel, FixedLocus, Motive, chow_dim
from stacky.perms import (
    Perm,
    alternating_group,
    conjugacy_classes,
    cyclic_group,
    cyclic_subgroup_classes,
    dihedral_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from stacky.verify import check_inertia_dimension
from test_kernel_reference import pairs_model, reference_exponents

ROOT = Path(__file__).resolve().parent.parent
NONCANONICAL_DOC = ROOT / "tests" / "golden" / "cli_docs" / "s4_cells_noncanonical.json"


def s3_on_points():
    S3 = symmetric_group(3)
    return EquivariantModel.hset(S3, 3, list(S3.generators))


def units(*pairs):
    return Motive.of([(Atom.unit(), t, m) for t, m in pairs])


def test_cyclotomic_inertia_s3_natural():
    comps = cyclotomic_inertia(s3_on_points(), 0)
    assert [c.cyclic.order for c in comps] == [1, 2, 3]
    assert [c.fixed_model.size for c in comps] == [3, 1, 0]
    # the transpositions swap the two injective characters of the 3-cycles
    assert [c.chars for c in comps] == [1, 1, 1]


def test_cyclotomic_inertia_trivial_group():
    T = trivial_group()
    X = EquivariantModel.hset(T, 4, [])
    comps = cyclotomic_inertia(X, 0)
    assert len(comps) == 1 and comps[0].fixed_model.size == 4


def test_cyclotomic_inertia_characteristic_filter():
    S3 = symmetric_group(3)
    X = EquivariantModel.point(S3)
    assert [c.cyclic.order for c in cyclotomic_inertia(X, 3)] == [1, 2]


def test_inertia_s3_natural():
    comps = inertia(s3_on_points(), 0)
    assert len(comps) == 3
    sizes = sorted((c.representative.order(), c.fixed_model.size) for c in comps)
    assert sizes == [(1, 3), (2, 1), (3, 0)]


def test_inertia_c2_point():
    C2 = cyclic_group(2)
    comps = inertia(EquivariantModel.point(C2), 0)
    assert len(comps) == 2
    for comp in comps:
        assert comp.fixed_model.size == 1
        assert comp.centralizer.order == 2


def test_inertia_counts_element_classes():
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6),
              alternating_group(4)):
        X = EquivariantModel.point(G)
        for p in (0, 2, 3):
            comps = inertia(X, p)
            from stacky.perms import conjugacy_classes
            expected = sum(1 for c in conjugacy_classes(G)
                           if p == 0 or c.order % p != 0)
            assert len(comps) == expected
            for comp in comps:
                assert all(z * comp.representative == comp.representative * z
                           for z in comp.centralizer.elements)


def test_quotient_motive_examples():
    assert quotient_motive(s3_on_points()) == Motive.point()
    C2 = cyclic_group(2)
    free = EquivariantModel.hset(C2, 2, [Perm([1, 0])])
    assert quotient_motive(free) == Motive.point()
    T = trivial_group()
    cells = EquivariantModel(T, (0, 1), [], kind="cells")
    assert quotient_motive(cells) == units((0, 1), (1, 1))


def test_inertial_quotient_s3():
    res = inertial_quotient_motive(s3_on_points(), 0)
    assert res.motive == units((0, 2))
    assert res.trivial_component() == quotient_motive(s3_on_points())


def test_inertial_quotient_free_action():
    C2 = cyclic_group(2)
    free = EquivariantModel.hset(C2, 2, [Perm([1, 0])])
    res = inertial_quotient_motive(free, 0)
    assert res.motive == quotient_motive(free) == Motive.point()


def test_mu3_on_p1_dual_route():
    C3 = cyclic_group(3)
    g = C3.generators[0]
    X = EquivariantModel(C3, (0, 1), [Perm([0, 1])], kind="cells",
                         fixed_loci=[FixedLocus(g, (0, 0))])
    res = inertial_quotient_motive(X, 0)
    curve = orbifold_curve_motive(0, [3, 3])
    assert res.motive == curve.motive == units((0, 5), (1, 1))
    assert res.trivial_component() == quotient_motive(X) == units((0, 1), (1, 1))
    assert chow_dim(res.motive, 0).tate_dim == 5
    assert chow_dim(res.motive, 1).tate_dim == 1
    assert inertia_ranks_by_twist(X, 0) == res.ranks_by_twist()


def test_rank_double_count_on_models():
    for G, size in ((symmetric_group(3), 3), (dihedral_group(4), 4),
                    (alternating_group(4), 4)):
        X = EquivariantModel.hset(G, size, list(G.generators))
        for p in (0, 2, 3):
            assert inertia_ranks_by_twist(X, p) == \
                inertial_quotient_motive(X, p).ranks_by_twist()


@pytest.mark.parametrize("make,rank", [
    (lambda: cyclic_group(2), 2),
    (lambda: symmetric_group(3), 3),
    (lambda: alternating_group(4), 4),
    (lambda: symmetric_group(4), 5),
    (quaternion_group, 5),
    (lambda: dihedral_group(4), 5),
    (trivial_group, 1),
])
def test_bh_ranks(make, rank):
    res = bh_motive(make(), 0)
    assert res.rank == rank
    assert res.motive == Motive.point(rank)
    assert res.product_constants is not None


def test_bh_characteristic_filter():
    assert bh_motive(symmetric_group(3), 3).rank == 2
    assert bh_motive(alternating_group(4), 3).rank == 2
    assert bh_motive(symmetric_group(3), 3).product_constants is None


def test_bh_product_structure_c2():
    res = bh_motive(cyclic_group(2), 0)
    n = res.product_constants
    assert n[1][1][0] == 1 and n[1][1][1] == 0


def test_bh_point_model_agrees():
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4)):
        X = EquivariantModel.point(G)
        assert inertial_quotient_motive(X, 0).motive == bh_motive(G, 0).motive


def test_gerbe_rset_c3():
    H = cyclic_group(3)
    rset = gerbe_rset(H, 0, ())
    assert rset.size == 3
    assert rset.aut_perms == ()
    inv = H.generators[0].inverse()
    rset2 = gerbe_rset(H, 0, ((inv,),))
    assert rset2.size == 3
    perm = rset2.aut_perms[0]
    assert perm(rset2.distinguished) == rset2.distinguished
    moved = [i for i in range(3) if perm(i) != i]
    assert len(moved) == 2


def test_gerbe_rset_trivial_group():
    rset = gerbe_rset(trivial_group(), 0, ())
    assert rset.size == 1 and rset.distinguished == 0


def test_gerbe_motive_examples():
    H = cyclic_group(3)
    base = units((0, 1), (1, 1))  # a curve-like Tate base
    triv = gerbe_motive(GerbeDatum(H, (), base, "X"))
    assert triv.motive == units((0, 3), (1, 3))
    inv = H.generators[0].inverse()
    twisted = gerbe_motive(GerbeDatum(H, ((inv,),), base, "X"))
    assert twisted.motive == base + Motive.of([(Atom.cover("X", 2), 0, 1)])
    assert twisted.coarse_factor == base
    assert sorted(twisted.orbit_sizes) == [1, 2]
    ident_mono = gerbe_motive(GerbeDatum(trivial_group(), (), base, "X"))
    assert ident_mono.motive == base


def test_gerbe_rejects_non_automorphism():
    H = cyclic_group(4)
    # sending a generator to an element of smaller order is not injective
    sq = H.generators[0] * H.generators[0]
    with pytest.raises(NotAnAutomorphismError):
        gerbe_rset(H, 0, ((sq,),))
    S3 = symmetric_group(3)
    with pytest.raises(NotAnAutomorphismError):
        gerbe_rset(S3, 0, ((S3.generators[0],),))


def test_gerbe_quotient_consistency():
    # trivial action on points: refined quotient = base^{|R(H)|}
    H = cyclic_group(3)
    X = EquivariantModel.point(H)
    res = inertial_quotient_motive(X, 0)
    rset = gerbe_rset(H, 0, ())
    assert res.motive == Motive.point(rset.size)
    # pointwise-trivial action on two points: refined = base^{|R(H)|}
    two_pts = EquivariantModel.hset(H, 2, [Perm.identity(2)])
    assert inertial_quotient_motive(two_pts, 0).motive == Motive.point(2 * rset.size)
    # cell model: pointwise fixity is declared, the full cell list is the locus
    g = H.generators[0]
    base_model = EquivariantModel(H, (0, 1), [Perm.identity(2)], kind="cells",
                                  fixed_loci=[FixedLocus(g, (0, 1))])
    refined = inertial_quotient_motive(base_model, 0).motive
    base = units((0, 1), (1, 1))
    assert refined == gerbe_motive(GerbeDatum(H, (), base, "X")).motive == \
        units((0, 3), (1, 3))


def test_bh_consistency_triangle():
    from stacky.chars import character_table

    for G in (cyclic_group(3), symmetric_group(3), quaternion_group(),
              dihedral_group(4), alternating_group(4)):
        rank = bh_motive(G, 0).rank
        assert rank == gerbe_rset(G, 0, ()).size
        assert rank == character_table(G).rank


def test_orbifold_curve_examples():
    res = orbifold_curve_motive(0, [3, 3])
    assert res.motive == units((0, 5), (1, 1))
    assert res.coarse_factor == units((0, 1), (1, 1))
    g1 = orbifold_curve_motive(1, [2])
    assert g1.motive == Motive.of([(Atom.unit(), 0, 2), (Atom.h1(1), 0, 1),
                                   (Atom.unit(), 1, 1)])
    plain = orbifold_curve_motive(0, [])
    assert plain.motive == units((0, 1), (1, 1))


def test_orbifold_curve_rejects_bad_orders():
    with pytest.raises(BadOrderError):
        orbifold_curve_motive(0, [1])
    with pytest.raises(BadOrderError):
        orbifold_curve_motive(-1, [2])


def test_kunneth_rank_multiplicativity_bh():
    pairs = [(cyclic_group(2), cyclic_group(2)),
             (symmetric_group(3), cyclic_group(2)),
             (quaternion_group(), symmetric_group(3))]
    for G, H in pairs:
        X = EquivariantModel.point(G)
        prod = product_with_point_model(X, H)
        lhs = inertial_quotient_motive(prod, 0).ranks_by_twist()
        rg = bh_motive(G, 0).rank
        rh = bh_motive(H, 0).rank
        assert lhs == {0: rg * rh}


def test_kunneth_with_model_factor():
    X = s3_on_points()
    H = cyclic_group(2)
    prod = product_with_point_model(X, H)
    lhs = inertial_quotient_motive(prod, 0).ranks_by_twist()
    xr = inertial_quotient_motive(X, 0).ranks_by_twist()
    hr = bh_motive(H, 0).rank
    assert lhs == {t: r * hr for t, r in xr.items()}


def test_product_model_rejects_cells():
    T = trivial_group()
    cells = EquivariantModel(T, (0, 1), [], kind="cells")
    with pytest.raises(ValidationError):
        product_with_point_model(cells, cyclic_group(2))


def test_model_locus_for_each_kind_of_class_and_model():
    # the trivial class sees the whole model; <(1 2)> fixes the point 0 and its
    # normalizer of order 2 keeps it; a cell model without declared loci has none
    S3 = symmetric_group(3)
    trivial, c2, c3 = cyclic_subgroup_classes(S3, 0)
    X = s3_on_points()
    assert X.locus(trivial) == (X.dims, X.element_actions, X.cells)
    # the model's own rows at the normalizer's indices, on the fixed point 0
    identity, swap = (X.element_actions[i] for i in c2.normalizer_indices)
    assert X.locus(c2) == ((0,), (identity, swap), (0,)) and swap == (0, 2, 1)
    Y = EquivariantModel(S3, (0, 1), [Perm([0, 1])] * 2, kind="cells")
    assert Y.locus(c3) == ((), ((),) * 6, range(0)) and Y.locus_actions == {}


@pytest.mark.parametrize("order,coarse", [(2, Motive.point()), (3, Motive.zero())])
def test_refined_inertia_refuses_a_components_fixed_model(order, coarse):
    # a component's fixed model acts through the normalizer, a subgroup that
    # keeps no classes: every refined-inertia entry point refuses it, while the
    # coarse motive still reads its rows
    comp = next(c for c in cyclotomic_inertia(s3_on_points()) if c.cyclic.order == order)
    Y = comp.fixed_model
    for route in (inertial_quotient_motive, cyclotomic_inertia, inertia, inertia_ranks_by_twist,
                  check_inertia_dimension):
        with pytest.raises(ValidationError, match="this one acts through a subgroup"):
            route(Y)
    assert quotient_motive(Y) == coarse
    assert {t: m for _, t, m in coarse.terms} == oracles.quotient_ranks(Y)


def test_conjugation_kernel_of_the_3_cycles():
    # a transposition has a = 2, so the centralizer is the 3-cycles' own subgroup,
    # of index 2 in N = S3, and the phi(3) = 2 characters j = 1, 2 form one orbit
    S3 = symmetric_group(3)
    c3 = next(c for c in cyclic_subgroup_classes(S3, 0) if c.order == 3)
    assert character_indices(c3.order) == (1, 2)
    C, r = conjugation_kernel(c3, S3)
    exponents = reference_exponents(S3, c3)
    assert [c3.normalizer.elements[k] for k in C] == [n for n, a in exponents.items() if a == 1]
    assert [n.order() for n in exponents] == [1, 2, 2, 3, 3, 2]
    assert (len(C), r) == (3, 1)


def test_declared_locus_with_nontrivial_normalizer_action():
    # S3 on a P1-like model: the 3-cycle fixes two declared points that the
    # reflections swap; the full symmetric group is the normalizer
    S3 = symmetric_group(3)
    swap, cycle = S3.generators
    ident2 = Perm.identity(2)
    X = EquivariantModel(
        S3, (0, 1), [ident2, ident2], kind="cells",
        fixed_loci=[FixedLocus(cycle, (0, 0),
                               action_generators=(swap, cycle),
                               action_images=(Perm([1, 0]), ident2))])
    res = inertial_quotient_motive(X, 0)
    # trivial: 1 + L; reflections: no declared locus; 3-cycles: two points
    # times two characters, both swapped in tandem, giving two orbits
    assert res.motive == units((0, 3), (1, 1))
    assert inertia_ranks_by_twist(X, 0) == res.ranks_by_twist()
    c3 = next(cc for cc in res.components if cc.component.cyclic.order == 3)
    assert dict(c3.ranks) == {0: 2}


def test_declared_locus_action_must_cover_normalizer():
    from stacky.errors import InconsistentActionError

    S3 = symmetric_group(3)
    swap, cycle = S3.generators
    # the cycle alone does not generate the normalizer of its own subgroup
    with pytest.raises(InconsistentActionError):
        EquivariantModel(S3, (0, 1), [Perm.identity(2)] * 2, kind="cells",
                         fixed_loci=[FixedLocus(cycle, (0, 0),
                                                action_generators=(cycle,),
                                                action_images=(Perm.identity(2),))])
    # these images are no action of S3 (the cycle cannot act as a swap)
    with pytest.raises(InconsistentActionError):
        EquivariantModel(S3, (0, 1), [Perm.identity(2)] * 2, kind="cells",
                         fixed_loci=[FixedLocus(cycle, (0, 0),
                                                action_generators=(swap, cycle),
                                                action_images=(Perm([1, 0]),
                                                               Perm([1, 0])))])
    # the fixing subgroup itself must act trivially on the locus cells: <(0 1)>
    # is its own normalizer and a swap of the two cells is an action of it
    with pytest.raises(InconsistentActionError,
                       match="^the fixing subgroup must act trivially on its own fixed cells$"):
        EquivariantModel(S3, (0, 1), [Perm.identity(2)] * 2, kind="cells",
                         fixed_loci=[FixedLocus(swap, (0, 0), action_generators=(swap,),
                                                action_images=(Perm([1, 0]),))])


def test_duplicate_locus_rejected():
    C3 = cyclic_group(3)
    g = C3.generators[0]
    with pytest.raises(ValueError, match="two fixed loci declare conjugate subgroups"):
        EquivariantModel(C3, (0, 1), [Perm([0, 1])], kind="cells",
                         fixed_loci=[FixedLocus(g, (0, 0)),
                                     FixedLocus(g * g, (0,))])
    # (0 1) and (2 3) generate distinct subgroups of S4, conjugate to each other
    with pytest.raises(ValueError, match="two fixed loci declare conjugate subgroups"):
        EquivariantModel(symmetric_group(4), (0,), [Perm([0])] * 2, kind="cells",
                         fixed_loci=[FixedLocus(Perm([1, 0, 2, 3]), (0,)),
                                     FixedLocus(Perm([0, 1, 3, 2]), (0,))])


def test_noncanonical_locus_action_is_keyed_by_the_canonical_normalizer():
    # both declared generators, (0 1) and (0 1 2), are not the least of their
    # classes; their actions are stored on the canonical normalizers
    X = load_document(str(NONCANONICAL_DOC)).model
    classes = {frozenset(c.subgroup_elements): c for c in cyclic_subgroup_classes(X.group, 0)}
    assert len(X.locus_actions) == 2
    for locus, (key, (dims, rows)) in zip(X.fixed_loci, X.locus_actions.items()):
        assert locus.generator not in key and dims == locus.dims
        N = classes[key].normalizer
        assert len(rows) == N.order
        act = {n: Perm(row) for n, row in zip(N.elements, rows)}
        assert all(act[a * b] == act[a] * act[b] for a in N.elements for b in N.elements)
    # the same actions the loci stored as Perm-keyed dicts, as rows in normalizer order
    assert [rows for _, rows in X.locus_actions.values()] == [
        ((0, 1, 2), (0, 1, 2), (1, 0, 2), (1, 0, 2)),
        ((0, 1), (1, 0), (1, 0), (0, 1), (0, 1), (1, 0))]


def test_inertia_routes_form_no_perm_products(monkeypatch):
    # once the group caches are warm, both inertia routes run on lookups,
    # image tuples and element indices, and the cyclic subgroups of a band
    # are formed once
    models = [load_document(str(NONCANONICAL_DOC)).model,
              EquivariantModel.point(symmetric_group(5))]
    band = symmetric_group(4)
    for G in [X.group for X in models] + [band]:
        cyclic_subgroup_classes(G, 0)
        conjugacy_classes(G)
    first = gerbe_rset(band, 0, ())
    products = powers = 0
    mul, pw = Perm.__mul__, stacky.perms.powers

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    def counting_powers(g):
        nonlocal powers
        powers += 1
        return pw(g)

    monkeypatch.setattr(Perm, "__mul__", counting_mul)
    monkeypatch.setattr(stacky.perms, "powers", counting_powers)
    for X in models:
        for p in (0, 2):
            cyclotomic_inertia(X, p)
            inertia(X, p)
            inertia_ranks_by_twist(X, p)
    assert products == 0
    assert gerbe_rset(band, 0, ()) == first
    monkeypatch.undo()
    assert powers == 0


def _count_perms_made(monkeypatch) -> list[int]:
    """Count calls of both Perm constructors from here on, in a one-item list."""
    made = [0]
    init, trusted = Perm.__init__, Perm._trusted.__func__

    def counting_init(self, images):
        made[0] += 1
        init(self, images)

    def counting_trusted(cls, images):
        made[0] += 1
        return trusted(cls, images)

    monkeypatch.setattr(Perm, "__init__", counting_init)
    monkeypatch.setattr(Perm, "_trusted", classmethod(counting_trusted))
    return made


def test_point_model_loci_are_built_once(monkeypatch):
    # a point model's fixed loci are its own rows on the points each class
    # fixes, so the second route and a second call construct no Perm
    X = EquivariantModel.hset(symmetric_group(5), 5, symmetric_group(5).generators)
    def parts(components):
        return [(c.representative, c.fixed_model.dims, c.fixed_model.element_actions)
                for c in components]

    first = parts(inertia(X))
    made = _count_perms_made(monkeypatch)
    assert parts(inertia(X)) == first
    cyclotomic_inertia(X)
    monkeypatch.undo()
    assert made == [0]


def test_point_model_and_its_components_build_no_perm(monkeypatch):
    # actions are rows aligned with the element list from extension to the
    # component models, so with the group caches warm neither building a
    # point model nor any inertia route constructs a Perm
    S5 = symmetric_group(5)
    EquivariantModel.hset(S5, 5, S5.generators)  # warms the rows and the word tree
    cyclic_subgroup_classes(S5, 0)
    conjugacy_classes(S5)
    made = _count_perms_made(monkeypatch)
    X = EquivariantModel.hset(S5, 5, S5.generators)
    for p in (0, 2, 3):
        cyclotomic_inertia(X, p)
        inertia(X, p)
        inertia_ranks_by_twist(X, p)
        refined = inertial_quotient_motive(X, p)
    monkeypatch.undo()
    assert made == [0]
    assert refined.ranks_by_twist() == inertia_ranks_by_twist(X, 3)


def test_warm_quotient_motive_wraps_no_perm(monkeypatch):
    # quotient_motive counts each dimension's orbits on the model's own rows
    S5 = symmetric_group(5)
    X = EquivariantModel.hset(S5, 5, S5.generators)
    first = quotient_motive(X)
    made = _count_perms_made(monkeypatch)
    assert quotient_motive(X) == first == Motive.point()
    monkeypatch.undo()
    assert made == [0]


def test_inertia_routes_keep_no_locus_on_a_point_model():
    # a point model's fixed locus is a set of its own cells under its own rows:
    # reading it stores nothing, and only declared loci fill locus_actions
    X = pairs_model(6)
    for p in (0, 2, 3):
        inertial_quotient_motive(X, p)
        inertia(X, p)
    assert X.locus_actions == {}
    comp = next(comp for comp in cyclotomic_inertia(X) if comp.cyclic.order == 3)
    assert comp.fixed_model.element_actions[0] is X.element_actions[0]
    assert comp.fixed_model.size == len(comp.fixed_model.cells) == 3


def test_inertia_job_list_takes_each_centralizer_once(monkeypatch):
    # the benchmark's inertia job list runs the element-inertia route on the
    # same S5 and S6 models at several characteristics; each cyclic class
    # keeps its representatives and their centralizers from the first call,
    # and a central representative takes none: its centralizer is G
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    calls = Counter()
    real = stacky.decomp.centralizer
    monkeypatch.setattr(stacky.decomp, "centralizer",
                        lambda G, h: calls.update([(id(G), h)]) or real(G, h))
    workload = workloads.build_inertia(0)
    for job in workload.jobs:
        job.run({})
    assert len(calls) == 12 and set(calls.values()) == {1}


def test_central_classes_walk_no_conjugates_on_either_route(monkeypatch):
    # C2^8 on its 16 points: every class is central, so the character rows are
    # checked on the generators and every centralizer is G, with no word-tree walk
    gens = [stacky.perms.Perm.from_cycles(16, [(2 * i, 2 * i + 1)]) for i in range(8)]
    G = stacky.perms.generate_group(16, gens)
    X = EquivariantModel.hset(G, 16, gens)
    walked = []
    real = stacky.perms.FiniteGroup._walk
    monkeypatch.setattr(stacky.perms.FiniteGroup, "_walk",
                        lambda G, x, rows: walked.append(x) or real(G, x, rows))
    assert inertial_quotient_motive(X).ranks_by_twist() == inertia_ranks_by_twist(X) == {0: 1024}
    assert all(c.central for c in cyclic_subgroup_classes(G))
    assert walked == []
    # nothing |G|-long per class: every component holds X's own rows, and each
    # class's centralizer is all of G as a range
    comps = cyclotomic_inertia(X)
    assert all(comp.fixed_model.element_actions is X.element_actions
               for comp in comps + inertia(X))
    assert all(conjugation_kernel(comp.cyclic, G) == (range(G.order), 1) for comp in comps)
    # a cell model that declares no locus shares one empty row tuple likewise
    Y = EquivariantModel(G, (0,) * 16, gens, kind="cells")
    assert len({id(Y.locus(c)[1]) for c in cyclic_subgroup_classes(G)[1:]}) == 1


def test_character_check_walks_each_class_once(monkeypatch):
    # the checked kernel and character orbits are kept on the class, so no later model,
    # characteristic or bh_motive call walks its generator's conjugates again
    S5 = symmetric_group(5)
    X = EquivariantModel.hset(S5, 5, S5.generators)
    classes = cyclic_subgroup_classes(S5, 0)
    walked = []
    real = stacky.perms.FiniteGroup._conjugates
    monkeypatch.setattr(stacky.perms.FiniteGroup, "_conjugates",
                        lambda G, x: walked.append(x) or real(G, x))
    for p in (0, 2, 3):
        inertial_quotient_motive(X, p)
    for p in (0, 2, 3):
        bh_motive(S5, p)
    assert sorted(walked) == sorted(S5.index[c.generator] for c in classes if c.order > 1)


def test_inertia_dimension_second_route_ignores_the_exponents():
    # a wrong exponent table that got past the characters' own check changes
    # the character route only, so the element-class route must catch it
    S3 = symmetric_group(3)
    c3 = next(c for c in cyclic_subgroup_classes(S3, 0) if c.order == 3)
    # every exponent a = 1, as kept on the class: the centralizer is all of N,
    # and it fixes both characters
    object.__setattr__(c3, "_kernel", (range(c3.normalizer.order), 2))
    report = check_inertia_dimension(EquivariantModel.point(S3))
    assert not report.passed
    assert (report.lhs, report.rhs) == ('{"0":4}', '{"0":3}')


def test_character_route_refuses_exponents_that_are_not_the_conjugation_character():
    # an exponent table of units passes the unit checks; the conjugation
    # character check refuses it by name, and the element-class route,
    # which never reads it, still counts three classes
    S3 = symmetric_group(3)
    c3 = next(c for c in cyclic_subgroup_classes(S3, 0) if c.order == 3)
    object.__setattr__(c3, "exponent_row", tuple(1 if a else 0 for a in c3.exponent_row))
    X = EquivariantModel.point(S3)
    assert inertia_ranks_by_twist(X) == {0: 3}
    with pytest.raises(InternalError) as exc:
        check_inertia_dimension(X)
    assert exc.value.name == "decomp.conjugation_character"
