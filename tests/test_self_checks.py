"""Census of the package's named self-checks: each one is made to fire.

Every ``check(name, ...)`` call in ``src/stacky`` is collected with ``ast``;
the names must be unique and equal the keys of CASES.  Each case corrupts
one input, or the output of one kernel, with ``monkeypatch`` and calls a
public function, which must raise InternalError with that name and message.
Where a CLI document reaches the check, the case also runs the command:
exit code 3, nothing on stdout and the message as the one line on stderr.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

from oracles import Cyc
import stacky.chars as chars
import stacky.corresp as corresp
import stacky.decomp as decomp
from stacky.chars import CharacterTable, character_table
from stacky.cli import main
from stacky.corresp import Correspondence, split_idempotent, splitting_certificate
from stacky.decomp import (bh_motive, gerbe_rset, inertia_ranks_by_twist, inertial_quotient_motive,
                           quotient_motive)
from stacky.errors import InternalError, check
from stacky.motives import EquivariantModel
from stacky.perms import (
    ConjugacyClass,
    CyclicClass,
    FiniteGroup,
    Perm,
    _count_orbits,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stacky"
SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def check_names() -> list[str]:
    """The name of every check call in the package, in source order."""
    names = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check":
                first = node.args[0] if node.args else None
                assert isinstance(first, ast.Constant) and isinstance(first.value, str), \
                    f"{path.name}:{node.lineno}: a check needs a literal name"
                names.append(first.value)
    return names


class Case(NamedTuple):
    tamper: Callable[[Any], None]  # given monkeypatch
    call: Callable[[], object]     # a public function, after the tamper
    message: str                   # the text after "internal error: "
    command: tuple[str, ...] = ()  # CLI arguments reaching the same check
    doc: dict | Path | None = None  # the --input document for them


def group_doc(G: FiniteGroup, **extra) -> dict:
    return {"characteristic": 0, **extra, "group": {
        "degree": G.degree, "generators": [list(g.images) for g in G.generators]}}


def wrap(monkeypatch, module, name: str, corrupt: Callable) -> None:
    """Replace module.name by a function that corrupts its real result."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(real(*args), *args))


def first_call(monkeypatch, module, name: str, corrupt: Callable) -> None:
    """Corrupt only the result of the first call of module.name."""
    real, calls = getattr(module, name), []

    def fn(*args):
        calls.append(args)
        out = real(*args)
        return corrupt(out, *args) if len(calls) == 1 else out

    monkeypatch.setattr(module, name, fn)


def abelian_rows(corrupt: Callable[[list], list]) -> Callable:
    """A tamper corrupting the rows the abelian path hands to character_table."""
    return lambda mp: wrap(mp, chars, "_abelian_characters", lambda rows, G, cl: corrupt(rows))


def swapped_last(rows: list) -> list:
    last = list(rows[-1])
    last[1], last[2] = last[2], last[1]
    return rows[:-1] + [tuple(last)]


def retagged_classes(change: Callable) -> Callable:
    """A tamper handing chars each conjugacy class through change(class)."""
    return lambda mp: wrap(mp, chars, "conjugacy_classes",
                           lambda classes, G: tuple(map(change, classes)))


def c4_generator_claims_order_2(c: ConjugacyClass) -> ConjugacyClass:
    return ConjugacyClass(c.representative, c.members, 2) if c.order == 4 else c


def first_class_listed_twice(monkeypatch) -> None:
    wrap(monkeypatch, chars, "conjugacy_classes", lambda classes, G: classes[:1] + classes)


def two_classes_merged(monkeypatch) -> None:
    # Q8 with the classes of i and j listed as one: still a partition of the
    # group into unions of classes, but the eigenvalues of chi_i and chi_j
    # coincide there, and their joint row gives d^2 = 2
    def merge(classes, G):
        first, second = classes[2:4]
        return classes[:2] + (ConjugacyClass(first.representative,
                                             first.members + second.members, 4),) + classes[4:]

    wrap(monkeypatch, chars, "conjugacy_classes", merge)


def scaled(x: Correspondence, factor: int) -> Correspondence:
    return Correspondence(x.source, x.target, {
        t: tuple(tuple(factor * v for v in row) for row in b) for t, b in x.blocks.items()})


def doubled_push(monkeypatch) -> None:
    wrap(monkeypatch, corresp, "graph_correspondences",
         lambda pp, *args: (pp[0], scaled(pp[1], 2)))


def doubled_projector(monkeypatch) -> None:
    # the certificate's integer products are push.pull, pull.push and the
    # square of pull.push; pull.push is the one whose middle, the target
    # points, is smaller than its ends.  Once push.pull = m*id is checked,
    # (pull.push)^2 = m*(pull.push) holds exactly, so only a wrong product can
    # fail this check
    def corrupt(z, x, y):
        return [[2 * v for v in row] for row in z] if len(y) < len(x) else z

    wrap(monkeypatch, corresp, "_int_mul", corrupt)


def rotated_perm(monkeypatch) -> None:
    # every automorphism fixes the trivial pair, so only a wrongly built
    # induced permutation can fail this check
    monkeypatch.setattr(decomp, "Perm", lambda images: Perm(images[1:] + images[:1]))


def swapped_exponents(monkeypatch) -> None:
    # the last class of S3, of order 3, with the exponents of its first and
    # last normalizer elements (the identity, a = 1, and a transposition,
    # a = 2) swapped: still units, one per normalizer element, so only the
    # conjugation check can refuse them
    def swap(classes, *args):
        c = classes[-1]
        exps = list(c.exponent_row)
        first, *_, last = c.normalizer_indices
        exps[first], exps[last] = exps[last], exps[first]
        return classes[:-1] + (CyclicClass(c.generator, c.order, c.subgroup_elements,
                                           c.normalizer_indices, tuple(exps),
                                           c.group_elements),)

    wrap(monkeypatch, decomp, "cyclic_subgroup_classes", swap)


def without_last_row(T: CharacterTable, H) -> CharacterTable:
    return CharacterTable(T.group, T.classes, T.rows[:-1], T.degrees[:-1])


S3_GERBE = group_doc(symmetric_group(3), gerbe={"monodromy": []})
IDEMPOTENT = Correspondence.single_twist(0, [[1, 0], [0, 0]])
GROUP_CHARS = ("group", "--chars")

CASES: dict[str, Case] = {
    # --- character tables: the abelian path's rows, corrupted on C3
    "chars.degree_positive": Case(
        abelian_rows(lambda rows: rows[:-1] + [tuple(-Cyc.of(v) for v in rows[-1])]),
        lambda: character_table(cyclic_group(3)),
        "character degree -1 is not a positive integer",
        GROUP_CHARS, group_doc(cyclic_group(3))),
    "chars.trivial_character": Case(
        abelian_rows(lambda rows: rows[:-1] + rows[:1]),
        lambda: character_table(cyclic_group(3)),
        "trivial character not found exactly once",
        GROUP_CHARS, group_doc(cyclic_group(3))),
    "chars.row_count": Case(
        abelian_rows(lambda rows: rows[:-1]),
        lambda: character_table(cyclic_group(3)),
        "row count differs from class count",
        GROUP_CHARS, group_doc(cyclic_group(3))),
    "chars.degree_squares": Case(
        abelian_rows(lambda rows: rows[:-1] + [tuple(2 * Cyc.of(v) for v in rows[-1])]),
        lambda: character_table(cyclic_group(3)),
        "degree squares do not sum to the group order",
        GROUP_CHARS, group_doc(cyclic_group(3))),
    "chars.orthogonality": Case(
        abelian_rows(swapped_last),
        lambda: character_table(cyclic_group(3)),
        "rows 1,2 fail orthogonality",
        GROUP_CHARS, group_doc(cyclic_group(3))),
    # --- the abelian path itself
    "chars.abelian_words": Case(
        # the reduced generators of V4 cut to one, whose words reach two elements
        lambda mp: wrap(mp, chars, "reduce_generators", lambda gens, *args: gens[:1]),
        lambda: character_table(dihedral_group(2)),
        "generator words do not reach every element",
        GROUP_CHARS, group_doc(dihedral_group(2))),
    "chars.abelian_count": Case(
        # S3 taken for abelian: only two of its six assignments are characters
        lambda mp: mp.setattr(FiniteGroup, "is_abelian", lambda self: True),
        lambda: character_table(symmetric_group(3)),
        "abelian character count mismatch",
        GROUP_CHARS, group_doc(symmetric_group(3))),
    "chars.abelian_root": Case(
        # the class of the generator of C4 claims order 2, so zeta_4 is no root there
        retagged_classes(c4_generator_claims_order_2),
        lambda: character_table(cyclic_group(4)),
        "zeta_4^1 is no power of zeta_2",
        GROUP_CHARS, group_doc(cyclic_group(4))),
    # --- the prime-field path
    "chars.eigen_splitting": Case(
        lambda mp: mp.setattr(chars, "_split_invariant_subspace", lambda M, B, q: [B]),
        lambda: character_table(symmetric_group(3)),
        "eigen splitting did not isolate all characters",
        GROUP_CHARS, group_doc(symmetric_group(3))),
    "chars.joint_eigenvector": Case(
        # one space per basis vector: split, but not into eigenvectors
        lambda mp: mp.setattr(chars, "_split_invariant_subspace",
                              lambda M, B, q: [[b] for b in B]),
        lambda: character_table(symmetric_group(3)),
        "joint eigenvector verification failed",
        GROUP_CHARS, group_doc(symmetric_group(3))),
    "chars.class_partition": Case(
        # the identity class of A4 listed twice: its one element lies in two classes
        first_class_listed_twice,
        lambda: character_table(alternating_group(4)),
        "the listed classes do not partition the group",
        GROUP_CHARS, group_doc(alternating_group(4))),
    "chars.degree_found": Case(
        two_classes_merged,
        lambda: character_table(quaternion_group()),
        "could not identify a character degree",
        GROUP_CHARS, group_doc(quaternion_group())),
    "chars.multiplicity_bound": Case(
        # D4 lifts over F_13; 3 has order 3 there, not exp(D4) = 4
        lambda mp: mp.setattr(chars, "_element_of_order", lambda q, e: 3),
        lambda: character_table(dihedral_group(4)),
        "eigenvalue multiplicity 12 exceeds degree 2",
        GROUP_CHARS, group_doc(dihedral_group(4))),
    "chars.multiplicity_sum": Case(
        lambda mp: mp.setattr(chars, "_element_of_order", lambda q, e: 1),
        lambda: character_table(symmetric_group(3)),
        "lifted multiplicities sum to 0, not the degree 2",
        GROUP_CHARS, group_doc(symmetric_group(3))),
    "chars.diagonalizable": Case(
        # 11 is not 1 mod 3, so the values zeta_3 of A4 are not in F_11
        lambda mp: mp.setattr(chars, "_choose_prime", lambda e, n: 11),
        lambda: character_table(alternating_group(4)),
        "invariant subspace is not diagonalizable",
        GROUP_CHARS, group_doc(alternating_group(4))),
    "chars.basis_rank": Case(
        # the first split hands on a space whose basis repeats a vector
        lambda mp: first_call(mp, chars, "_split_invariant_subspace",
                              lambda spaces, M, B, q: [[B[0], B[0], *B[2:]], [B[1]]]),
        lambda: character_table(symmetric_group(4)),
        "subspace basis is degenerate",
        GROUP_CHARS, group_doc(symmetric_group(4))),
    "chars.invariant_subspace": Case(
        # the first split pairs up the coordinate vectors, not eigenvectors
        lambda mp: first_call(mp, chars, "_split_invariant_subspace",
                              lambda spaces, M, B, q: [B[i:i + 2] for i in range(0, len(B), 2)]),
        lambda: character_table(symmetric_group(4)),
        "subspace is not invariant",
        GROUP_CHARS, group_doc(symmetric_group(4))),
    # --- correspondences
    "corresp.inclusion_retraction": Case(
        lambda mp: wrap(mp, corresp, "rref", lambda res, a: (
            tuple(tuple(2 * x for x in row) for row in res[0]), res[1])),
        lambda: split_idempotent(IDEMPOTENT),
        "inclusion o retraction differs from the idempotent"),
    "corresp.retraction_inclusion": Case(
        # every column reported as a pivot: the image is too large
        lambda mp: wrap(mp, corresp, "rref", lambda res, a: (res[0], tuple(range(len(a[0]))))),
        lambda: split_idempotent(IDEMPOTENT),
        "retraction o inclusion is not the identity"),
    "corresp.left_inverse": Case(
        doubled_push,
        lambda: splitting_certificate([0, 0, 1, 1], 4, 2, 2),
        "scaled pushforward is not a left inverse",
        ("verify", "--check", "splitting"), SAMPLES / "s3_quotient.json"),
    "corresp.cover_idempotent": Case(
        doubled_projector,
        lambda: splitting_certificate([0, 0, 1, 1], 4, 2, 2),
        "cover projector is not idempotent",
        ("verify", "--check", "splitting"), SAMPLES / "s3_quotient.json"),
    # --- classifying stacks and gerbes
    "decomp.bh_rank_vs_chars": Case(
        lambda mp: wrap(mp, decomp, "cyclic_subgroup_classes", lambda cs, *args: cs[:-1]),
        lambda: bh_motive(symmetric_group(3)),
        "class count 3 and character-orbit count 2 disagree",
        ("motive", "bh"), SAMPLES / "s3_quotient.json"),
    "decomp.conjugation_character": Case(
        swapped_exponents,
        lambda: bh_motive(symmetric_group(3)),
        "recorded exponents of the class of order 3 are not its conjugation character",
        ("motive", "bh"), SAMPLES / "s3_quotient.json"),
    "decomp.kernel_index": Case(
        # one injective character of C3 where there are two: the transpositions'
        # exponent 2 gives [N : C] = 2, which does not divide it
        lambda mp: wrap(mp, decomp, "character_indices", lambda js, m: js[:1]),
        lambda: bh_motive(symmetric_group(3)),
        "the class of order 3 has 2 distinct exponents, not [N : C] = 6/3 dividing phi(m) = 1",
        ("motive", "bh"), SAMPLES / "s3_quotient.json"),
    "decomp.table_rank": Case(
        lambda mp: wrap(mp, decomp, "character_table", without_last_row),
        lambda: bh_motive(symmetric_group(3)),
        "table rank differs from class count",
        ("motive", "bh"), SAMPLES / "s3_quotient.json"),
    "decomp.pair_orbits": Case(
        # no pair is moved by conjugation: six orbits on S3 where there are three
        lambda mp: mp.setattr(decomp, "orbit", lambda seeds, gens, act: dict.fromkeys(seeds, ())),
        lambda: gerbe_rset(symmetric_group(3), 0, []),
        "pair-orbit count disagrees with per-class character orbits",
        ("motive", "gerbe"), S3_GERBE),
    "decomp.trivial_pair_fixed": Case(
        rotated_perm,
        lambda: gerbe_rset(cyclic_group(3), 0, [[Perm([2, 0, 1])]]),
        "an automorphism moved the trivial pair",
        ("motive", "gerbe"), SAMPLES / "z3_gerbe.json"),
    # --- orbit counting: S3 without the 3-cycle (1 2 0), not a group
    "perms.burnside": Case(
        lambda mp: None,
        lambda: _count_orbits([g.images for g in symmetric_group(3).elements
                               if g.images != (1, 2, 0)]),
        "Burnside average 6/5 disagrees with orbit count 1"),
}


def test_check_names_are_unique_and_each_has_a_case():
    names = check_names()
    assert len(names) >= 25, "the census found too few checks to be reading the source"
    assert sorted(set(names)) == sorted(names), "a check name is used twice"
    assert sorted(names) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_check_fires(monkeypatch, name):
    case = CASES[name]
    case.tamper(monkeypatch)
    with pytest.raises(InternalError) as exc:
        case.call()
    assert exc.value.name == name
    assert str(exc.value) == f"internal error: {case.message}"
    assert isinstance(exc.value, RuntimeError)


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case.command))
def test_each_check_fires_through_the_cli(monkeypatch, capsys, tmp_path, name):
    case = CASES[name]
    doc = case.doc
    if isinstance(doc, dict):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(case.doc), encoding="utf-8")
    case.tamper(monkeypatch)
    code = main([*case.command, "--input", str(doc)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"internal error: {case.message}\n"


def test_a_passing_check_builds_no_message():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("formatted on the passing path")

    check("census.pass", True, "{}", Unformattable())
    with pytest.raises(InternalError, match=r"^internal error: value 1/2$") as exc:
        check("census.fail", 0, "value {}", Fraction(1, 2))
    assert exc.value.name == "census.fail"


# The orbit counts walk the model's rows in place: on a proper subset of the
# cells, and on the rows of a class's centralizer, at its positions among the
# normalizer's.  Burnside fires on both.

def assert_burnside_fires(call, message: str) -> None:
    with pytest.raises(InternalError) as exc:
        call()
    assert exc.value.name == "perms.burnside"
    assert str(exc.value) == f"internal error: {message}"


def test_burnside_fires_through_a_dropped_centralizer_row(monkeypatch):
    # S4 on its 4 points: the first class that is not central, of (2 3), fixes 0
    # and 1, which its centralizer <(0 1), (2 3)> swaps; without the identity's
    # row the 3 rows left fix 2 points, not 3
    real = decomp.conjugation_kernel

    def dropped(c, G):
        C, r = real(c, G)
        if not c.central:  # kept on the class, where the refined count reads it
            object.__setattr__(c, "_kernel", (C[1:], r))
        return c._kernel

    monkeypatch.setattr(decomp, "conjugation_kernel", dropped)
    S4 = symmetric_group(4)
    assert_burnside_fires(lambda: inertial_quotient_motive(EquivariantModel.hset(
        S4, 4, S4.generators)), "Burnside average 2/3 disagrees with orbit count 1")


def test_burnside_fires_through_a_proper_subset_of_cells(monkeypatch):
    # S3 on one cell of dimension 0 and three of dimension 1: a 3-cycle's row is
    # made the identity, so the dimension-1 cells, 3 of 4, have 9 fixed points, not 6
    S3 = symmetric_group(3)
    X = EquivariantModel(S3, (0, 1, 1, 1), [
        Perm((0,) + tuple(x + 1 for x in g.images)) for g in S3.generators], kind="cells")
    rows = list(X.element_actions)
    rows[next(i for i, g in enumerate(S3.elements) if g.order() == 3)] = (0, 1, 2, 3)
    monkeypatch.setattr(X, "element_actions", tuple(rows))
    assert_burnside_fires(lambda: quotient_motive(X),
                          "Burnside average 9/6 disagrees with orbit count 1")


# A central class's counts close the orbits under the group's generators and
# take Burnside's total from the model's stab; its conjugation character is
# checked on the generators.  Both checks fire on that branch too, under the same names.

def _c2_squared_points() -> EquivariantModel:
    G = dihedral_group(2)  # C2 x C2 on 4 points, generated by (0 1) and (2 3)
    return EquivariantModel.hset(G, 4, G.generators)


@pytest.mark.parametrize("route", (inertial_quotient_motive, inertia_ranks_by_twist))
def test_burnside_fires_through_a_changed_stab_entry(monkeypatch, route):
    # each point is fixed by 2 of the 4 elements; one count raised to 3
    X = _c2_squared_points()
    monkeypatch.setattr(X, "stab", [3] + X.stab[1:])
    assert_burnside_fires(lambda: route(X, 0), "Burnside average 9/4 disagrees with orbit count 2")


def test_burnside_fires_through_a_dropped_generator_row(monkeypatch):
    # without (2 3) the trivial class's walk finds 3 orbits where there are 2
    real = decomp._count_orbits

    def dropped(rows, cells=None, gens=None, stab=None):
        return real(rows, cells, gens and gens[:-1], stab)

    monkeypatch.setattr(decomp, "_count_orbits", dropped)
    assert_burnside_fires(lambda: inertial_quotient_motive(_c2_squared_points()),
                          "Burnside average 8/4 disagrees with orbit count 3")


def test_conjugation_character_fires_on_a_class_marked_central(monkeypatch):
    # S3's 3-cycles marked central, with every exponent 1 and N = G as a central
    # class records them: only the generators' check that g commutes with each
    # of them can refuse it, and the transposition does not
    def marked(classes, *args):
        c, n = classes[-1], len(classes[-1].group_elements)
        return classes[:-1] + (CyclicClass(c.generator, c.order, c.subgroup_elements,
                                           tuple(range(n)), (1,) * n, c.group_elements, True),)

    wrap(monkeypatch, decomp, "cyclic_subgroup_classes", marked)
    with pytest.raises(InternalError) as exc:
        bh_motive(symmetric_group(3))
    assert exc.value.name == "decomp.conjugation_character"
    assert str(exc.value) == ("internal error: recorded exponents of the class of order 3 "
                              "are not its conjugation character")


def test_conjugation_character_fires_on_a_central_exponent_other_than_1():
    # C3's generator commutes with itself, but its recorded exponent is 2, a
    # unit: the generators' check refuses it where the unit check cannot
    G = cyclic_group(3)
    c = decomp.cyclic_subgroup_classes(G)[-1]
    object.__setattr__(c, "exponent_row", (2,) * 3)
    with pytest.raises(InternalError) as exc:
        decomp.conjugation_kernel(c, G)
    assert exc.value.name == "decomp.conjugation_character"
