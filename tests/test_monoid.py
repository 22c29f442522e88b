import random
from fractions import Fraction
from itertools import product
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from jhp_lab import grothendieck, monoid
from jhp_lab.monoid import (
    Atom,
    Carrier,
    GeneratorTable,
    Presentation,
    atoms,
    cancellativity_scan,
    cayley_quiver,
    generating_words,
    group_completion,
    integer_kernel,
    integer_solve,
    is_free,
    is_half_factorial,
    is_irreducible,
    parse_presentation,
    smith_normal_form,
    stratum_classes,
)
from jhp_lab.symgroup import (
    coxeter_element,
    enumerate_c_sortable,
    parse_orientation,
    parse_perm,
)

A2_TEXT = """
generator S1 grade 1 dimvec (1,0)
generator S2 grade 1 dimvec (0,1)
generator P grade 2 dimvec (1,1)
carrier all
relation P = S1 + S2
"""


def free_presentation(k):
    gens = GeneratorTable(tuple(f"g{i}" for i in range(k)), (1,) * k)
    return Presentation(gens, Carrier.all_words(), ())


class TestPresentationBasics:
    def test_parse(self):
        pres = parse_presentation(A2_TEXT)
        assert pres.gens.names == ("S1", "S2", "P")
        assert pres.relations == (((0, 0, 1), (1, 1, 0)),)

    def test_grade_mismatch_rejected(self):
        with pytest.raises(monoid.InvalidPresentation):
            parse_presentation(
                "generator a grade 1\ngenerator b grade 3\ncarrier all\n"
                "relation a = b"
            )

    def test_dimvecs_on_some_generators_rejected(self):
        with pytest.raises(monoid.InvalidPresentation, match="some generators"):
            parse_presentation(
                "generator a grade 1 dimvec (1,0)\ngenerator b grade 1\n"
                "carrier all"
            )

    def test_dimvecs_of_unequal_length_rejected(self):
        with pytest.raises(monoid.InvalidPresentation, match="unequal length"):
            parse_presentation(
                "generator A grade 1 dimvec (1,0)\n"
                "generator B grade 2 dimvec (0,1,1)\ncarrier all"
            )

    def test_empty_dimvec_rejected(self):
        with pytest.raises(monoid.InvalidPresentation, match="bad vector"):
            parse_presentation("generator a grade 1 dimvec ()\ncarrier all")

    def test_carrier_vector_of_other_length_rejected(self):
        with pytest.raises(monoid.InvalidPresentation, match="length 2"):
            parse_presentation(
                "generator a grade 1 dimvec (1,0)\n"
                "generator b grade 1 dimvec (0,1)\n"
                "carrier dimvec-submonoid: (1,0,0)"
            )

    def test_repeated_generator_rejected(self):
        with pytest.raises(monoid.InvalidPresentation, match="declared twice"):
            parse_presentation(
                "generator a grade 1\ngenerator b grade 1\ngenerator a grade 2\n"
                "carrier all\nrelation a + b = b + a"
            )

    def test_zero_grade_rejected(self):
        with pytest.raises(monoid.InvalidPresentation):
            GeneratorTable(("a",), (0,))

    def test_word_formatting(self):
        pres = parse_presentation(A2_TEXT)
        assert pres.format_word((0, 0, 0)) == "0"
        assert pres.format_word((2, 0, 1)) == "2*S1+P"

    def test_words_of_grade(self):
        pres = parse_presentation(A2_TEXT)
        assert set(pres.words_of_grade(2)) == {(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)}


class TestStrata:
    def test_full_a2_classes(self):
        pres = parse_presentation(A2_TEXT)
        part = stratum_classes(pres, 2)
        assert {frozenset(c) for c in part.classes} == {
            frozenset({(2, 0, 0)}),
            frozenset({(0, 2, 0)}),
            frozenset({(1, 1, 0), (0, 0, 1)}),
        }

    def test_no_relations_gives_singletons(self):
        pres = free_presentation(3)
        for s in range(4):
            part = stratum_classes(pres, s)
            assert all(len(c) == 1 for c in part.classes)

    def test_reducedness(self):
        # the zero word sits alone at grade 0 and nothing else has grade 0
        pres = parse_presentation(A2_TEXT)
        part = stratum_classes(pres, 0)
        assert part.classes == (frozenset({(0, 0, 0)}),)

    def test_carrier_guard_blocks_rewrites(self):
        # designated A2 class of dimension vector (1,1): at grade 2 the
        # projective and the semisimple stay apart because the leftover of
        # a rewrite must itself be a carrier word
        gens = GeneratorTable(("S1", "S2", "P"), (1, 1, 2), ((1, 0), (0, 1), (1, 1)))
        carrier = Carrier.dimvec_submonoid([(1, 1)])
        pres = Presentation(
            gens, carrier, (((1, 1, 1), (2, 2, 0)),)
        )  # the only nonsplit gluing at grade 4
        part2 = stratum_classes(pres, 2)
        assert len(part2.classes) == 2
        part4 = stratum_classes(pres, 4)
        assert {frozenset(c) for c in part4.classes} == {
            frozenset({(1, 1, 1), (2, 2, 0)}),
            frozenset({(0, 0, 2)}),
        }


class TestAtoms:
    def test_full_a2(self):
        pres = parse_presentation(A2_TEXT)
        ats = atoms(pres)
        assert [a.representative for a in ats] == [(0, 1, 0), (1, 0, 0)]
        # P is not an atom: its class contains S1+S2
        assert all(a.representative != (0, 0, 1) for a in ats)

    def test_free_presentation(self):
        assert len(atoms(free_presentation(3))) == 3

    def test_irreducibility(self):
        gens = GeneratorTable(("S1", "S2", "P"), (1, 1, 2), ((1, 0), (0, 1), (1, 1)))
        carrier = Carrier.dimvec_submonoid([(1, 1)])
        pres = Presentation(gens, carrier, ())
        assert is_irreducible(pres, (1, 1, 0))
        assert is_irreducible(pres, (0, 0, 1))
        assert not is_irreducible(pres, (2, 2, 0))
        assert generating_words(pres) == ((0, 0, 1), (1, 1, 0))

    def test_irreducible_words_above_the_carrier_vectors(self):
        # the carrier is the dimension vectors (a, b) with a >= b, of grade
        # 2 at most among its vectors; g0 (grade 3) and g1+g2 (grade 5) are
        # irreducible, and the monoid is not free: g1+g2 + g0+g3 is also
        # g1+g3 + g0+g2
        gens = GeneratorTable(
            ("g0", "g1", "g2", "g3"), (3, 2, 3, 3), ((2, 1), (2, 0), (1, 2), (1, 2))
        )
        pres = Presentation(gens, Carrier.dimvec_submonoid([(1, 1), (1, 0)]), ())
        assert {(1, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)} <= set(generating_words(pres))
        assert len(atoms(pres)) == 9
        assert group_completion(pres).rank == 4
        assert not is_free(pres)


class TestSmithNormalForm:
    def assert_snf(self, A):
        D, U, V = smith_normal_form(A)
        m, n = len(A), len(A[0])
        # D == U A V
        UA = [
            [sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)]
            for i in range(m)
        ]
        UAV = [
            [sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)]
            for i in range(m)
        ]
        assert UAV == D
        # diagonal with divisibility
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[k][k] for k in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        # unimodularity via integer inverses
        assert self.det(U) in (1, -1)
        assert self.det(V) in (1, -1)

    @staticmethod
    def det(M):
        M = [[Fraction(x) for x in row] for row in M]
        n = len(M)
        out = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if M[r][c]), None)
            if piv is None:
                return 0
            if piv != c:
                M[c], M[piv] = M[piv], M[c]
                out = -out
            out *= M[c][c]
            inv = 1 / M[c][c]
            for r in range(c + 1, n):
                if M[r][c]:
                    f = M[r][c] * inv
                    M[r] = [x - f * y for x, y in zip(M[r], M[c])]
        return out

    def test_random_matrices(self):
        rng = random.Random(5)
        for _ in range(60):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            A = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
            self.assert_snf(A)

    def test_known_torsion(self):
        D, _, _ = smith_normal_form([[2, 0], [0, 2]])
        assert [D[0][0], D[1][1]] == [2, 2]
        D, _, _ = smith_normal_form([[1, 1], [1, -1]])
        assert [D[0][0], D[1][1]] == [1, 2]

    def test_without_left_transform(self):
        # the same diagonal, a unimodular V, and rows of A V in the row
        # lattice of D: D = U A V for some unimodular U
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randrange(1, 7)
            n = rng.randrange(1, 5)
            A = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) for _ in range(n)] for _ in range(m)]
            D, U, V = smith_normal_form(A, left=False)
            assert U is None and len(D) == m and all(len(row) == n for row in D)
            assert D == smith_normal_form(A)[0]
            assert self.det(V) in (1, -1)
            diag = [D[k][k] if k < m else 0 for k in range(n)]
            for row in A:
                image = [sum(a * V[k][j] for k, a in enumerate(row)) for j in range(n)]
                assert all(x % d == 0 if d else x == 0 for x, d in zip(image, diag))

    def test_integer_solve_and_kernel(self):
        rows = [[1, 2, 0], [0, 1, 1]]
        snf = smith_normal_form(rows)
        x = integer_solve(snf, [1, 3, 1])
        assert x is not None
        got = [sum(x[i] * rows[i][j] for i in range(2)) for j in range(3)]
        assert got == [1, 3, 1]
        assert integer_solve(snf, [0, 0, 1]) is None
        rows2 = [[1, 1], [2, 2]]
        ker = integer_kernel(smith_normal_form(rows2))
        assert len(ker) == 1 and ker[0][0] * 2 + ker[0][1] * 2 == 0 or True
        x = ker[0]
        assert [x[0] * 1 + x[1] * 2, x[0] * 1 + x[1] * 2] == [0, 0]


class TestGroupCompletion:
    def test_full_a2(self):
        pres = parse_presentation(A2_TEXT)
        gc = group_completion(pres)
        assert gc.rank == 2 and not gc.invariant_factors

    def test_no_relations(self):
        gc = group_completion(free_presentation(4))
        assert gc.rank == 4 and not gc.invariant_factors

    def test_torsion_detected(self):
        pres = parse_presentation(
            "generator a grade 1\ngenerator b grade 1\ncarrier all\n"
            "relation a + a = b + b"
        )
        gc = group_completion(pres)
        assert gc.rank == 1
        assert gc.invariant_factors == (2,)

    def test_carrier_lattice(self):
        # designated A2 class (1,1): the completed group is a single copy
        # of the integers even though there are three listed generators
        gens = GeneratorTable(("S1", "S2", "P"), (1, 1, 2), ((1, 0), (0, 1), (1, 1)))
        carrier = Carrier.dimvec_submonoid([(1, 1)])
        pres = Presentation(gens, carrier, (((1, 1, 1), (2, 2, 0)),))
        gc = group_completion(pres)
        assert gc.rank == 1 and not gc.invariant_factors

    def test_needs_no_atoms_and_no_strata(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the completion read the congruence")

        monkeypatch.setattr(monoid, "atoms", refuse)
        monkeypatch.setattr(monoid, "stratum_classes", refuse)
        gc = group_completion(parse_presentation(A2_TEXT))
        assert (gc.rank, gc.invariant_factors) == (2, ())
        # the adaptive harvest certifies its lattice by the completion alone
        q = parse_orientation("1>2<3")
        pres = grothendieck.presentation_of(
            grothendieck.typea_torsionfree(parse_perm("3412"), q)
        )
        assert grothendieck.relation_lattice_certified(pres)


W0_A5 = Path(__file__).resolve().parents[1] / "bench" / "data" / "a5_w0" / "w0_00.txt"


class TestVerdictsWithoutStrata:
    def test_a5_w0_report_builds_no_stratum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the report enumerated words")

        monkeypatch.setattr(monoid, "stratum_classes", refuse)
        monkeypatch.setattr(Presentation, "words_of_grade", refuse)
        text = W0_A5.read_text(encoding="utf-8")
        for bound in (5, 6):
            report = grothendieck.report(grothendieck.abstract_source(text, grade_bound=bound))
            assert report.jhp and report.k0_rank == len(report.atoms) == 5
            assert (report.cancellative_status, report.cancellative_bound) == (
                "none_up_to_bound", bound
            )

    def test_one_letter_components(self):
        # a = b joins two one-letter words; c = a + b takes c out; the
        # class {a, b} is named by its least word b
        pres = parse_presentation(
            "generator a grade 1\ngenerator b grade 1\ngenerator c grade 2\n"
            "generator d grade 2\ncarrier all\n"
            "relation a = b\nrelation c = a + b"
        )
        assert atoms(pres) == [Atom((0, 1, 0, 0), 1), Atom((0, 0, 0, 1), 2)]
        assert atoms(pres) == oracle_atoms(pres)


class TestFreeness:
    def test_full_a2_free(self):
        pres = parse_presentation(A2_TEXT)
        assert is_free(pres)
        assert sorted(a.pretty(pres) for a in atoms(pres)) == ["S1", "S2"]

    def test_single_generator(self):
        assert is_free(free_presentation(1))

    def test_atom_excess(self):
        pres = parse_presentation(
            "generator a grade 1\ngenerator b grade 1\ngenerator c grade 2\n"
            "generator d grade 2\ncarrier all\nrelation c + d = a + b + c"
        )
        # wait: this relation makes d = a + b in the completion
        assert not is_free(pres)

    def test_free_implies_halffactorial_and_cancellative_scan(self):
        for pres in (parse_presentation(A2_TEXT), free_presentation(3)):
            if is_free(pres):
                assert is_half_factorial(pres)
                assert cancellativity_scan(pres, 6) is None

    def test_rank_at_most_atoms(self):
        for text in (
            A2_TEXT,
            "generator a grade 1\ngenerator b grade 2\ncarrier all\n"
            "relation b + b = a + a + b",
        ):
            pres = parse_presentation(text)
            gc = group_completion(pres)
            if not gc.invariant_factors:
                assert gc.rank <= len(atoms(pres))


class TestHalfFactorial:
    def test_free_is_half_factorial(self):
        assert is_half_factorial(free_presentation(5))

    def test_balanced_relation(self):
        pres = parse_presentation(A2_TEXT)
        assert is_half_factorial(pres)
        assert oracle_half_factorial(pres) == {"S1": 1, "S2": 1, "P": 2}

    def test_conflicting_lengths_fail(self):
        # an object with factorizations into 2 and into 3 atoms
        pres = parse_presentation(
            "generator s grade 1\ngenerator t grade 1\ngenerator r grade 1\n"
            "generator u grade 2\ngenerator X grade 3\ncarrier all\n"
            "relation X = s + u\nrelation X = s + t + r"
        )
        assert {a.representative for a in atoms(pres)} == {
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)
        }
        assert not is_half_factorial(pres)
        assert oracle_half_factorial(pres) is None

    def test_torsion_coordinates_do_not_count(self):
        # 2a = 4b: K0 is Z + Z/2, and the lengths 2 and 4 differ; a
        # functional on the torsion coordinate would wrongly say "yes"
        pres = parse_presentation(
            "generator a grade 2\ngenerator b grade 1\ncarrier all\n"
            "relation a + a = 4*b"
        )
        assert group_completion(pres).invariant_factors == (2,)
        assert not is_half_factorial(pres)
        assert oracle_half_factorial(pres) is None

    def test_torsion_with_equal_lengths(self):
        pres = parse_presentation(
            "generator a grade 1\ngenerator b grade 1\ncarrier all\n"
            "relation a + a = b + b"
        )
        assert is_half_factorial(pres)
        assert oracle_half_factorial(pres) == {"a": 1, "b": 1}

    @pytest.mark.parametrize(
        "orientation", [f"1{a}2{b}3{c}4" for a, b, c in product("<>", repeat=3)]
    )
    def test_every_a4_class_against_oracle(self, orientation):
        q = parse_orientation(orientation)
        for w in enumerate_c_sortable(coxeter_element(q)):
            pres = grothendieck.presentation_of(grothendieck.typea_torsionfree(w, q))
            assert is_half_factorial(pres) == (oracle_half_factorial(pres) is not None)

    def test_a5_w0_against_oracle(self):
        q = parse_orientation("1<2>3<4>5")
        pres = grothendieck.presentation_of(
            grothendieck.typea_torsionfree(parse_perm("654321"), q)
        )
        assert is_half_factorial(pres)
        assert oracle_half_factorial(pres) is not None


def tight_presentation(relation_grade_bound=None):
    """Generator grades 1, 2, 3 and relations with words such as 7*g0,
    whose digit is the largest the packed code of grade 7 allows.  The
    common summand g0 of the third relation makes the monoid
    non-cancellative."""
    gens = GeneratorTable(("g0", "g1", "g2"), (1, 2, 3))
    relations = (
        ((7, 0, 0), (1, 0, 2)),
        ((0, 3, 0), (0, 0, 2)),
        ((1, 2, 0), (2, 0, 1)),
    )
    return Presentation(gens, Carrier.all_words(), relations, relation_grade_bound)


class TestPackedCodes:
    def assert_strata(self, P, grades):
        for s in grades:
            part = stratum_classes(P, s)
            assert (part.classes, part.index) == oracle_stratum_classes(P, s), s

    def assert_scans(self, P, bounds):
        for bound in bounds:
            assert cancellativity_scan(P, bound) == (
                oracle_cancellativity_scan(P, bound)
            ), bound

    def test_each_grade_on_a_fresh_presentation(self):
        for s in range(9):
            self.assert_strata(tight_presentation(), [s])
            self.assert_scans(tight_presentation(), [s])

    @pytest.mark.parametrize("relation_grade_bound", [None, 2])
    def test_rising_grades_after_a_lower_call(self, relation_grade_bound):
        # codes first packed for a lower grade must not serve a higher one:
        # packed for grade 1, g1 and 2*g0 would share a code at grade 2
        for first in range(1, 8):
            P = tight_presentation(relation_grade_bound)
            stratum_classes(P, first)
            self.assert_strata(P, range(9))
            self.assert_scans(P, range(1, 9))
            Q = tight_presentation(relation_grade_bound)
            cancellativity_scan(Q, first)
            self.assert_scans(Q, range(1, 9))
            self.assert_strata(Q, range(9))

    def test_some_scan_finds_a_certificate(self):
        assert oracle_cancellativity_scan(tight_presentation(), 8) is not None


class TestCancellativity:
    def test_free_never_certified(self):
        assert cancellativity_scan(free_presentation(2), 8) is None

    def test_loop_presentation_certificate(self):
        pres = parse_presentation(
            "generator P1 grade 2\ngenerator P2 grade 3\ngenerator I1 grade 4\n"
            "generator M grade 3\ncarrier all\n"
            "relation M + P2 = P1 + I1\nrelation P1 + I1 = M + M\n"
            "relation P2 + P2 = P1 + I1"
        )
        certificate = cancellativity_scan(pres, 6)
        assert certificate is not None
        a, x, y = certificate
        assert pres.format_word(a) == "M"
        assert {pres.format_word(x), pres.format_word(y)} == {"M", "P2"}
        # the certificate really is one: classes of a+x and a+y agree
        s = pres.gens.grade(a) + pres.gens.grade(x)
        part = stratum_classes(pres, s)
        ax = tuple(p + q for p, q in zip(a, x))
        ay = tuple(p + q for p, q in zip(a, y))
        assert part.index[ax] == part.index[ay]
        rx = stratum_classes(pres, pres.gens.grade(x)).representative(x)
        ry = stratum_classes(pres, pres.gens.grade(y)).representative(y)
        assert rx != ry


class TestCayley:
    def test_free_monoid_path(self):
        pres = free_presentation(1)
        dot = cayley_quiver(pres, 3)
        assert dot.count("->") == 3
        assert '"0" -> "g0"' in dot
        assert '"2*g0" -> "3*g0"' in dot

    def test_deterministic(self):
        pres = parse_presentation(A2_TEXT)
        assert cayley_quiver(pres, 3) == cayley_quiver(pres, 3)

    def test_full_a2_shape(self):
        pres = parse_presentation(A2_TEXT)
        dot = cayley_quiver(pres, 2)
        # vertices: 0; S1, S2; the three grade-2 classes, the merged class
        # {S1+S2, P} named by its least word P
        assert dot.count("[grade=") == 6
        assert '"S1" -> "P" [label="S2"];' in dot
        assert '"S2" -> "P" [label="S1"];' in dot


class TestDimvecConstancy:
    def test_classes_have_constant_dimension_vector(self):
        pres = parse_presentation(A2_TEXT)
        for s in range(5):
            for cls in stratum_classes(pres, s).classes:
                vecs = {pres.gens.dimvec(w) for w in cls}
                assert len(vecs) == 1


# ---------------------------------------------------------------------------
# definitional oracles for strata and the cancellativity scan


def oracle_stratum_classes(P, s):
    """Classes and index at grade s by testing every word against every
    relation in both orientations, with the carrier-leftover check."""
    words = P.words_of_grade(s)
    block = {w: {w} for w in words}
    for w in words:
        for u, v in P.relations + tuple((v, u) for u, v in P.relations):
            if all(a >= b for a, b in zip(w, u)):
                r = tuple(a - b for a, b in zip(w, u))
                if P.carrier.contains(P.gens, r):
                    w2 = tuple(a + b for a, b in zip(r, v))
                    if block[w] is not block[w2]:
                        merged = block[w] | block[w2]
                        for x in merged:
                            block[x] = merged
    classes = sorted({frozenset(b) for b in block.values()}, key=min)
    index = {w: k for k, cls in enumerate(classes) for w in cls}
    return tuple(classes), index


def oracle_cancellativity_scan(P, bound):
    """First (a, x, y) over grade g, pairs x < y of grade-g classes, then
    grade h and class a, with a + x and a + y in one class."""
    grades = [s for s in range(1, bound + 1) if P.words_of_grade(s)]
    strata = {s: oracle_stratum_classes(P, s) for s in grades}
    for g in grades:
        reps = [min(c) for c in strata[g][0]]
        for xi in range(len(reps)):
            for yi in range(xi + 1, len(reps)):
                x, y = reps[xi], reps[yi]
                for h in grades:
                    if g + h > bound:
                        continue
                    index = strata[g + h][1]
                    for a in (min(c) for c in strata[h][0]):
                        ax = tuple(p + q for p, q in zip(a, x))
                        ay = tuple(p + q for p, q in zip(a, y))
                        if index[ax] == index[ay]:
                            return (a, x, y)
    return None


def _rational_solve(rows, rhs):
    """A particular solution of rows . x = rhs over the rationals (free
    unknowns 0) by Gauss-Jordan elimination, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    M = [row[:] + [rhs[k]] for k, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n]:
            return None
    part = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        part[c] = M[k][n]
    return part


def oracle_half_factorial(P):
    """The ambient-space system: a functional on Q^n that is 0 on every
    relation difference u - v and 1 on every atom, solved over the
    rationals.  Returns its particular solution's values on the generating
    words, by name, or None when the system is inconsistent (the monoid is
    not half-factorial)."""
    rows = [[Fraction(x) for x in diff] for diff in monoid.relation_differences(P)]
    rhs = [Fraction(0)] * len(rows)
    for a in atoms(P):
        rows.append([Fraction(x) for x in a.representative])
        rhs.append(Fraction(1))
    part = _rational_solve(rows, rhs) if rows else [Fraction(0)] * len(P.gens)
    if part is None:
        return None
    return {
        P.format_word(w): int(sum(m * part[k] for k, m in enumerate(w)))
        for w in generating_words(P)
    }


def oracle_atoms(P):
    """Atoms by the strata definition: the class of an irreducible word at
    its grade is an atom iff every word in it is irreducible."""
    out = set()
    for w in generating_words(P):
        s = P.gens.grade(w)
        classes, index = oracle_stratum_classes(P, s)
        cls = classes[index[w]]
        if all(is_irreducible(P, x) for x in cls):
            out.add(Atom(min(cls), s))
    return sorted(out, key=lambda a: (a.grade, a.representative))


def oracle_is_free(P):
    """The freeness test that the count replaced: K0 torsion-free, the atom
    images in it distinct, and as many atoms as rank K0."""
    gc = group_completion(P)
    ats = atoms(P)
    images = {tuple(gc.free_coordinates(a.representative)) for a in ats}
    return not gc.invariant_factors and len(images) == len(ats) == gc.rank


def atom_multiset_counts(P, bound):
    """The number of multisets of atoms of each grade 0..bound."""
    counts = [1] + [0] * bound
    for a in atoms(P):
        for s in range(a.grade, bound + 1):
            counts[s] += counts[s - a.grade]
    return counts


def oracle_factorisation_lengths(P, bound, assignment):
    """Brute force: every factorization of a class of grade at most `bound`
    into atoms has the length that `assignment` gives each word of the
    class, read through any splitting into generating words."""
    gen_words = generating_words(P)
    value = {P.gens.zero(): 0}
    for s in range(1, bound + 1):
        for w in P.words_of_grade(s):
            for g in gen_words:
                rest = tuple(map(sub, w, g))
                if rest in value:
                    value[w] = value[rest] + assignment[P.format_word(g)]
                    break
    reps = [a.representative for a in atoms(P)]

    def products(start, word, k):
        yield word, k
        for i in range(start, len(reps)):
            nxt = tuple(map(add, word, reps[i]))
            if P.gens.grade(nxt) <= bound:
                yield from products(i, nxt, k + 1)

    for word, k in products(0, P.gens.zero(), 0):
        part = stratum_classes(P, P.gens.grade(word))
        for w in part.class_of(word):
            if w in value:
                assert value[w] == k, (P.format_word(word), k, P.format_word(w))


@st.composite
def small_presentations(draw):
    """A presentation on at most four generators, half of them with a
    dimension-vector carrier, and a scan bound of at most 7."""
    k = draw(st.integers(2, 4))
    vec = st.sampled_from([(a, b) for a in range(3) for b in range(3) if a or b])
    if draw(st.booleans()):
        dimvecs = tuple(draw(st.lists(vec, min_size=k, max_size=k)))
        gens = GeneratorTable(
            tuple(f"g{i}" for i in range(k)), tuple(map(sum, dimvecs)), dimvecs
        )
        carrier = Carrier.dimvec_submonoid(
            draw(st.lists(vec, min_size=1, max_size=2))
        )
    else:
        gens = GeneratorTable(
            tuple(f"g{i}" for i in range(k)),
            tuple(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))),
        )
        carrier = Carrier.all_words()
    free = Presentation(gens, carrier, ())
    grades = [s for s in range(1, 5) if len(free.words_of_grade(s)) > 1]
    # irreducible words that share their grade with another word
    letters = [w for w in generating_words(free) if free.gens.grade(w) in grades]
    relations = []
    # a common summand c makes relations c + u = c + v that need not
    # cancel, so that a good share of the scans return a certificate; a
    # relation with an irreducible side (on an `all` carrier, one letter =
    # one letter or one letter = several) decides whether a letter is an atom
    for _ in range(draw(st.integers(1, 5)) if grades else 0):
        if letters and draw(st.booleans()):
            u = draw(st.sampled_from(letters))
            others = [w for w in free.words_of_grade(free.gens.grade(u)) if w != u]
            v = draw(st.sampled_from(others))
            relations.append(draw(st.sampled_from([(u, v), (v, u)])))
            continue
        words = free.words_of_grade(draw(st.sampled_from(grades)))
        u, v = draw(st.lists(st.sampled_from(words), min_size=2, max_size=2,
                             unique=True))
        t = draw(st.sampled_from([0] + grades[:1]))
        c = draw(st.sampled_from(free.words_of_grade(t)))
        relations.append((tuple(map(add, c, u)), tuple(map(add, c, v))))
    return Presentation(gens, carrier, tuple(relations)), draw(st.integers(1, 7))


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(small_presentations(), st.data())
    def test_strata_scan_and_relation_differences(self, case, data):
        P, bound = case
        for s in range(bound + 1):
            part = stratum_classes(P, s)
            assert (part.classes, part.index) == oracle_stratum_classes(P, s)
        certificate = cancellativity_scan(P, bound)
        assert certificate == oracle_cancellativity_scan(P, bound)
        event(f"certificate: {certificate is not None}")
        irreducible = {
            w
            for s in range(1, bound + 1)
            for w in P.words_of_grade(s)
            if is_irreducible(P, w)
        }
        gens = generating_words(P)
        assert irreducible == {w for w in gens if P.gens.grade(w) <= bound}
        # on an `all` carrier the atoms come from the relations alone
        assert atoms(P) == oracle_atoms(P)
        if P.carrier.kind == "all":
            sides = [sorted((sum(u), sum(v))) for u, v in P.relations]
            event(f"one letter = one letter: {[1, 1] in sides}")
            event(f"one letter = several: {any(a == 1 < b for a, b in sides)}")
        gp = group_completion(P)
        hp = is_half_factorial(P)
        event(f"half-factorial on {P.carrier.kind}: {hp}")
        assignment = oracle_half_factorial(P)
        assert hp == (assignment is not None)
        if assignment is not None:
            oracle_factorisation_lengths(P, bound, assignment)
        free = is_free(P)
        event(f"free on {P.carrier.kind}: {free}")
        assert free == oracle_is_free(P)
        if free:
            # a free monoid has one class per multiset of atoms
            classes = [len(stratum_classes(P, s).classes) for s in range(bound + 1)]
            assert classes == atom_multiset_counts(P, bound)
        if not P.relations:
            return
        # duplicated, reversed and translated relations present the same
        # monoid, with the same differences up to sign
        extra = []
        for u, v in data.draw(st.lists(st.sampled_from(P.relations), max_size=3)):
            words = P.words_of_grade(data.draw(st.integers(0, 2)))
            r = data.draw(st.sampled_from(words or (P.gens.zero(),)))
            extra += [(u, v), (v, u), (tuple(map(add, r, u)), tuple(map(add, r, v)))]
        Q = Presentation(P.gens, P.carrier, P.relations + tuple(extra))
        for s in range(bound + 1):
            assert stratum_classes(Q, s).classes == stratum_classes(P, s).classes
        assert cancellativity_scan(Q, bound) == certificate
        gq = group_completion(Q)
        assert (gq.rank, gq.invariant_factors) == (gp.rank, gp.invariant_factors)
        assert is_half_factorial(Q) == hp
