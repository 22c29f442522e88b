"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything here is desk-scale and self-contained.
"""
from contextlib import contextmanager
from itertools import product

import pytest

from jhp_lab import cli, gf2, grothendieck as gk, monoid, regress, repkit, typea
from jhp_lab.symgroup import (
    Orientation,
    bruhat_inversions,
    coxeter_element,
    enumerate_c_sortable,
    inversions,
    parse_orientation,
    parse_perm,
    support,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def T(*pairs):
    return frozenset(pairs)


# the fourteen rows of the sortable-element table for Q = 1>2<3,
# transcribed cell by cell
TABLE1_CELLS = {
    "1234": (frozenset(), T(), T()),
    "1324": (frozenset({2}), T((2, 3)), T((2, 3))),
    "2134": (frozenset({1}), T((1, 2)), T((1, 2))),
    "1243": (frozenset({3}), T((3, 4)), T((3, 4))),
    "3124": (frozenset({1, 2}), T((1, 3), (2, 3)), T((1, 3), (2, 3))),
    "1342": (frozenset({2, 3}), T((2, 3), (2, 4)), T((2, 3), (2, 4))),
    "2143": (frozenset({1, 3}), T((1, 2), (3, 4)), T((1, 2), (3, 4))),
    "3214": (frozenset({1, 2}), T((1, 2), (1, 3), (2, 3)), T((1, 2), (2, 3))),
    "1432": (frozenset({2, 3}), T((2, 3), (2, 4), (3, 4)), T((2, 3), (3, 4))),
    "3142": (
        frozenset({1, 2, 3}),
        T((1, 3), (2, 3), (2, 4)),
        T((1, 3), (2, 3), (2, 4)),
    ),
    "3412": (
        frozenset({1, 2, 3}),
        T((1, 3), (1, 4), (2, 3), (2, 4)),
        T((1, 3), (1, 4), (2, 3), (2, 4)),
    ),
    "4312": (
        frozenset({1, 2, 3}),
        T((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        T((1, 3), (2, 3), (3, 4)),
    ),
    "3421": (
        frozenset({1, 2, 3}),
        T((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
        T((1, 2), (2, 3), (2, 4)),
    ),
    "4321": (
        frozenset({1, 2, 3}),
        T((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        T((1, 2), (2, 3), (3, 4)),
    ),
}

# Bruhat-inversion sets of the fourteen faithful classes for Q = 1<2>3<4,
# in table order
TABLE2_BINV = {
    "24153": T((1, 2), (1, 4), (3, 4), (3, 5)),
    "42153": T((1, 2), (2, 4), (3, 4), (3, 5)),
    "24513": T((1, 2), (1, 4), (1, 5), (3, 4), (3, 5)),
    "42513": T((1, 2), (1, 5), (2, 4), (3, 4), (3, 5)),
    "25413": T((1, 2), (1, 4), (3, 4), (4, 5)),
    "24531": T((1, 2), (1, 3), (3, 4), (3, 5)),
    "45213": T((1, 2), (2, 4), (2, 5), (3, 4), (3, 5)),
    "42531": T((1, 2), (1, 3), (2, 4), (3, 4), (3, 5)),
    "25431": T((1, 2), (1, 3), (3, 4), (4, 5)),
    "45231": T((1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)),
    "54213": T((1, 2), (2, 4), (3, 4), (4, 5)),
    "54231": T((1, 2), (1, 3), (2, 4), (3, 4), (4, 5)),
    "45321": T((1, 2), (2, 3), (3, 4), (3, 5)),
    "54321": T((1, 2), (2, 3), (3, 4), (4, 5)),
}

TABLE2_NSIMP = (4, 4, 5, 5, 4, 4, 5, 5, 4, 6, 4, 5, 4, 4)


def parse_csv_sets(cell):
    cell = cell.strip('"{}')
    if not cell:
        return frozenset()
    if "(" in cell:
        parts = cell.replace("(", "").split("),")
        return frozenset(
            tuple(int(x) for x in p.strip("()").split(",")) for p in parts
        )
    return frozenset(int(x) for x in cell.split(","))


def split_csv_row(line):
    out = []
    depth = False
    cur = []
    for ch in line:
        if ch == '"':
            depth = not depth
        elif ch == "," and not depth:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def test_criterion_1_table1(capsys):
    with criterion(1, "table1 CSV matches all fourteen rows cell by cell"):
        assert cli.main(["tables", "--which", "table1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "w,supp,inv,Binv,nsimp,jhp"
        rows = [split_csv_row(l) for l in lines[1:]]
        assert len(rows) == 14
        seen = {}
        for w, supp, inv, binv, nsimp, jhp in rows:
            seen[w] = (
                parse_csv_sets(supp),
                parse_csv_sets(inv),
                parse_csv_sets(binv),
                int(nsimp),
                jhp == "true",
            )
        assert set(seen) == set(TABLE1_CELLS)
        for w, (supp, inv, binv) in TABLE1_CELLS.items():
            got = seen[w]
            assert got[0] == supp and got[1] == inv and got[2] == binv, w
            assert got[3] == len(binv)
            assert got[4] == (w != "3412")


def test_criterion_2_table2(capsys):
    with criterion(2, "table2 reproduces the faithful classes and #simp column"):
        assert cli.main(["tables", "--which", "table2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        rows = [split_csv_row(l) for l in lines]
        assert [r[0] for r in rows] == list(TABLE2_BINV)
        assert tuple(int(r[4]) for r in rows) == TABLE2_NSIMP
        for r in rows:
            assert parse_csv_sets(r[3]) == TABLE2_BINV[r[0]], r[0]


def test_criterion_3_census(capsys):
    with criterion(3, "census for 1<2>3<4 is (42,34,8)"):
        assert cli.main(
            ["tables", "--which", "census", "--quiver", "1<2>3<4"]
        ) == 0
        assert capsys.readouterr().out == "42,34,8\n"


def test_criterion_4_bruhat_vectors():
    with criterion(4, "inversion and Bruhat-inversion sets of 45231 and 54213"):
        w1 = parse_perm("45231")
        assert inversions(w1) == T(
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)
        )
        assert bruhat_inversions(w1) == T(
            (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)
        )
        w2 = parse_perm("54213")
        assert inversions(w2) == T(
            (1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)
        )
        assert bruhat_inversions(w2) == T((1, 2), (2, 4), (3, 4), (4, 5))


@pytest.fixture(scope="module")
def exhaustive_classes():
    """Every torsion-free class over every orientation of A3 and A4."""
    out = []
    for n in (3, 4):
        for dirs in product("><", repeat=n - 1):
            q = Orientation(n, tuple(dirs))
            c = coxeter_element(q)
            mods, reps = typea.interval_catalogue(q)
            for w in enumerate_c_sortable(c):
                E = typea.torsion_free_membership(w, q)
                brute_simples = {
                    (mods[k].i, mods[k].j)
                    for k in sorted(E.allowed)
                    if repkit.is_simple_object(reps[k], E)
                }
                pres = gk.presentation_of(gk.typea_torsionfree(w, q))
                out.append(
                    {
                        "q": q,
                        "w": w,
                        "brute_simples": brute_simples,
                        "certified": gk.relation_lattice_certified(pres),
                        "free": monoid.is_free(pres),
                        "completion": monoid.group_completion(pres),
                    }
                )
    return out


def test_criterion_5_oracle_equivalence(exhaustive_classes):
    with criterion(
        5,
        "simples match the subrepresentation oracle and freeness matches the"
        " counting criterion on all A3/A4 classes",
    ):
        assert len(exhaustive_classes) == 4 * 14 + 8 * 42
        for row in exhaustive_classes:
            w = row["w"]
            assert row["brute_simples"] == set(bruhat_inversions(w)), (
                row["q"], w,
            )
            assert row["certified"], (row["q"], w)
            expected = len(support(w)) == len(bruhat_inversions(w))
            assert row["free"] == expected, (row["q"], w)


def test_criterion_6_designated_a2_classes():
    with criterion(
        6, "designated A2 classes: atom counts, strata and Cayley patterns"
    ):
        for m, n in ((1, 1), (2, 1), (2, 2)):
            ok, detail = regress.check_compex(m, n)
            assert ok, detail
            # atom count min(m,n)+1 re-checked here
            pres = gk.presentation_of(gk.a2_designated(m, n))
            assert len(monoid.atoms(pres)) == min(m, n) + 1
            # distinctness of the two chains in the equal-parameter case
            if m == n:
                step = m + n
                for big in (2, 3, 4):
                    part = monoid.stratum_classes(pres, big * step)
                    assert len(part.classes) == 2


def test_criterion_7_noncancellativity_certificates():
    with criterion(7, "non-cancellativity certificates on all three sources"):
        src = gk.abstract_source(
            regress.LOOP_ALGEBRA_PRESENTATION, label="loop", grade_bound=6
        )
        rep = gk.report(src)
        assert rep.certificate == ("M", "M", "P2")
        pres = rep.presentation
        part = monoid.stratum_classes(pres, 3)
        assert part.representative((0, 0, 0, 1)) != part.representative((0, 1, 0, 0))

        pres11 = gk.presentation_of(gk.a2_designated(1, 1))
        assert monoid.cancellativity_scan(pres11, 4) is not None

        demo = gk.kronecker_demo(3)
        assert demo.regular_classes_distinct
        assert len(demo.regular_labels) == 3
        assert sorted(demo.projective_relations) == [
            ("S1+R01", "P2"), ("S1+R10", "P2"), ("S1+R11", "P2")
        ]
        assert demo.certificate is not None


def test_criterion_8_counterexample_regressions():
    with criterion(8, "counterexample regressions (exa, nonlattice1, nonulp1, intro)"):
        for check in (
            regress.check_exa,
            regress.check_nonlattice,
            regress.check_nonulp,
            regress.check_intro_classes,
        ):
            ok, detail = check()
            assert ok, detail


def test_criterion_9_k0_structure(exhaustive_classes):
    with criterion(
        9, "completed groups are torsion-free of rank #supp on all A3/A4 classes"
    ):
        for row in exhaustive_classes:
            gc = row["completion"]
            assert not gc.invariant_factors, (row["q"], row["w"])
            assert gc.rank == len(support(row["w"])), (row["q"], row["w"])


def test_criterion_10_nakayama():
    from jhp_lab import nakayama as nk

    with criterion(
        10, "all torsion-free classes over linear A3 and cyclic (2,2) satisfy"
        " the counting identity and the brute-force series check",
    ):
        for kup in (
            nk.parse_kupisch("kupisch: 3,2,1"),
            nk.parse_kupisch("kupisch-cyclic: 2,2"),
        ):
            Efull = nk.full_membership(kup)
            classes = repkit.torsion_free_classes(Efull, check_len=5)
            alg, mods, reps = nk.catalogue(kup)
            for S in classes:
                members = frozenset(mods[i] for i in S)
                n_simp, n_proj, ok = nk.jhp_check(kup, members)
                assert ok and n_simp == n_proj
                E = repkit.Membership.additive(
                    tuple(reps), frozenset(S),
                    labels=tuple(str(u) for u in mods),
                )
                live = sorted(S)
                lengths = [reps[i].total_dim for i in live]
                for word in repkit._multisets_up_to(lengths, 5):
                    parts = []
                    for j, mult in enumerate(word):
                        parts.extend([reps[live[j]]] * mult)
                    X = repkit.direct_sum(alg, parts)
                    series = repkit.series_analysis(X, E)
                    assert series.jhp_holds and series.unique_length, (kup, S, word)


def _quotient_projection(X, A, B):
    nv = X.algebra.vertices
    a_in_b = [
        gf2.rref([gf2.coords_in_span(B.bases[v], u) for u in A.bases[v]])
        for v in range(nv)
    ]
    rest = [
        [
            c
            for c in range(len(B.bases[v]))
            if c not in {gf2.pivot(r) for r in a_in_b[v]}
        ]
        for v in range(nv)
    ]

    def project(U):
        out = []
        for v in range(nv):
            rows = []
            for u in U.bases[v]:
                w = gf2.coords_in_span(B.bases[v], u)
                w = gf2.reduce_vec(a_in_b[v], w)
                rows.append(
                    sum(1 << k for k, c in enumerate(rest[v]) if w >> c & 1)
                )
            out.append(gf2.rref(rows))
        return repkit.SubRep(tuple(out))

    return project


def test_criterion_11_monoid_laws():
    with criterion(11, "monoid-law and interval-isomorphism property suite"):
        # monoid laws over a spread of presentations
        q3 = parse_orientation("1>2<3")
        presentations = [
            gk.presentation_of(gk.typea_torsionfree(w, q3))
            for w in enumerate_c_sortable(coxeter_element(q3))
        ]
        presentations.append(gk.presentation_of(gk.a2_designated(1, 1)))
        presentations.append(gk.presentation_of(gk.a2_designated(2, 1)))
        presentations.append(
            gk.presentation_of(
                gk.abstract_source(regress.LOOP_ALGEBRA_PRESENTATION, "loop", 6)
            )
        )
        for pres in presentations:
            # reducedness: positive grades, and the zero stratum is trivial
            assert all(g >= 1 for g in pres.gens.grades)
            zero = monoid.stratum_classes(pres, 0)
            assert zero.classes == (frozenset({pres.gens.zero()}),)
            # atoms lie among the carrier generators
            gens = set(monoid.generating_words(pres))
            ats = monoid.atoms(pres)
            for a in ats:
                assert a.representative in gens
            gc = monoid.group_completion(pres)
            if not gc.invariant_factors:
                assert gc.rank <= len(ats)
            if monoid.is_free(pres):
                assert monoid.is_half_factorial(pres)
                bound = max(
                    (pres.relation_grade_bound or 0,
                     2 * max(pres.gens.grades, default=1)),
                )
                assert monoid.cancellativity_scan(pres, bound) is None

        # interval isomorphism [A,B] = P(B/A) over A2 and A3, dims <= 5
        inner_cache = {}
        for qs in ("1<2", "1>2<3"):
            q = parse_orientation(qs)
            mods, reps = typea.interval_catalogue(q)
            E = repkit.Membership.full(
                tuple(reps), labels=tuple(str(m) for m in mods)
            )
            alg = E.algebra
            lengths = [r.total_dim for r in reps]
            for word in repkit._multisets_up_to(lengths, 5):
                parts = []
                for k, mult in enumerate(word):
                    parts.extend([reps[k]] * mult)
                X = repkit.direct_sum(alg, parts)
                poset = repkit.admissible_poset(X, E)
                n = len(poset)
                for ib in range(n):
                    B = poset.elements[ib]
                    for ia in range(n):
                        if ia == ib or not poset.leq(ia, ib):
                            continue
                        A = poset.elements[ia]
                        quot = repkit.section_quotient(X, A, B)
                        key = (qs, quot.dims, quot.maps)
                        if key not in inner_cache:
                            inner = repkit.admissible_poset(quot, E)
                            inner_cache[key] = (
                                {s: i for i, s in enumerate(inner.elements)},
                                inner,
                            )
                        index, inner = inner_cache[key]
                        project = _quotient_projection(X, A, B)
                        interval = [
                            k
                            for k in range(n)
                            if poset.leq(ia, k) and poset.leq(k, ib)
                        ]
                        images = [project(poset.elements[k]) for k in interval]
                        assert len(interval) == len(inner.elements)
                        assert all(img in index for img in images)
                        assert len(set(images)) == len(images)
                        for u, iu in zip(interval, images):
                            for v, iv in zip(interval, images):
                                assert poset.leq(u, v) == inner.leq(
                                    index[iu], index[iv]
                                )
