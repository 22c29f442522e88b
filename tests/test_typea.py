from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from jhp_lab import repkit, typea
from jhp_lab.symgroup import (
    NotSortable,
    Orientation,
    bruhat_inversions,
    coxeter_element,
    enumerate_c_sortable,
    inversions,
    parse_orientation,
    parse_perm,
    sorting_rounds,
    support,
)

Q3 = parse_orientation("1>2<3")
Q4 = parse_orientation("1<2>3<4")


def interval_set(q, *pairs):
    return frozenset(typea.IntervalModule(i, j, q) for i, j in pairs)


class TestClassOf:
    def test_3412(self):
        cls = typea.class_of(parse_perm("3412"), Q3)
        assert cls.modules == interval_set(Q3, (1, 3), (1, 4), (2, 3), (2, 4))

    def test_identity(self):
        assert typea.class_of(parse_perm("1234"), Q3).modules == frozenset()

    def test_45231_has_eight_modules(self):
        cls = typea.class_of(parse_perm("45231"), Q4)
        assert len(cls.modules) == 8
        assert cls.modules == frozenset(
            typea.IntervalModule(i, j, Q4)
            for (i, j) in inversions(parse_perm("45231"))
        )

    def test_not_sortable_raises(self):
        with pytest.raises(NotSortable):
            typea.class_of(parse_perm("4231"), Q3)

    def test_class_support_is_permutation_support(self):
        for w in enumerate_c_sortable(coxeter_element(Q3)):
            mods = typea.class_of(w, Q3).modules
            vertex_support = set()
            for m in mods:
                vertex_support.update(m.vertex_support)
            assert vertex_support == set(support(w))


class TestSimples:
    def test_4312(self):
        assert typea.simples_of(parse_perm("4312"), Q3) == interval_set(
            Q3, (1, 3), (2, 3), (3, 4)
        )

    def test_3412_all_simple(self):
        w = parse_perm("3412")
        assert typea.simples_of(w, Q3) == typea.class_of(w, Q3).modules

    def test_single_object_class(self):
        assert typea.simples_of(parse_perm("1324"), Q3) == interval_set(Q3, (2, 3))

    def test_simples_inside_class_and_at_least_support(self):
        for w in enumerate_c_sortable(coxeter_element(Q4)):
            simples = typea.simples_of(w, Q4)
            assert simples <= typea.class_of(w, Q4).modules
            assert len(simples) >= len(support(w))

    def test_brute_force_simples_are_bruhat_inversions_over_a5(self):
        # every class of every orientation of A5 against the oracle
        classes = 0
        for dirs in product("><", repeat=4):
            q = Orientation(5, dirs)
            mods, reps = typea.interval_catalogue(q)
            for w in enumerate_c_sortable(coxeter_element(q)):
                E = typea.torsion_free_membership(w, q)
                brute = {
                    (mods[k].i, mods[k].j)
                    for k in E.live
                    if repkit.is_simple_object(reps[k], E)
                }
                assert brute == set(bruhat_inversions(w)), (q, w)
                classes += 1
        assert classes == 2112

    def test_splice_inside_class_forces_nonsimple(self):
        # whenever both halves of a splice lie in F(w), the middle is not
        # simple there
        for w in enumerate_c_sortable(coxeter_element(Q3)):
            inv = inversions(w)
            for (i, j) in inv:
                for l in range(i + 1, j):
                    if (i, l) in inv and (l, j) in inv:
                        assert (i, j) not in bruhat_inversions(w)


class TestJhpVerdict:
    def test_examples(self):
        assert not typea.jhp_verdict(parse_perm("3412"), Q3)
        assert typea.jhp_verdict(parse_perm("4312"), Q3)
        assert typea.jhp_verdict(parse_perm("1234"), Q3)


class TestIntervalExtensions:
    """The closed-form Ext rule against gluing over F2 and Hom counts."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rule_matches_gluings_on_every_orientation(self, n):
        for dirs in product("><", repeat=n - 1):
            q = Orientation(n, dirs)
            mods, reps = typea.interval_catalogue(q)
            full = repkit.Membership.full(tuple(reps))
            decompose = lru_cache(maxsize=None)(full.decompose)
            for i, k in product(range(len(mods)), repeat=2):
                X, Z = mods[i], mods[k]
                assert typea.hom_dim(Z, X) == repkit.hom_dim(reps[k], reps[i])
                assert typea.ext_dim(Z, X) in (0, 1)
                ends = Counter((i, k))
                glued = {
                    frozenset(decompose(Y).items())
                    for Y in repkit._gluings(reps[i], reps[k])
                } - {frozenset(ends.items())}
                middle = typea.extension_middle(X, Z)
                want = set()
                if middle is not None:
                    want.add(frozenset(Counter(mods.index(m) for m in middle).items()))
                assert glued == want, (q, str(X), str(Z))

    def test_adjacent_intervals_glue_into_their_union(self):
        # M[1,2) is a submodule of M[1,3) over 1<2, with quotient M[2,3)
        q = parse_orientation("1<2")
        lo, hi = typea.IntervalModule(1, 2, q), typea.IntervalModule(2, 3, q)
        assert typea.extension_middle(lo, hi) == (typea.IntervalModule(1, 3, q),)
        assert typea.extension_middle(hi, lo) is None

    def test_euler_form_matches_the_arrow_sum(self):
        # <dim Z, dim X> summed over every vertex and every arrow s -> t
        count = 0
        for n in range(1, 7):
            for dirs in product("><", repeat=n - 1):
                q = Orientation(n, dirs)
                intervals = [
                    typea.IntervalModule(i, j, q)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 2)
                ]
                for Z, X in product(intervals, repeat=2):
                    z, x = Z.dimvec(), X.dimvec()
                    want = sum(a * b for a, b in zip(z, x)) - sum(
                        z[s - 1] * x[t - 1] for s, t in q.arrows()
                    )
                    assert typea.euler_form(Z, X) == want, (q, str(Z), str(X))
                    count += 1
        assert count == 18_675


class TestCensus:
    def test_known_quivers(self):
        assert typea.census(Q4) == (42, 34, 8)
        assert typea.census(Q3) == (14, 13, 4)
        assert typea.census(parse_orientation("1")) == (2, 2, 1)

    def test_census_matches_row_filtering(self):
        for dirs in product("><", repeat=2):
            q = Orientation(3, tuple(dirs))
            rows = typea.table_rows(q)
            total, jhp, faithful = typea.census(q)
            assert total == len(rows)
            assert jhp == sum(1 for r in rows if r.jhp)
            full = frozenset(range(1, q.n + 1))
            assert faithful == sum(1 for r in rows if r.jhp and r.supp == full)


class TestTables:
    def test_table1_cells(self):
        rows = {typea.format_perm(r.w): r for r in typea.table_rows(Q3)}
        assert len(rows) == 14
        r = rows["3214"]
        assert r.inv == frozenset({(1, 2), (1, 3), (2, 3)})
        assert r.binv == frozenset({(1, 2), (2, 3)})
        assert rows["3412"].jhp is False
        assert all(r.jhp for w, r in rows.items() if w != "3412")

    def test_table2_simple_counts_in_order(self):
        rows = typea.table_rows(Q4, faithful_only=True)
        assert tuple(r.n_simples for r in rows) == (
            4, 4, 5, 5, 4, 4, 5, 5, 4, 6, 4, 5, 4, 4
        )
        assert [typea.format_perm(r.w) for r in rows[:3]] == [
            "24153", "42153", "24513"
        ]

    def test_row_order_is_length_then_greedy_sorting_positions(self):
        def greedy_key(w, c):
            index_in_c = {i: k for k, i in enumerate(c.word)}
            return [
                r * c.n + index_in_c[i]
                for r, taken in enumerate(sorting_rounds(w, c))
                for i in taken
            ]

        for n in range(1, 6):
            for dirs in product("><", repeat=n - 1):
                q = Orientation(n, tuple(dirs))
                c = coxeter_element(q)
                want = sorted(
                    enumerate_c_sortable(c),
                    key=lambda w: (len(inversions(w)), greedy_key(w, c)),
                )
                assert [r.w for r in typea.table_rows(q)] == want, str(q)

    def test_csv_shape(self):
        csv = typea.rows_to_csv(typea.table_rows(Q3))
        lines = csv.strip().split("\n")
        assert lines[0] == "w,supp,inv,Binv,nsimp,jhp"
        assert len(lines) == 15
        assert '"{(2,3)}"' in lines[2]


class TestIntervalReps:
    def test_dimvec(self):
        m = typea.IntervalModule(2, 4, Q4)
        assert m.dimvec() == (0, 1, 1, 0)
        assert m.module_length == 2

    def test_rep_respects_orientation(self):
        rep = typea.interval_rep(typea.IntervalModule(1, 4, Q3))
        assert rep.dims == (1, 1, 1)
        # arrows 1->2 and 3->2 both carry the identity
        assert rep.maps == ((1,), (1,))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(typea.IndexOutOfRange):
            typea.IntervalModule(2, 2, Q3)
