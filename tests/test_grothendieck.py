import pytest

from jhp_lab import grothendieck as gk
from jhp_lab import monoid, nakayama, regress, repkit, typea
from jhp_lab.symgroup import NotSortable, parse_orientation, parse_perm

Q3 = parse_orientation("1>2<3")


class TestPresentationOf:
    def test_f3412_generators_and_relation(self):
        src = gk.typea_torsionfree(parse_perm("3412"), Q3, grade_bound=6)
        pres = gk.presentation_of(src)
        assert pres.gens.names == ("M[1,3)", "M[1,4)", "M[2,3)", "M[2,4)")
        assert pres.gens.grades == (2, 3, 1, 2)
        almost_split = (
            (1, 0, 0, 1),  # middle: M[1,3) + M[2,4)
            (0, 1, 1, 0),  # ends: M[2,3) + M[1,4)
        )
        assert almost_split in pres.relations

    def test_em_semisimple_split(self):
        src = gk.em_semisimple([(1, 1)], grade_bound=6)
        pres = gk.presentation_of(src)
        assert pres.relations == ()
        assert pres.carrier.kind == "dimvec"
        # the monoid is free on the diagonal generator
        assert monoid.is_free(pres)

    def test_a2_designated_reproduces_designated_relations(self):
        pres = gk.presentation_of(gk.a2_designated(1, 1, grade_bound=8))
        part = monoid.stratum_classes(pres, 4)
        assert {frozenset(c) for c in part.classes} == {
            frozenset({(1, 1, 1), (2, 2, 0)}),
            frozenset({(0, 0, 2)}),
        }

    def test_abstract_passthrough(self):
        src = gk.abstract_source(
            "generator a grade 1\ncarrier all\n", label="one-atom"
        )
        pres = gk.presentation_of(src)
        assert pres.gens.names == ("a",)


class TestSourceContracts:
    def test_typea_rejects_non_sortable_w(self):
        with pytest.raises(NotSortable):
            gk.typea_torsionfree(parse_perm("4231"), Q3)

    def test_nakayama_rejects_members_not_submodule_closed(self):
        kup = nakayama.parse_kupisch("kupisch: 3,2,1")
        with pytest.raises(gk.InvalidSpec, match="submodule-closed"):
            gk.nakayama_tf(kup, frozenset({nakayama.Uniserial(3, 3)}))

    def test_nakayama_rejects_members_not_extension_closed(self):
        # submodule-closed, but P2 extends S2 by S1; the harvest stops at
        # bound 1 and looks at no pair, so this once read jhp true
        kup = nakayama.parse_kupisch("kupisch: 2,1")
        with pytest.raises(gk.InvalidSpec, match="not extension-closed"):
            gk.nakayama_tf(kup, nakayama.parse_class("1:1, 2:1"))

    def test_nakayama_glues_each_pair_once(self, monkeypatch):
        # the closure check glues every ordered pair of members; the
        # harvest filters that relation list instead of gluing again
        seen = []
        gluings = repkit._gluings

        def spy(X, Z):
            seen.append((X, Z))
            return gluings(X, Z)

        monkeypatch.setattr(repkit, "_gluings", spy)
        kup = nakayama.parse_kupisch("kupisch: 3,2,1")
        members = nakayama.parse_class("1:1, 2:1, 2:2, 3:1, 3:2, 3:3")
        report = gk.report(gk.nakayama_tf(kup, members))
        assert len(seen) == len(set(seen)) == len(members) ** 2 == 36
        # the relations harvested up to the report's bound are the pairs'
        monkeypatch.setattr(repkit, "_gluings", gluings)
        E = nakayama.class_membership(kup, members)
        bound = report.cancellative_bound
        _, relations = gk._membership_harvest(E)
        assert report.presentation.relations == tuple(relations(bound, 0))

    @pytest.mark.parametrize("m, n", [(0, 0), (-1, 2), (1, -1)])
    def test_a2_rejects_zero_or_negative_vector(self, m, n):
        with pytest.raises(gk.InvalidSpec):
            gk.a2_designated(m, n)

    def test_harvest_refuses_memberships_not_closed_under_summands(self):
        # the vector spaces of dimension other than 1, where
        # k^6 = 3*k^2 = 2*k^3 fails the JHP, once read jhp true with the
        # non-member k as its atom; the class over 1<2 with no maps to
        # M[1,3), whose one member is M[2,3), read three atoms of rank 3
        k = repkit.Rep(repkit.PresentedAlgebra(1, (), ()), (1,), ())
        vector_spaces = repkit.Membership.dims_only((k,), lambda d: d[0] != 1)
        mods, reps = typea.interval_catalogue(parse_orientation("1<2"))
        top = reps[[str(m) for m in mods].index("M[1,3)")]
        no_maps_to_top = repkit.Membership.predicate(
            tuple(reps), lambda X: repkit.hom_dim(X, top) == 0
        )
        for E in (vector_spaces, no_maps_to_top):
            with pytest.raises(gk.InvalidSpec, match="summand-closed"):
                gk.report(gk.repkit_backed(E))
            repkit.conflations_up_to(E, 4)  # the oracle still takes them

    def test_abstract_rejects_malformed_line(self):
        with pytest.raises(monoid.InvalidPresentation):
            gk.abstract_source("generator a grade one\ncarrier all\n")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gk.typea_torsionfree(parse_perm("3412"), Q3),
            lambda: gk.a2_designated(1, 1),
            lambda: gk.em_semisimple([(1, 1)]),
            lambda: gk.nakayama_tf(
                nakayama.parse_kupisch("kupisch: 3,2,1"),
                nakayama.parse_class("1:1, 2:2, 3:3"),
            ),
            lambda: gk.abstract_source(
                regress.LOOP_ALGEBRA_PRESENTATION, grade_bound=6
            ),
            lambda: gk.repkit_backed(
                typea.torsion_free_membership(parse_perm("3412"), Q3)
            ),
        ],
        ids=["typea", "a2", "em", "nakayama", "abstract", "repkit"],
    )
    def test_report_twice_gives_equal_json(self, make):
        # a closed-form source hands every report the same presentation
        src = make()
        assert gk.report(src).to_json() == gk.report(src).to_json()


class TestA2Rule:
    def test_basic_cases(self):
        S1 = (1, 0, 0)
        S2 = (0, 1, 0)
        P = (0, 0, 1)
        assert list(gk.a2_middles(S1, S2)) == [P]
        assert list(gk.a2_middles(S2, S1)) == []

    def test_agrees_with_subrepresentation_harvest(self):
        q = parse_orientation("1<2")
        mods, reps = typea.interval_catalogue(q)
        # order the full module category's catalogue as (S1, S2, P)
        order = [mods.index(typea.IntervalModule(1, 2, q)),
                 mods.index(typea.IntervalModule(2, 3, q)),
                 mods.index(typea.IntervalModule(1, 3, q))]
        E = repkit.Membership.full(
            tuple(reps), labels=tuple(str(m) for m in mods)
        )
        harvested = set()
        for lhs, rhs in repkit.conflations_up_to(E, 6):
            y = tuple(lhs[k] for k in order)
            ends = tuple(rhs[k] for k in order)
            harvested.add((y, ends))
        predicted = set()
        words = []
        for b in range(7):
            for c in range(7):
                for a in range(4):
                    if b + c + 2 * a <= 6:
                        words.append((b, c, a))
        for x in words:
            for z in words:
                gx = x[0] + x[1] + 2 * x[2]
                gz = z[0] + z[1] + 2 * z[2]
                if gx == 0 or gz == 0 or gx + gz > 6:
                    continue
                ends = tuple(p + q for p, q in zip(x, z))
                predicted.update((y, ends) for y in gk.a2_middles(x, z))
        assert harvested == predicted


class TestReports:
    def test_f4312(self):
        rep = gk.report(gk.typea_torsionfree(parse_perm("4312"), Q3))
        assert rep.jhp and len(rep.atoms) == 3 and rep.k0_rank == 3
        assert rep.unique_length is True
        assert rep.k0_torsion == []

    def test_f3412(self):
        rep = gk.report(gk.typea_torsionfree(parse_perm("3412"), Q3))
        assert not rep.jhp and len(rep.atoms) == 4 and rep.k0_rank == 3
        assert rep.unique_length is True  # half-factorial despite failing JHP
        assert rep.cancellative_status == "none_up_to_bound"

    def test_identity_class(self):
        rep = gk.report(gk.typea_torsionfree(parse_perm("1234"), Q3))
        assert rep.jhp and rep.atoms == [] and rep.k0_rank == 0

    def test_45231_over_a4(self):
        q = parse_orientation("1<2>3<4")
        rep = gk.report(gk.typea_torsionfree(parse_perm("45231"), q))
        assert not rep.jhp and len(rep.atoms) == 6 and rep.k0_rank == 4
        # this class is hereditary, so lengths are unique despite the
        # failure of unique factorization
        assert rep.unique_length is True

    def test_nonulp_class_fails_unique_length(self):
        q = parse_orientation("1<2<3>4")
        rep = gk.report(gk.typea_torsionfree(parse_perm("53241"), q))
        assert rep.unique_length is False
        assert not rep.jhp

    def test_half_factorial_cross_checked_by_series(self):
        # F(3412) is half-factorial: all composition series lengths agree
        # for every object of total dimension at most 6
        w = parse_perm("3412")
        E = typea.torsion_free_membership(w, Q3)
        live = sorted(E.allowed)
        lengths = [E.catalogue[k].total_dim for k in live]
        alg = E.algebra
        for word in repkit._multisets_up_to(lengths, 6):
            parts = []
            for j, m in enumerate(word):
                parts.extend([E.catalogue[live[j]]] * m)
            X = repkit.direct_sum(alg, parts)
            assert repkit.series_analysis(X, E).unique_length

    def test_loop_algebra_report(self):
        src = gk.abstract_source(
            regress.LOOP_ALGEBRA_PRESENTATION,
            label="loop",
            grade_bound=6,
        )
        rep = gk.report(src)
        assert rep.cancellative_status == "certificate"
        assert rep.certificate == ("M", "M", "P2")
        assert len(rep.atoms) == 4 and not rep.jhp

    def test_json_schema(self):
        rep = gk.report(gk.typea_torsionfree(parse_perm("3412"), Q3))
        data = rep.to_json_dict()
        assert set(data) == {
            "source", "generators", "atoms", "k0", "jhp", "unique_length",
            "cancellative", "dim_monoid", "caveats",
        }
        assert data["k0"] == {"rank": 3, "torsion": []}
        assert data["generators"][0].keys() == {"name", "grade", "dimvec"}
        assert data["cancellative"]["status"] == "none_up_to_bound"
        assert rep.to_json() == rep.to_json()


class TestDimensionMonoid:
    def test_f3412(self):
        src = gk.typea_torsionfree(parse_perm("3412"), Q3)
        assert gk.dimension_monoid(src) == [
            (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)
        ]

    def test_full_a2(self):
        q = parse_orientation("1<2")
        w = parse_perm("321")
        src = gk.typea_torsionfree(w, q)
        assert gk.dimension_monoid(src) == [(0, 1), (1, 0), (1, 1)]

    def test_a2_designated_collapses(self):
        assert gk.dimension_monoid(gk.a2_designated(2, 1)) == [(2, 1)]


class TestKronecker:
    @pytest.mark.parametrize("bound", [3, 4])
    def test_demo(self, bound):
        demo = gk.kronecker_demo(bound)
        assert sorted(demo.regular_labels) == ["R01", "R10", "R11"]
        assert demo.regular_classes_distinct
        assert sorted(demo.projective_relations) == [
            ("S1+R01", "P2"), ("S1+R10", "P2"), ("S1+R11", "P2")
        ]
        assert demo.certificate is not None
        a, x, y = demo.certificate
        assert a == "S1" and x.startswith("R") and y.startswith("R") and x != y
        assert demo.s1_is_atom and not demo.p2_is_simple

    def test_bound_too_small(self):
        with pytest.raises(gk.InvalidSpec):
            gk.kronecker_demo(2)


class TestCertification:
    def test_adaptive_bound_certifies(self):
        for w, q in ((parse_perm("3412"), Q3), (parse_perm("4321"), Q3)):
            pres = gk.presentation_of(gk.typea_torsionfree(w, q))
            assert gk.relation_lattice_certified(pres)

    def test_f3412_needs_the_decomposable_middle(self):
        # at harvest bound 3 only split sequences exist, so the lattice is
        # not yet certified; the almost split sequence at length 4 fixes it
        pres3 = gk.presentation_of(gk.typea_torsionfree(parse_perm("3412"), Q3, 3))
        assert not gk.relation_lattice_certified(pres3)
        pres4 = gk.presentation_of(gk.typea_torsionfree(parse_perm("3412"), Q3, 4))
        assert gk.relation_lattice_certified(pres4)
