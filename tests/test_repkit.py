import random
from collections import Counter
from itertools import product

import pytest

from jhp_lab import gf2, repkit, typea
from jhp_lab.symgroup import parse_orientation, parse_perm

A2 = parse_orientation("1<2")
A3 = parse_orientation("1>2<3")


def a2_setup():
    mods, reps = typea.interval_catalogue(A2)
    E = repkit.Membership.full(tuple(reps), labels=("S1", "P", "S2"))
    return reps[0], reps[1], reps[2], E  # S1, P, S2


def single_vertex(dim):
    return repkit.Rep(repkit.PresentedAlgebra(1, (), ()), (dim,), ())


def vector_spaces(dim_pred, name="E"):
    return repkit.Membership.dims_only(
        (single_vertex(1),), dim_pred, labels=("k",), name=name
    )


class TestAlgebra:
    def test_parse_roundtrip(self):
        alg = repkit.parse_algebra(
            """
            vertices: 2
            arrow a: 2 -> 1
            arrow b: 1 -> 1
            relation b b
            """
        )
        assert alg.vertices == 2
        assert alg.arrows == (("a", 2, 1), ("b", 1, 1))
        assert alg.relations == ((1, 1),)

    def test_infinite_dimensional_rejected(self):
        with pytest.raises(repkit.InvalidSpec):
            repkit.PresentedAlgebra(1, (("b", 1, 1),), ())

    def test_noncomposable_relation_rejected(self):
        with pytest.raises(repkit.InvalidSpec):
            repkit.PresentedAlgebra(2, (("a", 2, 1),), ((0, 0),))

    def test_relation_enforced_on_reps(self):
        alg = repkit.parse_algebra(
            "vertices: 1\narrow b: 1 -> 1\nrelation b b"
        )
        with pytest.raises(repkit.InvalidSpec):
            repkit.Rep(alg, (1,), ((1,),))  # identity loop does not square to 0
        repkit.Rep(alg, (1,), ((0,),))  # zero loop is fine


class TestHom:
    def test_a2_examples(self):
        S1, P, S2, _ = a2_setup()
        assert repkit.hom_dim(S1, S1) == 1
        assert repkit.hom_dim(S2, S1) == 0
        assert repkit.hom_dim(P, S1) == 0
        assert repkit.hom_dim(S1, P) == 1

    def test_bruteforce_oracle_small(self):
        # independent check: enumerate every graded map and test commutation
        S1, P, S2, _ = a2_setup()

        def brute(A, B):
            count = 0
            spaces = [
                list(product(range(1 << B.dims[v]), repeat=A.dims[v]))
                for v in range(A.algebra.vertices)
            ]
            for phis in product(*spaces):
                ok = True
                for a, (_, s, t) in enumerate(A.algebra.arrows):
                    for c in range(A.dims[s - 1]):
                        lhs = gf2.apply_cols(tuple(phis[t - 1]), A.maps[a][c])
                        rhs = gf2.apply_cols(tuple(B.maps[a]), phis[s - 1][c])
                        if lhs != rhs:
                            ok = False
                if ok:
                    count += 1
            return count

        for A in (S1, P, S2):
            for B in (S1, P, S2):
                assert 1 << repkit.hom_dim(A, B) == brute(A, B)

    def test_algebra_mismatch(self):
        S1, _, _, _ = a2_setup()
        with pytest.raises(repkit.AlgebraMismatch):
            repkit.hom_dim(S1, single_vertex(1))


class TestDecompose:
    def test_direct_sum_input(self):
        S1, P, S2, E = a2_setup()
        X = repkit.direct_sum(S1.algebra, [S1, P])
        assert E.decompose(X) == Counter({0: 1, 1: 1})

    def test_identifies_projective(self):
        S1, P, S2, E = a2_setup()
        X = repkit.Rep(S1.algebra, (1, 1), ((1,),))
        assert E.decompose(X) == Counter({1: 1})
        assert repkit.rep_iso(X, P)

    def test_zero(self):
        S1, P, S2, E = a2_setup()
        assert E.decompose(repkit.direct_sum(S1.algebra, [])) == Counter()

    def test_union_under_direct_sum_and_iso_invariance(self):
        S1, P, S2, E = a2_setup()
        rng = random.Random(3)
        alg = S1.algebra
        pool = [S1, P, S2]
        for _ in range(25):
            picks = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            X = repkit.direct_sum(alg, picks)
            want = Counter()
            for p in picks:
                want += E.decompose(p)
            assert E.decompose(X) == want
            # conjugate by a random base change at each vertex
            basis = []
            for v in range(alg.vertices):
                d = X.dims[v]
                while True:
                    cols = tuple(rng.randrange(1 << d) for _ in range(d))
                    if gf2.invertible(cols, d):
                        basis.append(cols)
                        break
            maps = []
            for a, (_, s, t) in enumerate(alg.arrows):
                s -= 1
                t -= 1
                new_cols = []
                for k in range(X.dims[s]):
                    w = gf2.apply_cols(X.maps[a], basis[s][k])
                    # express w in the new target basis (dims are tiny)
                    for mask in range(1 << X.dims[t]):
                        acc = 0
                        for b in range(X.dims[t]):
                            if mask >> b & 1:
                                acc ^= basis[t][b]
                        if acc == w:
                            new_cols.append(mask)
                            break
                maps.append(tuple(new_cols))
            Y = repkit.Rep(alg, X.dims, tuple(maps))
            assert E.decompose(Y) == want

    def test_singular_catalogue_detected(self):
        S1, P, S2, _ = a2_setup()
        bad = repkit.Membership.full((S1, S1, P), labels=("a", "b", "c"))
        with pytest.raises(repkit.SingularSystem):
            bad.decompose(P)

    def test_catalogue_missing_an_indecomposable_detected(self):
        # declared complete without S2: Hom counts into S2 and into P + S2
        # have no decomposition over S1 and P
        S1, P, S2, _ = a2_setup()
        bad = repkit.Membership.full((S1, P), labels=("S1", "P"))
        assert bad.decompose(repkit.direct_sum(P.algebra, [P, S1])) == {0: 1, 1: 1}
        for X in (S2, repkit.direct_sum(P.algebra, [P, S2])):
            with pytest.raises(repkit.NegativeMultiplicity):
                bad.decompose(X)
        # P over its socle S1 is S2: no Hom count out of it is nonzero, so
        # only the dimension vector (0, 1) shows that the class is missing
        clf = repkit.SubquotClassifier(bad, P)
        socle = next(S for S in repkit.enumerate_subreps(P) if S.dims() == (1, 0))
        assert clf.sub_class(socle) == {0: 1}
        with pytest.raises(repkit.NegativeMultiplicity):
            clf.quot_class(socle)


class TestSubreps:
    def test_counts(self):
        S1, P, S2, _ = a2_setup()
        assert len(repkit.enumerate_subreps(single_vertex(2))) == 5
        assert len(repkit.enumerate_subreps(P)) == 3
        X = repkit.direct_sum(S1.algebra, [S1, S2])
        assert len(repkit.enumerate_subreps(X)) == 4

    def test_bound(self, monkeypatch):
        with pytest.raises(repkit.DimensionBoundExceeded):
            repkit.enumerate_subreps(single_vertex(9))
        monkeypatch.setenv("JHP_LAB_BOUND", "3")
        assert len(repkit.enumerate_subreps(single_vertex(3))) == 16
        with pytest.raises(repkit.DimensionBoundExceeded):
            repkit.enumerate_subreps(single_vertex(4))

    def test_sub_and_quotient_are_complementary(self):
        S1, P, S2, E = a2_setup()
        X = repkit.direct_sum(P.algebra, [P, S1])
        for S in repkit.enumerate_subreps(X):
            sub = repkit.sub_rep(X, S)
            quot = repkit.quotient_rep(X, S)
            assert sub.total_dim + quot.total_dim == X.total_dim
            total = E.decompose(sub) + E.decompose(quot)
            assert sum(
                total[k] * E.catalogue[k].total_dim for k in total
            ) == X.total_dim


class TestAdmissiblePoset:
    def test_chain_for_projective(self):
        S1, P, S2, E = a2_setup()
        poset = repkit.admissible_poset(P, E)
        assert len(poset) == 3
        dims = [s.total_dim for s in poset.elements]
        assert dims == [0, 1, 2]
        assert poset.leq(0, 1) and poset.leq(1, 2)

    def test_k3_simple_when_lines_excluded(self):
        E = vector_spaces(lambda d: d[0] != 1)
        poset = repkit.admissible_poset(single_vertex(3), E)
        assert len(poset) == 2
        assert repkit.is_simple_object(single_vertex(3), E)
        assert repkit.is_simple_object(single_vertex(2), E)
        assert not repkit.is_simple_object(single_vertex(4), E)

    def test_not_member(self):
        E = vector_spaces(lambda d: d[0] != 1)
        with pytest.raises(repkit.NotMember):
            repkit.admissible_poset(single_vertex(1), E)

    def test_summand_closed_order_is_containment(self):
        # in a full module category the refinement never bites
        S1, P, S2, E = a2_setup()
        X = repkit.direct_sum(P.algebra, [P, S2])
        poset = repkit.admissible_poset(X, E)
        for i in range(len(poset)):
            for j in range(len(poset)):
                contained = repkit.sub_contains(
                    poset.elements[j], poset.elements[i]
                )
                assert poset.leq(i, j) == contained


class TestPosetProperties:
    def test_nonlattice_example(self):
        E = vector_spaces(lambda d: d[0] not in (1, 3))
        poset = repkit.admissible_poset(single_vertex(6), E)
        props = repkit.poset_properties(poset)
        assert not props.is_lattice and not props.is_modular

    def test_module_category_is_modular(self):
        S1, P, S2, E = a2_setup()
        for parts in ([P, S1], [P, S2], [P, P], [S1, S2, P]):
            X = repkit.direct_sum(P.algebra, parts)
            props = repkit.poset_properties(repkit.admissible_poset(X, E))
            assert props.is_lattice and props.is_modular


class TestSeries:
    def test_k6_with_no_lines(self):
        E = vector_spaces(lambda d: d[0] != 1)
        rep = repkit.series_analysis(single_vertex(6), E)
        assert rep.factor_labels == frozenset(
            {("2*k", "2*k", "2*k"), ("3*k", "3*k")}
        )
        assert rep.lengths == frozenset({2, 3})
        assert not rep.jhp_holds and not rep.unique_length
        assert rep.nu_max == 3

    def test_full_module_category_always_jhp(self):
        S1, P, S2, E = a2_setup()
        alg = P.algebra
        lengths = [1, 2, 1]
        for word in repkit._multisets_up_to(lengths, 4):
            parts = []
            for k, mult in enumerate(word):
                parts.extend([E.catalogue[k]] * mult)
            X = repkit.direct_sum(alg, parts)
            rep = repkit.series_analysis(X, E)
            assert rep.jhp_holds and rep.unique_length
            assert rep.nu_max == X.total_dim  # classical composition length

    def test_predicate_membership_keys_by_catalogue_summands(self):
        # a predicate membership materializes subobjects and quotients, and
        # keys their classes by catalogue summands like every membership
        E = repkit.Membership.predicate((single_vertex(1),), lambda rep: True)
        rep = repkit.series_analysis(single_vertex(2), E)
        (factors,) = rep.factor_multisets
        assert factors == ((0,), (0,))
        assert rep.factor_labels == frozenset({("C0", "C0")})
        assert rep.jhp_holds and not rep.is_simple

    def test_requires_membership(self):
        E = vector_spaces(lambda d: d[0] != 1)
        with pytest.raises(repkit.NotMember):
            repkit.series_analysis(single_vertex(1), E)


class TestIntervalIsomorphism:
    def test_intervals_match_quotient_posets(self):
        # [A, B] inside the subobject poset of X against the poset of B/A
        memberships = []
        mods3, reps3 = typea.interval_catalogue(A3)
        full3 = repkit.Membership.full(
            tuple(reps3), labels=tuple(str(m) for m in mods3)
        )
        memberships.append((A3, full3))
        mods2, reps2 = typea.interval_catalogue(A2)
        full2 = repkit.Membership.full(
            tuple(reps2), labels=tuple(str(m) for m in mods2)
        )
        memberships.append((A2, full2))
        for q, E in memberships:
            alg = E.algebra
            lengths = [c.total_dim for c in E.catalogue]
            for word in repkit._multisets_up_to(lengths, 4):
                parts = []
                for k, mult in enumerate(word):
                    parts.extend([E.catalogue[k]] * mult)
                X = repkit.direct_sum(alg, parts)
                poset = repkit.admissible_poset(X, E)
                n = len(poset)
                for ia in range(n):
                    for ib in range(n):
                        if ia == ib or not poset.leq(ia, ib):
                            continue
                        A = poset.elements[ia]
                        B = poset.elements[ib]
                        quot = repkit.section_quotient(X, A, B)
                        inner = repkit.admissible_poset(quot, E)
                        interval = [
                            k
                            for k in range(n)
                            if poset.leq(ia, k) and poset.leq(k, ib)
                        ]
                        assert len(interval) == len(inner)
                        # order-isomorphic: compare sorted down-degree lists
                        deg_outer = sorted(
                            sum(
                                1
                                for j in interval
                                if poset.leq(j, k)
                            )
                            for k in interval
                        )
                        deg_inner = sorted(
                            sum(
                                1
                                for j in range(len(inner))
                                if inner.leq(j, k)
                            )
                            for k in range(len(inner))
                        )
                        assert deg_outer == deg_inner


class TestConflations:
    def test_a2_maxlen2(self):
        S1, P, S2, E = a2_setup()
        pairs = repkit.conflations_up_to(E, 2)
        assert pairs == [((0, 1, 0), (1, 0, 1))]

    def test_pairs_preserve_length(self):
        mods, reps = typea.interval_catalogue(A3)
        E = repkit.Membership.full(tuple(reps), labels=tuple(str(m) for m in mods))
        lengths = [r.total_dim for r in reps]
        for u, v in repkit.conflations_up_to(E, 5):
            assert sum(m * l for m, l in zip(u, lengths)) == sum(
                m * l for m, l in zip(v, lengths)
            )

    def test_predicate_walk_builds_each_subobject_once(self, monkeypatch):
        # the predicate and the iso key see the same materialized S and X/S
        E = typea.torsion_free_membership(parse_perm("3412"), A3)
        P = repkit.Membership.predicate(E.catalogue, E.contains, labels=E.labels)
        built = Counter()
        real = repkit.sub_rep

        def counting(X, S):
            built[X, S] += 1
            return real(X, S)

        monkeypatch.setattr(repkit, "sub_rep", counting)
        assert repkit.conflations_up_to(P, 4)
        assert built and max(built.values()) == 1

    def test_split_membership_has_no_relations(self):
        # a semisimple algebra: two vertices, no arrows
        alg = repkit.PresentedAlgebra(2, (), ())
        s1 = repkit.Rep(alg, (1, 0), ())
        s2 = repkit.Rep(alg, (0, 1), ())
        E = repkit.Membership.full((s1, s2), labels=("S1", "S2"))
        assert repkit.conflations_up_to(E, 4) == []


class TestBruteForceCatalogue:
    def test_loop_algebra_has_seven_indecomposables(self):
        alg = repkit.parse_algebra(
            "vertices: 2\narrow b: 1 -> 1\narrow a: 2 -> 1\nrelation b b"
        )
        indecs = repkit.brute_force_catalogue(alg, (2, 2), 4)
        assert len(indecs) == 7
        dims = sorted(r.dims for r in indecs)
        assert dims == [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 1), (2, 2)]

    def test_kronecker_small_dims(self):
        alg = repkit.PresentedAlgebra(2, (("f", 2, 1), ("g", 2, 1)), ())
        indecs = repkit.brute_force_catalogue(alg, (2, 2), 3)
        dims = sorted(r.dims for r in indecs)
        # S1, S2, three regulars, one preprojective, one preinjective
        assert dims == [(0, 1), (1, 0), (1, 1), (1, 1), (1, 1), (1, 2), (2, 1)]
