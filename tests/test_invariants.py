"""Cross-module agreement checks that do not fit a single module's tests."""
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

from jhp_lab import grothendieck as gk
from jhp_lab import monoid, nakayama, regress, repkit, typea
from jhp_lab.symgroup import (
    Orientation,
    coxeter_element,
    enumerate_c_sortable,
    parse_orientation,
    parse_perm,
)

Q3 = parse_orientation("1>2<3")


def test_jhp_verdict_matches_series_bruteforce_over_a3():
    # the combinatorial verdict against exhaustive composition-series
    # search on every object of total dimension at most six
    c = coxeter_element(Q3)
    for w in enumerate_c_sortable(c):
        E = typea.torsion_free_membership(w, Q3)
        analyzer = repkit.SeriesAnalyzer(E)
        live = sorted(E.allowed)
        lengths = [E.catalogue[k].total_dim for k in live]
        brute = True
        for word in repkit._multisets_up_to(lengths, 6):
            parts = []
            for j, mult in enumerate(word):
                parts.extend([E.catalogue[live[j]]] * mult)
            X = repkit.direct_sum(E.algebra, parts)
            if not analyzer.analyze(X).jhp_holds:
                brute = False
        assert brute == typea.jhp_verdict(w, Q3)


def _walks(E):
    """Series analyzers of E and of the same class cut out by a predicate."""
    P = repkit.Membership.predicate(E.catalogue, E.contains, labels=E.labels)
    return P, repkit.SeriesAnalyzer(E), repkit.SeriesAnalyzer(P)


def test_filtered_and_predicate_walks_agree_over_a3_and_a4():
    # F(w) is summand-closed, so its walk classifies only the subobjects
    # with the dimension vector of a simple member; the same class cut out
    # by a representation predicate walks every nonzero subobject
    for q in map(parse_orientation, ("1>2<3", "1<2>3", "1<2<3")):
        for w in enumerate_c_sortable(coxeter_element(q)):
            E = typea.torsion_free_membership(w, q)
            P, fast, slow = _walks(E)
            live = E.live
            lengths = [E.catalogue[k].total_dim for k in live]
            for word in repkit._multisets_up_to(lengths, 4):
                parts = [E.catalogue[k] for k, m in zip(live, word) for _ in range(m)]
                X = repkit.direct_sum(E.algebra, parts)
                assert fast.analyze(X) == slow.analyze(X), (q, w, word)
            # the additive harvest prunes pairs that follow from kept ones
            pairs_e = repkit.conflations_up_to(E, 4)
            pairs_p = repkit.conflations_up_to(P, 4)
            assert set(pairs_e) <= set(pairs_p)
            gens = monoid.GeneratorTable(
                tuple(E.labels[k] for k in live), tuple(lengths)
            )

            def strata(pairs):
                rels = tuple(
                    (tuple(u[k] for k in live), tuple(v[k] for k in live))
                    for u, v in pairs
                )
                pres = monoid.Presentation(gens, monoid.Carrier.all_words(), rels)
                return [monoid.stratum_classes(pres, s).classes for s in range(5)]

            assert strata(pairs_e) == strata(pairs_p), (q, w)
    # every member of every class over every orientation of A4
    for dirs in product("><", repeat=3):
        q = Orientation(4, dirs)
        for w in enumerate_c_sortable(coxeter_element(q)):
            E = typea.torsion_free_membership(w, q)
            _, fast, slow = _walks(E)
            for k in E.live:
                X = E.catalogue[k]
                assert fast.analyze(X) == slow.analyze(X), (q, w, k)


def test_atoms_are_exactly_the_simple_objects():
    for w in enumerate_c_sortable(coxeter_element(Q3)):
        pres = gk.presentation_of(gk.typea_torsionfree(w, Q3))
        atom_names = {
            pres.format_word(a.representative) for a in monoid.atoms(pres)
        }
        simple_names = {str(m) for m in typea.simples_of(w, Q3)}
        assert atom_names == simple_names


def test_stratification_is_stable_under_larger_relation_sets():
    # recomputing with more relations that are still grade-complete up to
    # a stratum leaves that stratum unchanged
    w = parse_perm("3412")
    pres4 = gk.presentation_of(gk.typea_torsionfree(w, Q3, grade_bound=4))
    pres6 = gk.presentation_of(gk.typea_torsionfree(w, Q3, grade_bound=6))
    assert set(pres4.relations) <= set(pres6.relations)
    for s in range(5):
        a = monoid.stratum_classes(pres4, s)
        b = monoid.stratum_classes(pres6, s)
        assert {frozenset(c) for c in a.classes} == {
            frozenset(c) for c in b.classes
        }


def test_fingerprint_classifier_agrees_with_rep_construction():
    # (complete catalogue, summands of Y): every A3 orientation, the linear
    # Nakayama algebra 3,2,1 and the loop algebra, each Y with a repeated
    # summand
    cases = []
    for q in ("1>2<3", "1<2>3", "1<2<3", "1>2>3"):
        mods, reps = typea.interval_catalogue(parse_orientation(q))
        E = repkit.Membership.full(tuple(reps), labels=tuple(str(m) for m in mods))
        cases.append((E, (1, 4, 0)))
        cases.append((E, (1, 4, 0, 0)))
    cases.append((nakayama.full_membership(nakayama.parse_kupisch("kupisch: 3,2,1")),
                  (5, 1, 1)))
    loop = repkit.parse_algebra(regress.LOOP_ALGEBRA_SPEC)
    indecs = repkit.brute_force_catalogue(loop, (2, 2), 4)
    cases.append((repkit.Membership.full(tuple(indecs)), (4, 1, 1)))
    for E, summands in cases:
        Y = repkit.direct_sum(E.algebra, [E.catalogue[k] for k in summands])
        clf = repkit.SubquotClassifier(E, Y)
        stray = len(E.catalogue)  # no catalogue index
        for S in repkit.enumerate_subreps(Y):
            sub, quot = repkit.sub_rep(Y, S), repkit.quotient_rep(Y, S)
            for _ in range(2):  # the second round hits both memos
                got = [clf.sub_class(S), E.decompose(sub)]
                got += [clf.quot_class(S), E.decompose(quot)]
                assert got[0] == got[1] and got[2] == got[3]
                # a caller's edit to a returned Counter must not reach a memo
                for classes in got:
                    assert stray not in classes
                    classes[stray] += 1


def test_nakayama_class_roundtrip():
    members = nakayama.parse_class("1:1, 2:2, 3:3")
    assert members == frozenset(
        {nakayama.Uniserial(1, 1), nakayama.Uniserial(2, 2), nakayama.Uniserial(3, 3)}
    )
    assert nakayama.format_class(members) == "1:1, 2:2, 3:3"
    assert nakayama.parse_class("") == frozenset()


def test_environment_variable_overrides_dimension_bound():
    # the subprocesses import the package from this checkout's src
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, JHP_LAB_BOUND="4")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "from jhp_lab import repkit; print(repkit.dimension_bound())"],
        env=env, capture_output=True, text=True,
    )
    assert proc.stdout.strip() == "4"
    # an explicit harvest bound above the dimension bound exits with code 4
    proc = subprocess.run(
        [sys.executable, "-m", "jhp_lab.cli", "analyze",
         "--quiver", "1>2<3", "--w", "4321", "--bound", "6"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 4


def test_full_regression_bundle_passes():
    results = list(regress.run_items())
    assert len(results) == 11
    for name, ok, detail in results:
        assert ok, (name, detail)


def test_class_members_are_closed_under_subrepresentations():
    # every subobject of a member decomposes into members again
    for w in enumerate_c_sortable(coxeter_element(Q3)):
        E = typea.torsion_free_membership(w, Q3)
        for k in sorted(E.allowed):
            member = E.catalogue[k]
            for S in repkit.enumerate_subreps(member):
                dec = E.decompose(repkit.sub_rep(member, S))
                assert all(i in E.allowed for i in dec)


def test_nakayama_reports_agree_with_counting():
    kup = nakayama.parse_kupisch("kupisch: 3,2,1")
    Efull = nakayama.full_membership(kup)
    _, mods, _ = nakayama.catalogue(kup)
    for S in repkit.torsion_free_classes(Efull, check_len=4):
        members = frozenset(mods[i] for i in S)
        n_simp, n_proj, ok = nakayama.jhp_check(kup, members)
        assert ok
        report = gk.report(gk.nakayama_tf(kup, members))
        assert report.jhp
        assert len(report.atoms) == n_simp
        assert report.k0_rank == n_proj
        assert report.unique_length is True


def test_nonunique_lengths_give_a_nonmodular_lattice():
    # subobject posets of torsion-free classes are always lattices, but a
    # member with composition series of different lengths rules out
    # modularity
    q = parse_orientation("1<2<3>4")
    w = parse_perm("53241")
    E = typea.torsion_free_membership(w, q)
    X = typea.interval_rep(typea.IntervalModule(1, 5, q))
    poset = repkit.admissible_poset(X, E)
    props = repkit.poset_properties(poset)
    assert props.is_lattice
    assert not props.is_modular
