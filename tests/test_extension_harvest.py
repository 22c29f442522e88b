"""The extension harvests against the subspace harvest they replace.

`repkit.extension_relations` glues pairs of indecomposables, and
`typea.extension_relations` reads the middles of interval modules off
their endpoints; `repkit.conflations_up_to` enumerates every subobject of
every direct sum and stays the oracle.  `subspace_presentation` runs it
through the same adaptive loop as a `CategorySource` of its own.
"""
from collections import Counter
from functools import lru_cache
from itertools import product
from operator import add, mul, sub

import pytest

from jhp_lab import grothendieck as gk
from jhp_lab import monoid, nakayama, repkit, typea
from jhp_lab.symgroup import (
    Orientation,
    coxeter_element,
    enumerate_c_sortable,
    parse_orientation,
    parse_perm,
)


def subspace_presentation(E, grade_bound=None):
    """The presentation of E with every conflation relation whose middle
    grade the adaptive loop asks for, walked over subspaces."""
    live = E.live
    grades = [c.total_dim for c in E.catalogue]

    def relations(maxlen, above):
        return [
            tuple(tuple(w[k] for k in live) for w in pair)
            for pair in repkit.conflations_up_to(E, maxlen)
            if sum(map(mul, pair[0], grades)) > above
        ]

    src = gk.CategorySource(
        "subspaces",
        gens=gk.repkit_backed(E).gens,
        relations=relations,
        grade_bound=grade_bound,
    )
    return gk.presentation_of(src)


def no_subspace_walk(*args, **kw):
    raise AssertionError("the extension harvest walked subspaces")


def shape(pres):
    return pres.gens, pres.relations, pres.relation_grade_bound


def verdicts(pres):
    """Everything a report reads off a presentation, strata grade by grade."""
    gc = monoid.group_completion(pres)
    return (
        pres.relation_grade_bound,
        [
            set(monoid.stratum_classes(pres, s).classes)
            for s in range(1, pres.relation_grade_bound + 1)
        ],
        [a.representative for a in monoid.atoms(pres)],
        gc.rank,
        gc.invariant_factors,
        monoid.is_free(pres),
        monoid.is_half_factorial(pres),
    )


def oracle_memberships():
    for n in (3, 4):
        for dirs in product("><", repeat=n - 1):
            q = Orientation(n, dirs)
            for w in enumerate_c_sortable(coxeter_element(q)):
                yield typea.torsion_free_membership(w, q)
    q = parse_orientation("1<2>3<4>5")
    for w in enumerate_c_sortable(coxeter_element(q)):
        yield typea.torsion_free_membership(w, q)
    for text in ("1>2>3>4>5", "1<2<3<4<5", "1>2<3>4<5", "1<2<3>4>5"):
        yield typea.torsion_free_membership(
            parse_perm("654321"), parse_orientation(text)
        )
    for kup_text in ("kupisch: 3,2,1", "kupisch-cyclic: 2,2"):
        kup = nakayama.parse_kupisch(kup_text)
        _, mods, _ = nakayama.catalogue(kup)
        full = nakayama.full_membership(kup)
        for S in repkit.torsion_free_classes(full, check_len=5):
            yield nakayama.class_membership(kup, frozenset(mods[i] for i in S))
    # self-extensions: a loop x with x^2 = 0 glues S by S into the projective
    yield nakayama.full_membership(nakayama.parse_kupisch("kupisch-cyclic: 2"))


def test_extension_harvest_matches_subspace_oracle(monkeypatch):
    count = 0
    for E in oracle_memberships():
        with monkeypatch.context() as m:
            m.setattr(repkit, "conflations_up_to", no_subspace_walk)
            got = verdicts(gk.presentation_of(gk.repkit_backed(E)))
        want = verdicts(subspace_presentation(E))
        assert got == want, E.name
        count += 1
    # A3/A4, one A5 orientation, four A5 w0 classes, 14 + 7 Nakayama
    # classes and mod k[x]/(x^2)
    assert count == 392 + 131 + 4 + 21 + 1


# F(34512) over 1>2<3<4 is not certified at bound 4 and stops at 5
W_34512, Q_34512 = parse_perm("34512"), parse_orientation("1>2<3<4")


def test_adaptive_loop_glues_each_pair_once(monkeypatch):
    # the same class as an additive membership over the interval
    # catalogue, which the generic gluing harvest presents
    tf = typea.torsion_free_membership(W_34512, Q_34512)
    E = repkit.Membership.additive(tf.catalogue, tf.allowed, labels=tf.labels)
    index = {rep: k for k, rep in enumerate(E.catalogue)}
    glued = Counter()
    classified = Counter()
    real_gluings = repkit._gluings
    real_decompose = E.decompose

    def counting_gluings(X, Z):
        glued[index[X], index[Z]] += 1
        return real_gluings(X, Z)

    def counting_decompose(Y):
        classified[Y] += 1
        return real_decompose(Y)

    monkeypatch.setattr(repkit, "_gluings", counting_gluings)
    monkeypatch.setattr(E, "decompose", counting_decompose)
    pres = gk.presentation_of(gk.repkit_backed(E))
    assert pres.relation_grade_bound == 5
    grade = {k: E.catalogue[k].total_dim for k in E.live}
    assert set(glued) == {
        (i, k) for i in E.live for k in E.live if grade[i] + grade[k] <= 5
    }
    assert max(glued.values()) == 1
    assert classified and max(classified.values()) == 1
    # the incremental relations are those of one harvest at the final bound
    monkeypatch.undo()
    assert shape(pres) == shape(gk.presentation_of(gk.repkit_backed(E, 5)))


def test_interval_rule_looks_at_each_pair_once(monkeypatch):
    E = typea.torsion_free_membership(W_34512, Q_34512)
    mods = sorted(typea.class_of(W_34512, Q_34512).modules)
    looked = Counter()
    real_middle = typea.extension_middle

    def counting_middle(X, Z):
        looked[mods.index(X), mods.index(Z)] += 1
        return real_middle(X, Z)

    def no_gluing(*args, **kw):
        raise AssertionError("the interval rule glued a pair")

    def no_representation(*args, **kw):
        raise AssertionError("the interval rule built a representation")

    monkeypatch.setattr(typea, "extension_middle", counting_middle)
    monkeypatch.setattr(repkit, "_gluings", no_gluing)
    monkeypatch.setattr(repkit, "hom_dim", no_gluing)
    monkeypatch.setattr(repkit.Rep, "__post_init__", no_representation)
    monkeypatch.setattr(repkit.Membership, "__init__", no_representation)
    pres = gk.presentation_of(gk.typea_torsionfree(W_34512, Q_34512))
    assert pres.relation_grade_bound == 5
    grade = {k: m.module_length for k, m in enumerate(mods)}
    assert set(looked) == {
        (i, k) for i in grade for k in grade if grade[i] + grade[k] <= 5
    }
    assert max(looked.values()) == 1
    once = gk.presentation_of(gk.typea_torsionfree(W_34512, Q_34512, 5))
    monkeypatch.undo()
    assert shape(pres) == shape(once)
    assert shape(pres) == shape(gk.presentation_of(gk.repkit_backed(E)))


def test_interval_rule_gives_the_gluing_presentation():
    # same relation words in the same order, class by class
    quivers = [
        Orientation(n, dirs) for n in (3, 4) for dirs in product("><", repeat=n - 1)
    ]
    quivers += [parse_orientation("1<2>3<4>5"), parse_orientation("1>2<3>4<5")]
    for q in quivers:
        for w in enumerate_c_sortable(coxeter_element(q)):
            generic = gk.repkit_backed(typea.torsion_free_membership(w, q))
            got = gk.presentation_of(gk.typea_torsionfree(w, q))
            assert shape(got) == shape(gk.presentation_of(generic)), (q, w)


def extension_middles(reps, full):
    """Brute force over all representations of each dimension vector.

    Maps each pair (i, k) to the summand sets of every Y with a
    subobject isomorphic to reps[i] and the quotient isomorphic to reps[k].
    """
    decompose = lru_cache(maxsize=None)(full.decompose)
    ends = {r.dims for r in reps}
    out: dict = {}
    for dims in {tuple(map(add, X.dims, Z.dims)) for X in reps for Z in reps}:
        for Y in repkit.all_reps(reps[0].algebra, dims):
            for U in repkit.enumerate_subreps(Y):
                if U.dims() not in ends or tuple(map(sub, dims, U.dims())) not in ends:
                    continue
                low = decompose(repkit.sub_rep(Y, U))
                high = decompose(repkit.quotient_rep(Y, U))
                if sum(low.values()) == sum(high.values()) == 1:
                    out.setdefault((*low, *high), set()).add(frozenset(decompose(Y)))
    return out


@pytest.mark.parametrize("text", ["1>2>3", "1>2<3", "1<2>3", "1<2<3"])
def test_closure_detected_on_every_a3_subset(monkeypatch, text):
    mods, reps = typea.interval_catalogue(parse_orientation(text))
    labels = tuple(str(m) for m in mods)
    middles = extension_middles(reps, repkit.Membership.full(tuple(reps)))
    closed_count = refused = 0
    for mask in range(1, 1 << len(reps)):
        allowed = frozenset(k for k in range(len(reps)) if mask >> k & 1)
        E = repkit.Membership.additive(tuple(reps), allowed, labels=labels)
        closed = all(
            summands <= allowed
            for (i, k), found in middles.items()
            if i in allowed and k in allowed
            for summands in found
        )
        closed_count += closed
        if closed:
            repkit.extension_relations(E, 6)
        else:
            with pytest.raises(repkit.InvalidSpec, match="not extension-closed"):
                repkit.extension_relations(E, 6)
        try:
            with monkeypatch.context() as m:
                m.setattr(repkit, "conflations_up_to", no_subspace_walk)
                pres = gk.presentation_of(gk.repkit_backed(E))
        except repkit.InvalidSpec:
            assert not closed, sorted(allowed)
            refused += 1
            continue
        # a middle that escapes above the stop bound leaves the congruence
        # unchanged up to it
        repkit.extension_relations(E, pres.relation_grade_bound)
        assert verdicts(pres) == verdicts(subspace_presentation(E)), sorted(allowed)
    assert 0 < closed_count < 63
    # 12 on each orientation; the other 51 subsets are presented
    assert refused == 12


def test_predicate_membership_is_refused():
    E = typea.torsion_free_membership(parse_perm("3412"), parse_orientation("1>2<3"))
    P = repkit.Membership.predicate(E.catalogue, E.contains, labels=E.labels)
    with pytest.raises(repkit.InvalidSpec):
        repkit.extension_relations(P, 4)


def test_gluing_cap_names_limit(monkeypatch):
    # F(3412) on the gluing path glues pairs of intervals whose blocks
    # allow two gluings; the interval rule of `analyze` glues nothing
    E = typea.torsion_free_membership(parse_perm("3412"), parse_orientation("1>2<3"))
    monkeypatch.setattr(repkit, "ENUMERATION_CAP", 1)
    with pytest.raises(monoid.EnumerationOverflow, match="ENUMERATION_CAP = 1"):
        gk.presentation_of(gk.repkit_backed(E))


def test_middle_beyond_a_bounded_catalogue_is_refused():
    # the Kronecker class of the demo, catalogued up to total dimension 3:
    # gluings of length 4 leave the catalogue, so only bound 3 is presented
    algebra = gk.kronecker_algebra()
    indecs = repkit.brute_force_catalogue(algebra, (3, 3), 3)
    members = [r for r in indecs if gk._no_split_socle(r)]
    catalogue = tuple(members + [r for r in indecs if not gk._no_split_socle(r)])
    E = repkit.Membership.additive(catalogue, frozenset(range(len(members))))
    repkit.extension_relations(E, 3)
    with pytest.raises(repkit.InvalidSpec, match="catalogue"):
        repkit.extension_relations(E, 4)
    pres = gk.presentation_of(gk.repkit_backed(E, 3))
    assert shape(pres) == shape(subspace_presentation(E, 3))
    for grade_bound in (None, 4):
        with pytest.raises(repkit.InvalidSpec, match="catalogue"):
            gk.presentation_of(gk.repkit_backed(E, grade_bound))
