"""
Named regression checks bundling the package's worked counterexamples.

Each item recomputes one documented phenomenon from scratch (bad subobject
posets, non-unique lengths, non-cancellative monoids, the designated A2
classes, the Kronecker demonstration) and returns pass/fail with detail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import gf2, grothendieck, monoid, repkit, typea
from .symgroup import parse_orientation, parse_perm

LOOP_ALGEBRA_PRESENTATION = """\
generator P1 grade 2 dimvec (2,0)
generator P2 grade 3 dimvec (2,1)
generator I1 grade 4 dimvec (2,2)
generator M grade 3 dimvec (2,1)
carrier all
relation M + P2 = P1 + I1
relation P1 + I1 = M + M
relation P2 + P2 = P1 + I1
"""

LOOP_ALGEBRA_SPEC = """\
vertices: 2
arrow b: 1 -> 1
arrow a: 2 -> 1
relation b b
"""


@dataclass
class Item:
    name: str
    run: Callable[[], tuple[bool, str]]


def _single_vertex_rep(dim: int) -> repkit.Rep:
    algebra = repkit.PresentedAlgebra(1, (), ())
    return repkit.Rep(algebra, (dim,), ())


def _vector_space_membership(dim_pred, name: str) -> repkit.Membership:
    return repkit.Membership.dims_only(
        ( _single_vertex_rep(1), ), dim_pred, labels=("k",), name=name
    )


def check_compex(m: int, n: int) -> tuple[bool, str]:
    src = grothendieck.a2_designated(m, n)
    pres = grothendieck.presentation_of(src)
    ats = monoid.atoms(pres)
    expected_atoms = min(m, n) + 1
    if len(ats) != expected_atoms:
        return False, f"expected {expected_atoms} atoms, found {len(ats)}"
    step = m + n
    for big in range(2, pres.relation_grade_bound // step + 1):
        part = monoid.stratum_classes(pres, big * step)
        want = 2 if (m == n) else 1
        if len(part.classes) != want:
            return False, (
                f"stratum {big}*(m+n) has {len(part.classes)} classes, wanted {want}"
            )
    # arrow pattern of the Cayley quiver, checked structurally:
    # everything funnels into the chain over the semisimple atom a0, except
    # (for m = n) the projective-power chain, which its own atom continues
    reps = [a.representative for a in ats]
    a0 = max(reps)  # the all-simple word (zero projective multiplicity)
    an = min(reps)  # the projective power
    for big in range(1, pres.relation_grade_bound // step):
        part = monoid.stratum_classes(pres, big * step)
        nxt = monoid.stratum_classes(pres, (big + 1) * step)
        head = nxt.representative(tuple((big + 1) * x for x in a0))
        pure = nxt.representative(tuple((big + 1) * x for x in an))
        for cls in part.classes:
            base = min(cls)
            on_chain = (
                m == n
                and part.index[base] == part.index[tuple(big * x for x in an)]
            )
            for a in reps:
                target = nxt.representative(tuple(p + q for p, q in zip(base, a)))
                want_tgt = pure if (on_chain and a == an) else head
                if target != want_tgt:
                    return False, f"arrow pattern broken at stratum {big}"
    dot = monoid.cayley_quiver(pres, 3 * step)
    n_verts = dot.count("[grade=")
    want_verts = 1 + (min(m, n) + 1) + (2 if m == n else 1) * 2
    if n_verts != want_verts:
        return False, f"Cayley quiver has {n_verts} vertices, wanted {want_verts}"
    return True, f"{expected_atoms} atoms, strata and Cayley pattern as computed"


def check_loop_algebra(presentation_text: str | None = None) -> tuple[bool, str]:
    text = presentation_text or LOOP_ALGEBRA_PRESENTATION
    src = grothendieck.abstract_source(text, label="loop-algebra class", grade_bound=6)
    rep = grothendieck.report(src)
    if rep.cancellative_status != "certificate":
        return False, "no non-cancellativity certificate found"
    a, x, y = rep.certificate
    if {x, y} != {"M", "P2"} or a != "M":
        return False, f"unexpected certificate ({a},{x},{y})"
    if len(rep.atoms) != 4:
        return False, f"expected 4 atoms, found {len(rep.atoms)}"
    if rep.jhp:
        return False, "class must fail the Jordan-Hoelder property"
    return True, "certificate ([M],[M],[P2]), 4 atoms"


def check_loop_algebra_repkit() -> tuple[bool, str]:
    """Re-derive the loop-algebra relations from subrepresentations."""
    algebra = repkit.parse_algebra(LOOP_ALGEBRA_SPEC)
    indecs = repkit.brute_force_catalogue(algebra, (2, 2), 4)
    if len(indecs) != 7:
        return False, f"expected 7 indecomposables, found {len(indecs)}"

    def top_dims(r: repkit.Rep) -> tuple[int, ...]:
        rad = [[] for _ in range(2)]
        for a, (_, s, t) in enumerate(algebra.arrows):
            rad[t - 1].extend(r.maps[a])
        return tuple(
            r.dims[v] - len(gf2.rref(rad[v])) for v in range(2)
        )

    def pick(dims, top=None):
        got = [
            k
            for k, r in enumerate(indecs)
            if r.dims == dims and (top is None or top_dims(r) == top)
        ]
        return got

    p1 = pick((2, 0))
    p2 = pick((2, 1), top=(0, 1))
    m = pick((2, 1), top=(1, 1))
    i1 = pick((2, 2))
    if not (len(p1) == len(p2) == len(m) == len(i1) == 1):
        return False, "could not identify the four class members"
    order = [p1[0], p2[0], i1[0], m[0]]
    labels = ["P1", "P2", "I1", "M"]
    named = {k: nm for k, nm in zip(order, labels)}
    membership = repkit.Membership.additive(
        tuple(indecs),
        frozenset(order),
        labels=tuple(named.get(k, f"X{k}") for k in range(len(indecs))),
        name="loop-algebra class",
    )
    src = grothendieck.repkit_backed(membership, grade_bound=6)
    rep = grothendieck.report(src)
    if rep.cancellative_status != "certificate":
        return False, "exhaustive harvest found no certificate"
    a, x, y = rep.certificate
    if {x, y} != {"M", "P2"}:
        return False, f"unexpected certificate ({a},{x},{y})"
    if sorted(rep.atoms) != ["I1", "M", "P1", "P2"]:
        return False, f"atoms {rep.atoms}"
    return True, "exhaustive harvest reproduces the certificate, all 4 simple"


def check_kronecker() -> tuple[bool, str]:
    demo = grothendieck.kronecker_demo(3)
    if len(demo.regular_labels) != 3 or not demo.regular_classes_distinct:
        return False, f"regular classes: {demo.regular_labels}"
    if len(demo.projective_relations) != 3:
        return False, f"projective relations: {demo.projective_relations}"
    if demo.certificate is None:
        return False, "no certificate"
    if not demo.s1_is_atom or demo.p2_is_simple:
        return False, "atom/simple bookkeeping failed"
    return True, (
        "3 distinct regular classes all complete the projective; not cancellative"
    )


def check_exa() -> tuple[bool, str]:
    E = _vector_space_membership(lambda d: d[0] != 1, "dims != 1")
    X = _single_vertex_rep(6)
    rep = repkit.series_analysis(X, E)
    want = {("2*k", "2*k", "2*k"), ("3*k", "3*k")}
    if rep.factor_labels != frozenset(want):
        return False, f"factors {sorted(rep.factor_labels)}"
    if rep.jhp_holds or rep.unique_length or rep.lengths != frozenset({2, 3}):
        return False, "length bookkeeping failed"
    return True, "k^6 factors as three k^2 and as two k^3"


def check_nonlattice() -> tuple[bool, str]:
    E = _vector_space_membership(lambda d: d[0] not in (1, 3), "dims != 1,3")
    X = _single_vertex_rep(6)
    poset = repkit.admissible_poset(X, E)
    A = repkit.SubRep((tuple(1 << k for k in range(4)),))
    B = repkit.SubRep((tuple(1 << k for k in (0, 1, 2, 4)),))
    ia = poset.elements.index(A)
    ib = poset.elements.index(B)
    if repkit.meet_index(poset, ia, ib) is not None:
        return False, "the two 4-dimensional subspaces have a meet"
    props = repkit.poset_properties(poset)
    if props.is_lattice:
        return False, "poset reported as a lattice"
    return True, "subobject poset of k^6 is not a lattice"


def check_nonulp() -> tuple[bool, str]:
    q = parse_orientation("1<2<3>4")
    w = parse_perm("53241")
    E = typea.torsion_free_membership(w, q)
    X = typea.interval_rep(typea.IntervalModule(1, 5, q))
    rep = repkit.series_analysis(X, E)
    if rep.lengths != frozenset({2, 3}):
        return False, f"lengths {sorted(rep.lengths)}"
    simples = {str(m) for m in typea.simples_of(w, q)}
    want = {"M[1,2)", "M[2,3)", "M[3,5)", "M[4,5)", "M[1,4)"}
    if simples != want:
        return False, f"simples {sorted(simples)}"
    return True, "M[1,5) has composition series of lengths 2 and 3"


def check_hereditary_modular() -> tuple[bool, str]:
    q = parse_orientation("1<2<3>4")
    alg = typea.path_algebra(q)
    mods, reps = typea.interval_catalogue(q)
    s2 = reps[mods.index(typea.IntervalModule(2, 3, q))]

    def no_maps_to_s2(rep: repkit.Rep) -> bool:
        return repkit.hom_dim(rep, s2) == 0

    E = repkit.Membership.predicate(
        tuple(reps), no_maps_to_s2,
        labels=tuple(str(m) for m in mods),
        name="hom-vanishing torsion-free class",
    )
    X = typea.interval_rep(typea.IntervalModule(1, 5, q), alg)
    poset = repkit.admissible_poset(X, E)
    props = repkit.poset_properties(poset)
    if not props.is_lattice or not props.is_modular:
        return False, f"lattice={props.is_lattice} modular={props.is_modular}"
    return True, "hereditary class gives a modular subobject lattice"


def check_intro_classes() -> tuple[bool, str]:
    q = parse_orientation("1>2<3")
    w1 = parse_perm("4312")
    if not typea.jhp_verdict(w1, q):
        return False, "F(4312) must satisfy the Jordan-Hoelder property"
    simples = {str(m) for m in typea.simples_of(w1, q)}
    if simples != {"M[1,3)", "M[2,3)", "M[3,4)"}:
        return False, f"F(4312) simples {sorted(simples)}"
    w2 = parse_perm("3412")
    rep = grothendieck.report(grothendieck.typea_torsionfree(w2, q))
    if rep.jhp or len(rep.atoms) != 4 or rep.k0_rank != 3:
        return False, (
            f"F(3412): jhp={rep.jhp} atoms={len(rep.atoms)} rank={rep.k0_rank}"
        )
    pres = rep.presentation
    names = pres.gens.names
    almost_split = (
        tuple(1 if nm in ("M[1,3)", "M[2,4)") else 0 for nm in names),
        tuple(1 if nm in ("M[2,3)", "M[1,4)") else 0 for nm in names),
    )
    if almost_split not in pres.relations and almost_split[::-1] not in pres.relations:
        return False, "missing the almost split relation in F(3412)"
    return True, "F(4312) has JHP with 3 simples; F(3412) fails with 4 atoms over rank 3"


def all_items(loop_spec_text: str | None = None) -> list[Item]:
    return [
        Item("compex(1,1)", lambda: check_compex(1, 1)),
        Item("compex(2,1)", lambda: check_compex(2, 1)),
        Item("compex(2,2)", lambda: check_compex(2, 2)),
        Item("loop-algebra", lambda: check_loop_algebra(loop_spec_text)),
        Item("loop-algebra-repkit", check_loop_algebra_repkit),
        Item("kronecker", check_kronecker),
        Item("exa", check_exa),
        Item("nonlattice1", check_nonlattice),
        Item("nonulp1", check_nonulp),
        Item("hereditary-modular", check_hereditary_modular),
        Item("intro-classes", check_intro_classes),
    ]


def run_items(only: str | None = None, loop_spec_text: str | None = None):
    """Run the bundle; yields (name, ok, detail) per item."""
    for item in all_items(loop_spec_text):
        if only is not None and item.name != only:
            continue
        try:
            ok, detail = item.run()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield item.name, ok, detail
