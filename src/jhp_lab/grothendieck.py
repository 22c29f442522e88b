"""
From categories to monoid presentations and decision reports.

A category source has one of two shapes.  It carries a generator table
and a relation function, whose relations `presentation_of` harvests from
conflations with bounded middle length (a type-A torsion-free class
reads them off interval endpoints and builds no representation; a
Nakayama class or any summand-closed repkit membership glues
representations over F2); or it carries a presentation in closed form
(a dimension-vector-restricted class over the A2 algebra, a split
semisimple class, or an explicit presentation), built once at
construction, with a caveat naming where its relations come from.
`report` assembles the full verdict sheet: simple objects/atoms,
completed-group rank and torsion, freeness (= the Jordan-Hoelder
property), half-factoriality (= unique composition-series length), a
bounded cancellativity scan, and the dimension-vector monoid.

Relation lists are truncated at the source's grade bound.  Atom detection
only needs relations up to the largest generator grade (rewrites preserve
the grading), and whenever the harvested relation lattice is saturated
with the same rank as the kernel of the dimension-vector map, the
completed-group data is certified complete; both facts are recorded as
caveats on every report.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from . import gf2, monoid, nakayama, repkit, typea
from .monoid import Carrier, GeneratorTable, Presentation
from .repkit import InvalidSpec
from .symgroup import Orientation, Perm, format_perm

A2_GEN_NAMES = ("S1", "S2", "P")
A2_GEN_GRADES = (1, 1, 2)
A2_GEN_DIMVECS = ((1, 0), (0, 1), (1, 1))


@dataclass(eq=False)
class CategorySource:
    """One exact category: generators whose relations are harvested from
    its conflations up to `grade_bound` (adaptively when None), or a
    presentation in closed form with a caveat naming where its relations
    come from.  `relations(maxlen, above)` gives, sorted, the harvested
    relations as words over `gens` whose middle grade g has
    above < g <= maxlen, and raises when a middle leaves the class."""

    label: str
    gens: GeneratorTable | None = None
    relations: Callable | None = None
    grade_bound: int | None = None
    presentation: Presentation | None = None
    caveat: str = ""


def typea_torsionfree(
    w: Perm, quiver: Orientation, grade_bound: int | None = None
) -> CategorySource:
    mods = sorted(typea.class_of(w, quiver).modules)
    return CategorySource(
        label=f"typeA_torsionfree(w={format_perm(w)}, Q={quiver})",
        gens=GeneratorTable(
            tuple(map(str, mods)),
            tuple(m.module_length for m in mods),
            tuple(m.dimvec() for m in mods),
        ),
        relations=partial(typea.extension_relations, mods),
        grade_bound=grade_bound,
    )


def a2_designated(m: int, n: int, grade_bound: int | None = None) -> CategorySource:
    if (m, n) == (0, 0) or m < 0 or n < 0:
        raise InvalidSpec("need a nonzero nonnegative dimension vector")
    bound = grade_bound if grade_bound is not None else 4 * (m + n)
    return CategorySource(
        label=f"a2_designated({m},{n})",
        presentation=_a2_presentation(m, n, bound),
        caveat=f"relations from the closed-form middle-term rule up to grade {bound}",
    )


def em_semisimple(vectors, grade_bound: int | None = None) -> CategorySource:
    vectors = tuple(tuple(v) for v in vectors)
    top = max(sum(v) for v in vectors)
    n = len(vectors[0])
    gens = GeneratorTable(
        tuple(f"S{i}" for i in range(1, n + 1)),
        (1,) * n,
        tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
    )
    return CategorySource(
        label=f"em_semisimple{vectors}",
        presentation=Presentation(
            gens,
            Carrier.dimvec_submonoid(vectors),
            (),
            relation_grade_bound=grade_bound if grade_bound is not None else 2 * top,
        ),
        caveat="split exact: no nontrivial relations",
    )


def nakayama_tf(
    kup: nakayama.KupischSeries,
    members: frozenset[nakayama.Uniserial],
    grade_bound: int | None = None,
) -> CategorySource:
    ok, violations = nakayama.validate(kup, members)
    if not ok:
        raise InvalidSpec(f"not submodule-closed: {violations}")
    membership = nakayama.class_membership(kup, frozenset(members))
    gens, relations = _membership_harvest(membership)
    # every ordered pair of members, a member with itself too: the catalogue
    # is complete, so this raises exactly when a middle leaves the class
    every = relations(2 * max(gens.grades, default=0), 0)

    def harvested(maxlen: int, above: int):
        # the relations of one pair have its middle grade, so the pairs
        # with above < grade <= maxlen give the sorted list filtered on it
        bound = repkit.dimension_bound()
        if maxlen > bound:
            raise repkit.DimensionBoundExceeded(f"middle length {maxlen}", bound)
        return [r for r in every if above < gens.grade(r[0]) <= maxlen]

    return CategorySource(
        label=f"nakayama_tf(kupisch={list(kup.lengths)}, cyclic={kup.cyclic})",
        gens=gens,
        relations=harvested,
        grade_bound=grade_bound,
    )


def abstract_source(
    presentation_text: str, label: str = "abstract", grade_bound: int | None = None
) -> CategorySource:
    pres = monoid.parse_presentation(presentation_text)
    if grade_bound is None:
        grade_bound = 2 * max(pres.gens.grades, default=1)
    pres.relation_grade_bound = grade_bound
    return CategorySource(
        label=label,
        presentation=pres,
        caveat="presented monoid: relations taken verbatim from the input",
    )


def repkit_backed(
    membership: repkit.Membership, grade_bound: int | None = None
) -> CategorySource:
    gens, relations = _membership_harvest(membership)
    return CategorySource(
        label=f"repkit_backed({membership.name})",
        gens=gens,
        relations=relations,
        grade_bound=grade_bound,
    )


# ---------------------------------------------------------------------------
# presentations


def _membership_harvest(E: repkit.Membership) -> tuple[GeneratorTable, Callable]:
    """The live catalogue entries of a summand-closed membership, and its
    relations over them from `repkit.extension_relations`, which checks
    extension closure only on the pairs it looks at."""
    live = E.live
    reps = [E.catalogue[k] for k in live]
    gens = GeneratorTable(
        tuple(E.labels[k] for k in live),
        tuple(r.total_dim for r in reps),
        tuple(r.dims for r in reps),
    )

    def relations(maxlen: int, above: int):
        return [
            tuple(tuple(w[k] for k in live) for w in pair)
            for pair in repkit.extension_relations(E, maxlen, above)
        ]

    return gens, relations


def _harvested_presentation(
    gens: GeneratorTable, relations: Callable, grade_bound: int | None
) -> Presentation:
    """Present the subcategory; harvest up to grade_bound, or adaptively.

    The generators are the member indecomposables, on an `all` carrier.
    With an explicit bound, all conflations with middle length up to that
    bound are harvested.  Without one, the bound is raised from the
    largest generator grade (enough for exact atoms) until the harvested
    relation lattice is certified complete by dimension-vector saturation,
    capped at twice the largest generator grade.  An explicit bound below
    the largest generator grade could miss relations among generators, so
    the atoms would not be exact; it is rejected.

    Relations come from extensions of pairs of member indecomposables,
    each pair looked at once across the bound steps (the contract of
    `CategorySource.relations`).  For extension-closed E they give the
    congruence of all conflations: a decomposable end X1 + X2 splits a
    conflation into one with end X1 and middle Y and one with the shorter
    middle Y/X1 in E, dually for the other end.  A middle outside E or its
    catalogue raises InvalidSpec; closure is checked only on the pairs
    looked at (`nakayama_tf` checks every pair).
    """
    grades = gens.grades
    if grade_bound is not None and grade_bound < max(grades, default=0):
        raise InvalidSpec(
            f"harvest bound {grade_bound} is below the largest generator grade;"
            f" --bound must be at least {max(grades)} for exact atoms"
        )
    top = max(grades, default=1)
    bounds = (grade_bound,) if grade_bound is not None else range(top, 2 * top + 1)
    found: set = set()  # relations of the pairs looked at so far
    for above, bound in zip((0, *bounds), bounds):
        found.update(relations(bound, above))
        pres = Presentation(
            gens, Carrier.all_words(), tuple(sorted(found)), relation_grade_bound=bound
        )
        if grade_bound is not None or relation_lattice_certified(pres):
            break
    return pres


def relation_lattice_certified(pres: Presentation) -> bool:
    """Is the harvested relation lattice provably all of the kernel of the
    dimension-vector map?  True when it is saturated of full kernel rank;
    no conflation can then add anything, since every conflation relation
    has dimension-vector difference zero."""
    if pres.carrier.kind != "all" or pres.gens.dimvecs is None:
        return False
    gc = monoid.group_completion(pres)
    return not gc.invariant_factors and gc.rank == pres.gens.dimvec_rank


def a2_middles(x: tuple, z: tuple):
    """The non-split middles of conflations with sub x and quotient z.

    Words are (S1, S2, P) multiplicity triples over the A2 path algebra
    with projective cover P of S2.  Middles arise from gluing t >= 1 pairs
    of an S1 from the sub and an S2 from the quotient into t copies of P.
    """
    for t in range(1, min(x[0], z[1]) + 1):
        yield (x[0] + z[0] - t, x[1] + z[1] - t, x[2] + z[2] + t)


def _a2_presentation(m: int, n: int, grade_bound: int) -> Presentation:
    gens = GeneratorTable(A2_GEN_NAMES, A2_GEN_GRADES, A2_GEN_DIMVECS)
    carrier = Carrier.dimvec_submonoid([(m, n)])
    pres0 = Presentation(gens, carrier, ())
    words = []
    for s in range(1, grade_bound + 1):
        words.extend(pres0.words_of_grade(s))
    relations = set()
    for x in words:
        for z in words:
            if gens.grade(x) + gens.grade(z) > grade_bound:
                continue
            split = tuple(a + b for a, b in zip(x, z))
            relations.update((y, split) for y in a2_middles(x, z))
    return Presentation(
        gens, carrier, tuple(sorted(relations)), relation_grade_bound=grade_bound
    )


def presentation_of(src: CategorySource) -> Presentation:
    """The graded monoid presentation of a category source.

    For a harvested source, generators are its member indecomposables and
    relations are middle-versus-ends pairs of all conflations with middle
    length at most the source's grade bound; otherwise the source's own
    presentation.
    """
    if src.relations is not None:
        return _harvested_presentation(src.gens, src.relations, src.grade_bound)
    return src.presentation


# ---------------------------------------------------------------------------
# reports


@dataclass
class MonoidReport:
    source: str
    generators: list[dict]
    atoms: list[str]
    k0_rank: int
    k0_torsion: list[int]
    jhp: bool
    unique_length: bool
    cancellative_status: str  # "certificate" or "none_up_to_bound"
    cancellative_bound: int
    certificate: tuple[str, str, str] | None
    dim_monoid: list[tuple[int, ...]]
    caveats: list[str]
    presentation: Presentation = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        cancellative: dict = {
            "status": self.cancellative_status,
            "bound": self.cancellative_bound,
        }
        if self.certificate is not None:
            a, x, y = self.certificate
            cancellative["certificate"] = {"a": a, "x": x, "y": y}
        return {
            "source": self.source,
            "generators": self.generators,
            "atoms": self.atoms,
            "k0": {"rank": self.k0_rank, "torsion": self.k0_torsion},
            "jhp": self.jhp,
            "unique_length": self.unique_length,
            "cancellative": cancellative,
            "dim_monoid": [list(v) for v in self.dim_monoid],
            "caveats": self.caveats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _saturation_caveat(pres: Presentation) -> str:
    """Certify completeness of the harvested relation lattice when possible."""
    if pres.carrier.kind != "all" or pres.gens.dimvecs is None:
        return "completed-group data computed from the listed relations only"
    if relation_lattice_certified(pres):
        return (
            "relation lattice certified complete"
            " (saturated with full dimension-vector kernel rank)"
        )
    return (
        f"relations truncated at middle length {pres.relation_grade_bound};"
        " completed-group data may be coarser than the true values"
    )


def report(src: CategorySource) -> MonoidReport:
    pres = presentation_of(src)
    bound = pres.relation_grade_bound
    ats = monoid.atoms(pres)
    gc = monoid.group_completion(pres)
    certificate = monoid.cancellativity_scan(pres, bound)

    caveats = [
        "all module-level computations are over the two-element field",
        (
            "relations harvested exhaustively from conflations with middle"
            f" length <= {bound}"
            if src.relations is not None
            else src.caveat
        ),
        _saturation_caveat(pres),
        f"cancellativity scanned up to grade {bound}",
    ]
    gens_json = [
        {
            "name": pres.gens.names[k],
            "grade": pres.gens.grades[k],
            "dimvec": list(pres.gens.dimvecs[k]) if pres.gens.dimvecs else None,
        }
        for k in range(len(pres.gens))
    ]
    return MonoidReport(
        source=src.label,
        generators=gens_json,
        atoms=[a.pretty(pres) for a in ats],
        k0_rank=gc.rank,
        k0_torsion=list(gc.invariant_factors),
        jhp=monoid.is_free(pres),
        unique_length=monoid.is_half_factorial(pres),
        cancellative_status=(
            "certificate" if certificate is not None else "none_up_to_bound"
        ),
        cancellative_bound=bound,
        certificate=_certificate_words(pres, certificate),
        dim_monoid=dimension_monoid(src, pres),
        caveats=caveats,
        presentation=pres,
    )


def _certificate_words(pres: Presentation, certificate) -> tuple[str, ...] | None:
    """A cancellativity certificate (a, x, y) as formatted words."""
    if certificate is None:
        return None
    return tuple(pres.format_word(w) for w in certificate)


def dimension_monoid(
    src: CategorySource, pres: Presentation | None = None
) -> list[tuple[int, ...]]:
    """Dimension vectors of the monoid generators: a generating set of the
    image of the monoid in the integer lattice (the carrier's own
    generating words when the carrier is restricted)."""
    if pres is None:
        pres = presentation_of(src)
    if pres.gens.dimvecs is None:
        return []
    out = {pres.gens.dimvec(w) for w in monoid.generating_words(pres)}
    return sorted(out)


# ---------------------------------------------------------------------------
# the Kronecker demonstration


def kronecker_algebra() -> repkit.PresentedAlgebra:
    return repkit.PresentedAlgebra(2, (("f", 2, 1), ("g", 2, 1)), ())


def _no_split_socle(rep: repkit.Rep) -> bool:
    # no common kernel vector of the two arrow maps
    d2 = rep.dims[1]
    system = []
    for r in range(rep.dims[0]):
        for cols in rep.maps:
            row = 0
            for c in range(d2):
                if cols[c] >> r & 1:
                    row |= 1 << c
            system.append(row)
    return gf2.nullity(system, d2) == 0


@dataclass
class KroneckerDemo:
    bound: int
    regular_labels: list[str]
    regular_classes_distinct: bool
    projective_relations: list[tuple[str, str]]
    certificate: tuple[str, str, str] | None
    s1_is_atom: bool
    p2_is_simple: bool
    presentation: Presentation = field(repr=False, default=None)
    caveats: list[str] = field(default_factory=list)


def kronecker_demo(bound: int = 3) -> KroneckerDemo:
    """Bounded study of Kronecker representations with no simple-socle split.

    Catalogues all indecomposables of total dimension at most `bound`, the
    ones with no direct summand concentrated at the source vertex first,
    presents the class they generate, and exhibits the three distinct
    one-parameter classes over the two-element field that all complete the
    same projective, breaking cancellativity.
    """
    if bound < 3:
        raise InvalidSpec("need bound >= 3 to reach the projective cover")
    algebra = kronecker_algebra()
    indecs = repkit.brute_force_catalogue(algebra, (bound, bound), bound)
    members = [r for r in indecs if _no_split_socle(r)]
    members.sort(key=lambda r: (r.total_dim, r.dims, r.maps))
    catalogue = tuple(members + [r for r in indecs if not _no_split_socle(r)])

    def label(rep: repkit.Rep) -> str:
        if rep.dims == (1, 0):
            return "S1"
        if rep.dims == (1, 1):
            return f"R{rep.maps[0][0]}{rep.maps[1][0]}"
        if rep.dims == (2, 1):
            return "P2"
        if rep.dims == (1, 2):
            return "I1"
        return f"N{rep.dims[0]}{rep.dims[1]}"

    raw = [label(r) for r in catalogue]
    labels = tuple(
        nm if raw.count(nm) == 1 else f"{nm}#{raw[:k].count(nm)}"
        for k, nm in enumerate(raw)
    )
    # Hom(S2, -) = 0 is closed under sums and summands, so the class is
    # additive over its indecomposables; nothing above total dimension
    # `bound` is ever decomposed, so the catalogue is complete for it
    membership = repkit.Membership.additive(
        catalogue,
        frozenset(range(len(members))),
        labels=labels,
        name="kronecker-no-source-socle",
    )
    pres = presentation_of(repkit_backed(membership, bound))

    regular_idx = [k for k, r in enumerate(members) if r.dims == (1, 1)]
    part2 = monoid.stratum_classes(pres, 2)
    reg_words = []
    for k in regular_idx:
        w = [0] * len(members)
        w[k] = 1
        reg_words.append(tuple(w))
    distinct = len({part2.index[w] for w in reg_words}) == len(reg_words)

    p2_idx = next(
        k for k, r in enumerate(members) if r.dims == (2, 1)
    )
    s1_idx = next(k for k, r in enumerate(members) if r.dims == (1, 0))
    part3 = monoid.stratum_classes(pres, 3)
    p2_word = tuple(int(k == p2_idx) for k in range(len(members)))
    proj_relations = []
    for k, w in zip(regular_idx, reg_words):
        sx = tuple(a + int(i == s1_idx) for i, a in enumerate(w))
        if part3.index[sx] == part3.index[p2_word]:
            proj_relations.append((f"S1+{labels[k]}", labels[p2_idx]))

    certificate = monoid.cancellativity_scan(pres, bound)

    atoms = monoid.atoms(pres)
    s1_word = tuple(int(k == s1_idx) for k in range(len(members)))
    s1_is_atom = any(a.representative == s1_word for a in atoms)
    p2_rep = members[p2_idx]
    p2_simple = repkit.is_simple_object(p2_rep, membership)

    return KroneckerDemo(
        bound=bound,
        regular_labels=[labels[k] for k in regular_idx],
        regular_classes_distinct=distinct,
        projective_relations=proj_relations,
        certificate=_certificate_words(pres, certificate),
        s1_is_atom=s1_is_atom,
        p2_is_simple=p2_simple,
        presentation=pres,
        caveats=[
            "generators and relations truncated at total dimension"
            f" {bound}; the full class has unboundedly many indecomposables",
            "computed over the two-element field: the projective line has"
            " exactly three points",
        ],
    )
