"""
Torsion-free classes of type-A quiver representations via sortable elements.

The indecomposable representations of an orientation of the linear graph
1 - 2 - ... - n are the interval modules M[i,j) for 1 <= i < j <= n+1,
supported on the vertices i..j-1 with identity maps along the present
arrows.  Inversions of a c-sortable permutation w pick out the members of
the torsion-free class F(w); Bruhat inversions pick out its simple
objects, and F(w) has the Jordan-Hoelder property exactly when supports
and Bruhat inversions are equinumerous.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import repkit
from .symgroup import (
    CoxeterWord,
    NotSortable,
    Orientation,
    Perm,
    bruhat_inversions,
    c_sorting_words,
    coxeter_element,
    enumerate_c_sortable,
    format_perm,
    inversions,
    inversions_and_bruhat,
    is_c_sortable,
    support,
)


class IndexOutOfRange(ValueError):
    """Interval endpoints outside 1..n+1 or not increasing."""


@dataclass(frozen=True, order=True)
class IntervalModule:
    """The indecomposable M[i,j) supported on vertices i..j-1."""

    i: int
    j: int
    quiver: Orientation

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j <= self.quiver.n + 1:
            raise IndexOutOfRange(f"bad interval [{self.i},{self.j})")

    @property
    def vertex_support(self) -> range:
        return range(self.i, self.j)

    @property
    def module_length(self) -> int:
        return self.j - self.i

    def dimvec(self) -> tuple[int, ...]:
        return tuple(
            1 if v in self.vertex_support else 0
            for v in range(1, self.quiver.n + 1)
        )

    def __str__(self) -> str:
        return f"M[{self.i},{self.j})"


@dataclass(frozen=True)
class TorsionFreeClassA:
    """The torsion-free class F(w) of a c-sortable element w."""

    w: Perm
    quiver: Orientation
    modules: frozenset[IntervalModule]


def _require_sortable(w: Perm, q: Orientation) -> CoxeterWord:
    c = coxeter_element(q)
    ok, _ = is_c_sortable(w, c)
    if not ok:
        raise NotSortable(
            f"{format_perm(w)} is not c-sortable for orientation {q}"
        )
    return c


def class_of(w: Perm, q: Orientation) -> TorsionFreeClassA:
    """Interval modules of F(w), indexed by the inversions of w."""
    _require_sortable(w, q)
    mods = frozenset(IntervalModule(i, j, q) for (i, j) in inversions(w))
    return TorsionFreeClassA(tuple(w), q, mods)


def simples_of(w: Perm, q: Orientation) -> frozenset[IntervalModule]:
    """Simple objects of F(w), indexed by the Bruhat inversions of w."""
    _require_sortable(w, q)
    return frozenset(IntervalModule(i, j, q) for (i, j) in bruhat_inversions(w))


def jhp_verdict(w: Perm, q: Orientation) -> bool:
    """Does F(w) have the Jordan-Hoelder property?"""
    _require_sortable(w, q)
    return len(support(w)) == len(bruhat_inversions(w))


def census(q: Orientation) -> tuple[int, int, int]:
    """(#torsion-free classes, #with JHP, #faithful with JHP).

    Each element needs only #supp and #Binv, counted by the scans of
    `support` and `bruhat_inversions` without building either set.
    """
    c = coxeter_element(q)
    total = jhp = faithful_jhp = 0
    for w in enumerate_c_sortable(c):
        total += 1
        n_supp = top = 0
        for k in range(1, len(w)):
            if w[k - 1] > top:
                top = w[k - 1]
            if top > k:
                n_supp += 1
        n_binv = 0
        for p, a in enumerate(w):
            m = 0
            for x in w[p + 1 :]:
                if m < x < a:
                    n_binv += 1
                    m = x
        if n_supp == n_binv:
            jhp += 1
            if n_supp == q.n:
                faithful_jhp += 1
    return total, jhp, faithful_jhp


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class TableRow:
    w: Perm
    supp: frozenset[int]
    inv: frozenset[tuple[int, int]]
    binv: frozenset[tuple[int, int]]
    n_simples: int
    jhp: bool


def table_rows(q: Orientation, faithful_only: bool = False) -> list[TableRow]:
    """Sortable-element table rows, ordered by length then sorting word.

    The sorting word is compared by its positions in c repeated forever.
    """
    c = coxeter_element(q)
    full = frozenset(range(1, q.n + 1))
    rows = []
    for _, _, w in sorted((len(key), key, w) for w, key in c_sorting_words(c)):
        supp = support(w)
        if faithful_only and supp != full:
            continue
        inv, binv = inversions_and_bruhat(w)
        rows.append(TableRow(w, supp, inv, binv, len(binv), len(supp) == len(binv)))
    return rows


def rows_to_csv(rows: list[TableRow]) -> str:
    """CSV with one row per element; w is quoted when its ranks use commas."""
    rank = len(rows[0].w) if rows else 0
    pair = {(i, j): f"({i},{j})" for j in range(2, rank + 1) for i in range(1, j)}
    lines = ["w,supp,inv,Binv,nsimp,jhp"]
    for r in rows:
        w = format_perm(r.w)
        if "," in w:
            w = f'"{w}"'
        supp = ",".join(map(str, sorted(r.supp)))
        inv = ",".join([pair[t] for t in sorted(r.inv)])
        binv = ",".join([pair[t] for t in sorted(r.binv)])
        jhp = "true" if r.jhp else "false"
        lines.append(f'{w},"{{{supp}}}","{{{inv}}}","{{{binv}}}",{r.n_simples},{jhp}')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bridge to explicit representations over the two-element field


def path_algebra(q: Orientation) -> repkit.PresentedAlgebra:
    arrows = tuple(
        (f"a{k}", src, tgt) for k, (src, tgt) in enumerate(q.arrows(), start=1)
    )
    return repkit.PresentedAlgebra(q.n, arrows, ())


def interval_rep(m: IntervalModule, algebra: repkit.PresentedAlgebra | None = None) -> repkit.Rep:
    if algebra is None:
        algebra = path_algebra(m.quiver)
    dims = m.dimvec()
    maps = []
    for _, src, tgt in algebra.arrows:
        if dims[src - 1] and dims[tgt - 1]:
            maps.append((1,))
        else:
            maps.append((0,) * dims[src - 1])
    return repkit.Rep(algebra, dims, tuple(maps))


def interval_catalogue(q: Orientation) -> tuple[list[IntervalModule], list[repkit.Rep]]:
    """All interval modules of the orientation, with their explicit reps."""
    algebra = path_algebra(q)
    mods = [
        IntervalModule(i, j, q) for i in range(1, q.n + 1) for j in range(i + 1, q.n + 2)
    ]
    return mods, [interval_rep(m, algebra) for m in mods]


def torsion_free_membership(w: Perm, q: Orientation) -> repkit.Membership:
    """repkit membership for F(w) inside the module category of the quiver."""
    _require_sortable(w, q)
    mods, reps = interval_catalogue(q)
    inv = inversions(w)
    allowed = frozenset(k for k, m in enumerate(mods) if (m.i, m.j) in inv)
    return repkit.Membership.additive(
        tuple(reps),
        allowed,
        name=f"F({format_perm(w)}) over {q}",
        labels=tuple(str(m) for m in mods),
    )


# ---------------------------------------------------------------------------
# extensions of interval modules in closed form (Euler form of the path
# algebra, which is hereditary)


def euler_form(Z: IntervalModule, X: IntervalModule) -> int:
    """<dim Z, dim X>: sum over vertices v of z_v x_v, minus the sum over
    arrows s -> t of z_s x_t.  The supports meet in p..r-1; every arrow
    inside the overlap runs from Z into X, so only the two at its ends
    are left to check."""
    p, r = max(X.i, Z.i), min(X.j, Z.j)
    if p > r:
        return 0

    def crosses(l: int) -> bool:  # does the arrow between l-1 and l run Z -> X?
        if not 1 < l <= X.quiver.n:
            return False
        s, t = (l, l - 1) if X.quiver.arrow_points_left(l) else (l - 1, l)
        return Z.i <= s < Z.j and X.i <= t < X.j

    return (r - p) - max(0, r - p - 1) - crosses(p) - (r != p and crosses(r))


def hom_dim(Z: IntervalModule, X: IntervalModule) -> int:
    """dim Hom(Z, X), which is 0 or 1: max(<dim Z, dim X>, 0).

    The path algebra is hereditary, so <dim Z, dim X> = hom(Z, X) -
    ext^1(Z, X).  At most one of the two is nonzero.  The Auslander-Reiten
    formula gives Ext^1(Z, X) = D Hom(X, tau Z), and tau Z is nonzero only
    when Z is not projective; then the Auslander-Reiten sequence ending at
    Z gives nonzero maps tau Z -> E -> Z through an indecomposable summand
    E of its middle.  So nonzero maps Z -> X and X -> tau Z would close a
    cycle Z -> X -> tau Z -> E -> Z of nonzero maps between
    indecomposables, and the module category of a Dynkin quiver, every
    orientation of the line included, has no such cycle (it is
    representation-directed: every indecomposable is preprojective).
    Z = X needs no cycle: an interval module has no self-extension.
    """
    return max(euler_form(Z, X), 0)


def ext_dim(Z: IntervalModule, X: IntervalModule) -> int:
    """dim Ext^1(Z, X), which is 0 or 1: max(-<dim Z, dim X>, 0), since
    Hom(Z, X) and Ext^1(Z, X) are never both nonzero (see `hom_dim`)."""
    return max(-euler_form(Z, X), 0)


def extension_middle(
    X: IntervalModule, Z: IntervalModule
) -> tuple[IntervalModule, ...] | None:
    """Summands of the non-split middle Y of 0 -> X -> Y -> Z -> 0.

    None when Ext^1(Z, X) = 0.  Otherwise Y is unique: for X = M[a,b)
    and Z = M[c,d) it swaps the right ends, Y = M[a,d) + M[c,b), with an
    empty interval dropped.
    """
    if not ext_dim(Z, X):
        return None
    return tuple(
        IntervalModule(i, j, X.quiver)
        for i, j in ((X.i, Z.j), (Z.i, X.j))
        if i < j
    )


def extension_relations(
    mods: list[IntervalModule], maxlen: int, above: int = 0
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Middle-vs-ends relation pairs, sorted, as words over the members
    `mods` of F(w): those of `repkit.extension_relations` over
    `torsion_free_membership`, each middle read off the endpoints by
    `extension_middle`, with no representation built or glued.  The
    middle length is bounded by `dimension_bound()` as there.  F(w) is
    extension-closed, so a middle summand outside `mods` is an internal
    inconsistency.
    """
    bound = repkit.dimension_bound()
    if maxlen > bound:
        raise repkit.DimensionBoundExceeded(f"middle length {maxlen}", bound)
    index = {m: k for k, m in enumerate(mods)}

    def word(summands) -> tuple[int, ...]:
        out = [0] * len(mods)
        for m in summands:
            if m not in index:
                raise repkit.InternalInconsistency(f"extension middle {m} outside F(w)")
            out[index[m]] += 1
        return tuple(out)

    pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for X in mods:
        for Z in mods:
            if above < X.module_length + Z.module_length <= maxlen:
                middle = extension_middle(X, Z)
                # a non-split middle is never X + Z, so the two words differ
                if middle is not None:
                    pairs.add((word(middle), word((X, Z))))
    return sorted(pairs)
