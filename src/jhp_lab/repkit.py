"""
Brute-force oracle for quiver representations over the two-element field.

Everything here is exhaustive and exact at desk scale: subrepresentations
are enumerated as echelonized subspace tuples, every subcategory carries a
complete catalogue of indecomposables, isomorphism classes are keyed by
their catalogue summands (read off Hom counts), membership is decided by
those summands, by dimension vectors or by an explicit predicate, and
composition series, subobject posets and conflation lists are computed by
direct search.  The ground field is always F2, which keeps every subspace
lattice finite.

Conflation relations come from one of three sources.  For a type-A
torsion-free class, `typea.extension_relations` reads the middle of each
extension of two interval modules off their endpoints (a closed-form Ext
rule; no representation is built).  For other summand-closed memberships,
`extension_relations` here glues pairs of member indecomposables over F2
and classifies each middle by Hom counts; a middle outside the class or
its catalogue is refused, since only extension-closed classes are exact.
`conflations_up_to` walks every subobject of every direct sum of members
(any membership): it is the oracle of the tests.
The two extension sources give, for extension-closed E, the same
congruence at each middle length: an end X1 + X2 of 0 -> X -> Y -> Z -> 0
splits it into 0 -> X1 -> Y -> Y/X1 -> 0 and 0 -> X2 -> Y/X1 -> Z -> 0,
with Y/X1 in E and no longer than Y, and dually for Z = Z1 + Z2, until both
ends are indecomposable.  That the reduction ends is not shown in general
(splitting one end can add summands to the other), so the tests check the
extension harvests against the subspace harvest.
"""
from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from operator import mul

from . import gf2
from .monoid import EnumerationOverflow, smith_normal_form

DEFAULT_DIMENSION_BOUND = 8
ENUMERATION_CAP = 4_000_000
# largest Hom-space dimension whose nonzero elements rep_iso tries one by one
ISO_SEARCH_DIM = 20


class AlgebraMismatch(ValueError):
    pass


class InternalInconsistency(Exception):
    """The program's own data contradict each other.

    Not a ValueError: no user input can cause it, so it must never be
    reported as bad input.
    """


class SingularSystem(InternalInconsistency):
    """The catalogue cannot be complete: its Hom-count matrix is singular."""


class NegativeMultiplicity(InternalInconsistency):
    """Hom counts are inconsistent with any direct-sum decomposition."""


class DimensionBoundExceeded(RuntimeError):
    """A brute-force enumeration would exceed the total-dimension bound."""

    def __init__(self, what: str, bound: int) -> None:
        super().__init__(
            f"{what} exceeds the dimension bound {bound}; "
            "raise it with the environment variable JHP_LAB_BOUND"
        )


class NotMember(ValueError):
    pass


class InvalidSpec(ValueError):
    pass


def dimension_bound() -> int:
    """The total-dimension bound: JHP_LAB_BOUND if set, else the default."""
    text = os.environ.get("JHP_LAB_BOUND")
    if text is None:
        return DEFAULT_DIMENSION_BOUND
    try:
        bound = int(text)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError(f"JHP_LAB_BOUND must be a positive integer, got {text!r}")
    return bound


# ---------------------------------------------------------------------------
# algebras and representations


@dataclass(frozen=True)
class PresentedAlgebra:
    """A quiver with monomial relations; loops and parallel arrows allowed.

    Arrows are (name, source, target) with 1-based vertices.  A relation is
    a composable path given by arrow indices in traversal order; its
    composite must act as zero on every representation.
    """

    vertices: int
    arrows: tuple[tuple[str, int, int], ...]
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for name, s, t in self.arrows:
            if not (1 <= s <= self.vertices and 1 <= t <= self.vertices):
                raise InvalidSpec(f"arrow {name}: {s} -> {t} leaves the quiver")
        for rel in self.relations:
            if not rel:
                raise InvalidSpec("empty relation path")
            for a, b in zip(rel, rel[1:]):
                if self.arrows[a][2] != self.arrows[b][1]:
                    raise InvalidSpec(f"relation path {rel} is not composable")
        self._check_finite_dimensional()

    def _check_finite_dimensional(self, cap: int = 32) -> None:
        # grow relation-free paths; for a finite-dimensional monomial
        # algebra this terminates well before the cap
        rels = set(self.relations)

        def blocked(path: tuple[int, ...]) -> bool:
            return any(
                path[k : k + len(r)] in rels
                for r in rels
                for k in range(len(path) - len(r) + 1)
            )

        frontier = [(a,) for a in range(len(self.arrows)) if not blocked((a,))]
        for _ in range(cap):
            if not frontier:
                return
            nxt = []
            for path in frontier:
                t = self.arrows[path[-1]][2]
                for a, (_, s, _) in enumerate(self.arrows):
                    if s == t and not blocked(path + (a,)):
                        nxt.append(path + (a,))
            frontier = nxt
        raise InvalidSpec("algebra is not finite-dimensional (unbounded paths)")


def parse_algebra(text: str) -> PresentedAlgebra:
    """Parse the algebra spec format::

        vertices: 2
        arrow a: 2 -> 1
        arrow b: 1 -> 1
        relation b b
    """
    vertices = None
    arrows: list[tuple[str, int, int]] = []
    rel_names: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            vertices = int(line.split(":", 1)[1])
        elif line.startswith("arrow"):
            m = re.fullmatch(r"arrow\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)", line)
            if not m:
                raise InvalidSpec(f"bad arrow line: {raw!r}")
            arrows.append((m.group(1), int(m.group(2)), int(m.group(3))))
        elif line.startswith("relation"):
            rel_names.append(line.split()[1:])
        else:
            raise InvalidSpec(f"unrecognized line: {raw!r}")
    if vertices is None:
        raise InvalidSpec("missing 'vertices:' line")
    index = {name: k for k, (name, _, _) in enumerate(arrows)}
    relations = tuple(tuple(index[n] for n in rel) for rel in rel_names)
    return PresentedAlgebra(vertices, tuple(arrows), relations)


@dataclass(frozen=True)
class Rep:
    """A representation: one F2 vector space per vertex, one map per arrow.

    The map of arrow a (source s, target t) is a tuple of dims[s-1] column
    vectors over the dims[t-1] target coordinates.
    """

    algebra: PresentedAlgebra
    dims: tuple[int, ...]
    maps: tuple[gf2.Cols, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.algebra.vertices:
            raise InvalidSpec("dimension vector has wrong length")
        if len(self.maps) != len(self.algebra.arrows):
            raise InvalidSpec("need one matrix per arrow")
        for cols, (name, s, t) in zip(self.maps, self.algebra.arrows):
            if len(cols) != self.dims[s - 1]:
                raise InvalidSpec(f"matrix of {name} has wrong source dimension")
            if any(c >> self.dims[t - 1] for c in cols):
                raise InvalidSpec(f"matrix of {name} has wrong target dimension")
        for rel in self.algebra.relations:
            cols = gf2.identity_cols(self.dims[self.algebra.arrows[rel[0]][1] - 1])
            for a in rel:
                cols = gf2.compose_cols(self.maps[a], cols)
            if any(cols):
                raise InvalidSpec(f"relation {rel} does not vanish")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0


def direct_sum(algebra: PresentedAlgebra, reps: list[Rep]) -> Rep:
    for r in reps:
        if r.algebra != algebra:
            raise AlgebraMismatch("direct sum across different algebras")
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(algebra.vertices))
    maps = []
    for a, (_, s, t) in enumerate(algebra.arrows):
        cols: list[int] = []
        t_off = 0
        for r in reps:
            cols.extend(c << t_off for c in r.maps[a])
            t_off += r.dims[t - 1]
        maps.append(tuple(cols))
    return Rep(algebra, dims, tuple(maps))


def all_reps(algebra: PresentedAlgebra, dims: tuple[int, ...]):
    """Every representation with the given dimension vector (no iso dedup)."""
    spaces = []
    for _, s, t in algebra.arrows:
        ds, dt = dims[s - 1], dims[t - 1]
        spaces.append(list(product(range(1 << dt), repeat=ds)))
    count = 1
    for sp in spaces:
        count *= len(sp)
        if count > ENUMERATION_CAP:
            raise EnumerationOverflow(
                "too many representations to enumerate: more than"
                f" ENUMERATION_CAP = {ENUMERATION_CAP}"
            )
    for maps in product(*spaces):
        try:
            yield Rep(algebra, dims, tuple(tuple(m) for m in maps))
        except InvalidSpec:
            continue


# ---------------------------------------------------------------------------
# homomorphisms, isomorphism, decomposition


def _check_algebras(A: Rep, B: Rep) -> None:
    if A.algebra is not B.algebra and A.algebra != B.algebra:
        raise AlgebraMismatch("Hom between representations of different algebras")


def _hom_system(A: Rep, B: Rep) -> tuple[list[int], int]:
    """Linear system for graded maps A -> B commuting with all arrows.

    Entry (row, col) of phi_v : A_v -> B_v is the unknown
    offset[v] + col * B.dims[v] + row.  Arrow a : s -> t gives one
    equation (phi_t A_a)[r, c] = (B_a phi_s)[r, c] per source column c of
    A_a and target row r of B_a.
    """
    _check_algebras(A, B)
    offset = [0, *accumulate(map(mul, A.dims, B.dims))]
    rows = []
    for amap, bmap, (_, s, t) in zip(A.maps, B.maps, A.algebra.arrows):
        bt = B.dims[t - 1]
        if not (amap and bt):
            continue
        # row r of B_a as a mask over the columns m of phi_s
        brows = [0] * bt
        for m, col in enumerate(bmap):
            while col:
                low = col & -col
                brows[low.bit_length() - 1] |= 1 << m
                col ^= low
        bs, ot, base = B.dims[s - 1], offset[t - 1], offset[s - 1]
        for u in amap:
            # the unknowns (0, p) of phi_t for the set bits p of A_a u
            spread = 0
            while u:
                low = u & -u
                spread |= 1 << (low.bit_length() - 1) * bt
                u ^= low
            spread <<= ot
            for r in range(bt):
                rows.append(spread << r ^ brows[r] << base)
            base += bs
    return rows, offset[-1]


def hom_dim(A: Rep, B: Rep) -> int:
    """Dimension over F2 of the homomorphism space A -> B."""
    _check_algebras(A, B)
    if not any(map(min, A.dims, B.dims)):
        return 0  # no vertex carries both: only the zero map
    rows, total = _hom_system(A, B)
    return gf2.nullity(rows, total)


def _phi_from_vector(A: Rep, B: Rep, vec: int) -> list[gf2.Cols]:
    nv = A.algebra.vertices
    out = []
    pos = 0
    for v in range(nv):
        cols = []
        for _ in range(A.dims[v]):
            cols.append(vec >> pos & ((1 << B.dims[v]) - 1))
            pos += B.dims[v]
        out.append(tuple(cols))
    return out


def rep_iso(A: Rep, B: Rep) -> bool:
    """Isomorphism test by searching the homomorphism space."""
    if A.dims != B.dims:
        return False
    if A.total_dim == 0:
        return True
    rows, total = _hom_system(A, B)
    basis = gf2.nullspace(rows, total)
    if len(basis) != hom_dim(B, A):
        return False
    if len(basis) > ISO_SEARCH_DIM:
        raise EnumerationOverflow(
            f"homomorphism space of dimension {len(basis)} too large for iso"
            f" search: more than ISO_SEARCH_DIM = {ISO_SEARCH_DIM}"
        )
    for mask in range(1, 1 << len(basis)):
        vec = 0
        k = mask
        while k:
            low = k & -k
            vec ^= basis[low.bit_length() - 1]
            k ^= low
        phi = _phi_from_vector(A, B, vec)
        if all(gf2.invertible(cols, A.dims[v]) for v, cols in enumerate(phi)):
            return True
    return False


def _resolve(
    rows: list[list[int]],
    d: int,
    h: tuple[int, ...],
    catalogue: tuple[Rep, ...],
    dims: tuple[int, ...],
) -> Counter:
    """Multiplicities m = rows . h / d of the catalogue entries.

    They are checked to be nonnegative integers whose catalogue entries
    add up to the dimension vector `dims` of the object that gave the Hom
    counts h; a catalogue that misses an indecomposable fails one check.
    """
    out = Counter()
    for k, row in enumerate(rows):
        x = sum(map(mul, row, h))
        if x < 0 or x % d:
            raise NegativeMultiplicity(
                f"Hom counts {h} give multiplicity {x}/{d}"
            )
        if x:
            out[k] = x // d
    got = tuple(
        sum(m * catalogue[k].dims[v] for k, m in out.items())
        for v in range(len(dims))
    )
    if got != dims:
        raise NegativeMultiplicity(
            f"Hom counts {h} give dimension vector {got}, not {dims}"
        )
    return out


# ---------------------------------------------------------------------------
# membership in an extension-closed subcategory


class Membership:
    """A subcategory of the module category, with a membership test.

    Every membership carries a complete catalogue of the indecomposables
    it can meet, whose Hom-count matrix is nonsingular.  The subcategory
    is additive over a subset of the catalogue, or cut out by a predicate
    on dimension vectors or on representations.  An isomorphism class is
    keyed by the sorted catalogue indices of its summands.
    """

    def __init__(
        self,
        catalogue: tuple[Rep, ...],
        labels: tuple[str, ...] = (),
        allowed: frozenset[int] | None = None,
        dim_pred=None,
        rep_pred=None,
        name: str = "E",
    ) -> None:
        self.algebra = catalogue[0].algebra
        self.catalogue = catalogue
        self.labels = labels or tuple(f"C{k}" for k in range(len(catalogue)))
        self.allowed = allowed
        self.dim_pred = dim_pred
        self.rep_pred = rep_pred
        self.name = name
        self._hom_inverse: tuple[list[list[int]], list[list[int]], int] | None = None
        # decompositions and simplicity verdicts, keyed by representation
        self._classes: dict[Rep, Counter] = {}
        self._simple: dict[Rep, bool] = {}

    # -- constructors

    @classmethod
    def full(cls, catalogue: tuple[Rep, ...], labels=(), name="mod") -> "Membership":
        return cls(catalogue, labels, name=name)

    @classmethod
    def additive(
        cls, catalogue: tuple[Rep, ...], allowed: frozenset[int], labels=(), name="E"
    ) -> "Membership":
        return cls(catalogue, labels, allowed=allowed, name=name)

    @classmethod
    def dims_only(
        cls, catalogue: tuple[Rep, ...], dim_pred, labels=(), name="E"
    ) -> "Membership":
        return cls(catalogue, labels, dim_pred=dim_pred, name=name)

    @classmethod
    def predicate(
        cls, catalogue: tuple[Rep, ...], rep_pred, labels=(), name="E"
    ) -> "Membership":
        return cls(catalogue, labels, rep_pred=rep_pred, name=name)

    # -- membership

    @property
    def summand_closed(self) -> bool:
        """Additive and full memberships are closed under direct summands,
        so their simple objects are indecomposable; dims-restricted ones
        are not (a simple object may decompose as a module)."""
        return self.rep_pred is None and self.dim_pred is None

    @property
    def live(self) -> list[int]:
        """Indices of the catalogue entries that lie in the subcategory."""
        if self.allowed is None:
            return list(range(len(self.catalogue)))
        return sorted(self.allowed)

    def allows(self, classes) -> bool:
        """Are all the given catalogue indices allowed summands?"""
        return self.allowed is None or all(k in self.allowed for k in classes)

    def contains_dims(self, dims: tuple[int, ...]) -> bool | None:
        """Fast path when membership depends only on the dimension vector."""
        if self.dim_pred is not None:
            return bool(self.dim_pred(dims))
        if self.allowed is None and self.rep_pred is None:
            return True  # full subcategory
        return None

    def contains(self, rep: Rep) -> bool:
        quick = self.contains_dims(rep.dims)
        if quick is not None:
            return quick
        if self.rep_pred is not None:
            return bool(self.rep_pred(rep))
        return self.allows(self.decompose(rep))

    # -- decomposition against the catalogue

    def _inverse_hom_matrix(self) -> tuple[list[list[int]], list[list[int]], int]:
        """(N, N transposed, d) with N / d the inverse of the Hom-count
        matrix H[i][j] = hom_dim(C_i, C_j), and d > 0.

        Hom counts into an object are H m for its multiplicity vector m,
        and Hom counts out of it are H^T m.  With D = U H V in Smith normal
        form, N = V (d D^-1) U for d the lcm of the invariant factors.
        """
        if self._hom_inverse is None:
            n = len(self.catalogue)
            H = [
                [hom_dim(self.catalogue[i], self.catalogue[j]) for j in range(n)]
                for i in range(n)
            ]
            D, U, V = smith_normal_form(H)
            diag = [D[k][k] for k in range(n)]
            if not all(diag):
                raise SingularSystem("Hom-count matrix is singular")
            d = math.lcm(*diag)
            scaled = [[d // diag[k] * x for x in U[k]] for k in range(n)]
            N = []
            for i in range(n):
                row = [0] * n
                for v, srow in zip(V[i], scaled):
                    if v:
                        for j, x in enumerate(srow):
                            row[j] += v * x
                N.append(row)
            self._hom_inverse = (N, [list(col) for col in zip(*N)], d)
            # only now is each entry known to be its own class
            for k, c in enumerate(self.catalogue):
                self._classes[c] = Counter({k: 1})
        return self._hom_inverse

    def decompose(self, rep: Rep) -> Counter:
        """Multiplicities of the catalogue entries in rep (a fresh Counter)."""
        N, _, d = self._inverse_hom_matrix()
        classes = self._classes.get(rep)
        if classes is None:
            h = tuple(hom_dim(c, rep) for c in self.catalogue)
            classes = self._classes[rep] = _resolve(N, d, h, self.catalogue, rep.dims)
        return Counter(classes)

    def representative(self, key: tuple) -> Rep:
        """The direct sum of the catalogue entries of an iso_key."""
        return direct_sum(self.algebra, [self.catalogue[k] for k in key])

    def iso_key(self, rep: Rep) -> tuple:
        """Key of the isomorphism class of rep: its sorted catalogue summands."""
        return tuple(sorted(self.decompose(rep).elements()))

    def label_of(self, classes: Counter) -> str:
        if not classes:
            return "0"
        bits = []
        for k in sorted(classes):
            m = classes[k]
            bits.append(self.labels[k] if m == 1 else f"{m}*{self.labels[k]}")
        return "+".join(bits)


class SubquotClassifier:
    """Class lookup for subobjects and quotients of one fixed object.

    The tests' independent oracle for `Membership.decompose` of
    materialized subobjects and quotients; no program path uses it.
    Decomposition classes are read off Hom-count fingerprints: maps from a
    catalogue object C into a subspace tuple U are the maps into X whose
    image lands in U, and maps from X/U out to C are the maps from X that
    kill U.  Both are linear conditions on precomputed Hom bases, so no
    sub- or quotient representation is ever materialized.
    """

    def __init__(self, E: Membership, X: Rep):
        self.E = E
        self.X = X
        self.into: list[list[list[gf2.Cols]]] = []
        self.outof: list[list[list[gf2.Cols]]] = []
        for C in E.catalogue:
            rows, total = _hom_system(C, X)
            self.into.append(
                [_phi_from_vector(C, X, v) for v in gf2.nullspace(rows, total)]
            )
            rows, total = _hom_system(X, C)
            self.outof.append(
                [_phi_from_vector(X, C, v) for v in gf2.nullspace(rows, total)]
            )
        self._N, self._NT, self._d = E._inverse_hom_matrix()
        self._sub_cache: dict = {}
        self._quot_cache: dict = {}

    def sub_class(self, S: SubRep) -> Counter:
        nv = self.X.algebra.vertices
        fingerprint = []
        for basis in self.into:
            if not basis:
                fingerprint.append(0)
                continue
            rows = []
            for v in range(nv):
                ech = S.bases[v]
                if len(ech) == self.X.dims[v]:
                    continue
                width = len(basis[0][v])
                for c in range(width):
                    residuals = [
                        gf2.reduce_vec(ech, phi[v][c]) for phi in basis
                    ]
                    for b in range(self.X.dims[v]):
                        row = 0
                        for k, r in enumerate(residuals):
                            if r >> b & 1:
                                row |= 1 << k
                        if row:
                            rows.append(row)
            fingerprint.append(len(basis) - gf2.rank(rows))
        key = (tuple(fingerprint), S.dims())
        if key not in self._sub_cache:
            self._sub_cache[key] = _resolve(
                self._N, self._d, key[0], self.E.catalogue, key[1]
            )
        return Counter(self._sub_cache[key])

    def quot_class(self, S: SubRep) -> Counter:
        nv = self.X.algebra.vertices
        fingerprint = []
        for i, basis in enumerate(self.outof):
            if not basis:
                fingerprint.append(0)
                continue
            cdims = self.E.catalogue[i].dims
            rows = []
            for v in range(nv):
                for u in S.bases[v]:
                    images = [gf2.apply_cols(psi[v], u) for psi in basis]
                    for b in range(cdims[v]):
                        row = 0
                        for k, img in enumerate(images):
                            if img >> b & 1:
                                row |= 1 << k
                        if row:
                            rows.append(row)
            fingerprint.append(len(basis) - gf2.rank(rows))
        key = (
            tuple(fingerprint),
            tuple(d - len(b) for d, b in zip(self.X.dims, S.bases)),
        )
        if key not in self._quot_cache:
            self._quot_cache[key] = _resolve(
                self._NT, self._d, key[0], self.E.catalogue, key[1]
            )
        return Counter(self._quot_cache[key])


# ---------------------------------------------------------------------------
# subrepresentations


@dataclass(frozen=True)
class SubRep:
    """An arrow-stable tuple of subspaces, one echelon basis per vertex."""

    bases: tuple[gf2.Echelon, ...]

    @property
    def total_dim(self) -> int:
        return sum(len(b) for b in self.bases)

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


@lru_cache(maxsize=None)
def _subspace_list(dim: int) -> tuple[gf2.Echelon, ...]:
    return tuple(gf2.subspaces(dim))


def enumerate_subreps(X: Rep) -> list[SubRep]:
    """All arrow-stable subspace tuples of X, including 0 and X."""
    bound = dimension_bound()
    if X.total_dim > bound:
        raise DimensionBoundExceeded(f"total dimension {X.total_dim}", bound)
    nv = X.algebra.vertices
    arrows = [(a, s - 1, t - 1) for a, (_, s, t) in enumerate(X.algebra.arrows)]
    check_at = [[] for _ in range(nv)]
    for a, s, t in arrows:
        check_at[max(s, t)].append((a, s, t))
    out: list[SubRep] = []
    chosen: list[gf2.Echelon] = [()] * nv

    def stable(a: int, s: int, t: int) -> bool:
        cols = X.maps[a]
        target = chosen[t]
        return all(gf2.in_span(target, gf2.apply_cols(cols, u)) for u in chosen[s])

    def walk(v: int) -> None:
        if v == nv:
            out.append(SubRep(tuple(chosen)))
            return
        for sub in _subspace_list(X.dims[v]):
            chosen[v] = sub
            if all(stable(a, s, t) for a, s, t in check_at[v]):
                walk(v + 1)

    walk(0)
    return out


def _proper_subreps(X: Rep):
    """The nonzero subspace tuples of X other than X itself, lazily."""
    return (S for S in enumerate_subreps(X) if S.total_dim not in (0, X.total_dim))


def sub_rep(X: Rep, S: SubRep) -> Rep:
    """The subrepresentation carried by S, in its own coordinates."""
    dims = S.dims()
    maps = []
    for a, (_, s, t) in enumerate(X.algebra.arrows):
        cols = []
        for u in S.bases[s - 1]:
            w = gf2.apply_cols(X.maps[a], u)
            cols.append(gf2.coords_in_span(S.bases[t - 1], w))
        maps.append(tuple(cols))
    return Rep(X.algebra, dims, tuple(maps))


def quotient_rep(X: Rep, S: SubRep) -> Rep:
    """X/S in the coordinates of the non-pivot positions of S."""
    nv = X.algebra.vertices
    rest = []
    for v in range(nv):
        pivots = {gf2.pivot(r) for r in S.bases[v]}
        rest.append([c for c in range(X.dims[v]) if c not in pivots])

    def project(v: int, w: int) -> int:
        w = gf2.reduce_vec(S.bases[v], w)
        out = 0
        for k, c in enumerate(rest[v]):
            if w >> c & 1:
                out |= 1 << k
        return out

    dims = tuple(len(r) for r in rest)
    maps = []
    for a, (_, s, t) in enumerate(X.algebra.arrows):
        cols = []
        for c in rest[s - 1]:
            cols.append(project(t - 1, gf2.apply_cols(X.maps[a], 1 << c)))
        maps.append(tuple(cols))
    return Rep(X.algebra, dims, tuple(maps))


def section_quotient(X: Rep, U: SubRep, V: SubRep) -> Rep:
    """The representation V/U for nested stable subspace tuples U <= V."""
    Vrep = sub_rep(X, V)
    inner = SubRep(
        tuple(
            gf2.rref(gf2.coords_in_span(V.bases[v], u) for u in U.bases[v])
            for v in range(X.algebra.vertices)
        )
    )
    return quotient_rep(Vrep, inner)


def sub_contains(V: SubRep, U: SubRep) -> bool:
    return all(gf2.contains(v, u) for v, u in zip(V.bases, U.bases))


# ---------------------------------------------------------------------------
# admissible subobject posets


@dataclass
class SubobjectPoset:
    """Subobjects U of X with U and X/U in E, ordered by U <= V iff
    U is contained in V and V/U lies in E."""

    X: Rep
    membership: Membership
    elements: list[SubRep]
    down: list[int]  # down[i] = bitmask of j with elements[j] <= elements[i]
    up: list[int]

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)


def _order_pair(X: Rep, E: Membership, U: SubRep, V: SubRep) -> bool:
    if not sub_contains(V, U):
        return False
    qdims = tuple(dv - du for dv, du in zip(V.dims(), U.dims()))
    quick = E.contains_dims(qdims)
    if quick is not None:
        return quick
    return E.contains(section_quotient(X, U, V))


def _admissible(X: Rep, E: Membership, subs):
    """The subobjects S among `subs` with S and X/S both in E, lazily."""
    for S in subs:
        inok = E.contains_dims(S.dims())
        if inok is None:
            inok = E.contains(sub_rep(X, S))
        if not inok:
            continue
        qdims = tuple(d - sd for d, sd in zip(X.dims, S.dims()))
        outok = E.contains_dims(qdims)
        if outok is None:
            outok = E.contains(quotient_rep(X, S))
        if outok:
            yield S


def _steps(X: Rep, E: Membership, subs, accept=lambda key: True):
    """(sub_key, quot_key) for each S among `subs` with S and X/S in E.

    Keys are E.iso_key classes, sorted catalogue summands.  S and X/S are
    materialized at most once each, so a representation predicate sees
    and iso_key classifies the same objects.  A subobject whose key fails
    accept(key) is skipped before its quotient is built.
    """
    for S in subs:
        qdims = tuple(d - sd for d, sd in zip(X.dims, S.dims()))
        if E.contains_dims(S.dims()) is False or E.contains_dims(qdims) is False:
            continue
        sub = sub_rep(X, S)
        if not E.contains(sub):
            continue
        sub_key = E.iso_key(sub)
        if not accept(sub_key):
            continue
        quot = quotient_rep(X, S)
        if E.contains(quot):
            yield sub_key, E.iso_key(quot)


def admissible_subreps(X: Rep, E: Membership) -> list[SubRep]:
    out = list(_admissible(X, E, enumerate_subreps(X)))
    out.sort(key=lambda s: (s.total_dim, s.bases))
    return out


def admissible_poset(X: Rep, E: Membership) -> SubobjectPoset:
    if not E.contains(X):
        raise NotMember("X does not belong to the subcategory")
    elems = admissible_subreps(X, E)
    n = len(elems)
    down = [0] * n
    up = [0] * n
    for i in range(n):
        down[i] |= 1 << i
        up[i] |= 1 << i
        for j in range(n):
            if (
                j != i
                and elems[j].total_dim < elems[i].total_dim
                and _order_pair(X, E, elems[j], elems[i])
            ):
                down[i] |= 1 << j
                up[j] |= 1 << i
    return SubobjectPoset(X, E, elems, down, up)


@dataclass(frozen=True)
class PosetProperties:
    is_lattice: bool
    is_modular: bool


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unique_extreme(P: SubobjectPoset, pool: int, want_max: bool) -> int | None:
    """Index of the unique maximal (or minimal) element of `pool`, else None."""
    sets = P.down if want_max else P.up
    found = None
    for i in _bits(pool):
        if sets[i] & pool == pool:
            return i  # comparable to everything in the pool: the extreme
    for i in _bits(pool):
        # i is maximal iff nothing else in the pool lies above it
        above = (P.up if want_max else P.down)[i] & pool & ~(1 << i)
        if above == 0:
            if found is not None:
                return None
            found = i
    return found


def meet_index(P: SubobjectPoset, i: int, j: int) -> int | None:
    return _unique_extreme(P, P.down[i] & P.down[j], want_max=True)


def join_index(P: SubobjectPoset, i: int, j: int) -> int | None:
    return _unique_extreme(P, P.up[i] & P.up[j], want_max=False)


def poset_properties(P: SubobjectPoset) -> PosetProperties:
    n = len(P)
    meets = {}
    joins = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = meet_index(P, i, j)
            if m is None:
                return PosetProperties(False, False)
            v = join_index(P, i, j)
            if v is None:
                return PosetProperties(False, False)
            meets[i, j] = meets[j, i] = m
            joins[i, j] = joins[j, i] = v

    def meet(i, j):
        return i if i == j else meets[i, j]

    def join(i, j):
        return i if i == j else joins[i, j]

    for a in range(n):
        for b in _bits(P.up[a]):  # a <= b
            for x in range(n):
                if meet(join(x, a), b) != join(meet(x, b), a):
                    return PosetProperties(True, False)
    return PosetProperties(True, True)


# ---------------------------------------------------------------------------
# composition series


@dataclass(frozen=True)
class SeriesReport:
    is_simple: bool
    factor_multisets: frozenset[tuple]
    factor_labels: frozenset[tuple[str, ...]]
    lengths: frozenset[int]
    jhp_holds: bool
    unique_length: bool
    nu_max: int


def is_simple_object(X: Rep, E: Membership) -> bool:
    """Is X simple in E, i.e. are 0 and X its only admissible subobjects?

    Memoized in E by the value of X.
    """
    simple = E._simple.get(X)
    if simple is None:
        proper = _admissible(X, E, _proper_subreps(X))
        simple = E._simple[X] = not X.is_zero() and next(proper, None) is None
    return simple


class SeriesAnalyzer:
    """Composition-series search with memoization shared across objects.

    Walks maximal chains bottom-up: each first step is a simple admissible
    subobject, and the rest of any chain is a maximal chain of the
    quotient (the interval above a subobject is isomorphic to the
    subobject poset of the quotient).  Chain sets are memoized by
    E.iso_key class (the sorted catalogue summands) and computed on the
    direct sum of those summands, so analyzing many objects of one
    subcategory shares all the work; simplicity is memoized in E.

    In a summand-closed E a simple object is indecomposable, so it is a
    live catalogue entry: only subobjects with the dimension vector of a
    simple live entry are classified as first steps.
    """

    def __init__(self, E: Membership):
        self.E = E
        self._chain_memo: dict = {}
        self._firsts: frozenset[tuple] | None = None

    def _simple(self, key: tuple) -> bool:
        return is_simple_object(self.E.representative(key), self.E)

    def _first_keys(self) -> frozenset[tuple]:
        """The keys (k,) of the simple live catalogue entries."""
        if self._firsts is None:
            E = self.E
            self._firsts = frozenset(
                (k,) for k in E.live if is_simple_object(E.catalogue[k], E)
            )
        return self._firsts

    def _chains(self, key: tuple) -> frozenset[tuple]:
        if key not in self._chain_memo:
            X = self.E.representative(key)
            out = set()
            if X.is_zero():
                out.add(())
            else:
                subs = enumerate_subreps(X)
                if self.E.summand_closed:
                    firsts = self._first_keys()
                    dims = {self.E.catalogue[k].dims for (k,) in firsts}
                    subs = (S for S in subs if S.dims() in dims)
                    steps = _steps(X, self.E, subs, firsts.__contains__)
                else:
                    subs = (S for S in subs if S.total_dim)
                    steps = _steps(X, self.E, subs, self._simple)
                for sub_key, quot_key in dict.fromkeys(steps):
                    for tail in self._chains(quot_key):
                        out.add(tuple(sorted(tail + (sub_key,))))
            self._chain_memo[key] = frozenset(out)
        return self._chain_memo[key]

    def analyze(self, X: Rep) -> SeriesReport:
        if not self.E.contains(X):
            raise NotMember("X does not belong to the subcategory")
        key = self.E.iso_key(X)
        multisets = self._chains(key)
        labels = frozenset(
            tuple(self.E.label_of(Counter(k)) for k in m) for m in multisets
        )
        lengths = frozenset(len(m) for m in multisets)
        return SeriesReport(
            is_simple=self._simple(key),
            factor_multisets=multisets,
            factor_labels=labels,
            lengths=lengths,
            jhp_holds=len(multisets) <= 1,
            unique_length=len(lengths) <= 1,
            nu_max=max(lengths) if lengths else 0,
        )


def series_analysis(X: Rep, E: Membership) -> SeriesReport:
    """All composition series data of X in E, by exhaustive chain search."""
    return SeriesAnalyzer(E).analyze(X)


# ---------------------------------------------------------------------------
# conflation harvesting


def _multisets_up_to(lengths: list[int], maxlen: int):
    """Nonempty multisets over range(len(lengths)) with bounded total length."""
    n = len(lengths)
    acc = [0] * n

    def walk(k: int, budget: int):
        if k == n:
            if budget < maxlen:  # something was consumed
                yield tuple(acc)
            return
        top = budget // lengths[k]
        for m in range(top + 1):
            acc[k] = m
            yield from walk(k + 1, budget - m * lengths[k])
        acc[k] = 0

    yield from walk(0, maxlen)


def _supports_connected(E: Membership, multiset: tuple[int, ...]) -> bool:
    """Do the vertex supports of the summands form one connected block?"""
    supports = [
        sum(1 << v for v, d in enumerate(E.catalogue[k].dims) if d)
        for k, m in enumerate(multiset)
        if m
    ]
    block, rest = supports[0], supports[1:]
    while rest:
        near = [s for s in rest if s & block]
        if not near:
            return False
        for s in near:
            block |= s
        rest = [s for s in rest if s not in near]
    return True


def conflations_up_to(
    E: Membership, maxlen: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All middle-vs-ends relation pairs from conflations in E.

    Pairs are (class of Y, class of U plus class of Y/U) as multiplicity
    words over the catalogue, for every direct sum Y of live catalogue
    entries with total length at most `maxlen` and every subobject U of Y
    such that U and Y/U lie in E.  Split pairs (both sides equal) are
    dropped.

    For additive memberships two reductions are applied; both only discard
    pairs that follow from retained ones by adding a common summand:
    direct sums with vertex-disjoint summand groups, and isotypic powers
    of a one-dimensional summand (semisimple, so all their pairs split).
    """
    bound = dimension_bound()
    if maxlen > bound:
        raise DimensionBoundExceeded(f"middle length {maxlen}", bound)
    pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    lengths = [c.total_dim for c in E.catalogue]
    live = E.live
    for small in _multisets_up_to([lengths[k] for k in live], maxlen):
        word = [0] * len(E.catalogue)
        for pos, m in zip(live, small):
            word[pos] = m
        word = tuple(word)
        if E.dim_pred is not None:
            dims = tuple(
                sum(word[k] * c.dims[v] for k, c in enumerate(E.catalogue))
                for v in range(E.algebra.vertices)
            )
            if not E.dim_pred(dims):
                continue
        if E.summand_closed:
            if not _supports_connected(E, word):
                continue
            only = [k for k, m in enumerate(word) if m]
            if (
                len(only) == 1
                and word[only[0]] > 1
                and E.catalogue[only[0]].total_dim == 1
            ):
                continue
        Y = direct_sum(
            E.algebra, [c for k, c in enumerate(E.catalogue) for _ in range(word[k])]
        )
        for sub_key, quot_key in _steps(Y, E, _proper_subreps(Y)):
            rhs = _word_of(E, sub_key + quot_key)
            if rhs != word:
                pairs.add((word, rhs))
    return sorted(pairs)


def _word_of(E: Membership, summands) -> tuple[int, ...]:
    word = [0] * len(E.catalogue)
    for k in summands:
        word[k] += 1
    return tuple(word)


def _gluings(X: Rep, Z: Rep):
    """Every block-triangular gluing Y of Z by X with a nonzero block.

    Y_v is X_v + Z_v with X in the low coordinates, and an arrow s -> t
    acts by [[X_a, phi_a], [0, Z_a]] for a block phi_a: Z_s -> X_t.  Every
    extension of Z by X is one of these.  phi = 0 (the split X + Z) is
    skipped, as is a gluing that breaks a relation of the algebra.  No
    other split middle is: a nonzero coboundary phi gives a Y isomorphic
    to X + Z, which `extension_relations` drops by comparing words.
    """
    algebra = X.algebra
    bits = sum(Z.dims[s - 1] * X.dims[t - 1] for _, s, t in algebra.arrows)
    if 1 << bits > ENUMERATION_CAP:
        raise EnumerationOverflow(
            f"too many gluings of one pair to enumerate: 2^{bits}, more than"
            f" ENUMERATION_CAP = {ENUMERATION_CAP}"
        )
    dims = tuple(x + z for x, z in zip(X.dims, Z.dims))
    for code in range(1, 1 << bits):
        maps = []
        rest = code  # the phi blocks, column by column
        for a, (_, s, t) in enumerate(algebra.arrows):
            dx = X.dims[t - 1]
            cols = list(X.maps[a])
            for c in Z.maps[a]:
                cols.append(c << dx | rest & ((1 << dx) - 1))
                rest >>= dx
            maps.append(tuple(cols))
        try:
            yield Rep(algebra, dims, tuple(maps))
        except InvalidSpec:
            continue


def extension_relations(
    E: Membership, maxlen: int, above: int = 0
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Middle-vs-ends relation pairs from extensions of two indecomposables.

    For each ordered pair (X, Z) of live catalogue entries with
    above < grade(X) + grade(Z) <= maxlen, every gluing Y of Z by X with a
    nonzero block (`_gluings`) is classified once by Hom counts, and
    (word of Y, word of X plus word of Z) is kept when the two differ,
    which drops the split middles.  Returns the pairs sorted.
    Raises InvalidSpec as soon as some Y has a summand outside E (E is not
    extension-closed), or one outside a catalogue that is complete only up
    to some dimension (E is not within its catalogue's reach); only the
    pairs looked at are checked.

    For E summand- and extension-closed these generate, at every middle
    length s <= maxlen, the congruence of all conflations with middle
    length at most s (the argument is in the module docstring).  The
    middle length is bounded by `dimension_bound()` and the gluings of one
    pair by ENUMERATION_CAP.
    """
    if not E.summand_closed:
        raise InvalidSpec("the extension harvest needs a summand-closed membership")
    bound = dimension_bound()
    if maxlen > bound:
        raise DimensionBoundExceeded(f"middle length {maxlen}", bound)
    pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    live = E.live
    for i in live:
        for k in live:
            X, Z = E.catalogue[i], E.catalogue[k]
            if not above < X.total_dim + Z.total_dim <= maxlen:
                continue
            ends = _word_of(E, (i, k))
            pair = f"({E.labels[i]}, {E.labels[k]})"
            for Y in _gluings(X, Z):
                try:
                    classes = E.decompose(Y)
                except NegativeMultiplicity:
                    raise InvalidSpec(
                        f"{E.name}: a middle of {pair} lies outside the catalogue"
                    ) from None
                if not E.allows(classes):
                    raise InvalidSpec(
                        f"{E.name} is not extension-closed: a middle of {pair}"
                        " lies outside it"
                    )
                word = _word_of(E, classes.elements())
                if word != ends:
                    pairs.add((word, ends))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# brute-force catalogues and torsion-free classes


def brute_force_catalogue(
    algebra: PresentedAlgebra, dim_caps: tuple[int, ...], total_cap: int
) -> list[Rep]:
    """All indecomposables with bounded dimension vector, up to isomorphism."""
    classes: list[Rep] = []
    dims_list = [
        dims
        for dims in product(*(range(c + 1) for c in dim_caps))
        if 0 < sum(dims) <= total_cap
    ]
    dims_list.sort(key=sum)
    for dims in dims_list:
        for rep in all_reps(algebra, dims):
            if any(c.dims == dims and rep_iso(c, rep) for c in classes):
                continue
            classes.append(rep)
    # drop decomposables: anything isomorphic to a multiset of earlier classes
    indec: list[Rep] = []
    for rep in sorted(classes, key=lambda r: r.total_dim):
        if not _splits_over(rep, indec):
            indec.append(rep)
    return indec


def _splits_over(rep: Rep, parts: list[Rep]) -> bool:
    """Is rep isomorphic to a nonempty direct sum of the given classes?"""

    def search(start: int, remaining: tuple[int, ...], acc: list[Rep]):
        if all(d == 0 for d in remaining):
            yield list(acc)
            return
        for k in range(start, len(parts)):
            pd = parts[k].dims
            if any(pd) and all(p <= r for p, r in zip(pd, remaining)):
                acc.append(parts[k])
                yield from search(
                    k, tuple(r - p for r, p in zip(remaining, pd)), acc
                )
                acc.pop()

    for combo in search(0, rep.dims, []):
        if rep_iso(rep, direct_sum(rep.algebra, combo)):
            return True
    return False


def torsion_free_classes(E: Membership, check_len: int) -> list[frozenset[int]]:
    """Subsets of the catalogue closed under submodules and extensions.

    E must be the full module category of its catalogue.  Both
    closure conditions are certified for middles of total length at most
    `check_len`; representation-finite desk-scale algebras are well within
    that range.
    """
    if not (E.allowed is None and E.summand_closed):
        raise InvalidSpec("need the full module category of the catalogue")
    bound = dimension_bound()
    if check_len > bound:
        raise DimensionBoundExceeded(f"check length {check_len}", bound)
    cat = E.catalogue
    lengths = [c.total_dim for c in cat]
    facts = []  # (y_classes, {(u_classes, q_classes)})
    for word in _multisets_up_to(lengths, check_len):
        Y = direct_sum(E.algebra, [c for k, c in enumerate(cat) for _ in range(word[k])])
        steps = _steps(Y, E, _proper_subreps(Y))
        pairs = {(frozenset(u), frozenset(q)) for u, q in steps}
        facts.append((frozenset(k for k, m in enumerate(word) if m), pairs))

    out = []
    for mask in range(1 << len(cat)):
        S = frozenset(k for k in range(len(cat)) if mask >> k & 1)
        ok = True
        for y_classes, pairs in facts:
            if y_classes <= S:
                if any(not u <= S for u, _ in pairs):
                    ok = False  # a submodule escapes
                    break
            else:
                if any(u <= S and q <= S for u, q in pairs):
                    ok = False  # an extension of members escapes
                    break
        if ok:
            out.append(S)
    return out
