"""
Finitely presented, positively graded commutative monoids.

A presentation consists of graded generators, an optional carrier
restriction (the monoid lives on the sub-poset of multiplicity words the
carrier accepts), and grade-preserving relation pairs.  Because every
generator has positive grade, each graded stratum is a finite set of
words and the congruence generated by the relations can be computed
stratum by stratum with a union-find: two words are identified exactly
when a chain of single-relation rewrites w -> w - u + v connects them,
where the leftover w - u must itself be a carrier word.

No verdict on an unrestricted (`all`) carrier needs strata.  Its atoms
are read off the relations alone: a one-letter word can only be
rewritten by a relation with that word as one side.  The group
completion is one Smith normal form of the relation differences, over
plain Python ints.  Freeness is the count #atoms = rank K0, and a free
monoid is cancellative and half-factorial, so for a free monoid neither
the cancellativity scan nor the half-factoriality test does more than
that count.  Otherwise half-factoriality asks for a functional on K0
tensored with Q that is 1 on every atom; it exists exactly when a
column of ones leaves the rank of the atoms' free coordinates unchanged,
and both ranks are read off Smith normal forms, so the module has one
exact solver.  Dimension-vector carriers read their atoms off the strata
of their irreducible words, and the Cayley quiver is drawn from the
strata up to its bound.

Inside a stratum computation a word is handled as one packed int, a
mixed-radix number with one digit per generator (see `stratum_classes`),
so that adding words is adding ints.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import le, mul, sub

WORD_CAP = 500_000


class EnumerationOverflow(RuntimeError):
    """An enumeration would pass one of the module-level size limits."""


class InvalidPresentation(ValueError):
    pass


Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# generators, carriers, presentations


@dataclass(frozen=True)
class GeneratorTable:
    names: tuple[str, ...]
    grades: tuple[int, ...]
    dimvecs: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.grades) != len(self.names):
            raise InvalidPresentation("one grade per generator")
        if any(g < 1 for g in self.grades):
            raise InvalidPresentation("grades must be positive")
        if self.dimvecs is not None and len(self.dimvecs) != len(self.names):
            raise InvalidPresentation("one dimension vector per generator")
        if self.dimvecs is not None and len(set(map(len, self.dimvecs))) > 1:
            raise InvalidPresentation("dimension vectors of unequal length")

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def dimvec_rank(self) -> int:
        """Rank of the generators' dimension-vector matrix."""
        return _rank([list(dv) for dv in self.dimvecs or ()])

    def grade(self, word: Word) -> int:
        return sum(map(mul, word, self.grades))

    def dimvec(self, word: Word) -> tuple[int, ...] | None:
        if self.dimvecs is None:
            return None
        n = len(self.dimvecs[0]) if self.dimvecs else 0
        return tuple(
            sum(m * dv[i] for m, dv in zip(word, self.dimvecs)) for i in range(n)
        )

    def zero(self) -> Word:
        return (0,) * len(self.names)

    def format_word(self, word: Word) -> str:
        if not any(word):
            return "0"
        bits = []
        for name, m in zip(self.names, word):
            if m == 1:
                bits.append(name)
            elif m > 1:
                bits.append(f"{m}*{name}")
        return "+".join(bits)


class Carrier:
    """Which multiplicity words actually occur in the monoid.

    Either everything, or the words whose dimension vector lies in a given
    finitely generated submonoid of N^n.
    """

    def __init__(self, kind: str, vectors: tuple[tuple[int, ...], ...] = ()):
        if kind not in ("all", "dimvec"):
            raise InvalidPresentation(f"unknown carrier kind {kind!r}")
        self.kind = kind
        self.vectors = tuple(tuple(v) for v in vectors)

    @classmethod
    def all_words(cls) -> "Carrier":
        return cls("all")

    @classmethod
    def dimvec_submonoid(cls, vectors) -> "Carrier":
        vectors = tuple(tuple(v) for v in vectors)
        if not vectors or any(all(x == 0 for x in v) for v in vectors):
            raise InvalidPresentation("need nonzero generating vectors")
        return cls("dimvec", vectors)

    def contains(self, gens: GeneratorTable, word: Word) -> bool:
        if self.kind == "all":
            return True
        dv = gens.dimvec(word)
        if dv is None:
            raise InvalidPresentation("dimvec carrier needs generator dimvecs")
        return self._in_submonoid(dv)

    def _in_submonoid(self, target: tuple[int, ...]) -> bool:
        if all(x == 0 for x in target):
            return True
        for v in self.vectors:
            if all(a <= b for a, b in zip(v, target)):
                rest = tuple(b - a for a, b in zip(v, target))
                if self._in_submonoid(rest):
                    return True
        return False


class Presentation:
    """Generators, carrier and grade-preserving relation pairs."""

    def __init__(
        self,
        gens: GeneratorTable,
        carrier: Carrier,
        relations: tuple[tuple[Word, Word], ...],
        relation_grade_bound: int | None = None,
    ):
        self.gens = gens
        self.carrier = carrier
        if carrier.kind == "dimvec" and gens.dimvecs:
            n = len(gens.dimvecs[0])
            if any(len(v) != n for v in carrier.vectors):
                raise InvalidPresentation(
                    f"carrier vectors must have the generators' length {n}"
                )
        self.relations = tuple(
            (tuple(u), tuple(v)) for u, v in relations if tuple(u) != tuple(v)
        )
        grades = []
        for u, v in self.relations:
            du = gens.grade(u)
            if du != gens.grade(v):
                raise InvalidPresentation(
                    f"relation {gens.format_word(u)} = {gens.format_word(v)} "
                    "does not preserve the grading"
                )
            if not (carrier.contains(gens, u) and carrier.contains(gens, v)):
                raise InvalidPresentation("relation words must lie in the carrier")
            grades.append(du)
        self._relation_grades = tuple(grades)
        # grade up to which the relation list is complete (caller's contract)
        self.relation_grade_bound = relation_grade_bound
        self._strata: dict[int, StratumPartition] = {}
        self._words: dict[int, tuple[Word, ...]] = {}
        # packed codes, valid for words of grade <= _code_grade (see
        # `_pack_up_to`): place values, the codes of the words of each
        # grade, (grade, code u, code v) per relation, and code -> class
        # number for each stratum in _strata
        self._code_grade = -1
        self._places: tuple[int, ...] = ()
        self._codes: dict[int, list[int]] = {}
        self._relation_codes: tuple[tuple[int, int, int], ...] = ()
        self._class_numbers: dict[int, dict[int, int]] = {}
        self._generating_words: tuple[Word, ...] | None = None
        self._differences: tuple[tuple[int, ...], ...] | None = None
        self._atoms: tuple[Atom, ...] | None = None
        self._completion: GroupCompletionData | None = None

    # -- word enumeration

    def words_of_grade(self, s: int) -> tuple[Word, ...]:
        if s not in self._words:
            grades = self.gens.grades
            n = len(grades)
            acc = [0] * n
            out: list[Word] = []

            def walk(k: int, budget: int) -> None:
                if len(out) > WORD_CAP:
                    raise EnumerationOverflow(
                        f"too many words at grade {s}: more than"
                        f" WORD_CAP = {WORD_CAP}"
                    )
                if k == n - 1:
                    # the last multiplicity is forced by the budget
                    m, rest = divmod(budget, grades[k])
                    if not rest:
                        acc[k] = m
                        w = tuple(acc)
                        acc[k] = 0
                        if self.carrier.contains(self.gens, w):
                            out.append(w)
                    return
                for m in range(budget // grades[k] + 1):
                    acc[k] = m
                    walk(k + 1, budget - m * grades[k])
                acc[k] = 0

            if n:
                walk(0, s)
            elif s == 0:
                out.append(())
            # multiplicities rise at every level, so `out` is sorted
            self._words[s] = tuple(out)
        return self._words[s]

    def format_word(self, word: Word) -> str:
        return self.gens.format_word(word)


@dataclass(frozen=True)
class StratumPartition:
    grade: int
    classes: tuple[frozenset[Word], ...]
    index: dict

    def class_of(self, word: Word) -> frozenset[Word]:
        return self.classes[self.index[word]]

    def representative(self, word: Word) -> Word:
        return min(self.class_of(word))


def _pack_up_to(P: Presentation, s: int) -> None:
    """Make the packed codes of `P` valid for every word of grade <= s.

    The code grade t (see `stratum_classes`) is chosen once per
    presentation, at the relation grade bound or the first larger grade
    asked for, and chosen again only when a caller asks for a grade above
    it; that drops every code and every stratum packed for the old t.
    """
    if s <= P._code_grade:
        return
    t = max(s, P.relation_grade_bound or 0)
    places = []
    place = 1
    for g in P.gens.grades:
        places.append(place)
        place *= t // g + 1
    P._places = tuple(places)
    P._code_grade = t
    P._codes.clear()
    P._class_numbers.clear()
    P._strata.clear()
    P._relation_codes = tuple(
        (du, _pack(P, u), _pack(P, v))
        for du, (u, v) in zip(P._relation_grades, P.relations)
    )


def _pack(P: Presentation, word: Word) -> int:
    return sum(map(mul, word, P._places))


def _root(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], x: int, y: int) -> None:
    """Merge the trees of x and y under the root of x."""
    rx, ry = _root(parent, x), _root(parent, y)
    if rx != ry:
        parent[ry] = rx


def _word_codes(P: Presentation, s: int) -> list[int]:
    """Codes of `words_of_grade(s)`, in that order; needs `_pack_up_to(P, s)`."""
    codes = P._codes.get(s)
    if codes is None:
        codes = P._codes[s] = [_pack(P, w) for w in P.words_of_grade(s)]
    return codes


def stratum_classes(P: Presentation, s: int) -> StratumPartition:
    """Congruence classes of the carrier words of grade s.

    Words w and w' are merged when w - u is a carrier word and
    w' = w - u + v for a relation (u, v) in either orientation; the
    partition is exact provided the relation list is complete up to
    grade s.

    The merges are built from relation translates: for each relation
    (u, v) of grade at most s and each carrier word r of grade s - |u|,
    r + u is merged with r + v.  One orientation suffices because a merge
    is symmetric.  This is the same set of merges for `dimvec` carriers:
    the leftover w - u is a carrier word exactly when r is, and r + u,
    r + v are carrier words because the carrier is closed under addition
    and relation words lie in it.  The work is one union per translate.

    Translates are formed on packed codes: a word w is the int
    sum_k w_k * place_k with mixed radices t // grade_k + 1 for a code
    grade t >= s, so a word of grade <= t has every digit below its radix
    and code(r + u) = code(r) + code(u) without carries.  A translate is
    one int addition and one dict lookup.
    """
    if s in P._strata:
        return P._strata[s]
    _pack_up_to(P, s)
    words = P.words_of_grade(s)
    codes = _word_codes(P, s)
    position = {c: k for k, c in enumerate(codes)}
    parent = list(range(len(words)))
    for du, cu, cv in P._relation_codes:
        if du > s:
            continue
        for r in _word_codes(P, s - du):
            _union(parent, position[r + cu], position[r + cv])

    # words are sorted, so numbering roots by first occurrence numbers the
    # classes in the order of their least words
    roots = [_root(parent, k) for k in range(len(words))]
    number: dict[int, int] = {}
    for root in roots:
        number.setdefault(root, len(number))
    class_of = [number[root] for root in roots]
    members: list[list[Word]] = [[] for _ in number]
    for w, k in zip(words, class_of):
        members[k].append(w)
    part = StratumPartition(
        s, tuple(map(frozenset, members)), dict(zip(words, class_of))
    )
    P._strata[s] = part
    P._class_numbers[s] = dict(zip(codes, class_of))
    return part


def relation_differences(P: Presentation) -> tuple[tuple[int, ...], ...]:
    """The distinct differences u - v of the relations, in first-seen order.

    Many relations share a difference (every translate r + u = r + v of a
    relation u = v does); the lattice and the rational row space of the
    relations depend only on this set.
    """
    if P._differences is None:
        P._differences = tuple(
            dict.fromkeys(
                tuple(map(sub, u, v)) for u, v in P.relations
            )
        )
    return P._differences


# ---------------------------------------------------------------------------
# carrier generators and atoms


def generating_words(P: Presentation) -> tuple[Word, ...]:
    """Monoid generators of the carrier: its irreducible words.

    For the unrestricted carrier these are the single-generator words.  For
    a dimension-vector carrier, take the minimal nonzero solutions (w, y)
    in naturals of dimvec(w) = sum_i y_i v_i over the carrier vectors v_i.
    A solution (w, y) is a sum of minimal ones, whose w-parts are carrier
    words.  For w irreducible all but one of these w-parts are 0, and a
    minimal solution with w-part 0 would have y = 0 too; so (w, y) is
    minimal, and the generators are the irreducible w-parts.
    """
    if P._generating_words is None:
        k = len(P.gens)
        if P.carrier.kind == "all":
            words = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        elif P.gens.dimvecs is None:
            raise InvalidPresentation("dimvec carrier needs generator dimvecs")
        else:
            rows = [
                list(column) + [-v[i] for v in P.carrier.vectors]
                for i, column in enumerate(zip(*P.gens.dimvecs))
            ]
            parts = {x[:k] for x in _minimal_solutions(rows) if any(x[:k])}
            words = sorted(w for w in parts if is_irreducible(P, w))
        P._generating_words = tuple(words)
    return P._generating_words


def _minimal_solutions(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """The minimal nonzero x in N^n with rows . x = 0 (Contejean-Devie):
    grown from the unit vectors one unit at a time, adding e_j to x only
    when (rows . x) . (rows . e_j) < 0 and never above a solution found."""
    columns = list(zip(*rows))
    n = len(columns)
    found: list[tuple[int, ...]] = []
    level = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    while level:
        image = {x: [sum(map(mul, row, x)) for row in rows] for x in level}
        found += sorted(x for x, ax in image.items() if not any(ax))
        level = {
            x[:j] + (x[j] + 1,) + x[j + 1 :]
            for x, ax in image.items()
            if any(ax)
            for j, col in enumerate(columns)
            if sum(map(mul, ax, col)) < 0
        }
        level = {y for y in level if not any(all(map(le, m, y)) for m in found)}
    return found


def is_irreducible(P: Presentation, word: Word) -> bool:
    """No splitting of `word` into two nonzero carrier words."""
    if not any(word):
        return False
    for part in product(*(range(m + 1) for m in word)):
        if not any(part) or part == word:
            continue
        rest = tuple(a - b for a, b in zip(word, part))
        if P.carrier.contains(P.gens, part) and P.carrier.contains(P.gens, rest):
            return False
    return True


@dataclass(frozen=True)
class Atom:
    representative: Word
    grade: int

    def pretty(self, P: Presentation) -> str:
        return P.format_word(self.representative)


def atoms(P: Presentation) -> list[Atom]:
    """The atom classes of the presented monoid, each named by its least
    word, sorted by grade and then by that word.

    Atoms can only be classes of irreducible carrier words, and such a
    class is an atom exactly when every word in it is irreducible.  This
    is exact once the relations are complete up to the largest irreducible
    grade.  On an `all` carrier this is read off the relations alone (see
    `_atoms_from_relations`); a dimension-vector carrier reads the class
    of each irreducible word off its stratum.
    """
    if P._atoms is None:
        if P.carrier.kind == "all":
            out = _atoms_from_relations(P)
        else:
            out = []
            seen = set()
            for w in generating_words(P):
                s = P.gens.grade(w)
                cls = stratum_classes(P, s).class_of(w)
                rep = min(cls)
                if (s, rep) in seen:
                    continue
                seen.add((s, rep))
                if all(is_irreducible(P, x) for x in cls):
                    out.append(Atom(rep, s))
        out.sort(key=lambda a: (a.grade, a.representative))
        P._atoms = tuple(out)
    return list(P._atoms)


def _atoms_from_relations(P: Presentation) -> list[Atom]:
    """The atoms of a presentation on the `all` carrier, without strata.

    The irreducible words are the one-letter words, and a first rewrite
    of a one-letter word g uses a relation with g as one side (the
    leftover g - u is a word only for u = g).  So the class of g holds
    only one-letter words while every relation met along the way has one
    letter on each side: the class is the component of g in the graph of
    the one-letter = one-letter relations, unless some member of that
    component is a side of a relation whose other side has two or more
    letters, counting multiplicity; then the class holds a reducible word
    and is no atom.
    """
    k = len(P.gens)
    parent = list(range(k))
    blocked = []  # letters that are one side of a relation with 2+ letters
    for u, v in P.relations:
        su, sv = sum(u), sum(v)
        if su == 1 and sv == 1:
            _union(parent, u.index(1), v.index(1))
        elif su == 1:
            blocked.append(u.index(1))
        elif sv == 1:
            blocked.append(v.index(1))
    dead = {_root(parent, g) for g in blocked}
    least: dict[int, int] = {}  # root -> its letter of the least unit word
    for g in range(k):
        # the unit word of a later letter is the smaller tuple
        least[_root(parent, g)] = g
    return [
        Atom(tuple(int(i == g) for i in range(k)), P.gens.grades[g])
        for root, g in least.items()
        if root not in dead
    ]


# ---------------------------------------------------------------------------
# integer linear algebra (Smith normal form over Z)


def smith_normal_form(A: list[list[int]], left: bool = True):
    """(D, U, V) with D = U A V diagonal, d_i | d_{i+1}, U and V unimodular.

    The pivot is the first entry of least absolute value in the block
    still to eliminate, so its search stops at the first unit entry.
    Relation differences are sparse with small entries and most of their
    pivots are units, which clear their row and column in one pass and
    need no divisibility repair (unit pivots first, as in Dumas, Saunders
    and Villard, "On efficient sparse integer matrix Smith normal form
    computations", JSC 2001).

    With left=False the row transform U is not built and None stands in
    its place: a caller that reads only D and V skips the m x m row
    bookkeeping, and rows that reach zero leave the elimination at once
    (D keeps its shape, with those rows last).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)] if left else None
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    # rows above t are zero off the diagonal, so column operations at
    # step t touch the rows from t on only
    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        if left:
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in D[t:]:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        if left:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D[t:]:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        if not left:
            D[t:] = [row for row in D[t:] if any(row)]
        rows = len(D)
        if t >= min(rows, n):
            break
        piv, least = None, 0
        for i in range(t, rows):
            for j in range(t, n):
                a = abs(D[i][j])
                if a and (piv is None or a < least):
                    piv, least = (i, j), a
                    if a == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, rows):
                if D[i][t]:
                    row_op(i, t, D[i][t] // D[t][t])
                    if D[i][t]:
                        swap_rows(t, i)
                        clean = False
            for j in range(t + 1, n):
                if D[t][j]:
                    col_op(j, t, D[t][j] // D[t][t])
                    if D[t][j]:
                        swap_cols(t, j)
                        clean = False
            if clean and abs(D[t][t]) != 1:
                # enforce divisibility of the remaining block
                for i in range(t + 1, rows):
                    for j in range(t + 1, n):
                        if D[i][j] % D[t][t]:
                            row_op(t, i, -1)
                            clean = False
                            break
                    if not clean:
                        break
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            if left:
                U[t] = [-x for x in U[t]]
        t += 1
    D += [[0] * n for _ in range(m - len(D))]
    return D, U, V


def _rank(A: list[list[int]]) -> int:
    """The rank of A over Q: the number of its nonzero invariant factors."""
    D = smith_normal_form(A, left=False)[0]
    return sum(1 for k, row in enumerate(D) if k < len(row) and row[k])


def _mat_vec(rows: list[list[int]], x: list[int]) -> list[int]:
    # x (len = #rows) times the matrix: returns x . rows
    n = len(rows[0]) if rows else 0
    out = [0] * n
    for coef, row in zip(x, rows):
        if coef:
            for j, a in enumerate(row):
                out[j] += coef * a
    return out


def integer_solve(snf, b: list[int]) -> list[int] | None:
    """Solve x . A = b over the integers, or return None.

    `snf` is the Smith form (D, U, V) = smith_normal_form(A), so that one
    factorization serves every right-hand side.
    """
    D, U, V = snf
    m = len(D)
    if m == 0:
        return [] if not any(b) else None
    n = len(b)
    bV = [sum(b[i] * V[i][j] for i in range(n)) for j in range(n)]
    y = [0] * m
    for j in range(n):
        d = D[j][j] if j < m else 0
        if d:
            if bV[j] % d:
                return None
            y[j] = bV[j] // d
        elif bV[j]:
            return None
    return _mat_vec(U, y)


def integer_kernel(snf) -> list[list[int]]:
    """Basis of {x : x . A = 0}, from the Smith form (D, U, V) of A."""
    D, U, _ = snf
    m = len(D)
    n = len(D[0]) if m else 0
    return [U[j][:] for j in range(m) if j >= n or D[j][j] == 0]


# ---------------------------------------------------------------------------
# group completion


@dataclass(frozen=True)
class GroupCompletionData:
    rank: int
    invariant_factors: tuple[int, ...]
    _gen_snf: tuple | None  # Smith form of the carrier generator rows
    _free_V: tuple[tuple[int, ...], ...]  # the columns of V with d == 0

    def free_coordinates(self, word: Word) -> list[int]:
        """The coordinates of a carrier word in Q tensor the completed
        group: x . V on the free columns, for x . (carrier generator rows)
        = word.  On an `all` carrier the generator rows are the unit words,
        so x is the word and a unit word reads one row of V."""
        x = word if self._gen_snf is None else integer_solve(self._gen_snf, list(word))
        if x is None:
            raise InvalidPresentation("word does not lie in the carrier lattice")
        return _mat_vec(self._free_V, x)


def group_completion(P: Presentation) -> GroupCompletionData:
    """Smith-normal-form data of the completed group of the presentation.

    The group is the lattice spanned by the carrier generators modulo the
    differences u - v of all relations (syzygies between carrier
    generators are divided out as well, so the answer does not depend on
    the chosen generator preimages).  Only the distinct differences enter
    the Smith normal form, so rank and invariant factors depend on them
    alone; no stratum and no atom is computed.  On an `all` carrier the
    generators are the unit words, so each difference is its own row and
    there are no syzygies.  Only D and V of that Smith form are read, so
    it builds no row transform; the generators' own Smith form keeps
    its U, which solves for preimages and syzygies.
    """
    if P._completion is not None:
        return P._completion
    gens_words = generating_words(P)
    p = len(gens_words)
    if P.carrier.kind == "all":
        gen_snf = None
        rel_rows = [list(diff) for diff in relation_differences(P)]
    else:
        gen_snf = smith_normal_form([list(w) for w in gens_words])
        rel_rows = []
        for diff in relation_differences(P):
            x = integer_solve(gen_snf, list(diff))
            if x is None:
                raise InvalidPresentation(
                    "relation difference escapes the carrier lattice"
                )
            rel_rows.append(x)
        rel_rows.extend(integer_kernel(gen_snf))
    if not rel_rows:
        rel_rows = [[0] * p]
    D, _, V = smith_normal_form(rel_rows, left=False)
    diag = []
    for j in range(p):
        d = D[j][j] if j < len(rel_rows) and j < p else 0
        diag.append(abs(d))
    free = [j for j, d in enumerate(diag) if d == 0]
    P._completion = GroupCompletionData(
        rank=len(free),
        invariant_factors=tuple(d for d in diag if d > 1),
        _gen_snf=gen_snf,
        _free_V=tuple(tuple(row[j] for j in free) for row in V),
    )
    return P._completion


# ---------------------------------------------------------------------------
# freeness and half-factoriality


def is_free(P: Presentation) -> bool:
    """Is the monoid free?  Exactly when #atoms = rank K0.

    The atoms generate the monoid M, so Z^atoms maps onto gp(M).  With r
    atoms and rank r the kernel has rank 0 inside a free group, so it is
    0: gp(M) is free on the atom images, which are distinct.  Then
    N^atoms -> M is injective, as its composite with M -> gp(M) is, and
    onto: M is free.  The converse is immediate.  So the count implies
    that K0 is torsion-free and that distinct atoms have distinct images.
    """
    return len(atoms(P)) == group_completion(P).rank


def is_half_factorial(P: Presentation) -> bool:
    """Do all factorizations of a class into atoms have one length?

    A free monoid factors uniquely, so it is.  Otherwise: exactly when
    some additive functional is 1 on every atom and 0 on every relation
    difference u - v.  Such a functional is 0 on the whole relation
    lattice, so it is a functional phi on Q tensor K0, that is on the free
    coordinates of `group_completion` (torsion dies over Q).  With F the
    matrix whose rows are the free coordinates f(a) of the atoms, the
    system F . phi = 1 has #atoms equations in rank K0 unknowns, and it is
    consistent exactly when rank F = rank [F | 1].  Both ranks are counts
    of nonzero invariant factors of a Smith normal form.

    A consistent system fixes the length of every class: a generating
    word w is congruent to a sum of k >= 1 atoms (the monoid is graded and
    every irreducible word of grade at most that of w is found), so f(w)
    is the sum of their f(a) and every solution is k on w.
    """
    if is_free(P):
        return True
    gc = group_completion(P)
    F = [gc.free_coordinates(a.representative) for a in atoms(P)]
    return _rank(F) == _rank([row + [1] for row in F])


# ---------------------------------------------------------------------------
# cancellativity scanning and Cayley quivers


def cancellativity_scan(
    P: Presentation, bound: int
) -> tuple[Word, Word, Word] | None:
    """Search strata up to `bound` for a + x = a + y with x != y.

    Returns the certificate (a, x, y), or None when there is none up to
    `bound`.  x, y and a are the least words of their classes.  The
    certificate returned is the first in this order: the least grade g of
    x, then the least pair (x, y) of grade-g classes in class order, then
    the first grade h of a and the first a-class of that grade.  For each
    (h, a) the grade-g classes are bucketed by the class of a + x, one
    packed-code addition and lookup per (x, h, a); the least pair in a
    bucket is its first two members.

    A free monoid returns no certificate without building a stratum: the
    atoms generate M, and #atoms = rank K0 makes M free (`is_free`), so
    cancellative, and no collision exists at any grade.
    """
    if is_free(P):
        return None
    _pack_up_to(P, bound)
    grades = [s for s in range(1, bound + 1) if P.words_of_grade(s)]
    reps = {s: [min(c) for c in stratum_classes(P, s).classes] for s in grades}
    codes = {s: [_pack(P, w) for w in reps[s]] for s in grades}
    for g in grades:
        xs = codes[g]
        if len(xs) < 2:
            continue
        best = None  # ((xi, yi), a): least colliding pair and its first a
        for h in grades:
            if g + h > bound:
                continue
            target = P._class_numbers[g + h]
            for a, ca in zip(reps[h], codes[h]):
                hits = [target[ca + cx] for cx in xs]
                if len(set(hits)) == len(hits):
                    continue
                first: dict[int, int] = {}  # target class -> least xi in it
                for xi, t in enumerate(hits):
                    if t not in first:
                        first[t] = xi
                    elif best is None or (first[t], xi) < best[0]:
                        best = ((first[t], xi), a)
        if best is not None:
            (xi, yi), a = best
            return a, reps[g][xi], reps[g][yi]
    return None


def cayley_quiver(P: Presentation, bound: int) -> str:
    """DOT text of the Cayley quiver truncated at grade `bound`.

    Vertices are congruence classes of grade at most `bound`, named by
    their lexicographically least word; one labelled arrow per atom leaves
    every vertex whose grade leaves room below the bound.
    """
    ats = atoms(P)
    verts: list[tuple[int, Word]] = []
    for s in range(bound + 1):
        if s and not P.words_of_grade(s):
            continue
        part = stratum_classes(P, s)
        verts.extend((s, min(c)) for c in part.classes)
    verts.sort()
    lines = ["digraph cayley {", "  rankdir=LR;"]
    for s, rep in verts:
        lines.append(f'  "{P.format_word(rep)}" [grade={s}];')
    for s, rep in verts:
        for a in ats:
            if s + a.grade > bound:
                continue
            target = tuple(p + q for p, q in zip(rep, a.representative))
            tgt = stratum_classes(P, s + a.grade).representative(target)
            lines.append(
                f'  "{P.format_word(rep)}" -> "{P.format_word(tgt)}"'
                f' [label="{a.pretty(P)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presentation files


_TERM = re.compile(r"(?:(\d+)\s*\*\s*)?(\S+)")


def _parse_vector(text: str, raw: str) -> tuple[int, ...]:
    """The entries of "2,0" in a vector "(2,0)" of the line raw."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidPresentation(f"bad vector ({text}) in {raw!r}") from None


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation format::

        generator P1 grade 2 dimvec (2,0)
        generator M grade 3 dimvec (2,1)
        carrier all
        relation P1 + I1 = M + M
    """
    names: list[str] = []
    grades: list[int] = []
    dimvecs: list[tuple[int, ...]] = []
    carrier = Carrier.all_words()
    rel_texts: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generator"):
            m = re.fullmatch(
                r"generator\s+(\S+)\s+grade\s+(\d+)(?:\s+dimvec\s+\(([\d,\s]*)\))?",
                line,
            )
            if not m:
                raise InvalidPresentation(f"bad generator line: {raw!r}")
            if m.group(1) in names:
                raise InvalidPresentation(f"generator declared twice: {raw!r}")
            names.append(m.group(1))
            grades.append(int(m.group(2)))
            if m.group(3) is not None:
                dimvecs.append(_parse_vector(m.group(3), raw))
        elif line.startswith("carrier"):
            rest = line[len("carrier"):].strip()
            if rest == "all":
                carrier = Carrier.all_words()
            elif rest.startswith("dimvec-submonoid:"):
                vecs = re.findall(r"\(([\d,\s]+)\)", rest)
                carrier = Carrier.dimvec_submonoid(
                    tuple(_parse_vector(v, raw) for v in vecs)
                )
            else:
                raise InvalidPresentation(f"bad carrier line: {raw!r}")
        elif line.startswith("relation"):
            body = line[len("relation"):].strip()
            if body.count("=") != 1:
                raise InvalidPresentation(f"bad relation line: {raw!r}")
            lhs, rhs = body.split("=")
            rel_texts.append((lhs, rhs))
        else:
            raise InvalidPresentation(f"unrecognized line: {raw!r}")
    if dimvecs and len(dimvecs) != len(names):
        raise InvalidPresentation("dimension vectors on some generators only")
    gens = GeneratorTable(tuple(names), tuple(grades), tuple(dimvecs) or None)
    index = {n: k for k, n in enumerate(names)}
    # each distinct term is matched once: term -> (generator, multiplicity)
    terms: dict[str, tuple[int, int]] = {}

    def parse_side(side: str) -> Word:
        word = [0] * len(names)
        for term in side.split("+"):
            term = term.strip()
            if term not in terms:
                if not term:
                    raise InvalidPresentation(f"empty term in {side!r}")
                m = _TERM.fullmatch(term)
                if not m or m.group(2) not in index:
                    raise InvalidPresentation(f"bad term {term!r}")
                terms[term] = index[m.group(2)], int(m.group(1) or 1)
            k, multiplicity = terms[term]
            word[k] += multiplicity
        return tuple(word)

    relations = tuple((parse_side(l), parse_side(r)) for l, r in rel_texts)
    return Presentation(gens, carrier, relations)
