"""
Combinatorics of the symmetric group S_{n+1} in one-line notation.

A permutation w is a tuple (w(1), ..., w(n+1)) of the letters 1..n+1.
Transpositions (i j) are stored with i < j and act on the left: t*w swaps
the letters i and j in the one-line word of w.  Inversions, Bruhat
inversions and supports are all computed directly from letter positions.

Coxeter elements come from orientations of the linear graph 1 - 2 - ... - n;
the canonical reduced word is the topological order of the precedence
relation (s_i before s_j whenever the edge between i and j points j -> i),
with ties broken by ascending index.
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _itertools_permutations

Perm = tuple[int, ...]
Transposition = tuple[int, int]


class RankMismatch(ValueError):
    """Permutation and Coxeter word live in different symmetric groups."""


class NotSortable(ValueError):
    """The permutation is not c-sortable for the requested Coxeter element."""


# ---------------------------------------------------------------------------
# permutations


def check_perm(w: Perm) -> Perm:
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return tuple(w)


def identity_perm(rank: int) -> Perm:
    return tuple(range(1, rank + 1))


def parse_perm(text: str) -> Perm:
    """Parse "45231" (ranks up to 9) or "4,5,2,3,1"."""
    text = text.strip()
    fields = [f.strip() for f in text.split(",")] if "," in text else list(text)
    if not fields or not all(re.fullmatch("[0-9]+", f) for f in fields):
        raise ValueError(f"cannot parse permutation {text!r}")
    return check_perm(tuple(map(int, fields)))


def format_perm(w: Perm) -> str:
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def positions(w: Perm) -> dict[int, int]:
    """Letter -> 1-based position in the one-line word."""
    return {x: k + 1 for k, x in enumerate(w)}


def compose(u: Perm, v: Perm) -> Perm:
    """(u v)(x) = u(v(x))."""
    return tuple(u[v[k] - 1] for k in range(len(u)))


def swap_letters(w: Perm, i: int, j: int) -> Perm:
    """The product (i j) * w: interchange the letters i and j in w."""
    out = list(w)
    pi, pj = out.index(i), out.index(j)
    out[pi], out[pj] = j, i
    return tuple(out)


def simple_reflection(rank: int, i: int) -> Perm:
    w = list(range(1, rank + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def inversions_and_bruhat(
    w: Perm,
) -> tuple[frozenset[Transposition], frozenset[Transposition]]:
    """The inversions of w and its Bruhat inversions, from one scan.

    An inversion is a pair (i, j) with i < j whose letters appear out of
    order in w.  A Bruhat inversion is one with no i < l < j splitting it
    into two inversions; these are exactly the inversions t with
    length(t*w) = length(w) - 1, i.e. the ones giving covers in the
    Bruhat order.  One positional scan: right of the letter a, a letter
    x < a forms an inversion, and a Bruhat one exactly when every letter
    below a between them is also below x, that is when x exceeds m, the
    largest letter below a seen so far.
    """
    inv = []
    binv = []
    for p, a in enumerate(w):
        m = 0
        for x in w[p + 1 :]:
            if x < a:
                inv.append((x, a))
                if x > m:
                    binv.append((x, a))
                    m = x
    return frozenset(inv), frozenset(binv)


def inversions(w: Perm) -> frozenset[Transposition]:
    """All (i, j) with i < j whose letters appear out of order in w."""
    return inversions_and_bruhat(w)[0]


def bruhat_inversions(w: Perm) -> frozenset[Transposition]:
    """The inversions of w that give covers in the Bruhat order."""
    return inversions_and_bruhat(w)[1]


def length(w: Perm) -> int:
    """The number of inversions of w."""
    return len(inversions_and_bruhat(w)[0])


def support(w: Perm) -> frozenset[int]:
    """Indices i whose simple reflection occurs in every reduced word of w.

    i is a support iff some letter greater than i sits in the first i
    positions of the one-line word.
    """
    out = []
    top = 0
    for k in range(1, len(w)):
        if w[k - 1] > top:
            top = w[k - 1]
        if top > k:
            out.append(k)
    return frozenset(out)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """One reduced word for w (smallest left descent first)."""
    word = []
    v = w
    pos = positions(v)
    while True:
        for i in range(1, len(w)):
            if pos[i + 1] < pos[i]:
                word.append(i)
                v = swap_letters(v, i, i + 1)
                pos = positions(v)
                break
        else:
            return tuple(word)


# ---------------------------------------------------------------------------
# orientations and Coxeter elements

LEFT_TO_RIGHT = ">"   # edge k -- k+1 oriented k -> k+1
RIGHT_TO_LEFT = "<"   # edge k -- k+1 oriented k <- k+1


@dataclass(frozen=True)
class Orientation:
    """An orientation of the linear graph on vertices 1..n."""

    n: int
    dirs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.dirs) != self.n - 1:
            raise ValueError("need exactly n-1 edge directions")
        if any(d not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT) for d in self.dirs):
            raise ValueError(f"bad edge direction in {self.dirs!r}")

    @property
    def rank(self) -> int:
        """Rank of the associated symmetric group S_{n+1}."""
        return self.n + 1

    def arrows(self) -> list[tuple[int, int]]:
        """Arrows (source, target), one per edge."""
        out = []
        for k, d in enumerate(self.dirs, start=1):
            out.append((k, k + 1) if d == LEFT_TO_RIGHT else (k + 1, k))
        return out

    def arrow_points_left(self, l: int) -> bool:
        """Does the edge between l-1 and l point l -> l-1?"""
        return self.dirs[l - 2] == RIGHT_TO_LEFT

    def __str__(self) -> str:
        bits = []
        for v in range(1, self.n + 1):
            bits.append(str(v))
            if v < self.n:
                bits.append(self.dirs[v - 1])
        return "".join(bits)


def parse_orientation(text: str) -> Orientation:
    """Parse "1<2>3": the vertices 1..n in order, each pair joined by the
    direction of its edge; whitespace is ignored."""
    compact = "".join(text.split())
    if not re.fullmatch(r"[0-9]+(?:[<>][0-9]+)*", compact):
        raise ValueError(f"cannot parse orientation {text!r}")
    parts = re.findall(r"[0-9]+|[<>]", compact)
    verts = [int(p) for p in parts[0::2]]
    if verts != list(range(1, len(verts) + 1)):
        raise ValueError(f"cannot parse orientation {text!r}")
    return Orientation(len(verts), tuple(parts[1::2]))


@dataclass(frozen=True)
class CoxeterWord:
    """A fixed reduced word for a Coxeter element of S_{n+1}."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise ValueError("Coxeter word must use each index 1..n once")

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def rank(self) -> int:
        return self.n + 1

    def perm(self) -> Perm:
        w = identity_perm(self.rank)
        for i in reversed(self.word):
            w = compose(simple_reflection(self.rank, i), w)
        return w


def coxeter_element(q: Orientation) -> CoxeterWord:
    """Canonical Coxeter word for an orientation.

    s_i must come before s_j whenever the edge between i and j points
    j -> i; the unique topological order with ascending-index tie-break
    is returned.
    """
    before: dict[int, set[int]] = {i: set() for i in range(1, q.n + 1)}
    for src, tgt in q.arrows():
        before[src].add(tgt)  # s_tgt first: the arrow points src -> tgt
    word = []
    placed: set[int] = set()
    while len(word) < q.n:
        i = min(
            i
            for i in range(1, q.n + 1)
            if i not in placed and before[i] <= placed
        )
        word.append(i)
        placed.add(i)
    return CoxeterWord(tuple(word))


# ---------------------------------------------------------------------------
# c-sortable elements


def sorting_rounds(w: Perm, c: CoxeterWord) -> list[tuple[int, ...]]:
    """Greedy factorization of w into subwords of the canonical word of c.

    Scans c repeatedly, peeling off each letter that is a left descent of
    what remains.  The concatenation of the rounds is always a reduced word
    for w; w is c-sortable iff the round supports are weakly decreasing.
    """
    if len(w) != c.rank:
        raise RankMismatch(f"rank {len(w)} permutation vs rank {c.rank} word")
    v = list(w)
    pos = {x: k for k, x in enumerate(v)}
    remaining = length(w)
    rounds = []
    while remaining:
        taken = []
        for i in c.word:
            if pos[i + 1] < pos[i]:
                pi, pj = pos[i], pos[i + 1]
                v[pi], v[pj] = i + 1, i
                pos[i], pos[i + 1] = pj, pi
                taken.append(i)
                remaining -= 1
        rounds.append(tuple(taken))
    return rounds


def is_c_sortable(
    w: Perm, c: CoxeterWord
) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Decide c-sortability; on success also return one sorting factorization."""
    rounds = sorting_rounds(w, c)
    supports = [set(r) for r in rounds]
    if all(a >= b for a, b in zip(supports, supports[1:])):
        return True, rounds
    return False, None


def is_c_sortable_bruteforce(w: Perm, c: CoxeterWord) -> bool:
    """Oracle: search all factorizations into nested subwords of c.

    Exponential; intended for ranks <= 7 as a cross-check of the greedy
    test.
    """
    word = c.word

    def subword_perm(sub: frozenset[int]) -> Perm:
        u = identity_perm(c.rank)
        for i in reversed([i for i in word if i in sub]):
            u = compose(simple_reflection(c.rank, i), u)
        return u

    @lru_cache(maxsize=None)
    def search(v: Perm, allowed: frozenset[int]) -> bool:
        if v == identity_perm(c.rank):
            return True
        lw = length(v)
        subsets = [frozenset(s) for s in _powerset(sorted(allowed))]
        for sub in subsets:
            if not sub:
                continue
            u = subword_perm(sub)
            rest = compose(_inverse(u), v)
            if length(rest) == lw - len(sub) and search(rest, sub):
                return True
        return False

    return search(w, frozenset(range(1, c.n + 1)))


def _inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for k, x in enumerate(w):
        out[x - 1] = k + 1
    return tuple(out)


def _powerset(items):
    from itertools import chain, combinations

    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def all_perms(rank: int):
    return (tuple(p) for p in _itertools_permutations(range(1, rank + 1)))


def c_sorting_words(c: CoxeterWord) -> Iterator[tuple[Perm, tuple[int, ...]]]:
    """Every c-sortable element once, with the positions of its c-sorting word.

    Position r*n + k stands for the letter c.word[k] in round r of c
    repeated forever.  Depth-first search over words whose rounds are
    nested subwords of c: at each position a letter still allowed is
    either taken, when it lengthens the product, or dropped from every
    later round.  Such a reduced word is always the greedy word of its
    product, because a dropped letter never occurs again and so is never
    a left descent of what remains; hence each element appears exactly
    once, in Catalan time and with a stack of O(n^2) entries.
    """
    n, word = c.n, c.word
    v = list(identity_perm(c.rank))
    taken: list[int] = []
    # pending branches: (next position, allowed letters as a bitmask, len(taken))
    pending = [(0, (1 << n + 1) - 2, 0)]
    while pending:
        p, allowed, depth = pending.pop()
        while len(taken) > depth:
            i = word[taken.pop() % n]
            v[i - 1], v[i] = v[i], v[i - 1]
        while allowed:
            i = word[p % n]
            if allowed >> i & 1:
                rest = allowed & ~(1 << i)
                if v[i - 1] < v[i]:
                    # branch on dropping i; continue by taking it
                    if rest:
                        pending.append((p + 1, rest, len(taken)))
                    else:
                        yield tuple(v), tuple(taken)
                    v[i - 1], v[i] = v[i], v[i - 1]
                    taken.append(p)
                else:
                    allowed = rest
            p += 1
        yield tuple(v), tuple(taken)


def enumerate_c_sortable(c: CoxeterWord) -> list[Perm]:
    """All c-sortable elements, ordered by length then one-line word."""
    return [w for _, w in sorted((len(key), w) for w, key in c_sorting_words(c))]


def is_231_avoiding(w: Perm) -> bool:
    """No positions p1 < p2 < p3 carry values v3 < v1 < v2."""
    n1 = len(w)
    for p2 in range(n1):
        for p1 in range(p2):
            if w[p1] >= w[p2]:
                continue
            # pattern 2..3..1: a later value below w[p1] completes it
            if any(w[p3] < w[p1] for p3 in range(p2 + 1, n1)):
                return False
    return True
