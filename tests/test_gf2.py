import random

from jhp_lab import gf2


def gaussian_subspace_count(n):
    # sum over k of the Gaussian binomial [n choose k]_2
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (k - i) - 1
        total += num // den
    return total


def test_subspace_counts():
    for n in range(6):
        subs = list(gf2.subspaces(n))
        assert len(subs) == gaussian_subspace_count(n)
        assert len(set(subs)) == len(subs)


def test_rref_canonical():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 7)
        vecs = [rng.randrange(1 << n) for _ in range(rng.randrange(5))]
        ech = gf2.rref(vecs)
        # every generator lies in the span, and rank is stable
        for v in vecs:
            assert gf2.in_span(ech, v)
        assert gf2.rref(ech) == ech
        # shuffling generators gives the same canonical form
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert gf2.rref(shuffled) == ech


def test_coords_in_span_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 7)
        ech = gf2.rref([rng.randrange(1 << n) for _ in range(3)])
        mask = rng.randrange(1 << len(ech)) if ech else 0
        v = 0
        for k in range(len(ech)):
            if mask >> k & 1:
                v ^= ech[k]
        assert gf2.coords_in_span(ech, v) == mask


def test_nullspace_solves_system():
    rng = random.Random(13)
    for _ in range(100):
        unknowns = rng.randrange(1, 10)
        rows = [rng.randrange(1 << unknowns) for _ in range(rng.randrange(6))]
        basis = gf2.nullspace(rows, unknowns)
        assert len(basis) == gf2.nullity(rows, unknowns)
        for b in basis:
            for r in rows:
                assert bin(r & b).count("1") % 2 == 0


def test_apply_and_compose():
    # columns of a 2x3 map over F2
    cols = (0b01, 0b11, 0b10)
    assert gf2.apply_cols(cols, 0b001) == 0b01
    assert gf2.apply_cols(cols, 0b011) == 0b10
    ident = gf2.identity_cols(2)
    assert gf2.compose_cols(ident, cols) == cols
