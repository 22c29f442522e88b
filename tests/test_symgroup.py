from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jhp_lab.symgroup import (
    CoxeterWord,
    Orientation,
    RankMismatch,
    all_perms,
    bruhat_inversions,
    c_sorting_words,
    compose,
    coxeter_element,
    enumerate_c_sortable,
    format_perm,
    identity_perm,
    inversions,
    inversions_and_bruhat,
    is_231_avoiding,
    is_c_sortable,
    is_c_sortable_bruteforce,
    length,
    parse_orientation,
    parse_perm,
    reduced_word,
    simple_reflection,
    support,
    swap_letters,
)


def T(*pairs):
    return frozenset(pairs)


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def orientations(n):
    return [Orientation(n, tuple(dirs)) for dirs in product("><", repeat=n - 1)]


class TestInversions:
    def test_45231(self):
        w = parse_perm("45231")
        assert inversions(w) == T(
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)
        )

    def test_identity(self):
        assert inversions(identity_perm(5)) == frozenset()

    def test_simple_reflection(self):
        assert inversions(parse_perm("1324")) == T((2, 3))

    def test_length_equals_reduced_word_length(self):
        for w in all_perms(4):
            word = reduced_word(w)
            assert len(word) == length(w) == len(inversions(w))
            # the word really multiplies out to w
            out = identity_perm(4)
            for i in reversed(word):
                out = compose(simple_reflection(4, i), out)
            assert out == w


class TestBruhatInversions:
    def test_45231(self):
        assert bruhat_inversions(parse_perm("45231")) == T(
            (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)
        )

    def test_54213(self):
        assert bruhat_inversions(parse_perm("54213")) == T(
            (1, 2), (2, 4), (3, 4), (4, 5)
        )

    def test_simple_reflections(self):
        for i in range(1, 4):
            assert bruhat_inversions(simple_reflection(4, i)) == T((i, i + 1))

    def test_subset_of_inversions_and_length_drop(self):
        for w in all_perms(4):
            inv = inversions(w)
            binv = bruhat_inversions(w)
            assert binv <= inv
            for (i, j) in binv:
                assert length(swap_letters(w, i, j)) == length(w) - 1


class TestSupport:
    def test_known_values(self):
        assert support(parse_perm("21543")) == frozenset({1, 3, 4})
        assert support(parse_perm("12543")) == frozenset({3, 4})
        assert support(identity_perm(4)) == frozenset()

    def test_matches_reduced_word_letters(self):
        for w in all_perms(5):
            assert support(w) == frozenset(reduced_word(w))


class TestScansAgainstDefinitions:
    """Every permutation of S1..S7 against the definitions, written out."""

    @staticmethod
    def oracle_inversions(w):
        pos = {x: k for k, x in enumerate(w)}
        n1 = len(w)
        return frozenset(
            (i, j)
            for i in range(1, n1 + 1)
            for j in range(i + 1, n1 + 1)
            if pos[j] < pos[i]
        )

    @staticmethod
    def oracle_bruhat(inv):
        return frozenset(
            (i, j)
            for (i, j) in inv
            if not any((i, l) in inv and (l, j) in inv for l in range(i + 1, j))
        )

    @staticmethod
    def oracle_support(w):
        return frozenset(
            i for i in range(1, len(w)) if any(x > i for x in w[:i])
        )

    def test_exhaustive_up_to_s7(self):
        checked = 0
        for rank in range(1, 8):
            for w in all_perms(rank):
                inv = self.oracle_inversions(w)
                binv = self.oracle_bruhat(inv)
                assert inversions(w) == inv, w
                assert bruhat_inversions(w) == binv, w
                assert inversions_and_bruhat(w) == (inv, binv), w
                assert support(w) == self.oracle_support(w), w
                assert length(w) == len(inversions(w)), w
                checked += 1
        assert checked == 1 + 2 + 6 + 24 + 120 + 720 + 5040


class TestSerialization:
    def test_digit_ranks_roundtrip(self):
        for text in ("45231", "1234", "21"):
            assert format_perm(parse_perm(text)) == text

    def test_large_rank_uses_commas(self):
        w = tuple(range(10, 0, -1))
        assert format_perm(w) == "10,9,8,7,6,5,4,3,2,1"
        assert parse_perm(format_perm(w)) == w


class TestOrientation:
    def test_parse_roundtrip(self):
        for text in ("1>2<3", "1<2>3<4", "1", "1<2"):
            assert str(parse_orientation(text)) == text

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            parse_orientation("2>3")
        with pytest.raises(ValueError):
            parse_orientation("1>>2")


class TestCoxeterElement:
    def test_fixed_words(self):
        cases = {
            "1>2<3": ((2, 1, 3), "3142"),
            "1<2<3": ((1, 2, 3), "2341"),
            "1<2>3": ((1, 3, 2), "2413"),
            "1>2>3": ((3, 2, 1), "4123"),
            "1<2>3<4": ((1, 3, 2, 4), "24153"),
            "1": ((1,), "21"),
        }
        for text, (word, perm) in cases.items():
            c = coxeter_element(parse_orientation(text))
            assert c.word == word
            assert format_perm(c.perm()) == perm

    def test_full_support_and_length(self):
        for n in (1, 2, 3, 4):
            for dirs in product("><", repeat=n - 1):
                c = coxeter_element(Orientation(n, tuple(dirs)))
                w = c.perm()
                assert support(w) == frozenset(range(1, n + 1))
                assert length(w) == n


class TestSortable:
    def test_3412_factorization(self):
        c = coxeter_element(parse_orientation("1>2<3"))
        ok, rounds = is_c_sortable(parse_perm("3412"), c)
        assert ok
        assert rounds == [(2, 1, 3), (2,)]

    def test_identity_sortable(self):
        c = coxeter_element(parse_orientation("1>2<3"))
        ok, rounds = is_c_sortable(identity_perm(4), c)
        assert ok and rounds == []

    def test_4231_not_sortable(self):
        c = coxeter_element(parse_orientation("1>2<3"))
        assert not is_c_sortable(parse_perm("4231"), c)[0]

    def test_rank_mismatch(self):
        c = coxeter_element(parse_orientation("1>2<3"))
        with pytest.raises(RankMismatch):
            is_c_sortable(identity_perm(5), c)

    def test_greedy_agrees_with_bruteforce(self):
        for n in (2, 3):
            for dirs in product("><", repeat=n - 1):
                c = coxeter_element(Orientation(n, tuple(dirs)))
                for w in all_perms(n + 1):
                    assert is_c_sortable(w, c)[0] == is_c_sortable_bruteforce(w, c)

    def test_greedy_agrees_with_bruteforce_rank5_sample(self):
        c = coxeter_element(parse_orientation("1<2>3<4"))
        for w in all_perms(5):
            assert is_c_sortable(w, c)[0] == is_c_sortable_bruteforce(w, c)


class TestEnumeration:
    def test_catalan_counts(self):
        catalan = {2: 2, 3: 5, 4: 14, 5: 42}
        for n in (1, 2, 3, 4):
            for dirs in product("><", repeat=n - 1):
                c = coxeter_element(Orientation(n, tuple(dirs)))
                assert len(enumerate_c_sortable(c)) == catalan[n + 1]

    def test_s2(self):
        c = CoxeterWord((1,))
        assert enumerate_c_sortable(c) == [(1, 2), (2, 1)]

    def test_table1_membership(self):
        c = coxeter_element(parse_orientation("1>2<3"))
        got = {format_perm(w) for w in enumerate_c_sortable(c)}
        assert got == {
            "1234", "1324", "2134", "1243", "3124", "1342", "2143",
            "3214", "1432", "3142", "3412", "4312", "3421", "4321",
        }

    def test_deterministic_order(self):
        c = coxeter_element(parse_orientation("1>2<3"))
        listed = enumerate_c_sortable(c)
        assert listed == sorted(listed, key=lambda w: (length(w), w))

    def test_matches_greedy_filter_of_all_permutations(self):
        for n in range(1, 7):
            for q in orientations(n):
                c = coxeter_element(q)
                greedy = [w for w in all_perms(c.rank) if is_c_sortable(w, c)[0]]
                greedy.sort(key=lambda w: (length(w), w))
                assert enumerate_c_sortable(c) == greedy, str(q)

    def test_linear_rank8_is_231_avoiding(self):
        c = coxeter_element(Orientation(7, (">",) * 6))
        avoiding = {w for w in all_perms(8) if is_231_avoiding(w)}
        assert set(enumerate_c_sortable(c)) == avoiding

    def test_every_rank8_orientation_gives_catalan_distinct(self):
        for q in orientations(7):
            elements = [w for w, _ in c_sorting_words(coxeter_element(q))]
            assert len(set(elements)) == len(elements) == catalan(8), str(q)

    def test_positions_spell_a_reduced_word_of_the_element(self):
        for q in orientations(4):
            c = coxeter_element(q)
            for w, key in c_sorting_words(c):
                assert list(key) == sorted(key) and len(key) == length(w)
                out = identity_perm(c.rank)
                for p in key:
                    out = compose(out, simple_reflection(c.rank, c.word[p % c.n]))
                assert out == w

    def test_mirror_orientation_conjugates_by_w0(self):
        def mirror(q):
            flip = {">": "<", "<": ">"}
            return Orientation(q.n, tuple(flip[d] for d in reversed(q.dirs)))

        for n in range(1, 7):
            w0 = tuple(range(n + 1, 0, -1))
            for q in orientations(n):
                got = set(enumerate_c_sortable(coxeter_element(mirror(q))))
                assert got == {
                    compose(w0, compose(w, w0))
                    for w in enumerate_c_sortable(coxeter_element(q))
                }, str(q)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda n: st.lists(st.sampled_from("><"), min_size=n - 1, max_size=n - 1)
        .map(lambda dirs: Orientation(n, tuple(dirs)))
    ))
    def test_property_sortable_distinct_catalan(self, q):
        c = coxeter_element(q)
        elements = [w for w, _ in c_sorting_words(c)]
        assert len(set(elements)) == len(elements) == catalan(q.n + 1)
        assert all(is_c_sortable(w, c)[0] for w in elements)


class Test231:
    def test_examples(self):
        assert not is_231_avoiding(parse_perm("45231"))
        assert is_231_avoiding(identity_perm(4))
        assert is_231_avoiding(parse_perm("1324"))

    def test_exhaustive_triple_scan_oracle(self):
        def oracle(w):
            n1 = len(w)
            for a in range(n1):
                for b in range(a + 1, n1):
                    for c in range(b + 1, n1):
                        if w[c] < w[a] < w[b]:
                            return False
            return True

        for w in all_perms(5):
            assert is_231_avoiding(w) == oracle(w)

    def test_matches_sortability_for_linear_orientation(self):
        # all arrows pointing left: c = s_n ... s_2 s_1
        for n in (2, 3, 4):
            c = coxeter_element(Orientation(n, (">",) * (n - 1)))
            assert c.word == tuple(range(n, 0, -1))
            for w in all_perms(n + 1):
                assert is_c_sortable(w, c)[0] == is_231_avoiding(w)

    def test_binv_count_equals_support_count_when_avoiding(self):
        for w in all_perms(5):
            if is_231_avoiding(w):
                assert len(bruhat_inversions(w)) == len(support(w))
