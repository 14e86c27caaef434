import pytest
from hypothesis import given, strategies as st

from braidbu.perms import Perm, all_perms, cyclic_canonical, sorting_permutation
from braidbu.words import FreeWord, cyclically_reduced


def perm_strategy(n: int):
    return st.permutations(list(range(1, n + 1))).map(lambda p: Perm(tuple(p)))


class TestPerm:
    def test_identity_and_cycle(self):
        assert Perm.identity(3).images == (1, 2, 3)
        assert Perm.cycle(1, 3).images == (2, 3, 1)
        assert Perm.cycle(2, 4).images == (1, 3, 4, 2)
        assert Perm.cycle(3, 3).is_identity()

    def test_act_first_product(self):
        s = Perm((2, 1, 3))
        t = Perm((2, 3, 1))
        # (s * t)(i) == t(s(i))
        assert all((s * t)(i) == t(s(i)) for i in (1, 2, 3))

    def test_inverse_and_power(self):
        c = Perm.cycle(1, 4)
        assert (c * c.inverse()).is_identity()
        assert c ** 4 == Perm.identity(4)
        assert c ** -1 == c.inverse()

    @given(perm_strategy(4), perm_strategy(4))
    def test_product_inverse_law(self, s, t):
        assert (s * t).inverse() == t.inverse() * s.inverse()

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 3))

    def test_sorting_permutation_example(self):
        # ranks of (8,2,5,9,4,3): the 6-cycle sending 1->5, 5->3, 3->4, 4->6, 6->2, 2->1
        sigma = sorting_permutation((8, 2, 5, 9, 4, 3))
        assert sigma.images == (5, 1, 4, 6, 3, 2)

    def test_sorting_permutation_sorted_is_identity(self):
        assert sorting_permutation((0, 1, 2, 3)).is_identity()

    @given(perm_strategy(5))
    def test_cyclic_canonical(self, sigma):
        canonical, j = cyclic_canonical(sigma)
        assert canonical(1) == 1
        assert (Perm.cycle(1, 5) ** j) * sigma == canonical

    def test_all_perms_count(self):
        assert len(list(all_perms(4))) == 24


letters = st.sampled_from(["a", "b", "c"])
syllables = st.tuples(letters, st.sampled_from([1, -1]))
words = st.lists(syllables, max_size=12).map(FreeWord.of)


class TestFreeWord:
    def test_reduction(self):
        w = FreeWord.of([("a", 1), ("b", 1), ("b", -1), ("a", -1), ("c", 1)])
        assert w.letters == (("c", 1),)

    def test_power_and_inverse(self):
        a = FreeWord.gen("a")
        b = FreeWord.gen("b")
        w = a * b
        assert (w ** -2) == (w.inverse() * w.inverse())
        assert (w * w.inverse()).is_identity()

    @given(words)
    def test_inverse_cancels(self, w):
        assert (w * w.inverse()).is_identity()

    @given(words, words, words)
    def test_associativity(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    def test_substitute(self):
        w = FreeWord.of([("a", 1), ("b", -1)])
        out = w.substitute({"b": FreeWord.of([("a", 1), ("c", 1)])})
        assert out.letters == (("a", 1), ("c", -1), ("a", -1))

    def test_cyclic_reduction(self):
        w = FreeWord.of([("a", 1), ("b", 1), ("a", -1)])
        assert cyclically_reduced(w).letters == (("b", 1),)

    def test_evaluate_additive(self):
        w = FreeWord.of([("a", 1), ("a", 1), ("b", -1)])
        assert w.evaluate_additive({"a": 2, "b": 3}.__getitem__) == 1

    def test_format(self):
        assert FreeWord().format() == "1"
        assert FreeWord.of([("a", 1), ("b", -1)]).format() == "a b^-1"


def reference(*ws):
    """The reduced concatenation, built from raw syllables."""
    return FreeWord.of([syllable for w in ws for syllable in w.letters])


def is_reduced(w):
    return all(
        not (a == c and s == -t) for (a, s), (c, t) in zip(w.letters, w.letters[1:])
    )


class TestLinearProducts:
    """Join-only ``*``, cyclic-core ``**`` and one-pass ``product`` agree with
    reducing the concatenated syllables."""

    @given(words, words)
    def test_mul_matches_reference(self, a, b):
        out = a * b
        assert out == reference(a, b)
        assert is_reduced(out)

    @given(words, st.integers(min_value=-6, max_value=6))
    def test_pow_matches_fold(self, w, k):
        base = w if k >= 0 else w.inverse()
        folded = FreeWord()
        for _ in range(abs(k)):
            folded = reference(folded, base)
        out = w ** k
        assert out == folded
        assert is_reduced(out)

    @given(words)
    def test_pow_zero_is_identity(self, w):
        assert (w ** 0).is_identity()

    @given(st.lists(words, max_size=6))
    def test_product_matches_reference(self, ws):
        out = FreeWord.product(ws)
        assert out == reference(*ws)
        assert is_reduced(out)
