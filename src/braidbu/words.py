"""Freely reduced words over an arbitrary hashable alphabet.

Class invariant: a ``FreeWord`` holds a freely reduced tuple of syllables.
Every constructor below keeps it (``of`` reduces its input; the operations
start from reduced operands), so products only cancel where two words meet.
Costs, for words of lengths p and q: ``u * v`` is O(p + q); ``w ** k`` is
O(|k| * |w|); ``FreeWord.product(ws)`` is O(total length of ws), one pass.
"""
from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .frozen import Frozen

Letter = Hashable
Syllable = tuple[Any, int]  # (letter, +1 or -1)


def _reduced(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[Syllable] = []
    for letter, sign in pairs:
        if sign not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {sign}")
        if stack and stack[-1][0] == letter and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((letter, sign))
    return tuple(stack)


class FreeWord(Frozen):
    """A freely reduced word: a sequence of (letter, sign) with sign in {1, -1}.

    The field constructor trusts its tuple to be reduced; build words from
    raw syllables with ``of``.  Equality and hash are those of the tuple
    ``(letters,)``.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Syllable, ...] = ()) -> None:
        object.__setattr__(self, "letters", letters)

    def __reduce__(self):
        return FreeWord, (self.letters,)

    def __repr__(self) -> str:
        return f"FreeWord(letters={self.letters!r})"

    def __eq__(self, other):
        return (self.letters,) == (other.letters,) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    @staticmethod
    def of(pairs: Iterable[Syllable]) -> "FreeWord":
        return FreeWord(_reduced(pairs))

    @staticmethod
    def gen(letter: Letter, sign: int = 1) -> "FreeWord":
        return FreeWord.of([(letter, sign)])

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.letters)

    @staticmethod
    def product(words: Iterable["FreeWord"]) -> "FreeWord":
        """The product of the words in order, in a single pass.  Each word is
        reduced, so syllables cancel only where the next word joins on; the
        rest of it is copied whole."""
        out: list[Syllable] = []
        for word in words:
            letters, i = word.letters, 0
            while out and i < len(letters) and out[-1][0] == letters[i][0] and out[-1][1] == -letters[i][1]:
                out.pop()
                i += 1
            out.extend(letters[i:])
        return FreeWord(tuple(out))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        """Both operands are reduced, so only the join can cancel."""
        left, right = self.letters, other.letters
        i, limit = 0, min(len(left), len(right))
        while i < limit and left[-1 - i][0] == right[i][0] and left[-1 - i][1] == -right[i][1]:
            i += 1
        return FreeWord(left[: len(left) - i] + right[i:])

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((l, -s) for l, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        """w = u c u^-1 with c cyclically reduced, so w^k = u c^k u^-1 reduced."""
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return FreeWord()
        letters = self.letters
        i, n = _conjugator_length(letters), len(letters)
        return FreeWord(letters[:i] + letters[i : n - i] * k + letters[n - i :])

    def support(self) -> set:
        return {l for l, _ in self.letters}

    # Only decide.eliminate_to_free_basis calls it; perfbench/tracing.py wraps it by name.
    def substitute(self, mapping: Mapping[Letter, "FreeWord"]) -> "FreeWord":
        """Replace every mapped letter by its image word; others stay put."""
        pieces: list[Syllable] = []
        for letter, sign in self.letters:
            image = mapping.get(letter)
            if image is None:
                pieces.append((letter, sign))
            else:
                word = image if sign == 1 else image.inverse()
                pieces.extend(word.letters)
        return FreeWord.of(pieces)

    def evaluate_additive(self, value_of: Callable[[Letter], int]) -> int:
        return sum(s * value_of(l) for l, s in self.letters)

    def format(self, name: Callable[[Letter], str] = str) -> str:
        if not self.letters:
            return "1"
        return " ".join(name(l) + ("" if s == 1 else "^-1") for l, s in self.letters)

    def __str__(self) -> str:
        return self.format()


def _conjugator_length(letters: tuple[Syllable, ...]) -> int:
    """How many first syllables cancel the matching last ones: the length of
    u in letters = u c u^-1 with c cyclically reduced."""
    i, n = 0, len(letters)
    while n - 2 * i >= 2 and letters[i][0] == letters[n - 1 - i][0] and letters[i][1] == -letters[n - 1 - i][1]:
        i += 1
    return i


# Only decide.eliminate_to_free_basis calls it, which stays for perfbench/tracing.py.
def cyclically_reduced(word: FreeWord) -> FreeWord:
    """Strip cancelling first/last syllables until the word is cyclically reduced."""
    i, n = _conjugator_length(word.letters), len(word.letters)
    return FreeWord(word.letters[i : n - i])
