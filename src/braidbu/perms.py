"""Permutations of {1, ..., n} under the act-first product convention.

Throughout the package the product ``s * t`` means "apply s first, then t",
i.e. the function composition ``t o s``.  This is the convention used for
the coordinate action on configuration cells, so that the action law
``act(s * t, c) == act(s, act(t, c))`` holds.
"""
from __future__ import annotations

from itertools import permutations as _itertools_permutations
from typing import Iterator, Sequence

from .frozen import Frozen


class Perm(Frozen):
    """A permutation of {1, ..., n}, stored by its tuple of images.

    Equality, hash and order are those of the tuple ``(images,)``.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    def __reduce__(self):
        return Perm, (self.images,)

    def __repr__(self) -> str:
        return f"Perm(images={self.images!r})"

    def __eq__(self, other):
        return (self.images,) == (other.images,) if other.__class__ is self.__class__ else NotImplemented

    def __lt__(self, other):
        return (self.images,) < (other.images,) if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return (self.images,) <= (other.images,) if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return (self.images,) > (other.images,) if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return (self.images,) >= (other.images,) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(1, n + 1)))

    @staticmethod
    def cycle(b: int, n: int) -> "Perm":
        """The cycle (b, b+1, ..., n) in Perm of size n; identity when b == n."""
        if not 1 <= b <= n:
            raise ValueError(f"cycle start {b} outside 1..{n}")
        images = list(range(1, n + 1))
        for i in range(b, n):
            images[i - 1] = i + 1
        images[n - 1] = b
        return Perm(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # self first, then other: (self * other)(i) == other(self(i)).
        if other.n != self.n:
            raise ValueError("size mismatch")
        return Perm(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.images, 1):
            inv[v - 1] = i
        return Perm(tuple(inv))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        out = Perm.identity(self.n)
        for _ in range(k):
            out = out * self
        return out

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, 1))

    def oneline(self) -> str:
        return "(" + ",".join(map(str, self.images)) + ")"

    def __str__(self) -> str:
        return self.oneline()


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of {1..n} in lexicographic one-line order."""
    for images in _itertools_permutations(range(1, n + 1)):
        yield Perm(images)


def sorting_permutation(values: Sequence[int]) -> Perm:
    """The permutation sending each position to the rank of its value.

    ``sorting_permutation(v)(j)`` is the 1-based rank of ``v[j-1]`` among the
    (pairwise distinct) entries of ``v``.
    """
    order = sorted(values)
    rank = {val: i for i, val in enumerate(order, 1)}
    return Perm(tuple(rank[val] for val in values))


def cyclic_canonical(sigma: Perm) -> tuple[Perm, int]:
    """Canonical representative of sigma's coset under left cyclic rotations.

    The coset consists of ``c1**j * sigma`` for the full cycle
    ``c1 = (1 2 ... n)``; the canonical member is the unique one whose value
    at 1 is 1.  Returns ``(canonical, j)`` with ``canonical == c1**j * sigma``.
    """
    n = sigma.n
    j = sigma.inverse()(1) - 1
    canonical = (Perm.cycle(1, n) ** j) * sigma
    if canonical(1) != 1:
        raise AssertionError("cyclic canonicalization failed")
    return canonical, j
