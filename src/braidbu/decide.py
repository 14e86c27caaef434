"""Borsuk-Ulam decisions for maps out of a graph with a free cyclic action.

The source graph enters only through its covering data: the deck group
order n, the rank r of the quotient's free fundamental group, and the
surjection theta_tau onto Z_n classifying the covering.  Targets:

* interval  -- the property always holds;
* tree (not an interval) -- always fails; a witness pair of homomorphisms is
  built on the ``Covering`` of the tree's own configuration complex and
  verified;
* circle -- fails exactly for the block-constant classes whose leading entry
  is 1 mod n; decided arithmetically and cross-checked by brute force;
* circle wedge interval (Euler characteristic zero source) -- always fails;
  the witness lives in the lollipop braid system.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .covering import Covering, build_fields
from .errors import InvalidParameterError, StructuralError
from .frozen import Frozen
from .fundgroup import GeneratorId, get_system
from .graphs import Graph
from .perms import Perm
from .words import FreeWord, cyclically_reduced


def x_letter(i: int) -> str:
    return f"x{i}"


class ActionData(Frozen):
    """Covering data of a free Z_n action: theta[i] is the image of the i-th
    free generator of the quotient's fundamental group.  Equality and hash
    are those of the tuple ``(n, r, theta)``."""

    __slots__ = ("n", "r", "theta")

    def __init__(self, n: int, r: int, theta: tuple[int, ...]) -> None:
        if n < 2:
            raise InvalidParameterError(f"need n >= 2, got {n}")
        if r < 1 or len(theta) != r:
            raise InvalidParameterError("theta must list one value per generator")
        if math.gcd(n, *(t % n for t in theta)) != 1:
            raise InvalidParameterError("theta is not surjective onto Z_n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)

    def __reduce__(self):
        return ActionData, (self.n, self.r, self.theta)

    def __repr__(self) -> str:
        return f"ActionData(n={self.n!r}, r={self.r!r}, theta={self.theta!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.r, self.theta) == (other.n, other.r, other.theta)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.theta))

    @property
    def chi(self) -> int:
        return self.n * (1 - self.r)

    def value(self, letter: str) -> int:
        return self.theta[int(letter[1:]) - 1] % self.n


class GroupHom(NamedTuple):
    """A homomorphism given on a free basis; images are words or integers."""

    images: Mapping[object, Union[FreeWord, int]]

    def evaluate_word(self, word: FreeWord):
        if isinstance(next(iter(self.images.values()), None), int):
            return word.evaluate_additive(lambda l: self.images[l])
        return FreeWord.product(
            self.images[letter] if sign == 1 else self.images[letter].inverse() for letter, sign in word
        )


class Witness(NamedTuple):
    phi: GroupHom  # on a free basis of the total space's fundamental group
    psi: GroupHom  # on the free basis x1..xr of the quotient's


class BUVerdict(NamedTuple):
    holds: bool
    witness: Optional[Witness] = None


# The one verdict of every target where the property holds; frozen, so shared.
_HOLDS = BUVerdict(True, None)


class VerifyResult(NamedTuple):
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


# -- free-group utilities ----------------------------------------------------


def adapt_basis(theta: Sequence[int], n: int) -> list[FreeWord]:
    """Nielsen-transform the basis so the first element maps to a generator
    of Z_n and the others map to the neutral element.

    Input: theta values of the current basis x1..xr.  Output: the new basis
    as words in x1..xr, validated by re-evaluating theta.
    """
    r = len(theta)
    action = ActionData(n, r, tuple(t % n for t in theta))  # validates surjectivity
    values = [t % n for t in theta]
    basis = [FreeWord.gen(x_letter(i)) for i in range(1, r + 1)]
    for i in range(1, r):
        # Euclid on (values[0], values[i]) through moves y0 -> y0 * yi^-q.
        while values[i] != 0:
            q = values[0] // values[i]
            basis[0] = basis[0] * basis[i] ** (-q)
            values[0] = values[0] - q * values[i]
            basis[0], basis[i] = basis[i], basis[0]
            values[0], values[i] = values[i], values[0]
    evaluated = [w.evaluate_additive(action.value) % n for w in basis]
    if math.gcd(evaluated[0], n) != 1 or any(v != 0 for v in evaluated[1:]):
        raise StructuralError("basis adaptation failed its postcondition")
    return basis


def kernel_basis(y_basis: Sequence[FreeWord], n: int) -> list[FreeWord]:
    """Free basis of the kernel of theta, given an adapted basis y1..yr:
    y1^n together with the conjugates y1^i yj y1^-i (0 <= i < n, j >= 2)."""
    y1 = y_basis[0]
    out = [y1 ** n]
    for i in range(n):
        for yj in y_basis[1:]:
            out.append((y1 ** i) * yj * (y1 ** (-i)))
    return out


# -- presentation cleanup for auxiliary targets -------------------------------


# No caller left in the package; kept because perfbench/tracing.py wraps it by name.
def eliminate_to_free_basis(
    letters: Sequence[object], relators: Sequence[FreeWord]
) -> tuple[list[object], dict[object, FreeWord]]:
    """Tietze-eliminate letters appearing exactly once in some relator.

    Returns the surviving letters (a free basis when all relators are
    consumed) and the eliminated letters' expressions over the survivors.
    """
    rels = [cyclically_reduced(r) for r in relators if not r.is_identity()]
    exprs: dict[object, FreeWord] = {}
    order: list[object] = []
    while rels:
        target = None
        for rel in rels:
            counts: dict[object, int] = {}
            for letter, _sign in rel:
                counts[letter] = counts.get(letter, 0) + 1
            for letter, count in counts.items():
                if count == 1:
                    target = (rel, letter)
                    break
            if target:
                break
        if target is None:
            raise StructuralError("presentation is stuck: no letter occurs exactly once")
        rel, letter = target
        idx = next(i for i, (l, _s) in enumerate(rel.letters) if l == letter)
        rotated = rel.letters[idx:] + rel.letters[:idx]
        sign = rotated[0][1]
        rest = FreeWord.of(rotated[1:])
        exprs[letter] = rest.inverse() if sign == 1 else rest
        order.append(letter)
        new_rels = []
        for other in rels:
            if other is rel:
                continue
            reduced = cyclically_reduced(other.substitute({letter: exprs[letter]}))
            if not reduced.is_identity():
                new_rels.append(reduced)
        rels = new_rels
    resolved: dict[object, FreeWord] = {}
    for letter in reversed(order):
        resolved[letter] = exprs[letter].substitute(resolved)
    surviving = [l for l in letters if l not in resolved]
    return surviving, resolved


# -- diagram verification -----------------------------------------------------


def verify_diagram(
    phi: GroupHom,
    psi: GroupHom,
    alpha: GroupHom,
    action: ActionData,
    system,
) -> VerifyResult:
    """Check the three faces of the master diagram on every generator.

    system is a ``Covering``, read through theta_word, iota_word and p1_word;
    phi is given on a free basis of the covering group (keys are its words in
    x1..xr), psi on the letters x1..xr, alpha on phi's basis.
    """
    failures = []
    for letter, image in psi.images.items():
        got = system.theta_word(image) % action.n
        want = action.value(letter)
        if got != want:
            failures.append(f"theta face at {letter}: {got} != {want}")
    for kernel_word, image in phi.images.items():
        lhs = system.iota_word(image)
        rhs = psi.evaluate_word(kernel_word)
        if lhs != rhs:
            failures.append(f"iota face at {kernel_word}: {lhs} != {rhs}")
        proj = system.p1_word(image)
        want = alpha.images[kernel_word]
        if proj != want:
            failures.append(f"p1 face at {kernel_word}: {proj} != {want}")
    return VerifyResult(not failures, tuple(failures))


def _verified_failure(
    psi: GroupHom,
    kernel_words: Sequence[FreeWord],
    p1_value: int,
    action: ActionData,
    system,
    rewrite: Callable[[FreeWord], Optional[FreeWord]],
) -> BUVerdict:
    """The failing verdict of a witness: phi lifts psi on each kernel word
    through ``rewrite``, the first particle's image is p1_value on each, and
    the diagram is verified before the witness is returned."""
    phi_images = {}
    for kappa in kernel_words:
        image = rewrite(psi.evaluate_word(kappa))
        if image is None:
            raise StructuralError(f"psi({kappa}) does not lie in the covering subgroup")
        phi_images[kappa] = image
    phi = GroupHom(phi_images)
    check = verify_diagram(phi, psi, GroupHom({kappa: p1_value for kappa in phi_images}), action, system)
    if not check:
        raise StructuralError(f"witness failed verification: {check.failures}")
    return BUVerdict(False, Witness(phi, psi))


# -- decisions ----------------------------------------------------------------


def decide_interval() -> BUVerdict:
    """Maps to an interval always collapse some orbit."""
    return _HOLDS


def decide_tree(graph: Graph, n: int, action: ActionData) -> BUVerdict:
    """A tree target with an essential vertex defeats the property; the
    witness lifts theta_tau through the classifying map of the target's
    quotient complex."""
    if action.n != n:
        raise InvalidParameterError("action order does not match n")
    system = tree_system(graph, n)
    u = system.unit_word()
    psi = GroupHom({x_letter(i + 1): u ** action.theta[i] for i in range(action.r)})
    kernel_words = kernel_basis(adapt_basis(action.theta, n), n)
    return _verified_failure(psi, kernel_words, 0, action, system, system.rewrite)


def tree_system(graph: Graph, n: int) -> Covering:
    """The covering of a tree target's configuration complex, kept for the
    eight most recently used (graph, n).  Refusals, in order: not a tree, an
    interval, then those of ``build_dconf``, no free basis (before the
    quotient), and disconnected."""
    if not graph.is_tree:
        raise InvalidParameterError("target must be a tree")
    if not graph.essential_vertices:
        raise InvalidParameterError("target tree is an interval; use decide_interval")
    return _tree_system_cached(graph, n)


# Unlike ``get_system``'s m, the key here (any tree, any n) has no bound, so
# the cache keeps only the most recently used coverings.  Eight keeps all
# seven stars of the ``tree-targets`` benchmark workload within one pass.
@lru_cache(maxsize=8)
def _tree_system_cached(graph: Graph, n: int) -> Covering:
    return Covering(*build_fields(graph, n))


def e_letter(i: int, j: int) -> str:
    """Basis letter e_(i,j) = y1^(i-1) y_(j+1) y1^(1-i) of the kernel."""
    return f"e({i},{j})"


def decide_circle(cls: Sequence[int], n: int, m: int) -> BUVerdict:
    """Classes of maps to the circle, written in the kernel basis
    (e1, then m blocks of n conjugates).  The property fails exactly when
    every block is constant and the leading entry is 1 mod n."""
    if n < 2 or m < 0:
        raise InvalidParameterError("need n >= 2 and m >= 0")
    if len(cls) != n * m + 1:
        raise InvalidParameterError(f"class tuple must have length {n * m + 1}")
    p = cls[0]
    if p % n != 1 % n:
        return _HOLDS
    # ks[j - 1] is the first entry of block j; cls[1 + i::n] lists entry i of
    # every block, so all blocks are constant exactly when each equals ks.
    ks = cls[1::n]
    for i in range(1, n):
        if cls[1 + i::n] != ks:
            return _HOLDS
    # psi sends y1 to d = p and each y_(j+1) to n*k_j; phi divides by n.
    psi_images: dict[object, Union[FreeWord, int]] = {x_letter(1): p}
    phi_images: dict[object, Union[FreeWord, int]] = {"e1": p}
    for j, k in enumerate(ks, start=1):
        psi_images[x_letter(j + 1)] = n * k
        for i in range(1, n + 1):
            phi_images[e_letter(i, j)] = k
    return BUVerdict(False, Witness(GroupHom(phi_images), GroupHom(psi_images)))


def circle_solver(cls: Sequence[int], n: int, m: int) -> bool:
    """Brute-force feasibility of the circle diagram.  Its unknowns are
    d = psi(y1) with d = 1 mod n and, for each block j, k_j with
    psi(y_(j+1)) = n*k_j.  Through the diagram phi(e1) = psi(y1^n)/n = d and
    phi(e_(i,j)) = ((i-1)d + n*k_j - (i-1)d)/n = k_j, so each unknown fixes
    its own part of the class and is searched on its own, over the range of
    the class's entries.  True when the property fails (a solution exists);
    the search stops at the first unknown without one."""
    if n < 2 or m < 0:
        raise InvalidParameterError("need n >= 2 and m >= 0")
    if len(cls) != n * m + 1:
        raise InvalidParameterError(f"class tuple must have length {n * m + 1}")
    lo, hi = min(cls), max(cls)
    # The candidates for d are the window's values that are 1 mod n.
    if cls[0] not in range(lo + (1 - lo) % n, hi + 1, n):
        return False
    window = range(lo, hi + 1)
    # phi(e_(i,j)) = k_j for every i exactly when k_j occurs n times in block j.
    for start in range(1, n * m + 1, n):
        if n not in map(cls[start:start + n].count, window):
            return False
    return True


def decide_wedge(k: int, m: int, action: ActionData) -> BUVerdict:
    """Target = circle wedge interval, source of Euler characteristic zero.

    Always fails; the witness sends the quotient generator to
    z^t * iota(w1^l) with z the canonical type-1 quotient generator,
    w1 the fully rotated top-type basis element, t = theta_tau of the
    generator, and l chosen so the top triangle closes."""
    if action.chi != 0:
        raise InvalidParameterError("wedge decision needs Euler characteristic zero")
    if action.n != m or action.r != 1:
        raise InvalidParameterError("action must be by Z_m on a rank-1 quotient group")
    t = action.theta[0] % m
    system = get_system(m)
    z_word = FreeWord.gen(system.z)
    w1 = GeneratorId("fm", Perm.cycle(1, m).inverse(), m)
    zu = system.rs_rewrite(z_word ** (t * m))
    if zu is None:
        raise StructuralError("z^(t*m) must lie in the covering subgroup")
    j = system.p1_word(zu)
    ell = k - j
    psi_g = (z_word ** t) * system.iota_word(FreeWord.gen(w1) ** ell)
    psi = GroupHom({x_letter(1): psi_g})
    return _verified_failure(psi, (FreeWord.gen(x_letter(1)) ** m,), k, action, system, system.rs_rewrite)
