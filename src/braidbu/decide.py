"""Borsuk-Ulam decisions for maps out of a graph with a free cyclic action.

The source graph enters only through its covering data: the deck group
order n, the rank r of the quotient's free fundamental group, and the
surjection theta_tau onto Z_n classifying the covering.  Targets:

* interval  -- the property always holds;
* tree (not an interval) -- always fails; a witness pair of homomorphisms is
  built on the tree's own configuration complex and verified;
* circle -- fails exactly for the block-constant classes whose leading entry
  is 1 mod n; decided arithmetically and cross-checked by brute force;
* circle wedge interval (Euler characteristic zero source) -- always fails;
  the witness lives in the lollipop braid system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from .complexes import build_dconf, build_quotient, components
from .covering import Covering
from .errors import InvalidParameterError, PreconditionError, StructuralError
from .fundgroup import GeneratorId, get_system, maximal_tree
from .graphs import Graph, is_sufficiently_subdivided, union_find
from .morse import build_field
from .perms import Perm
from .words import FreeWord, cyclically_reduced


def x_letter(i: int) -> str:
    return f"x{i}"


@dataclass(frozen=True)
class ActionData:
    """Covering data of a free Z_n action: theta[i] is the image of the i-th
    free generator of the quotient's fundamental group."""

    n: int
    r: int
    theta: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidParameterError(f"need n >= 2, got {self.n}")
        if self.r < 1 or len(self.theta) != self.r:
            raise InvalidParameterError("theta must list one value per generator")
        if math.gcd(self.n, *(t % self.n for t in self.theta)) != 1:
            raise InvalidParameterError("theta is not surjective onto Z_n")

    @property
    def chi(self) -> int:
        return self.n * (1 - self.r)

    def value(self, letter: str) -> int:
        return self.theta[int(letter[1:]) - 1] % self.n


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given on a free basis; images are words or integers."""

    images: Mapping[object, Union[FreeWord, int]]

    def __call__(self, letter):
        return self.images[letter]

    def evaluate_word(self, word: FreeWord):
        values = list(self.images.values())
        if values and isinstance(values[0], int):
            return word.evaluate_additive(lambda l: self.images[l])
        return FreeWord.product(
            self.images[letter] if sign == 1 else self.images[letter].inverse() for letter, sign in word
        )


@dataclass(frozen=True)
class Witness:
    phi: GroupHom  # on a free basis of the total space's fundamental group
    psi: GroupHom  # on the free basis x1..xr of the quotient's


@dataclass(frozen=True)
class BUVerdict:
    holds: bool
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class VerifyResult:
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


class TreeTargetSystem(Covering):
    """The covering of a tree target's configuration complex.

    Built like ``BraidSystem``: a Farley-Sabalka gradient field on each side,
    the forest plus the critical edges that close no cycle with it as the
    maximal tree, and the other critical edges as letters.  Without critical
    cells of dimension two or more, the letters are a free basis on each
    level, so reduced words are canonical.  Every map comes from
    ``Covering``: theta and ``rewrite`` walk per-sheet letter lifts, and
    ``iota_word`` projects each upstairs letter's loop.
    """

    def __init__(self, graph: Graph, n: int):
        if not graph.is_tree:
            raise InvalidParameterError("target must be a tree")
        if not graph.essential_vertices:
            raise InvalidParameterError("target tree is an interval; use decide_interval")
        if not is_sufficiently_subdivided(graph, n):
            raise PreconditionError(f"tree is not sufficiently subdivided for n={n}")
        self.graph = graph
        self.n = n
        fm = build_dconf(graph, n)
        if components(fm) != 1:
            raise PreconditionError(f"configuration complex of the tree is disconnected for n={n}")
        field_fm = build_field(fm)
        if any(field_fm.critical(d) for d in range(2, fm.top_dim + 1)):
            # The quotient's critical cells are the orbits of these, so one test serves both.
            raise PreconditionError(
                f"braid group of the tree has no free basis for n={n}: critical cells of dimension >= 2"
            )
        quotient = build_quotient(fm, n)
        trees, letters = [], []
        for field in (field_fm, build_field(quotient, field_fm)):
            cx, critical = field.complex, field.critical(1)
            ends = {e: cx.edge_endpoints(e) for e in field.forest_edges + critical}
            closing = set(union_find(cx.cells_by_dim[0], ends)[1])
            trees.append(maximal_tree(field, frozenset(e for e in critical if e not in closing)))
            letters.append({e: e for e in critical if e in closing})
        super().__init__(fm, quotient, *trees, *letters)

    def p1_word(self, word: FreeWord) -> int:
        return 0  # the target is a tree: its fundamental group is trivial

    def unit_word(self) -> FreeWord:
        """A quotient word with theta value 1, by running gcds of letter values."""
        g, word = self.n, FreeWord()
        for letter in self.letter_q:
            t = self.theta_letter(letter)
            if t == 0:
                continue
            g2, x, y = _ext_gcd(g, t)
            word = (word ** x) * (FreeWord.gen(letter) ** y)
            g = g2
            if g == 1:
                break
        if g != 1 or self.theta_word(word) != 1:
            raise StructuralError("classifying map is not surjective on letters")
        return word


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


# -- diagram verification -----------------------------------------------------


def verify_diagram(
    phi: GroupHom,
    psi: GroupHom,
    alpha: GroupHom,
    action: ActionData,
    system,
) -> VerifyResult:
    """Check the three faces of the master diagram on every generator.

    system must provide theta_word, iota_word and p1_word; phi is given on a
    free basis of the covering group (keys are its words in x1..xr), psi on
    the letters x1..xr, alpha on phi's basis.
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


# -- decisions ----------------------------------------------------------------


def decide_interval() -> BUVerdict:
    """Maps to an interval always collapse some orbit."""
    return BUVerdict(True, None)


def decide_tree(graph: Graph, n: int, action: ActionData) -> BUVerdict:
    """A tree target with an essential vertex defeats the property; the
    witness lifts theta_tau through the classifying map of the target's
    quotient complex."""
    if action.n != n:
        raise InvalidParameterError("action order does not match n")
    system = tree_system(graph, n)
    u = system.unit_word()
    psi = GroupHom({x_letter(i + 1): u ** action.theta[i] for i in range(action.r)})
    ys = adapt_basis(action.theta, n)
    phi_images = {}
    for kappa in kernel_basis(ys, n):
        image = system.rewrite(psi.evaluate_word(kappa))
        if image is None:
            raise StructuralError("kernel word failed to lift")
        phi_images[kappa] = image
    phi = GroupHom(phi_images)
    alpha = GroupHom({kappa: 0 for kappa in phi_images})
    check = verify_diagram(phi, psi, alpha, action, system)
    if not check:
        raise StructuralError(f"tree witness failed verification: {check.failures}")
    return BUVerdict(False, Witness(phi, psi))


@lru_cache(maxsize=None)
def _tree_system_cached(graph: Graph, n: int) -> TreeTargetSystem:
    return TreeTargetSystem(graph, n)


def tree_system(graph: Graph, n: int) -> TreeTargetSystem:
    return _tree_system_cached(graph, n)


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
    blocks = [tuple(cls[1 + (j - 1) * n: 1 + j * n]) for j in range(1, m + 1)]
    fails = p % n == 1 % n and all(len(set(block)) == 1 for block in blocks)
    if not fails:
        return BUVerdict(True, None)
    # psi sends y1 to d = p and each y_(j+1) to n*k_j; phi divides by n.
    psi_images: dict[object, Union[FreeWord, int]] = {x_letter(1): p}
    phi_images: dict[object, Union[FreeWord, int]] = {"e1": p}
    for j, block in enumerate(blocks, start=1):
        psi_images[x_letter(j + 1)] = n * block[0]
        for i in range(1, n + 1):
            phi_images[e_letter(i, j)] = block[0]
    return BUVerdict(False, Witness(GroupHom(phi_images), GroupHom(psi_images)))


def circle_solver(cls: Sequence[int], n: int, m: int) -> bool:
    """Brute-force feasibility of the circle diagram.  Its unknowns are
    d = psi(y1) with d = 1 mod n and, for each block j, k_j with
    psi(y_(j+1)) = n*k_j.  Through the diagram phi(e1) = psi(y1^n)/n = d and
    phi(e_(i,j)) = ((i-1)d + n*k_j - (i-1)d)/n = k_j, so each unknown fixes
    its own part of the class and is searched on its own, over the range of
    the class's entries.  True when the property fails (a solution exists)."""
    if len(cls) != n * m + 1:
        raise InvalidParameterError(f"class tuple must have length {n * m + 1}")
    window = range(min(cls), max(cls) + 1)
    blocks = [tuple(cls[1 + j * n: 1 + (j + 1) * n]) for j in range(m)]
    d_found = any(d % n == 1 % n and d == cls[0] for d in window)
    return d_found and all(any(block == (k,) * n for k in window) for block in blocks)


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
    kappa = FreeWord.gen(x_letter(1)) ** m
    phi_image = system.rs_rewrite(psi_g ** m)
    if phi_image is None:
        raise StructuralError("psi(g)^m must lie in the covering subgroup")
    phi = GroupHom({kappa: phi_image})
    psi = GroupHom({x_letter(1): psi_g})
    alpha = GroupHom({kappa: k})
    check = verify_diagram(phi, psi, alpha, action, system)
    if not check:
        raise StructuralError(f"wedge witness failed verification: {check.failures}")
    return BUVerdict(False, Witness(phi, psi))
