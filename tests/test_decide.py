import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import braidbu.decide as dec
from braidbu.errors import InvalidParameterError, PreconditionError, StructuralError
from braidbu.fundgroup import GeneratorId, get_system
from braidbu.graphs import make_path, make_star, parse_graph_text
from braidbu.morse import build_field
from braidbu.oracle import chi_oracle
from braidbu.perms import Perm
from braidbu.words import FreeWord


def x(i):
    return dec.x_letter(i)


def theta_of(words, values, n):
    action = dec.ActionData(n, len(values), tuple(values))
    return [w.evaluate_additive(action.value) % n for w in words]


class TestAdaptBasis:
    def test_already_adapted(self):
        ys = dec.adapt_basis((1, 0, 0), 5)
        assert ys == [FreeWord.gen(x(1)), FreeWord.gen(x(2)), FreeWord.gen(x(3))]

    def test_z4_example(self):
        ys = dec.adapt_basis((2, 1), 4)
        assert ys[0] == FreeWord.gen(x(2))
        assert ys[1] == FreeWord.gen(x(1)) * FreeWord.gen(x(2)) ** -2
        assert theta_of(ys, (2, 1), 4) == [1, 0]

    def test_z6_coprime_parts(self):
        ys = dec.adapt_basis((2, 3), 6)
        values = theta_of(ys, (2, 3), 6)
        assert values[0] in (1, 5)
        assert values[1] == 0

    def test_rejects_non_surjective(self):
        with pytest.raises(InvalidParameterError):
            dec.adapt_basis((2, 4), 6)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_surjections(self, data):
        n = data.draw(st.integers(2, 12))
        r = data.draw(st.integers(1, 4))
        values = data.draw(
            st.tuples(*[st.integers(0, n - 1)] * r).filter(
                lambda vs: math.gcd(n, *vs) == 1
            )
        )
        ys = dec.adapt_basis(values, n)
        evaluated = theta_of(ys, values, n)
        assert math.gcd(evaluated[0], n) == 1
        assert all(v == 0 for v in evaluated[1:])


class TestKernelBasis:
    def test_rank2_order2(self):
        y1, y2 = FreeWord.gen("y1"), FreeWord.gen("y2")
        words = dec.kernel_basis([y1, y2], 2)
        assert words == [y1 * y1, y2, y1 * y2 * y1.inverse()]

    def test_sizes(self):
        for n, r in product((2, 3, 5), (1, 2, 3)):
            ys = [FreeWord.gen(x(i)) for i in range(1, r + 1)]
            assert len(dec.kernel_basis(ys, n)) == n * (r - 1) + 1

    def test_rank1(self):
        y1 = FreeWord.gen("y1")
        assert dec.kernel_basis([y1], 3) == [y1 ** 3]


class TestInterval:
    def test_holds(self):
        verdict = dec.decide_interval()
        assert verdict.holds and verdict.witness is None


# A tree with two essential vertices, 0 and 8.
TWO_ESSENTIAL = parse_graph_text(
    "V 12\n"
    + "".join(
        f"E e{i} {u} {v}\n"
        for i, (u, v) in enumerate(
            [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (8, 11)], 1
        )
    )
)

# Free-basis ranks (upstairs, quotient) of star(legs, length) at n particles;
# Tietze elimination over every square of the complex found the same ranks.
STAR_RANKS = {
    (3, 2, 2): (1, 1),
    (4, 3, 2): (5, 3),
    (5, 2, 2): (11, 6),
    (3, 2, 3): (13, 5),
    (4, 2, 3): (61, 21),
    (3, 3, 3): (13, 5),
    (5, 2, 3): (151, 51),
}


class TestTree:
    @pytest.mark.parametrize("legs, length, n", sorted(STAR_RANKS))
    def test_star_free_bases(self, legs, length, n):
        system = dec.tree_system(make_star(legs, length), n)
        ranks = []
        for cx, letters, critical0 in (
            (system.fm, system.letter_fm, math.factorial(n)),
            (system.quotient, system.letter_q, math.factorial(n - 1)),
        ):
            field = build_field(cx)
            assert len(field.critical(0)) == critical0
            assert not any(field.critical(d) for d in range(2, cx.top_dim + 1))
            assert len(letters) == 1 - chi_oracle(cx)
            ranks.append(len(letters))
        assert tuple(ranks) == STAR_RANKS[legs, length, n]

    def test_non_free_tree_refused_before_quotient(self, monkeypatch):
        quotients = []
        original = dec.build_quotient

        def recording(fm, n):
            quotients.append(n)
            return original(fm, n)

        monkeypatch.setattr(dec, "build_quotient", recording)
        with pytest.raises(PreconditionError, match="no free basis"):
            dec.TreeTargetSystem(TWO_ESSENTIAL, 4)
        assert quotients == []

    @pytest.mark.parametrize(
        "graph, n, theta",
        [(make_star(3, 3), 3, (1, 2)), (make_star(4, 3), 3, (2,)), (TWO_ESSENTIAL, 3, (1, 0, 2))],
        ids=["star(3,3)", "star(4,3)", "two-essential"],
    )
    def test_verified_witness(self, graph, n, theta):
        action = dec.ActionData(n, len(theta), theta)
        verdict = dec.decide_tree(graph, n, action)
        assert not verdict.holds
        system = dec.tree_system(graph, n)
        alpha = dec.GroupHom({kappa: 0 for kappa in verdict.witness.phi.images})
        assert dec.verify_diagram(verdict.witness.phi, verdict.witness.psi, alpha, action, system)

    def test_star_fails_with_verified_witness(self):
        action = dec.ActionData(2, 1, (1,))
        verdict = dec.decide_tree(make_star(3, 2), 2, action)
        assert not verdict.holds
        system = dec.tree_system(make_star(3, 2), 2)
        alpha = dec.GroupHom({kappa: 0 for kappa in verdict.witness.phi.images})
        assert dec.verify_diagram(verdict.witness.phi, verdict.witness.psi, alpha, action, system)

    def test_star_higher_rank_action(self):
        action = dec.ActionData(2, 2, (1, 1))
        verdict = dec.decide_tree(make_star(3, 2), 2, action)
        assert not verdict.holds and verdict.witness is not None

    def test_star_order_three(self):
        action = dec.ActionData(3, 1, (1,))
        verdict = dec.decide_tree(make_star(3, 2), 3, action)
        assert not verdict.holds and verdict.witness is not None

    @pytest.mark.parametrize("legs, length, n", [(3, 2, 3), (4, 3, 2)])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rewrite_inverts_iota(self, legs, length, n, data):
        system = dec.tree_system(make_star(legs, length), n)
        syllables = st.tuples(st.sampled_from(list(system.letter_fm.values())), st.sampled_from([1, -1]))
        w = FreeWord.of(data.draw(st.lists(syllables, max_size=8)))
        assert system.rewrite(system.iota_word(w)) == w

    def test_path_rejected(self):
        with pytest.raises(InvalidParameterError):
            dec.decide_tree(make_path(5), 2, dec.ActionData(2, 1, (1,)))

    def test_non_tree_rejected(self):
        from braidbu.graphs import make_lollipop

        with pytest.raises(InvalidParameterError):
            dec.decide_tree(make_lollipop(2), 2, dec.ActionData(2, 1, (1,)))


class TestCircle:
    def test_block_pattern_fails_bu(self):
        verdict = dec.decide_circle((3, 5, 5), 2, 1)
        assert not verdict.holds
        assert verdict.witness.psi.images[x(1)] == 3
        assert verdict.witness.psi.images[x(2)] == 10
        assert verdict.witness.phi.images["e1"] == 3
        assert verdict.witness.phi.images[dec.e_letter(2, 1)] == 5

    def test_even_leading_entry_holds(self):
        assert dec.decide_circle((2, 5, 5), 2, 1).holds

    def test_non_constant_block_holds(self):
        assert dec.decide_circle((4, 1, 2, 1), 3, 1).holds

    def test_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            dec.decide_circle((1, 2), 2, 1)

    def test_solver_matches_examples(self):
        assert dec.circle_solver((3, 5, 5), 2, 1)
        assert not dec.circle_solver((2, 5, 5), 2, 1)
        assert not dec.circle_solver((4, 1, 2, 1), 3, 1)

    def test_solver_agreement_window(self):
        for cls in product(range(-2, 3), repeat=3):
            assert dec.decide_circle(cls, 2, 1).holds == (not dec.circle_solver(cls, 2, 1))

    @pytest.mark.parametrize(
        "n, m, window", [(2, 2, range(-2, 3)), (2, 3, range(-1, 2)), (3, 2, range(-1, 2))]
    )
    def test_solver_agreement_multi_block(self, n, m, window):
        failing = 0
        for cls in product(window, repeat=n * m + 1):
            fails = not dec.decide_circle(cls, n, m).holds
            assert fails == dec.circle_solver(cls, n, m)
            failing += fails
        assert failing > 0

    def test_rank2_blocks(self):
        # n=2, m=2: tuples (p, p1, p1, p2, p2)
        assert not dec.decide_circle((1, 4, 4, -3, -3), 2, 2).holds
        assert dec.decide_circle((1, 4, 3, -3, -3), 2, 2).holds
        assert dec.circle_solver((1, 4, 4, -3, -3), 2, 2)
        assert not dec.circle_solver((1, 4, 3, -3, -3), 2, 2)


class TestWedge:
    def test_ell_for_k_zero(self):
        system = get_system(2)
        verdict = dec.decide_wedge(0, 2, dec.ActionData(2, 1, (1,)))
        z = FreeWord.gen(system.z)
        w1 = GeneratorId("fm", Perm.cycle(1, 2).inverse(), 2)
        expected = z * system.iota_word(FreeWord.gen(w1) ** -1)  # j = 1, so l = -1
        assert verdict.witness.psi.images[x(1)] == expected

    def test_k_equals_j_gives_bare_z(self):
        system = get_system(2)
        verdict = dec.decide_wedge(1, 2, dec.ActionData(2, 1, (1,)))
        assert verdict.witness.psi.images[x(1)] == FreeWord.gen(system.z)

    @pytest.mark.parametrize("m", [2, 3])
    def test_all_k_fail_bu(self, m):
        action = dec.ActionData(m, 1, (1,))
        for k in range(-5, 6):
            verdict = dec.decide_wedge(k, m, action)
            assert not verdict.holds and verdict.witness is not None

    @pytest.mark.parametrize("k, m, theta", [(2000, 4, 3), (-2000, 3, 2)])
    def test_large_k(self, k, m, theta):
        # decide_wedge runs verify_diagram on its own witness before returning.
        verdict = dec.decide_wedge(k, m, dec.ActionData(m, 1, (theta,)))
        assert not verdict.holds and verdict.witness is not None

    def test_other_deck_generator(self):
        verdict = dec.decide_wedge(2, 3, dec.ActionData(3, 1, (2,)))
        assert not verdict.holds

    def test_chi_nonzero_rejected(self):
        with pytest.raises(InvalidParameterError):
            dec.decide_wedge(1, 2, dec.ActionData(2, 2, (1, 0)))


class TestVerifyDiagram:
    def setup_method(self):
        self.m = 2
        self.system = get_system(2)
        self.action = dec.ActionData(2, 1, (1,))
        self.verdict = dec.decide_wedge(1, 2, self.action)
        self.kappa = next(iter(self.verdict.witness.phi.images))

    def test_witness_passes(self):
        alpha = dec.GroupHom({self.kappa: 1})
        result = dec.verify_diagram(
            self.verdict.witness.phi, self.verdict.witness.psi, alpha, self.action, self.system
        )
        assert result

    def test_perturbed_psi_fails(self):
        o2 = GeneratorId("quotient", Perm.identity(2), 2)
        psi_images = dict(self.verdict.witness.psi.images)
        psi_images[x(1)] = psi_images[x(1)] * FreeWord.gen(o2)
        bad = dec.GroupHom(psi_images)
        alpha = dec.GroupHom({self.kappa: 1})
        result = dec.verify_diagram(self.verdict.witness.phi, bad, alpha, self.action, self.system)
        assert not result
        assert any("iota face" in msg for msg in result.failures)

    def test_trivial_maps_fail_theta_face(self):
        phi = dec.GroupHom({self.kappa: FreeWord()})
        psi = dec.GroupHom({x(1): FreeWord()})
        alpha = dec.GroupHom({self.kappa: 0})
        result = dec.verify_diagram(phi, psi, alpha, self.action, self.system)
        assert not result
        assert any("theta face" in msg for msg in result.failures)

    def test_wrong_alpha_fails_p1_face(self):
        alpha = dec.GroupHom({self.kappa: 3})
        result = dec.verify_diagram(
            self.verdict.witness.phi, self.verdict.witness.psi, alpha, self.action, self.system
        )
        assert not result
        assert any("p1 face" in msg for msg in result.failures)


class TestActionData:
    def test_chi(self):
        assert dec.ActionData(3, 1, (1,)).chi == 0
        assert dec.ActionData(2, 3, (1, 0, 0)).chi == -4

    def test_surjectivity_required(self):
        with pytest.raises(InvalidParameterError):
            dec.ActionData(4, 2, (0, 2))

    def test_eliminate_to_free_basis(self):
        # <a, b, c | a b c^-1> collapses to two letters
        rel = FreeWord.of([("a", 1), ("b", 1), ("c", -1)])
        surviving, elim = dec.eliminate_to_free_basis(["a", "b", "c"], [rel])
        assert len(surviving) == 2
        assert len(elim) == 1
        letter, expr = next(iter(elim.items()))
        assert rel.substitute({letter: expr}).is_identity()

    def test_eliminate_reports_stuck_presentations(self):
        rel = FreeWord.of([("a", 1), ("a", 1)])
        with pytest.raises(StructuralError):
            dec.eliminate_to_free_basis(["a"], [rel])
